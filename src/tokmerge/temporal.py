"""Temporal stage: redundancy masks, optimal segmentation, merge-to-first.

A token slot is temporally redundant between consecutive frames when the
cosine similarity of its embeddings exceeds ``tau``. A segment ``[t_s, t_e)``
(1-based, half-open) prunes ``N(t_s, t_e) * (t_e - t_s - 1)`` token
occurrences, where ``N`` counts slots redundant across every consecutive
pair inside the segment; the segmentation maximizing the total prunable
count is found by dynamic programming over all ``O(B^2)`` spans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TEMPORAL_MERGE_MODES, DataError, VideoTokenStream, _split

_WORD_BITS = 64


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Pack a (R, N) bool matrix into (R, ceil(N/64)) uint64 bitset rows."""
    rows = np.ascontiguousarray(rows, dtype=bool)
    r, n = rows.shape
    n_words = max((n + _WORD_BITS - 1) // _WORD_BITS, 1)
    packed = np.packbits(rows, axis=1, bitorder="little")
    buf = np.zeros((r, n_words * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return np.ascontiguousarray(buf.view(np.uint64))


@dataclass(frozen=True)
class RedundancyMask:
    """Per frame-pair redundancy bitsets.

    Row ``m`` (0-based) covers the pair (frame m+1, frame m+2) in 1-based
    numbering; bit ``k`` is set when slot ``k`` is redundant across the pair.
    """

    words: np.ndarray  # (B-1, W) uint64
    n_tokens: int
    n_frames: int

    def __post_init__(self):
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[0] != self.n_frames - 1:
            raise DataError(
                f"mask shape {words.shape} inconsistent with {self.n_frames} frames")
        words.setflags(write=False)
        object.__setattr__(self, "words", words)

    @classmethod
    def from_bool(cls, rows: np.ndarray, n_tokens: int | None = None) -> "RedundancyMask":
        rows = np.atleast_2d(np.asarray(rows, dtype=bool))
        if n_tokens is None:
            n_tokens = rows.shape[1]
        return cls(_pack_rows(rows), n_tokens=int(n_tokens), n_frames=rows.shape[0] + 1)

    def to_bool(self) -> np.ndarray:
        bits = np.unpackbits(self.words.view(np.uint8), axis=1, bitorder="little")
        return bits[:, : self.n_tokens].astype(bool)


# Squared norms below this floor are left to the exact recheck, so that
# float32 underflow stays negligible in the error band.
_NORM_FLOOR = 2.0**-60
# Pairs rechecked in float64 per chunk, bounding the gathered rows.
_RECHECK_CHUNK = 4096


def _exact_similarity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Float64 cosine of row pairs: zero norm gives 0, clipped to [-1, 1]."""
    dots = np.einsum("nd,nd->n", a, b, dtype=np.float64)
    denom = (np.sqrt(np.einsum("nd,nd->n", a, a, dtype=np.float64))
             * np.sqrt(np.einsum("nd,nd->n", b, b, dtype=np.float64)))
    sim = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    return np.clip(sim, -1.0, 1.0)


def pairwise_redundancy(stream: VideoTokenStream, tau: float) -> RedundancyMask:
    """Mask of slots whose consecutive-frame cosine similarity exceeds tau.

    The similarity is defined in float64 (float32 tokens, float64 dot
    products and norms); zero-norm vectors compare as similarity 0, and
    similarities are clipped to [-1, 1] so tau = 1 never marks anything.
    B = 1 yields an empty mask.

    The mask is decided from float32 dot products and ``stream.sq_norms``;
    a pair whose approximate similarity lies within a proven error band of
    tau is recomputed with the float64 definition, so the mask is the one
    the definition gives.
    """
    x = stream.data
    b, n_v, d = x.shape
    dots = np.empty((b - 1, n_v), dtype=np.float32)
    _split(b - 1, lambda lo, hi: np.einsum("bkd,bkd->bk", x[lo:hi], x[lo + 1 : hi + 1],
                                           out=dots[lo:hi]))
    na, nb = stream.sq_norms[:-1], stream.sq_norms[1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        prod = na.astype(np.float64) * nb
        approx = dots / np.sqrt(prod)
    # Error band. Let u = 2**-24 and g = d*u / (1 - d*u). Whatever its
    # summation order, a float32 dot product of length d errs by at most
    # g * sum|a_i*b_i| <= g * |a|*|b|, and each float32 squared norm errs by
    # at most g relatively, so |approx - sim| <= 2g / (1 - g) + 2**-50 for
    # the exact cosine sim. The float64 definition errs from sim by at most
    # about 2*d*2**-53. For d*u <= 1/8 both together stay below 4*d*u; the
    # floor on the squared norms keeps float32 underflow (d * 2**-150
    # absolute) negligible, and 1e-12 is a further margin. Outside the band
    # approx and the definition lie on the same side of tau, also after
    # clipping, since |sim| <= 1.
    band = 4 * d * 2.0**-24 + 1e-12 if d <= 2**21 else np.inf
    sure = ((np.minimum(na, nb) >= _NORM_FLOOR) & np.isfinite(prod)
            & np.isfinite(approx) & (np.abs(approx - tau) > band))
    mask = approx > tau
    frame, slot = np.nonzero(~sure)
    for lo in range(0, frame.size, _RECHECK_CHUNK):
        f, k = frame[lo : lo + _RECHECK_CHUNK], slot[lo : lo + _RECHECK_CHUNK]
        mask[f, k] = _exact_similarity(x[f, k], x[f + 1, k]) > tau
    return RedundancyMask.from_bool(mask, n_v)


def _check_span(mask: RedundancyMask, t_s: int, t_e: int) -> None:
    if not 1 <= t_s < t_e <= mask.n_frames + 1:
        raise DataError(
            f"span [{t_s}, {t_e}) out of range for {mask.n_frames} frames")


def _persistent_words(mask: RedundancyMask, t_s: int, t_e: int) -> np.ndarray:
    """AND of mask rows covering pairs (t_s, t_s+1) .. (t_e-2, t_e-1).

    Callers guarantee t_e - t_s >= 2 (the reduction is never empty).
    """
    return np.bitwise_and.reduce(mask.words[t_s - 1 : t_e - 2], axis=0)


def segment_gain(mask: RedundancyMask, t_s: int, t_e: int) -> int:
    """Prunable-token count of span [t_s, t_e): N(t_s, t_e) * (t_e - t_s - 1)."""
    _check_span(mask, t_s, t_e)
    if t_e - t_s == 1:
        return 0
    n = int(np.bitwise_count(_persistent_words(mask, t_s, t_e)).sum())
    return n * (t_e - t_s - 1)


@dataclass(frozen=True)
class SegmentPlan:
    """Optimal segmentation with its DP tables.

    ``boundaries`` is the ascending 1-based list t_1=1 < ... < t_{K+1}=B+1;
    ``dp``/``prev`` are indexed by frame number (entries 1..B+1 are
    meaningful). ``gains[i]`` is the prunable count of segment
    [boundaries[i], boundaries[i+1]).
    """

    boundaries: tuple[int, ...]
    dp: np.ndarray
    prev: np.ndarray
    gains: tuple[int, ...]
    total_gain: int

    def __post_init__(self):
        b_plus_1 = self.boundaries[-1]
        if self.boundaries[0] != 1 or list(self.boundaries) != sorted(set(self.boundaries)):
            raise DataError(f"invalid boundaries {self.boundaries}")
        if sum(self.gains) != self.total_gain or self.total_gain != int(self.dp[b_plus_1]):
            raise DataError("segment gains inconsistent with dp table")
        for arr in (self.dp, self.prev):
            arr.setflags(write=False)

    @property
    def n_segments(self) -> int:
        return len(self.boundaries) - 1

    def segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.boundaries[:-1], self.boundaries[1:]))


def optimal_segmentation(mask: RedundancyMask) -> SegmentPlan:
    """Globally optimal segmentation by DP; argmax ties go to the smallest start.

    ``dp[i]`` is the maximum prunable count over frames [1, i) and
    ``prev[i]`` the start of the final segment of that optimum.
    """
    b = mask.n_frames
    words = mask.words  # row m covers the frame pair (m+1, m+2), 1-based
    dp = np.zeros(b + 2, dtype=np.int64)
    prev = np.zeros(b + 2, dtype=np.int64)
    for i in range(2, b + 2):
        best = int(dp[i - 1])  # j = i-1: single-frame segment, gain 0
        best_j = i - 1
        if i >= 3:
            # AND-suffixes of rows 0..i-3: acc[t] = AND of rows t..i-3,
            # so N(j, i) = popcount(acc[j-1]) for j = 1..i-2.
            rows = words[: i - 2]
            acc = np.bitwise_and.accumulate(rows[::-1], axis=0)[::-1]
            counts = np.bitwise_count(acc).sum(axis=1).astype(np.int64)
            js = np.arange(1, i - 1, dtype=np.int64)
            cand = dp[1 : i - 1] + counts * (i - js - 1)
            top = int(cand.max())
            if top >= best:
                best = top
                best_j = int(js[int(np.argmax(cand))])
        dp[i] = best
        prev[i] = best_j
    bounds = [b + 1]
    while bounds[-1] > 1:
        bounds.append(int(prev[bounds[-1]]))
    bounds.reverse()
    gains = tuple(segment_gain(mask, s, e) for s, e in zip(bounds[:-1], bounds[1:]))
    return SegmentPlan(
        boundaries=tuple(bounds),
        dp=dp,
        prev=prev,
        gains=gains,
        total_gain=int(dp[b + 1]),
    )


@dataclass(frozen=True)
class SegmentMerge:
    """Merged view of one segment [start, end), 1-based half-open.

    ``redundant_idx`` are the slots persistent across the whole segment
    (empty for single-frame segments); ``merged_values`` are their
    first-frame representatives after merging; ``survivor_idx`` is the
    complement, which survives untouched in every frame of the segment.
    """

    start: int
    end: int
    redundant_idx: np.ndarray
    merged_values: np.ndarray
    survivor_idx: np.ndarray

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class TemporalMergeResult:
    stream: VideoTokenStream
    segments: tuple[SegmentMerge, ...]
    original_count: int
    pruned_count: int

    @property
    def survivor_count(self) -> int:
        return self.original_count - self.pruned_count


def apply_temporal_merge(
    stream: VideoTokenStream,
    plan: SegmentPlan,
    mask: RedundancyMask,
    mode: str = "mean",
) -> TemporalMergeResult:
    """Merge each segment's persistent slots into their first occurrence.

    mode="mean" replaces the first-frame value with the arithmetic mean of
    all occurrences in the segment: a float64 sum in frame order starting
    from +0.0 (so a slot whose occurrences are all -0.0 merges to +0.0),
    divided by the segment length and narrowed to float32. mode="first"
    keeps it verbatim. The number of removed occurrences equals
    ``plan.total_gain``.
    """
    if mode not in TEMPORAL_MERGE_MODES:
        raise DataError(f"unknown merge mode {mode!r}")
    b, n_v = stream.frames, stream.tokens_per_frame
    if mask.n_frames != b or mask.n_tokens != n_v:
        raise DataError(
            f"mask for {mask.n_frames}x{mask.n_tokens} does not match "
            f"stream {b}x{n_v}")
    if plan.boundaries[-1] != b + 1:
        raise DataError(
            f"plan covers {plan.boundaries[-1] - 1} frames, stream has {b}")

    data = stream.data
    segments, means = [], []
    pruned = 0
    all_slots = np.arange(n_v)
    for s, e in plan.segments():
        if e - s == 1:
            red = np.empty(0, dtype=np.int64)
        else:
            persistent = _persistent_words(mask, s, e)
            bits = np.unpackbits(persistent.view(np.uint8), bitorder="little")
            red = np.flatnonzero(bits[:n_v]).astype(np.int64)
        surv = np.setdiff1d(all_slots, red, assume_unique=True)
        if mode == "mean" and red.size:
            merged = np.empty((red.size, stream.dim), dtype=np.float32)
            means.append((s, e, red, merged))
        else:
            merged = data[s - 1, red, :]
        pruned += red.size * (e - s - 1)
        segments.append(SegmentMerge(start=s, end=e, redundant_idx=red,
                                     merged_values=merged, survivor_idx=surv))

    def mean_columns(lo, hi):
        # each segment's slot span from red[0] to red[-1], summed in float64
        # frame by frame from +0.0 (numpy's reduction does so unless a frame
        # holds one value, which it sums pairwise; accumulate is sequential)
        for s, e, red, out in means:
            block = data[s - 1 : e - 1, red[0] : red[-1] + 1, lo:hi]
            acc = (block.sum(axis=0, dtype=np.float64) if block[0].size > 1
                   else 0.0 + np.add.accumulate(block, dtype=np.float64)[-1])
            np.divide(acc[red - red[0]], e - s, out=out[:, lo:hi])
    if means:
        _split(stream.dim, mean_columns)
    for seg in segments:
        for arr in (seg.redundant_idx, seg.merged_values, seg.survivor_idx):
            arr.setflags(write=False)

    if pruned != plan.total_gain:
        raise DataError(
            f"pruned {pruned} occurrences but plan promised {plan.total_gain}; "
            "plan/mask mismatch")
    return TemporalMergeResult(
        stream=stream,
        segments=tuple(segments),
        original_count=b * n_v,
        pruned_count=pruned,
    )
