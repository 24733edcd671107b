"""Temporal stage: redundancy masks, optimal segmentation, merge-to-first.

A token slot is temporally redundant between consecutive frames when the
cosine similarity of its embeddings exceeds ``tau``. A segment ``[t_s, t_e)``
(1-based, half-open) prunes ``N(t_s, t_e) * (t_e - t_s - 1)`` token
occurrences, where ``N`` counts slots redundant across every consecutive
pair inside the segment. The segmentation maximizing the total prunable
count is found by dynamic programming. The DP keeps, per slot, the length of
the run of redundant pairs ending at the current frame, so one count of run
lengths gives ``N`` for every candidate start: O(B * (B + N_v)) in all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import TEMPORAL_MERGE_MODES, DataError, VideoTokenStream, _cosine, _gather, _row_dots, _sweep


# Squared norms below this floor are left to the exact recheck, so that
# float32 underflow stays negligible in the error band.
_NORM_FLOOR = 2.0**-60
# Pairs rechecked in float64 per chunk, bounding the gathered rows.
_RECHECK_CHUNK = 4096


def pairwise_redundancy(stream: VideoTokenStream, tau: float) -> np.ndarray:
    """Mask of slots whose consecutive-frame cosine similarity exceeds tau.

    A read-only (B-1, N_v) bool array: row ``m`` (0-based) covers the pair
    (frame m+1, frame m+2) in 1-based numbering, and column ``k`` is set
    when slot ``k`` is redundant across that pair.

    The similarity is defined in float64 (float32 tokens, float64 dot
    products and norms); zero-norm vectors compare as similarity 0, and
    similarities are clipped to [-1, 1] so tau = 1 never marks anything.
    B = 1 yields a (0, N_v) mask.

    The mask is decided from float32 dot products and ``stream.sq_norms``;
    a pair whose approximate similarity lies within a proven error band of
    tau is recomputed with the float64 definition, so the mask is the one
    the definition gives.
    """
    b, n_v, d = stream.frames, stream.tokens_per_frame, stream.dim
    dots = np.empty((b - 1, n_v), dtype=np.float32)

    def pairs(x, lo, hi):  # pairs [lo, hi) read frames [lo, hi + 1)
        _row_dots(x[lo:hi], x[lo + 1 : hi + 1], out=dots[lo:hi])
        return lo, hi  # frame hi starts the next chunk
    _sweep(stream, b - 1, pairs)
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
        sim = _cosine(_gather(stream, f, k), _gather(stream, f + 1, k))
        mask[f, k] = np.clip(sim, -1.0, 1.0) > tau
    mask.setflags(write=False)
    return mask


def _mask_rows(mask: np.ndarray) -> np.ndarray:
    rows = np.asarray(mask, dtype=bool)
    if rows.ndim != 2:
        raise DataError(f"mask must be a 2-D (B-1, N_v) array, got shape {rows.shape}")
    return rows


@dataclass(frozen=True)
class SegmentPlan:
    """Optimal segmentation as its DP tables.

    ``dp``/``prev`` are indexed by frame number (entries 1..B+1 are
    meaningful): ``dp[i]`` is the maximum prunable count over frames [1, i)
    and ``prev[i]`` the start of the final segment of that optimum.
    """

    dp: np.ndarray
    prev: np.ndarray

    def __post_init__(self):
        starts = self.prev[2:]
        if (self.prev.ndim != 1 or self.dp.shape != self.prev.shape or starts.size == 0
                or np.any((starts < 1) | (starts >= np.arange(2, self.prev.size)))):
            raise DataError("prev must point each frame 2..B+1 to an earlier start")
        for arr in (self.dp, self.prev):
            arr.setflags(write=False)

    @cached_property
    def boundaries(self) -> tuple[int, ...]:
        """Ascending 1-based t_1=1 < ... < t_{K+1}=B+1, walked back through prev."""
        bounds = [self.prev.size - 1]
        while bounds[-1] > 1:
            bounds.append(int(self.prev[bounds[-1]]))
        return tuple(reversed(bounds))

    @property
    def gains(self) -> tuple[int, ...]:
        """Prunable count of each segment: dp[end] - dp[start] on the optimal path."""
        return tuple(int(self.dp[e] - self.dp[s]) for s, e in self.segments())

    @property
    def total_gain(self) -> int:
        return int(self.dp[-1])

    @property
    def n_segments(self) -> int:
        return len(self.boundaries) - 1

    def segments(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.boundaries[:-1], self.boundaries[1:]))


def optimal_segmentation(mask: np.ndarray) -> SegmentPlan:
    """Globally optimal segmentation by DP; argmax ties go to the smallest start."""
    rows = _mask_rows(mask)  # row m covers the frame pair (m+1, m+2), 1-based
    b = rows.shape[0] + 1
    dp = np.zeros(b + 2, dtype=np.int64)
    prev = np.zeros(b + 2, dtype=np.int64)
    run = np.zeros(rows.shape[1], dtype=np.int64)
    for i in range(2, b + 2):
        # Candidates j = 1..i-1 for the start of the final segment [j, i).
        # run[k] counts the consecutive rows up to row i-3 set in slot k. A
        # start j <= i-2 spans the L = i-1-j rows j-1..i-3, so N(j, i) is
        # at_least[L], the number of slots with run >= L; j = i-1 gains 0.
        if i >= 3:
            run = (run + 1) * rows[i - 3]
        at_least = np.bincount(run, minlength=i - 1)[::-1].cumsum()[::-1]
        cand = dp[1:i].copy()
        cand[:-1] += at_least[i - 2 : 0 : -1] * np.arange(i - 2, 0, -1)
        j = int(np.argmax(cand))
        dp[i] = cand[j]
        prev[i] = j + 1
    return SegmentPlan(dp=dp, prev=prev)


@dataclass(frozen=True)
class TemporalMergeResult:
    """A temporal merge as arrays, one row of ``redundant`` per segment of
    ``plan.segments()``.

    ``redundant`` is a read-only (K, N_v) bool array set at the slots
    persistent across each segment (never in a single-frame segment);
    ``merged_values`` is a read-only (R, d) float32 array of their
    first-frame representatives after merging, in ``np.nonzero(redundant)``
    order. Every other slot survives untouched in every frame of its segment.
    Construction raises DataError unless the arrays fit the plan and stream.
    """

    stream: VideoTokenStream
    plan: SegmentPlan
    redundant: np.ndarray
    merged_values: np.ndarray

    def __post_init__(self):
        b, n_v = self.stream.frames, self.stream.tokens_per_frame
        if self.plan.boundaries[-1] != b + 1:
            raise DataError(f"plan covers {self.plan.boundaries[-1] - 1} frames, stream has {b}")
        red, k = self.redundant, self.plan.n_segments
        if (not isinstance(red, np.ndarray) or red.dtype != bool or red.shape != (k, n_v)
                or red[np.diff(self.plan.boundaries) == 1].any()):
            raise DataError(f"redundant must be a ({k}, {n_v}) bool array, "
                            "unset for single-frame segments")
        values, shape = self.merged_values, (int(red.sum()), self.stream.dim)
        if (not isinstance(values, np.ndarray) or values.dtype != np.float32
                or values.shape != shape):
            raise DataError(f"merged_values must be a {shape} float32 array")
        for arr in (red, values):
            arr.setflags(write=False)

    @property
    def original_count(self) -> int:
        return self.stream.frames * self.stream.tokens_per_frame

    @property
    def pruned_count(self) -> int:
        return self.plan.total_gain

    @property
    def survivor_count(self) -> int:
        return self.original_count - self.pruned_count


def apply_temporal_merge(
    stream: VideoTokenStream,
    plan: SegmentPlan,
    mask: np.ndarray,
    mode: str = "mean",
) -> TemporalMergeResult:
    """Merge each segment's persistent slots into their first occurrence.

    mode="mean" replaces the first-frame value with the arithmetic mean of
    all occurrences in the segment: a float64 sum in frame order starting
    from +0.0 (so a slot whose occurrences are all -0.0 merges to +0.0),
    divided by the segment length and narrowed to float32. mode="first"
    keeps it verbatim. The number of removed occurrences must equal
    ``plan.total_gain``.
    """
    if mode not in TEMPORAL_MERGE_MODES:
        raise DataError(f"unknown merge mode {mode!r}")
    b, n_v = stream.frames, stream.tokens_per_frame
    rows = _mask_rows(mask)
    if rows.shape != (b - 1, n_v):
        raise DataError(
            f"mask of shape {rows.shape} does not match stream {b}x{n_v}; "
            f"expected ({b - 1}, {n_v})")
    bounds = np.array(plan.boundaries)
    if bounds[-1] != b + 1:
        raise DataError(f"plan covers {bounds[-1] - 1} frames, stream has {b}")

    redundant = np.zeros((bounds.size - 1, n_v), dtype=bool)
    for k, (s, e) in enumerate(plan.segments()):
        if e - s > 1:
            redundant[k] = rows[s - 1 : e - 2].all(axis=0)
    pruned = int(((np.diff(bounds) - 1) * redundant.sum(axis=1)).sum())
    if pruned != plan.total_gain:
        raise DataError(
            f"pruned {pruned} occurrences but plan promised {plan.total_gain}; "
            "plan/mask mismatch")

    seg, slot = np.nonzero(redundant)
    if mode == "first":
        merged = _gather(stream, bounds[seg] - 1, slot)
    else:
        merged = np.empty((seg.size, stream.dim), dtype=np.float32)
        # core._group_mean gives the same bits, but 1.3-1.8x slower (ROADMAP)

        def mean_rows(x, lo, hi):
            # merged rows [lo, hi), all of one segment: the slot span of those
            # rows, summed in float64 frame by frame from +0.0 (numpy's
            # reduction does so unless a frame holds one value, which it sums
            # pairwise; accumulate is sequential)
            k = seg[lo]
            s, e, red = bounds[k], bounds[k + 1], slot[lo:hi]
            block = x[s - 1 : e - 1, red[0] : red[-1] + 1]
            acc = (block.sum(axis=0, dtype=np.float64) if block[0].size > 1
                   else 0.0 + np.add.accumulate(block, dtype=np.float64)[-1])
            np.divide(acc[red - red[0]], e - s, out=merged[lo:hi])
            return s - 1, e - 1
        # a chunk ends at every segment's first merged row
        _sweep(stream, seg.size, mean_rows, np.searchsorted(seg, np.arange(bounds.size)))
    return TemporalMergeResult(stream, plan, redundant, merged)
