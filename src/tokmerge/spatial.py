"""Spatial stage: attention importance, top-k selection, DPC-KNN merging.

Non-redundant tokens are kept by per-frame attention importance; each
segment's redundant temporal tokens are cluster-merged with density-peak
clustering (k-nearest-neighbor density). Output tokens are reassembled in
ascending (frame, spatial index) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PROVENANCE_KINDS,
    CompressedVideo,
    CompressionConfig,
    ConfigError,
    DataError,
    ProvenanceArrays,
    _checked,
    _gram,
    _group_mean,
    _row_dots,
    _score_rank,
    _split,
)
from .temporal import TemporalMergeResult


# ---------------------------------------------------------------------------
# Importance
# ---------------------------------------------------------------------------

def _pooled_grid(grid, pooled_grid) -> tuple[int, int]:
    """``pooled_grid``, or ``grid`` when None; ConfigError unless it fits
    within ``grid`` with positive sides."""
    (h, w), (hp, wp) = grid, tuple(pooled_grid or grid)
    if not (1 <= hp <= h and 1 <= wp <= w):
        raise ConfigError(f"pooled_grid {hp}x{wp} must fit within the token grid {h}x{w}")
    return hp, wp


def _bin_edges(size: int, bins: int) -> np.ndarray:
    return np.array([(i * size) // bins for i in range(bins + 1)], dtype=np.int64)


@dataclass(frozen=True)
class ImportanceMap:
    """Per-frame token importance: ``scores`` is a read-only (B, N_v) float64
    array scoring each slot by its bin of ``pooled_grid``; made by
    importance_from_attention and importance_from_qk."""

    scores: np.ndarray
    pooled_grid: tuple[int, int]


def _importance(raw: np.ndarray, grid, pooled_grid, names) -> ImportanceMap:
    """ImportanceMap of (B, H*W) raw scores on an H x W grid, adaptive-average
    pooled to ``pooled_grid`` (default: the grid; see _pooled_grid) and
    spread back over the slots of each bin; DataError naming the dumps when
    float64 arithmetic on their finite values overflowed.

    Bin (i, j) averages rows [floor(i*H/Hp), floor((i+1)*H/Hp)) and the
    analogous column span; bins are non-empty and tile the grid. A bin's
    sum over every frame at once, divided by its cell count, has the bits of
    its mean; pooling to the grid itself turns a -0.0 score into +0.0.
    """
    if not np.isfinite(raw).all():
        raise DataError(f"{', '.join(names)}: raw importance overflows float64")
    h, w = grid
    if raw.shape[1] != h * w:
        raise DataError(f"raw importance shape {raw.shape} inconsistent with grid {h}x{w}")
    hp, wp = _pooled_grid(grid, pooled_grid)
    g = raw.reshape(-1, h, w)
    re, ce = _bin_edges(h, hp), _bin_edges(w, wp)
    sums = np.empty((g.shape[0], hp, wp), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            sums[:, i, j] = g[:, re[i] : re[i + 1], ce[j] : ce[j + 1]].sum(axis=(1, 2))
    pooled = sums / np.outer(np.diff(re), np.diff(ce))
    scores = np.repeat(np.repeat(pooled, np.diff(re), axis=1), np.diff(ce), axis=2)
    scores = scores.reshape(-1, h * w)
    scores.setflags(write=False)
    return ImportanceMap(scores, (hp, wp))


def importance_from_attention(attn: np.ndarray, grid, pooled_grid=None, *,
                              name="attention") -> ImportanceMap:
    """ImportanceMap from a (B, N_v, N_v) per-frame attention stack; a token's
    raw score is the float64 mean of its column (the attention it receives).
    A complex, string or other non-real dtype, a NaN or +-inf entry (with
    its offset) or a negative entry raises DataError naming ``name``; so
    does a float64 mean that overflows."""
    attn = np.asarray(attn)
    if attn.ndim != 3 or attn.shape[1] != attn.shape[2]:
        raise DataError(f"attention stack must be (B, N_v, N_v), got {attn.shape}")
    if _checked(attn, name).min(initial=0) < 0:
        raise DataError(f"{name}: attention scores must be non-negative")
    with np.errstate(over="ignore"):
        raw = attn.mean(axis=1, dtype=np.float64)
    return _importance(raw, grid, pooled_grid, (name,))


def importance_from_qk(q: np.ndarray, k: np.ndarray, grid, pooled_grid=None, *,
                       names=("query", "key")) -> ImportanceMap:
    """ImportanceMap from (B, N_v, d >= 1) query/key dumps: each frame's
    attention is the float64 row-softmax of q @ k.T / sqrt(d) (row maximum
    subtracted first), scored as in importance_from_attention; non-real
    dtypes, non-finite entries and float64 overflow are rejected as there,
    naming the dumps by ``names``."""
    q = np.asarray(q)
    k = np.asarray(k)
    if q.ndim != 3 or q.shape != k.shape:
        raise DataError(f"q/k dump shape mismatch: {q.shape} vs {k.shape}")
    if q.shape[2] < 1:
        raise DataError(f"{', '.join(names)}: shape {q.shape}, expected (B, N_v, d >= 1)")
    for arr, name in zip((q, k), names):
        _checked(arr, name)
    raw = np.empty(q.shape[:2])
    scale = math.sqrt(q.shape[2])

    def frames(lo, hi):
        for f in range(lo, hi):
            logits = _gram(np.asarray(q[f], dtype=np.float64), np.asarray(k[f], dtype=np.float64))
            logits /= scale
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            e /= e.sum(axis=1, keepdims=True)
            raw[f] = e.mean(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        _split(q.shape[0], frames, blas=True)
    return _importance(raw, grid, pooled_grid, names)


# ---------------------------------------------------------------------------
# Selection and clustering
# ---------------------------------------------------------------------------

def _cluster(tokens: np.ndarray, k: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """DPC-KNN over N >= 1 token rows, with 1 <= k < N unless N == 1 and
    c >= 1: the ascending int64 ``centers`` and each row's ``assignment``,
    its nearest center (ties: smaller index), a center its own.

    Local density rho_i = exp(-mean squared distance to the k nearest
    neighbors); delta_i is the distance to the closest token earlier in the
    density order (density descending, ties by ascending index), and the
    order-first token gets its farthest distance instead; the ``c``
    (clamped to N) largest gamma = rho * delta are the centers, ties
    toward smaller index. Every decision reads one N x N distance matrix,
    in which equal tokens are at distance 0.
    """
    n = tokens.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    tokens = np.asarray(tokens, dtype=np.float64)
    sq = _row_dots(tokens, tokens)
    # Equal tokens are at distance 0, however the Gram matrix rounds: a token
    # equal (bitwise after + 0.0) to an earlier one takes the first such
    # token's row and column. Equal rows have equal _row_dots bits, so only
    # rows of equal squared norm are compared, exactly.
    first = np.arange(n)
    by_norm = np.argsort(sq, kind="stable")
    for j in by_norm[1:][sq[by_norm[1:]] == sq[by_norm[:-1]]]:
        same = np.flatnonzero(sq[:j] == sq[j])
        first[j] = same[(tokens[same] == tokens[j]).all(axis=1)].min(initial=j)
    d2 = np.clip(sq[:, None] + sq - 2.0 * _gram(tokens, tokens), 0.0, None)
    if (first < np.arange(n)).any():
        d2 = d2[np.ix_(first, first)]
        d2[first[:, None] == first] = 0.0
    np.fill_diagonal(d2, np.inf)

    # ascending partial sort keeps the k-NN mean bit-reproducible
    knn = np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1)
    rho = np.exp(-knn.mean(axis=1))

    dist = np.sqrt(d2)  # diagonal stays +inf and never wins a min
    # density ties are ordered by index, mirroring the jitter conventional
    # DPC-KNN implementations add to keep the density ranking strict
    rank = _score_rank(rho)
    delta = np.where(rank[None, :] < rank[:, None], dist, np.inf).min(axis=1)
    top = int(np.argmin(rank))  # the order-first token, the one with no predecessor
    delta[top] = np.delete(dist[top], top).max()

    centers = np.flatnonzero(_score_rank(rho * delta) < c)
    assignment = centers[np.argmin(dist[:, centers], axis=1)]
    assignment[centers] = centers
    return centers, assignment


# ---------------------------------------------------------------------------
# Spatial merge
# ---------------------------------------------------------------------------

def spatial_merge(
    tmr: TemporalMergeResult,
    imp: ImportanceMap | None,
    cfg: CompressionConfig,
) -> CompressedVideo:
    """Reduce temporal-merge survivors to the configured global budget.

    With survivors <= ceil(target_ratio * B * N_v) the stage passes tokens
    through unchanged. Otherwise a uniform keep rate r = target/survivors
    applies: each frame keeps the ceil(r * count) of its non-redundant
    tokens with the largest importance scores (ties to the smaller spatial
    index), and each segment's redundant set is DPC-KNN cluster-merged to
    ceil(r * count) representatives placed at their center's spatial index,
    each the float64 mean of its cluster's rows summed in ascending order.
    Output is ordered by (frame, spatial index).

    A representative's members are its own slot in the segment's later
    frames, then, for each other slot of its cluster in ascending order,
    that slot in every frame of the segment.

    ``cfg.pooled_grid`` (the stream grid when None) must fit within the
    stream grid, else ConfigError, and an importance map, whenever one is
    given, must be pooled on it and hold finite (B, N_v) scores, else
    DataError.
    """
    stream = tmr.stream
    pooled = _pooled_grid(stream.grid, cfg.pooled_grid)
    b, n_v = stream.frames, stream.tokens_per_frame
    if imp is not None:
        if imp.pooled_grid != pooled:
            raise DataError(
                f"importance pooled to {imp.pooled_grid} but config asks for {pooled}")
        # finite, so that no survivor ranks below the merged slots' -inf
        if imp.scores.shape != (b, n_v) or not np.isfinite(imp.scores).all():
            raise DataError(
                f"importance scores must be finite and match stream {b}x{n_v}, "
                f"got shape {imp.scores.shape}")
    target = math.ceil(cfg.target_ratio * b * n_v)
    survivors = tmr.survivor_count
    pass_through = survivors <= target
    bounds = np.array(tmr.plan.boundaries)
    length = np.diff(bounds)
    # each frame's row of tmr.redundant
    red_frames = tmr.redundant[np.repeat(np.arange(length.size), length)]
    # merged row i of segment seg[i] at slot slot[i] joins the cluster of
    # merged row center[i]; a center is its own
    seg, slot = np.nonzero(tmr.redundant)
    rows = np.arange(seg.size)
    center = rows.copy()
    values = tmr.merged_values

    if pass_through:
        keep = ~red_frames
    else:
        if imp is None:
            raise DataError(
                "spatial compression requires attention importance "
                f"(survivors {survivors} > target {target})")
        rate = target / survivors
        keep = (_score_rank(np.where(red_frames, -np.inf, imp.scores))
                < np.ceil(rate * (n_v - red_frames.sum(axis=1)))[:, None])
        _, firsts, sizes = np.unique(seg, return_index=True, return_counts=True)

        def cluster(first, last):  # segments [first, last)
            for i in range(first, last):
                lo, n = int(firsts[i]), int(sizes[i])
                # the automatic k is max(2, floor(sqrt(n))); every k is capped at n - 1
                k = cfg.knn_k if cfg.knn_k is not None else max(2, math.isqrt(n))
                _, assignment = _cluster(values[lo : lo + n], min(k, n - 1), math.ceil(rate * n))
                center[lo : lo + n] = lo + assignment
        _split(firsts.size, cluster, blas=True)

    is_center = center == rows
    cluster_rows = np.bincount(center, minlength=seg.size)[is_center]
    if not pass_through:
        # each cluster's mean, its rows ascending; in merged-row order of the
        # centers, which is the representatives' (frame, slot) order
        values = _group_mean(values, np.argsort(center, kind="stable"), cluster_rows)

    # every member occurrence, cluster by cluster: the center's row, then the
    # other rows ascending, each in every frame of its segment, less the
    # center's first-frame occurrence, which is the representative
    order = np.lexsort((rows, ~is_center, center))
    skip = is_center[order]
    span = length[seg[order]] - skip
    # entry i of the flat member list, a row's occurrence, lies in frame first[row] + i
    first = bounds[seg[order]] - 1 + skip - (np.cumsum(span) - span)
    members = np.stack((np.repeat(first, span) + np.arange(span.sum()),
                        np.repeat(slot[order], span)), axis=1)

    rep = np.zeros((b, n_v), dtype=bool)
    rep[bounds[seg[is_center]] - 1, slot[is_center]] = True
    keep |= rep
    frames, slots = np.nonzero(keep)
    is_rep = rep[keep]
    # one gather from the stream at every output coordinate; representative
    # rows take their values
    tokens = stream.data.reshape(b * n_v, -1).take(frames * n_v + slots, axis=0)
    tokens[is_rep] = values
    counts = np.zeros(frames.size, dtype=np.int64)
    counts[is_rep] = cluster_rows * length[seg[is_center]] - 1
    kind = PROVENANCE_KINDS.index("temporal_rep" if pass_through else "cluster_rep")
    return CompressedVideo(tokens, ProvenanceArrays(
        frames, slots, is_rep * kind, np.concatenate(([0], np.cumsum(counts))), members))
