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
    DataError,
    ProvenanceArrays,
    _check_dump,
    _group_mean,
)
from .temporal import TemporalMergeResult


# ---------------------------------------------------------------------------
# Importance
# ---------------------------------------------------------------------------

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
    pooled to ``pooled_grid`` (default: the grid) and spread back over the
    slots of each bin; DataError naming the dumps when float64 arithmetic
    on their finite values overflowed.

    Bin (i, j) averages rows [floor(i*H/Hp), floor((i+1)*H/Hp)) and the
    analogous column span; bins are non-empty and tile the grid. A bin's
    sum over every frame at once, divided by its cell count, has the bits of
    its mean; pooling to the grid itself turns a -0.0 score into +0.0.
    """
    if not np.isfinite(raw).all():
        raise DataError(f"{', '.join(names)}: raw importance overflows float64")
    (h, w), (hp, wp) = grid, tuple(pooled_grid or grid)
    if raw.shape[1] != h * w:
        raise DataError(f"raw importance shape {raw.shape} inconsistent with grid {h}x{w}")
    if not (1 <= hp <= h and 1 <= wp <= w):
        raise DataError(f"pooled grid {hp}x{wp} invalid for raw grid {h}x{w}")
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
    A complex, string or other non-real dtype, or a NaN or +-inf entry
    (with its offset), raises DataError naming ``name``; so does a float64
    mean that overflows."""
    attn = np.asarray(attn)
    if attn.ndim != 3 or attn.shape[1] != attn.shape[2]:
        raise DataError(f"attention stack must be (B, N_v, N_v), got {attn.shape}")
    _check_dump(attn, name)
    with np.errstate(over="ignore"):
        raw = attn.mean(axis=1, dtype=np.float64)
    return _importance(raw, grid, pooled_grid, (name,))


def importance_from_qk(q: np.ndarray, k: np.ndarray, grid, pooled_grid=None, *,
                       names=("query", "key")) -> ImportanceMap:
    """ImportanceMap from (B, N_v, d) query/key dumps: each frame's attention is
    the float64 row-softmax of q @ k.T / sqrt(d) (row maximum subtracted
    first), scored as in importance_from_attention; non-real dtypes,
    non-finite entries and float64 overflow are rejected as there, naming
    the dumps by ``names``."""
    q = np.asarray(q)
    k = np.asarray(k)
    if q.ndim != 3 or q.shape != k.shape:
        raise DataError(f"q/k dump shape mismatch: {q.shape} vs {k.shape}")
    for arr, name in zip((q, k), names):
        _check_dump(arr, name)
    raw = np.empty(q.shape[:2])
    scale = math.sqrt(q.shape[2])
    with np.errstate(over="ignore", invalid="ignore"):
        for f in range(q.shape[0]):
            logits = np.asarray(q[f], dtype=np.float64) @ np.asarray(k[f], dtype=np.float64).T
            logits /= scale
            logits -= logits.max(axis=1, keepdims=True)
            e = np.exp(logits)
            e /= e.sum(axis=1, keepdims=True)
            raw[f] = e.mean(axis=0)
    return _importance(raw, grid, pooled_grid, names)


# ---------------------------------------------------------------------------
# Selection and clustering
# ---------------------------------------------------------------------------

def attention_select(scores: np.ndarray, keep) -> np.ndarray:
    """Bool mask of the ``keep`` largest scores along the last axis (ties:
    smaller index); ``keep`` is one count, or one count per row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    keep = np.asarray(keep, dtype=np.int64)
    n = scores.shape[-1]
    if (keep > n).any():
        raise DataError(f"cannot keep {keep.max()} of {n} tokens")
    if (keep < 0).any():
        raise DataError(f"keep must be non-negative, got {keep.min()}")
    order = np.argsort(-scores, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(n), axis=-1)
    return rank < keep[..., None]


@dataclass(frozen=True)
class ClusterState:
    """Density-peak clustering state over N tokens.

    ``assignment[i]`` is the token index of the center token ``i`` belongs
    to; centers map to themselves. ``centers`` is ascending.
    """

    rho: np.ndarray
    delta: np.ndarray
    gamma: np.ndarray
    k_used: int
    centers: np.ndarray
    assignment: np.ndarray


def dpc_knn_cluster(tokens: np.ndarray, k: int, c: int) -> ClusterState:
    """Pick ``c`` density-peak centers and assign every token to the nearest.

    Local density rho_i = exp(-mean squared distance to the k nearest
    neighbors); delta_i is the distance to the closest token earlier in the
    density order (density descending, ties by ascending index), and the
    order-first token gets its farthest distance instead; gamma =
    rho * delta ranks centers (ties toward smaller index, ``c`` clamped to
    N). Requires 1 <= k < N unless N == 1.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[0] < 1:
        raise DataError(f"token matrix must be non-empty 2-D, got {tokens.shape}")
    n = tokens.shape[0]
    if c < 1:
        raise DataError(f"center count must be >= 1, got {c}")
    if n == 1:
        return ClusterState(rho=np.ones(1), delta=np.zeros(1), gamma=np.zeros(1),
                            k_used=0, centers=np.zeros(1, dtype=np.int64),
                            assignment=np.zeros(1, dtype=np.int64))
    if not 1 <= k < n:
        raise DataError(f"neighbor count k={k} invalid for {n} tokens")

    d2 = dist2_to(tokens, tokens)
    np.fill_diagonal(d2, np.inf)

    # ascending partial sort keeps the k-NN mean bit-reproducible
    knn = np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1)
    rho = np.exp(-knn.mean(axis=1))

    dist = np.sqrt(d2)  # diagonal stays +inf and never wins a min
    # density ties are ordered by index, mirroring the jitter conventional
    # DPC-KNN implementations add to keep the density ranking strict
    idx = np.arange(n)
    precedes = (rho[None, :] > rho[:, None]) | (
        (rho[None, :] == rho[:, None]) & (idx[None, :] < idx[:, None]))
    masked = np.where(precedes, dist, np.inf)
    delta = masked.min(axis=1)
    top = ~np.isfinite(delta)  # exactly one order-first token
    finite = np.where(np.isfinite(dist), dist, -np.inf)
    delta[top] = finite[top].max(axis=1)

    gamma = rho * delta
    c_eff = min(c, n)
    centers = np.sort(np.argsort(-gamma, kind="stable")[:c_eff])

    assignment = centers[np.argmin(dist2_to(tokens, tokens[centers]), axis=1)]
    assignment[centers] = centers
    return ClusterState(rho=rho, delta=delta, gamma=gamma, k_used=k,
                        centers=centers.astype(np.int64),
                        assignment=assignment.astype(np.int64))


def dist2_to(points: np.ndarray, refs: np.ndarray) -> np.ndarray:
    """(N, M) squared Euclidean distances from each point to each reference."""
    sp = np.einsum("nd,nd->n", points, points)
    sr = np.einsum("md,md->m", refs, refs)
    d2 = sp[:, None] + sr[None, :] - 2.0 * (points @ refs.T)
    return np.clip(d2, 0.0, None)


def merge_clusters(tokens: np.ndarray, state: ClusterState) -> tuple[np.ndarray, np.ndarray]:
    """Mean of each cluster (center + assigned members), keeping input dtype.

    A cluster's mean is a float64 sum from +0.0 of its members' rows in
    ascending index order, divided by the cluster size and narrowed to the
    token dtype; a one-token cluster is its row (a -0.0 entry becomes +0.0).
    Raises DataError unless every token is assigned to a center and every
    center to itself.
    """
    tokens = np.asarray(tokens)
    a, c = state.assignment, state.centers
    if not (np.isin(a, c).all() and (a[c] == c).all()):
        raise DataError("cluster assignment must map each token to a center, a center to itself")
    members = np.argsort(state.assignment, kind="stable")
    sizes = np.bincount(state.assignment, minlength=tokens.shape[0])[state.centers]
    return _group_mean(tokens, members, sizes), state.centers


def auto_knn_k(n: int) -> int:
    """Default neighbor count: max(2, floor(sqrt(N))), capped at N - 1."""
    return min(max(2, int(math.isqrt(n))), n - 1)


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
    applies: each frame's non-redundant tokens go through attention_select
    (ceil(r * count) kept) and each segment's redundant set is
    cluster-merged to ceil(r * count) representatives placed at their
    center's spatial index. Output is ordered by (frame, spatial index).

    A representative's members are its own slot in the segment's later
    frames, then, for each other slot of its cluster in ascending order,
    that slot in every frame of the segment.
    """
    stream = tmr.stream
    b, n_v = stream.frames, stream.tokens_per_frame
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
        # finite, so that no survivor ranks below the merged slots' -inf
        if imp.scores.shape != (b, n_v) or not np.isfinite(imp.scores).all():
            raise DataError(
                f"importance scores must be finite and match stream {b}x{n_v}, "
                f"got shape {imp.scores.shape}")
        if cfg.pooled_grid is not None and imp.pooled_grid != cfg.pooled_grid:
            raise DataError(
                f"importance pooled to {imp.pooled_grid} but config asks for "
                f"{cfg.pooled_grid}")
        rate = target / survivors
        keep = attention_select(np.where(red_frames, -np.inf, imp.scores),
                                np.ceil(rate * (n_v - red_frames.sum(axis=1))))
        reps = [values[:0]]
        _, firsts, sizes = np.unique(seg, return_index=True, return_counts=True)
        for lo, n in zip(firsts.tolist(), sizes.tolist()):
            k = cfg.knn_k if cfg.knn_k is not None else auto_knn_k(n)
            state = dpc_knn_cluster(values[lo : lo + n], min(max(k, 1), max(n - 1, 1)),
                                    math.ceil(rate * n))
            reps.append(merge_clusters(values[lo : lo + n], state)[0])
            center[lo : lo + n] = lo + state.assignment
        values = np.concatenate(reps)

    # every member occurrence, cluster by cluster: the center's row, then the
    # other rows ascending, each in every frame of its segment, less the
    # center's first-frame occurrence, which is the representative
    is_center = center == rows
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
    # rows, in merged-row order as (frame, slot) order, take their values
    tokens = stream.data.reshape(b * n_v, -1).take(frames * n_v + slots, axis=0)
    tokens[is_rep] = values
    counts = np.zeros(frames.size, dtype=np.int64)
    cluster_rows = np.bincount(center, minlength=seg.size)[is_center]
    counts[is_rep] = cluster_rows * length[seg[is_center]] - 1
    kind = PROVENANCE_KINDS.index("temporal_rep" if pass_through else "cluster_rep")
    return CompressedVideo(tokens, ProvenanceArrays(
        frames, slots, is_rep * kind, np.concatenate(([0], np.cumsum(counts))), members))
