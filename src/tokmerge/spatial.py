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
    _check_real,
    _first_non_finite,
    _group_mean,
)
from .temporal import TemporalMergeResult


# ---------------------------------------------------------------------------
# Importance
# ---------------------------------------------------------------------------

def _bin_edges(size: int, bins: int) -> np.ndarray:
    return np.array([(i * size) // bins for i in range(bins + 1)], dtype=np.int64)


def _pool(raw: np.ndarray, grid: tuple[int, int], pooled_grid: tuple[int, int]) -> np.ndarray:
    """(B, Hp, Wp) adaptive average pooling of (B, H*W) scores on an H x W grid.

    Output bin (i, j) averages rows [floor(i*H/Hp), floor((i+1)*H/Hp)) and
    the analogous column span; bins are non-empty and tile the grid. A bin's
    sum over every frame at once, divided by its cell count, has the bits of
    its mean; pooling to the grid itself turns a -0.0 score into +0.0.
    """
    (h, w), (hp, wp) = grid, pooled_grid
    if not (1 <= hp <= h and 1 <= wp <= w):
        raise DataError(f"pooled grid {hp}x{wp} invalid for raw grid {h}x{w}")
    g = raw.reshape(-1, h, w)
    re, ce = _bin_edges(h, hp), _bin_edges(w, wp)
    sums = np.empty((g.shape[0], hp, wp), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            sums[:, i, j] = g[:, re[i] : re[i + 1], ce[j] : ce[j + 1]].sum(axis=(1, 2))
    return sums / np.outer(np.diff(re), np.diff(ce))


@dataclass(frozen=True)
class ImportanceMap:
    """Per-frame token importance at raw and pooled resolution; made by
    build_importance, which checks the shapes."""

    raw: np.ndarray      # (B, N_v)
    pooled: np.ndarray   # (B, Hp, Wp)
    grid: tuple[int, int]
    pooled_grid: tuple[int, int]

    def token_scores(self) -> np.ndarray:
        """(B, N_v) selection scores: each slot scored by its pooled bin."""
        (h, w), (hp, wp) = self.grid, self.pooled_grid
        rows = np.repeat(self.pooled, np.diff(_bin_edges(h, hp)), axis=1)
        return np.repeat(rows, np.diff(_bin_edges(w, wp)), axis=2).reshape(-1, h * w)


def build_importance(
    raw_scores: np.ndarray,
    grid: tuple[int, int],
    pooled_grid: tuple[int, int] | None = None,
) -> ImportanceMap:
    """Assemble an ImportanceMap from per-frame raw scores (B, N_v)."""
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    (h, w), pg = grid, tuple(pooled_grid or grid)
    if raw_scores.ndim != 2 or raw_scores.shape[1] != h * w:
        raise DataError(f"raw importance shape {raw_scores.shape} inconsistent with grid {h}x{w}")
    return ImportanceMap(raw_scores, _pool(raw_scores, (h, w), pg), (h, w), pg)


def _check_dump(arr: np.ndarray, name: str) -> None:
    _check_real(arr, name)
    if (offset := _first_non_finite(arr)) is not None:
        raise DataError(f"{name}: non-finite value at flat offset {offset}")


def _finite_scores(raw: np.ndarray, names) -> np.ndarray:
    """``raw``, or DataError naming the dumps when float64 arithmetic on
    their finite values overflowed."""
    if not np.isfinite(raw).all():
        raise DataError(f"{', '.join(names)}: raw importance overflows float64")
    return raw


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
    return build_importance(_finite_scores(raw, (name,)), grid, pooled_grid)


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
    return build_importance(_finite_scores(raw, names), grid, pooled_grid)


# ---------------------------------------------------------------------------
# Selection and clustering
# ---------------------------------------------------------------------------

def attention_select(scores: np.ndarray, keep: int) -> np.ndarray:
    """Ascending indices of the ``keep`` largest scores (ties: smaller index).

    Selects along the last axis, so a 2-D array selects in every row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[-1]
    if keep > n:
        raise DataError(f"cannot keep {keep} of {n} tokens")
    if keep < 0:
        raise DataError(f"keep must be non-negative, got {keep}")
    order = np.argsort(-scores, axis=-1, kind="stable")[..., :keep]
    return np.sort(order, axis=-1)


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

    if not pass_through:
        if imp is None:
            raise DataError(
                "spatial compression requires attention importance "
                f"(survivors {survivors} > target {target})")
        if imp.raw.shape != (b, n_v):
            raise DataError(
                f"importance shape {imp.raw.shape} does not match stream "
                f"{b}x{n_v}")
        if imp.grid != stream.grid:
            raise DataError(
                f"importance grid {imp.grid} does not match stream grid "
                f"{stream.grid}")
        if cfg.pooled_grid is not None and imp.pooled_grid != cfg.pooled_grid:
            raise DataError(
                f"importance pooled to {imp.pooled_grid} but config asks for "
                f"{cfg.pooled_grid}")
        scores = imp.token_scores()
        rate = target / survivors

    # one block of (0-based frame, slot) arrays per selection or
    # representative set. Sorted by (frame, slot), representatives keep the
    # order they are made in, and so do their values and member blocks.
    frames, slots, is_rep, rep_values, rep_counts, members = [], [], [], [], [], []
    for seg in tmr.segments:
        surv = seg.survivor_idx
        red = seg.redundant_idx
        f0, length = seg.start - 1, seg.length
        seg_frames = np.arange(f0, f0 + length)
        if surv.size:
            if pass_through:
                kept = np.broadcast_to(surv, (seg_frames.size, surv.size))
            else:
                keep = math.ceil(rate * surv.size)
                kept = surv[attention_select(scores[seg_frames[:, None], surv], keep)]
            frames.append(np.repeat(seg_frames, kept.shape[1]))
            slots.append(kept.ravel())
            is_rep.append(np.zeros(kept.size, dtype=bool))
        if red.size == 0:
            continue
        values, centers = seg.merged_values, np.arange(red.size)
        assignment = centers
        if not pass_through:
            n_red = int(red.size)
            centers_wanted = math.ceil(rate * n_red)
            k = cfg.knn_k if cfg.knn_k is not None else auto_knn_k(n_red)
            k = min(max(k, 1), max(n_red - 1, 1))
            state = dpc_knn_cluster(seg.merged_values, k, centers_wanted)
            values, centers = merge_clusters(seg.merged_values, state)
            assignment = state.assignment
        # each cluster's slots, center first, in every frame of the segment;
        # the center's own first-frame occurrence is the representative
        idx = np.arange(red.size)
        order = np.lexsort((idx, idx != assignment, assignment))
        coords = np.stack((np.tile(seg_frames, red.size),
                           np.repeat(red[order], length)), axis=1)
        members.append(np.delete(coords, np.flatnonzero(order == assignment[order]) * length,
                                 axis=0))
        rep_counts.append(np.bincount(assignment)[centers] * length - 1)
        frames.append(np.full(centers.size, f0))
        slots.append(red[centers])
        is_rep.append(np.ones(centers.size, dtype=bool))
        rep_values.append(values)

    frames, slots, is_rep = (np.concatenate(x) for x in (frames, slots, is_rep))
    order = np.lexsort((slots, frames))
    frames, slots, is_rep = frames[order], slots[order], is_rep[order]

    # one gather from the stream at every output coordinate; representative
    # rows are then overwritten with their merged values
    tokens = stream.data.reshape(b * n_v, -1).take(frames * n_v + slots, axis=0)
    counts = np.zeros(frames.size, dtype=np.int64)
    if rep_values:
        tokens[is_rep] = np.concatenate(rep_values)
        counts[is_rep] = np.concatenate(rep_counts)
    kind = PROVENANCE_KINDS.index("temporal_rep" if pass_through else "cluster_rep")
    return CompressedVideo(tokens, ProvenanceArrays(
        frames, slots, is_rep * kind, np.concatenate(([0], np.cumsum(counts))),
        np.concatenate(members) if members else np.empty((0, 2), dtype=np.int64)))
