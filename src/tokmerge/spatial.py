"""Spatial stage: attention importance, top-k selection, DPC-KNN merging.

Non-redundant tokens are kept by per-frame attention importance; each
segment's redundant temporal tokens are cluster-merged with density-peak
clustering (k-nearest-neighbor density). Output tokens are reassembled in
ascending (frame, spatial index) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .core import CompressedVideo, CompressionConfig, DataError, TokenProvenance
from .temporal import TemporalMergeResult


# ---------------------------------------------------------------------------
# Importance
# ---------------------------------------------------------------------------

def frame_attention(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Row-softmax of q @ k.T / sqrt(d) for one frame; rows sum to 1."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DataError(f"q/k shape mismatch: {q.shape} vs {k.shape}")
    logits = q @ k.T / math.sqrt(q.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def importance_scores(attention: np.ndarray) -> np.ndarray:
    """Mean attention each token receives (column means of a square matrix)."""
    a = np.asarray(attention, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"attention matrix must be square, got {a.shape}")
    return a.mean(axis=0)


def _bin_edges(size: int, bins: int) -> np.ndarray:
    return np.array([(i * size) // bins for i in range(bins + 1)], dtype=np.int64)


def pool_importance(raw: np.ndarray, pooled_grid: tuple[int, int]) -> np.ndarray:
    """Adaptive average pooling of an H x W score grid to pooled_grid.

    Output bin (i, j) averages rows [floor(i*H/Hp), floor((i+1)*H/Hp)) and
    the analogous column span; bins are non-empty and tile the grid.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2:
        raise DataError(f"score grid must be 2-D, got rank {raw.ndim}")
    h, w = raw.shape
    hp, wp = pooled_grid
    if hp > h or wp > w or hp < 1 or wp < 1:
        raise DataError(f"pooled grid {hp}x{wp} invalid for raw grid {h}x{w}")
    re = _bin_edges(h, hp)
    ce = _bin_edges(w, wp)
    out = np.empty((hp, wp), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            out[i, j] = raw[re[i] : re[i + 1], ce[j] : ce[j + 1]].mean()
    return out


@dataclass(frozen=True)
class ImportanceMap:
    """Per-frame token importance at raw and pooled resolution."""

    raw: np.ndarray      # (B, N_v)
    pooled: np.ndarray   # (B, Hp, Wp)
    grid: tuple[int, int]
    pooled_grid: tuple[int, int]

    def __post_init__(self):
        h, w = self.grid
        hp, wp = self.pooled_grid
        if self.raw.ndim != 2 or self.raw.shape[1] != h * w:
            raise DataError(f"raw importance shape {self.raw.shape} "
                            f"inconsistent with grid {h}x{w}")
        if self.pooled.shape != (self.raw.shape[0], hp, wp):
            raise DataError(f"pooled importance shape {self.pooled.shape} "
                            f"inconsistent with {hp}x{wp}")

    def token_scores(self) -> np.ndarray:
        """(B, N_v) selection scores: each slot scored by its pooled bin."""
        h, w = self.grid
        hp, wp = self.pooled_grid
        row_bin = np.searchsorted(_bin_edges(h, hp), np.arange(h), side="right") - 1
        col_bin = np.searchsorted(_bin_edges(w, wp), np.arange(w), side="right") - 1
        expanded = self.pooled[:, row_bin[:, None], col_bin[None, :]]
        return expanded.reshape(self.raw.shape[0], h * w)


def build_importance(
    raw_scores: np.ndarray,
    grid: tuple[int, int],
    pooled_grid: tuple[int, int] | None = None,
) -> ImportanceMap:
    """Assemble an ImportanceMap from per-frame raw scores (B, N_v).

    Pooling to the stream grid itself is the identity (every bin is one
    score), so that case reshapes instead of averaging bin by bin.
    """
    raw_scores = np.asarray(raw_scores, dtype=np.float64)
    h, w = grid
    pg = tuple(pooled_grid or grid)
    if pg == (h, w):
        pooled = raw_scores.reshape(-1, h, w).copy()
    else:
        pooled = np.stack([pool_importance(f.reshape(h, w), pg) for f in raw_scores])
    return ImportanceMap(raw=raw_scores, pooled=pooled, grid=tuple(grid),
                         pooled_grid=pg)


def importance_from_attention(attn: np.ndarray, grid, pooled_grid=None) -> ImportanceMap:
    """ImportanceMap from a (B, N_v, N_v) per-frame attention stack."""
    attn = np.asarray(attn)
    if attn.ndim != 3:
        raise DataError(f"attention stack must be 3-D, got rank {attn.ndim}")
    raw = np.stack([importance_scores(a) for a in attn])
    return build_importance(raw, grid, pooled_grid)


def importance_from_qk(q: np.ndarray, k: np.ndarray, grid, pooled_grid=None) -> ImportanceMap:
    """ImportanceMap from (B, N_v, d) query/key dumps."""
    q = np.asarray(q)
    k = np.asarray(k)
    if q.ndim != 3 or q.shape != k.shape:
        raise DataError(f"q/k dump shape mismatch: {q.shape} vs {k.shape}")
    raw = np.stack([importance_scores(frame_attention(qf, kf))
                    for qf, kf in zip(q, k)])
    return build_importance(raw, grid, pooled_grid)


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

    sq = np.einsum("nd,nd->n", tokens, tokens)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (tokens @ tokens.T)
    np.clip(d2, 0.0, None, out=d2)
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
    """Mean of each cluster (center + assigned members), keeping input dtype."""
    tokens = np.asarray(tokens)
    reps = np.empty((state.centers.shape[0], tokens.shape[1]), dtype=tokens.dtype)
    for r, center in enumerate(state.centers):
        group = tokens[state.assignment == center]
        reps[r] = group.mean(axis=0, dtype=np.float64).astype(tokens.dtype)
    return reps, state.centers


def auto_knn_k(n: int) -> int:
    """Default neighbor count: max(2, floor(sqrt(N))), capped at N - 1."""
    return min(max(2, int(math.isqrt(n))), n - 1)


# ---------------------------------------------------------------------------
# Spatial merge
# ---------------------------------------------------------------------------

def _absorbed(later: range, slot: int) -> tuple[tuple[int, int], ...]:
    """Coordinates of ``slot`` in the frames its temporal merge absorbed."""
    return tuple(zip(later, repeat(slot)))


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

    # one block of (0-based frame, slot, representative) arrays per selection
    # or representative set; the representative index points into the
    # concatenated representative values, -1 marks a token kept from the stream
    frames, slots, reps = [], [], []
    rep_values, rep_members = [], []
    n_reps = 0
    for seg in tmr.segments:
        surv = seg.survivor_idx
        red = seg.redundant_idx
        if surv.size:
            seg_frames = np.arange(seg.start - 1, seg.end - 1)
            if pass_through:
                kept = np.broadcast_to(surv, (seg_frames.size, surv.size))
            else:
                keep = math.ceil(rate * surv.size)
                kept = surv[attention_select(scores[seg_frames[:, None], surv], keep)]
            f0s = np.repeat(seg_frames, kept.shape[1])
            kept = kept.ravel()
            frames.append(f0s)
            slots.append(kept)
            reps.append(np.full(kept.size, -1))
        if red.size == 0:
            continue
        f0 = seg.start - 1
        later = range(seg.start, seg.end - 1)  # 0-based frames merged away
        red_slots = red.tolist()
        if pass_through:
            centers = np.arange(red.size)
            values = seg.merged_values
            members = [_absorbed(later, slot) for slot in red_slots]
        else:
            n_red = int(red.size)
            centers_wanted = math.ceil(rate * n_red)
            k = cfg.knn_k if cfg.knn_k is not None else auto_knn_k(n_red)
            k = min(max(k, 1), max(n_red - 1, 1))
            state = dpc_knn_cluster(seg.merged_values, k, centers_wanted)
            values, centers = merge_clusters(seg.merged_values, state)
            members = []
            for center in centers.tolist():
                group = list(_absorbed(later, red_slots[center]))
                for m in np.flatnonzero(state.assignment == center).tolist():
                    if m != center:
                        group.append((f0, red_slots[m]))
                        group.extend(_absorbed(later, red_slots[m]))
                members.append(tuple(group))
        frames.append(np.full(centers.size, f0))
        slots.append(red[centers])
        reps.append(n_reps + np.arange(centers.size))
        rep_values.append(values)
        rep_members.extend(members)
        n_reps += centers.size

    frames, slots, reps = (np.concatenate(x) for x in (frames, slots, reps))
    order = np.lexsort((slots, frames))
    frames, slots, reps = frames[order], slots[order], reps[order]

    # one gather from the stream at every output coordinate; representative
    # rows are then overwritten with their merged values
    tokens = stream.data.reshape(b * n_v, -1).take(frames * n_v + slots, axis=0)
    if n_reps:
        is_rep = reps >= 0
        tokens[is_rep] = np.concatenate(rep_values)[reps[is_rep]]
    rep_kind = "temporal_rep" if pass_through else "cluster_rep"
    reps = reps.tolist()
    provenance = tuple(map(
        TokenProvenance, frames.tolist(), slots.tolist(),
        ["selected" if r < 0 else rep_kind for r in reps],
        [() if r < 0 else rep_members[r] for r in reps]))
    return CompressedVideo(tokens=tokens, provenance=provenance)
