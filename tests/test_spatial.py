"""Spatial stage tests: attention, pooling, selection, DPC-KNN, budget."""

import math
import warnings

import numpy as np
import pytest

from tokmerge import (
    ClusterState,
    CompressionConfig,
    DataError,
    ImportanceMap,
    VideoTokenStream,
    apply_temporal_merge,
    attention_select,
    dpc_knn_cluster,
    importance_from_attention,
    importance_from_qk,
    merge_clusters,
    optimal_segmentation,
    pairwise_redundancy,
    spatial,
    spatial_merge,
)
from test_temporal import merged_segments


# ---------------------------------------------------------------------------
# Brute-force density-peak oracle
# ---------------------------------------------------------------------------

def dpc_oracle(tokens, k, c):
    """Direct evaluation of the density-peak rules with the stated tie-breaks."""
    tokens = np.asarray(tokens, dtype=np.float64)
    n = len(tokens)
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                diff = tokens[i] - tokens[j]
                # same d^2 expression as the implementation (dot identity)
                d2[i, j] = max(tokens[i] @ tokens[i] + tokens[j] @ tokens[j]
                               - 2.0 * (tokens[i] @ tokens[j]), 0.0)
    rho = np.empty(n)
    for i in range(n):
        nearest = np.sort(np.array([d2[i, j] for j in range(n) if j != i]))[:k]
        rho[i] = math.exp(-float(np.mean(nearest)))
    dist = np.sqrt(d2)
    delta = np.empty(n)
    for i in range(n):
        preceding = [dist[i, j] for j in range(n)
                     if rho[j] > rho[i] or (rho[j] == rho[i] and j < i)]
        if preceding:
            delta[i] = min(preceding)
        else:
            delta[i] = max(dist[i, j] for j in range(n) if j != i)
    gamma = rho * delta
    centers = sorted(sorted(range(n), key=lambda i: (-gamma[i], i))[: min(c, n)])
    assignment = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i in centers:
            assignment[i] = i
        else:
            assignment[i] = min(centers, key=lambda ctr: (dist[i, ctr], ctr))
    return centers, assignment


# ---------------------------------------------------------------------------
# Per-frame oracles: the definitions the array code must match bit for bit
# ---------------------------------------------------------------------------

def frame_attention(q, k):
    """Row-softmax of q @ k.T / sqrt(d) for one frame; rows sum to 1."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DataError(f"q/k shape mismatch: {q.shape} vs {k.shape}")
    logits = q @ k.T / math.sqrt(q.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def importance_scores(attention):
    """Mean attention each token receives (column means of a square matrix)."""
    a = np.asarray(attention, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"attention matrix must be square, got {a.shape}")
    return a.mean(axis=0)


def pool_importance(raw, pooled_grid):
    """Adaptive average pooling of one H x W score grid, bin by bin."""
    raw = np.asarray(raw, dtype=np.float64)
    h, w = raw.shape
    hp, wp = pooled_grid
    if hp > h or wp > w or hp < 1 or wp < 1:
        raise DataError(f"pooled grid {hp}x{wp} invalid for raw grid {h}x{w}")
    re = [(i * h) // hp for i in range(hp + 1)]
    ce = [(j * w) // wp for j in range(wp + 1)]
    out = np.empty((hp, wp), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            out[i, j] = raw[re[i] : re[i + 1], ce[j] : ce[j + 1]].mean()
    return out


def spread_bins(pooled, grid):
    """(..., H*W) slot scores from (..., Hp, Wp) pooled grids: each cell of
    the H x W grid takes the value of the bin whose floor edges hold it."""
    (h, w), (hp, wp) = grid, pooled.shape[-2:]
    rows = [max(i for i in range(hp) if (i * h) // hp <= r) for r in range(h)]
    cols = [max(j for j in range(wp) if (j * w) // wp <= c) for c in range(w)]
    return pooled[..., rows, :][..., cols].reshape(*pooled.shape[:-2], h * w)


def merge_clusters_loop(tokens, state):
    """Each cluster's float64 mean, narrowed to the token dtype, one cluster
    at a time."""
    tokens = np.asarray(tokens)
    reps = np.empty((state.centers.shape[0], tokens.shape[1]), dtype=tokens.dtype)
    for r, center in enumerate(state.centers):
        group = tokens[state.assignment == center]
        reps[r] = group.mean(axis=0, dtype=np.float64).astype(tokens.dtype)
    return reps, state.centers


def qk_raw(q, k):
    """Scores of one frame's q/k through importance_from_qk, pooled to the
    grid itself: its raw importance."""
    return importance_from_qk(q[None], k[None], (q.shape[0], 1)).scores[0]


def attention_raw(a):
    """Scores of one frame's attention through importance_from_attention,
    pooled to the grid itself: its raw importance."""
    return importance_from_attention(a[None], (a.shape[0], 1)).scores[0]


def pooled_scores(raw, grid, pooled_grid=None):
    """(B, H*W) slot scores of raw (B, H*W) importance, through the
    package's pooling."""
    return spatial._importance(np.asarray(raw, dtype=np.float64), grid, pooled_grid,
                               ("raw",)).scores


def pooled(raw, pooled_grid):
    """One H x W grid pooled through the package, read at the first cell of
    each bin."""
    (h, w), (hp, wp) = raw.shape, pooled_grid
    scores = pooled_scores(raw.reshape(1, -1), raw.shape, pooled_grid)[0].reshape(h, w)
    return scores[np.ix_([(i * h) // hp for i in range(hp)], [(j * w) // wp for j in range(wp)])]


class TestFrameAttention:
    def test_zero_queries_give_uniform_rows(self):
        q = np.zeros((5, 3))
        k = np.random.default_rng(0).standard_normal((5, 3))
        a = frame_attention(q, k)
        np.testing.assert_allclose(a, np.full((5, 5), 0.2), atol=1e-12)
        np.testing.assert_allclose(qk_raw(q, k), np.full(5, 0.2), atol=1e-12)

    def test_singleton(self):
        a = frame_attention(np.ones((1, 4)), np.ones((1, 4)))
        np.testing.assert_allclose(a, [[1.0]])
        np.testing.assert_allclose(qk_raw(np.ones((1, 4)), np.ones((1, 4))), [1.0])

    def test_scalar_softmax_oracle(self):
        q = k = np.array([[1.0], [0.0]])
        a = frame_attention(q, k)
        np.testing.assert_allclose(a[0], [0.7311, 0.2689], atol=1e-4)
        # column means of [[0.7311, 0.2689], [0.5, 0.5]]
        np.testing.assert_allclose(qk_raw(q, k), [0.6155, 0.3845], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q, k = rng.standard_normal((2, 9, 6))
        a = frame_attention(q, k)
        np.testing.assert_allclose(a.sum(axis=1), np.ones(9), atol=1e-5)
        np.testing.assert_allclose(qk_raw(q, k).sum(), 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            frame_attention(np.ones((3, 2)), np.ones((4, 2)))
        with pytest.raises(DataError):
            importance_from_qk(np.ones((1, 3, 2)), np.ones((1, 4, 2)), (3, 1))


class TestImportanceScores:
    def test_uniform(self):
        n = 6
        a = np.full((n, n), 1.0 / n)
        np.testing.assert_allclose(importance_scores(a), np.full(n, 1.0 / n))
        np.testing.assert_allclose(attention_raw(a), np.full(n, 1.0 / n))

    def test_identity_rows(self):
        np.testing.assert_allclose(importance_scores(np.eye(5)), np.full(5, 0.2))
        np.testing.assert_allclose(attention_raw(np.eye(5)), np.full(5, 0.2))

    def test_single_column_mass(self):
        a = np.zeros((4, 4))
        a[:, 2] = 1.0
        np.testing.assert_allclose(importance_scores(a), [0, 0, 1.0, 0])
        np.testing.assert_allclose(attention_raw(a), [0, 0, 1.0, 0])

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            importance_scores(np.ones((3, 4)))
        with pytest.raises(DataError, match="must be \\(B, N_v, N_v\\)"):
            importance_from_attention(np.ones((1, 3, 4)), (3, 1))


class TestNonFiniteDumps:
    """A NaN or +-inf dump entry raises DataError naming its flat offset,
    without a RuntimeWarning on the way."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_attention(self, value):
        attn = np.full((3, 4, 4), 0.25)
        attn[1, 2, 3] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^attention: non-finite value at flat offset 27$"):
                importance_from_attention(attn, (2, 2))
            with pytest.raises(DataError, match="^attn.npy: non-finite value at flat offset 27$"):
                importance_from_attention(attn, (2, 2), name="attn.npy")

    @pytest.mark.parametrize("which", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_qk(self, which, value):
        dumps = list(np.random.default_rng(2).standard_normal((2, 3, 4, 5)).astype(np.float32))
        dumps[which][2, 1, 4] = value
        name = ("query", "key")[which]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^{name}: non-finite value at flat offset 49$"):
                importance_from_qk(*dumps, (2, 2))
            with pytest.raises(DataError, match=f"^{'qk'[which]}.npy: non-finite value"):
                importance_from_qk(*dumps, (2, 2), names=("q.npy", "k.npy"))


class TestComplexDumps:
    """A complex dump raises DataError naming it, rather than losing its
    imaginary part to a ComplexWarning."""

    def test_attention(self):
        attn = np.full((3, 4, 4), 0.25 + 0j)
        with pytest.raises(DataError, match="^attention: dtype complex128, expected real values$"):
            importance_from_attention(attn, (2, 2))
        with pytest.raises(DataError, match="^attn.npy: dtype complex128"):
            importance_from_attention(attn, (2, 2), name="attn.npy")

    @pytest.mark.parametrize("which", [0, 1])
    def test_qk(self, which):
        dumps = list(np.random.default_rng(2).standard_normal((2, 3, 4, 5)).astype(np.float32))
        dumps[which] = dumps[which].astype(np.complex64)
        name = ("q.npy", "k.npy")[which]
        with pytest.raises(DataError, match=f"^{name}: dtype complex64, expected real values$"):
            importance_from_qk(*dumps, (2, 2), names=("q.npy", "k.npy"))


class TestOverflowingDumps:
    """Finite dumps whose float64 arithmetic overflows raise DataError naming
    the dumps, without a RuntimeWarning on the way."""

    def test_attention(self):
        attn = np.full((2, 4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^attention: raw importance overflows float64$"):
                importance_from_attention(attn, (2, 2))
            with pytest.raises(DataError, match="^attn.npy: raw importance"):
                importance_from_attention(attn, (2, 2), name="attn.npy")

    def test_qk(self):
        q, k = np.zeros((2, 2, 4, 3))
        q[0, 0, 0] = k[0, 1, 0] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError,
                               match="^query, key: raw importance overflows float64$"):
                importance_from_qk(q, k, (2, 2))
            with pytest.raises(DataError, match="^q.npy, k.npy: raw importance"):
                importance_from_qk(q, k, (2, 2), names=("q.npy", "k.npy"))


class TestPoolImportance:
    def test_constant_grid(self):
        out = pooled(np.full((6, 9), 3.5), (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 3.5))

    def test_full_average(self):
        out = pooled(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 1))
        np.testing.assert_allclose(out, [[2.5]])

    def test_ramp_bin_edges(self):
        """27 -> 14 bins: enumerate the floor edges and average each bin."""
        raw = np.arange(27.0 * 27.0).reshape(27, 27)
        out = pooled(raw, (14, 14))
        edges = [(i * 27) // 14 for i in range(15)]
        assert edges[0] == 0 and edges[1] == 1
        np.testing.assert_allclose(out[0, 0], raw[0, 0])
        for i in range(14):
            for j in range(14):
                block = raw[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
                np.testing.assert_allclose(out[i, j], block.mean())
        np.testing.assert_array_equal(out, pool_importance(raw, (14, 14)))

    def test_mean_preserved_for_divisible_grids(self):
        rng = np.random.default_rng(2)
        raw = rng.random((12, 8))
        out = pooled(raw, (4, 4))
        np.testing.assert_allclose(out.mean(), raw.mean(), rtol=1e-12)

    def test_identity_pooling_matches_bin_loop(self):
        rng = np.random.default_rng(16)
        raw = np.round(rng.random((5, 12)), 1)  # repeated scores, as in ties
        scores = pooled_scores(raw, (3, 4))
        expect = np.stack([pool_importance(f.reshape(3, 4), (3, 4)).ravel() for f in raw])
        np.testing.assert_array_equal(scores, expect)
        np.testing.assert_array_equal(scores, raw)
        with pytest.raises(ValueError):
            scores[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(2, 8, 8), (3, 5, 5), (1, 9, 9)])
    def test_raw_scores_not_on_grid_rejected(self, shape):
        with pytest.raises(DataError, match="inconsistent with grid 4x4"):
            importance_from_attention(np.ones(shape), (4, 4))

    def test_oversized_pooled_grid_rejected(self):
        with pytest.raises(DataError):
            pool_importance(np.ones((3, 3)), (4, 2))
        with pytest.raises(DataError, match="pooled grid 4x2 invalid for raw grid 3x3"):
            pooled(np.ones((3, 3)), (4, 2))


class TestAttentionSelect:
    def test_keep_all_identity(self):
        scores = np.array([0.3, 0.1, 0.2])
        np.testing.assert_array_equal(attention_select(scores, 3), [True, True, True])

    def test_top_two(self):
        np.testing.assert_array_equal(
            np.flatnonzero(attention_select(np.array([0.1, 0.9, 0.5]), 2)), [1, 2])

    def test_tie_break_toward_smaller_index(self):
        np.testing.assert_array_equal(
            np.flatnonzero(attention_select(np.full(5, 0.7), 3)), [0, 1, 2])

    def test_rows_select_like_single_frames(self):
        rng = np.random.default_rng(17)
        scores = np.round(rng.random((6, 9)), 1)
        for keep in (4, rng.integers(0, 10, 6)):
            got = attention_select(scores, keep)
            for row, k, expect in zip(scores, np.broadcast_to(keep, 6), got):
                np.testing.assert_array_equal(attention_select(row, k), expect)
                assert expect.sum() == k

    def test_keep_too_large(self):
        with pytest.raises(DataError, match="cannot keep 4 of 3 tokens"):
            attention_select(np.ones(3), 4)
        with pytest.raises(DataError, match="cannot keep 4 of 3 tokens"):
            attention_select(np.ones((2, 3)), [1, 4])
        with pytest.raises(DataError, match="non-negative"):
            attention_select(np.ones((2, 3)), [-1, 1])


class TestDpcKnn:
    def test_single_token(self):
        state = dpc_knn_cluster(np.ones((1, 4)), 1, 1)
        np.testing.assert_array_equal(state.centers, [0])
        np.testing.assert_array_equal(state.assignment, [0])

    def test_identical_tokens_first_index_center(self):
        state = dpc_knn_cluster(np.ones((5, 3)), 2, 1)
        np.testing.assert_array_equal(state.centers, [0])
        assert (state.assignment == 0).all()
        assert np.allclose(state.delta, 0.0)

    def test_two_separated_pairs(self):
        tokens = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.0, 10.12]])
        state = dpc_knn_cluster(tokens, 1, 2)
        assert set(state.centers) & {0, 1}
        assert set(state.centers) & {2, 3}
        assert state.assignment[0] == state.assignment[1]
        assert state.assignment[2] == state.assignment[3]

    def test_densest_token_delta_is_max_distance(self):
        rng = np.random.default_rng(3)
        tokens = rng.standard_normal((7, 3))
        state = dpc_knn_cluster(tokens, 2, 3)
        densest = int(np.argmax(state.rho))
        dists = np.linalg.norm(tokens - tokens[densest], axis=1)
        dists[densest] = -np.inf
        assert state.delta[densest] == pytest.approx(dists.max(), rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            tokens = rng.standard_normal((n, d))
            k = int(rng.integers(1, n))
            c = int(rng.integers(1, n + 1))
            state = dpc_knn_cluster(tokens, k, c)
            centers, assignment = dpc_oracle(tokens, k, c)
            assert list(state.centers) == centers
            np.testing.assert_array_equal(state.assignment, assignment)

    def test_bad_k_rejected(self):
        with pytest.raises(DataError):
            dpc_knn_cluster(np.ones((4, 2)), 4, 1)


class TestMergeClusters:
    def test_singleton_clusters_identity(self):
        tokens = np.random.default_rng(5).standard_normal((4, 3))
        state = dpc_knn_cluster(tokens, 1, 4)
        reps, centers = merge_clusters(tokens, state)
        np.testing.assert_array_equal(centers, np.arange(4))
        np.testing.assert_allclose(reps, tokens)

    def test_pair_cluster_mean(self):
        tokens = np.array([[0.0, 0.0], [1.0, 1.0]])
        state = dpc_knn_cluster(tokens, 1, 1)
        reps, _ = merge_clusters(tokens, state)
        np.testing.assert_allclose(reps, [[0.5, 0.5]])

    def test_group_mean_oracle(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((10, 4))
        state = dpc_knn_cluster(tokens, 3, 3)
        reps, centers = merge_clusters(tokens, state)
        for rep, center in zip(reps, centers):
            group = tokens[state.assignment == center]
            np.testing.assert_allclose(rep, group.mean(axis=0), rtol=1e-6)

    @staticmethod
    def state(centers, assignment):
        n = len(assignment)
        return ClusterState(rho=np.ones(n), delta=np.ones(n), gamma=np.ones(n), k_used=1,
                            centers=np.array(centers), assignment=np.array(assignment))

    def test_assignment_to_non_center_rejected(self):
        tokens = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DataError, match="each token to a center"):
            merge_clusters(tokens, self.state([0, 2], [0, 1, 2, 1]))

    def test_center_assigned_elsewhere_rejected(self):
        tokens = np.arange(8.0).reshape(4, 2)
        with pytest.raises(DataError, match="a center to itself"):
            merge_clusters(tokens, self.state([0, 2], [0, 0, 0, 2]))


# ---------------------------------------------------------------------------
# Full spatial merge
# ---------------------------------------------------------------------------

def make_pipeline_inputs(rng, b=4, grid=(2, 2), d=8, tau=0.8, redundant_run=None):
    n_v = grid[0] * grid[1]
    data = rng.standard_normal((b, n_v, d)).astype(np.float32)
    if redundant_run:
        start, end, n_slots = redundant_run  # 0-based frame span, slot count
        data[start:end, :n_slots] = data[start, :n_slots]
    stream = VideoTokenStream(data, grid)
    mask = pairwise_redundancy(stream, tau)
    plan = optimal_segmentation(mask)
    tmr = apply_temporal_merge(stream, plan, mask, "mean")
    imp = ImportanceMap(rng.random((b, n_v)), grid)  # pooled to the grid itself
    return stream, tmr, imp


def test_pass_through_at_full_ratio():
    rng = np.random.default_rng(7)
    stream, tmr, imp = make_pipeline_inputs(rng, redundant_run=(0, 3, 2))
    cfg = CompressionConfig(target_ratio=1.0)
    cv = spatial_merge(tmr, imp, cfg)
    assert cv.count == tmr.survivor_count
    kinds = {p.kind for p in cv.provenance}
    assert kinds <= {"selected", "temporal_rep"}


def test_pass_through_without_importance():
    rng = np.random.default_rng(8)
    _, tmr, _ = make_pipeline_inputs(rng)
    cv = spatial_merge(tmr, None, CompressionConfig(target_ratio=1.0))
    assert cv.count == tmr.survivor_count


def test_importance_required_when_compressing():
    rng = np.random.default_rng(9)
    _, tmr, _ = make_pipeline_inputs(rng)
    with pytest.raises(DataError):
        spatial_merge(tmr, None, CompressionConfig(target_ratio=0.25))


def test_importance_checked_against_stream_and_config():
    rng = np.random.default_rng(9)
    _, tmr, imp = make_pipeline_inputs(rng)
    cfg = CompressionConfig(target_ratio=0.25)
    with pytest.raises(DataError, match=r"match stream 4x4, got shape \(3, 4\)"):
        spatial_merge(tmr, ImportanceMap(imp.scores[:3], (2, 2)), cfg)
    with pytest.raises(DataError, match=r"must be finite and match stream 4x4, got shape \(4, 4\)"):
        spatial_merge(tmr, ImportanceMap(np.where(imp.scores > 0.5, np.nan, imp.scores), (2, 2)),
                      cfg)
    with pytest.raises(DataError, match=r"pooled to \(2, 2\) but config asks for \(1, 2\)"):
        spatial_merge(tmr, imp, CompressionConfig(target_ratio=0.25, pooled_grid=(1, 2)))


def test_all_non_redundant_reduces_to_attention_select():
    """With no temporal redundancy, the stage is per-frame top-k by importance."""
    rng = np.random.default_rng(10)
    b, grid, d = 3, (2, 2), 6
    stream, tmr, imp = make_pipeline_inputs(rng, b=b, grid=grid, d=d)
    assert tmr.pruned_count == 0
    cfg = CompressionConfig(target_ratio=0.25)
    cv = spatial_merge(tmr, imp, cfg)
    n_v = grid[0] * grid[1]
    keep = math.ceil(0.25 * n_v)
    assert cv.count == b * keep
    for frame in range(b):
        slots = [p.spatial_index for p in cv.provenance if p.frame == frame]
        expect = np.flatnonzero(attention_select(imp.scores[frame], keep))
        np.testing.assert_array_equal(slots, expect)


def test_budget_adherence_mixed_instance():
    """B=4, N_v=16, target 0.25: count lands within per-group ceiling slack."""
    rng = np.random.default_rng(11)
    stream, tmr, imp = make_pipeline_inputs(
        rng, b=4, grid=(4, 4), d=8, redundant_run=(0, 3, 6))
    cfg = CompressionConfig(target_ratio=0.25)
    cv = spatial_merge(tmr, imp, cfg)
    target = math.ceil(0.25 * 4 * 16)
    red = tmr.redundant
    groups = int(((~red).any(axis=1) * np.diff(tmr.plan.boundaries) + red.any(axis=1)).sum())
    assert target <= cv.count <= target + groups


def test_output_ordering_and_uniqueness():
    rng = np.random.default_rng(12)
    _, tmr, imp = make_pipeline_inputs(rng, b=5, grid=(3, 3), d=8,
                                       redundant_run=(1, 4, 4))
    cv = spatial_merge(tmr, imp, CompressionConfig(target_ratio=0.3))
    coords = [(p.frame, p.spatial_index) for p in cv.provenance]
    assert coords == sorted(coords)
    assert len(set(coords)) == len(coords)


def test_token_scores_expand_pooled_bins():
    raw = np.arange(16.0).reshape(1, 16)
    scores = pooled_scores(raw, (4, 4), (2, 2))[0].reshape(4, 4)
    bins = pool_importance(raw.reshape(4, 4), (2, 2))
    for i in range(4):
        for j in range(4):
            assert scores[i, j] == bins[i // 2, j // 2]


def test_spatial_merge_with_coarse_pooled_grid():
    """Selection under a coarser pooled grid scores each slot by its bin."""
    rng = np.random.default_rng(14)
    stream, tmr, _ = make_pipeline_inputs(rng, b=3, grid=(4, 4), d=64)
    assert tmr.pruned_count == 0  # gaussians in d=64 stay below tau
    attn = rng.random((3, 16, 16))
    imp = importance_from_attention(attn, (4, 4), pooled_grid=(2, 2))
    cfg = CompressionConfig(target_ratio=0.25, pooled_grid=(2, 2))
    cv = spatial_merge(tmr, imp, cfg)
    keep = math.ceil(0.25 * 16)
    for frame, a in enumerate(attn):
        scores = spread_bins(pool_importance(importance_scores(a).reshape(4, 4), (2, 2)), (4, 4))
        np.testing.assert_array_equal(imp.scores[frame], scores)
        slots = [p.spatial_index for p in cv.provenance if p.frame == frame]
        np.testing.assert_array_equal(slots, np.flatnonzero(attention_select(scores, keep)))


def test_single_frame_stream_passes_through():
    rng = np.random.default_rng(15)
    stream, tmr, imp = make_pipeline_inputs(rng, b=1, grid=(2, 2), d=4)
    cv = spatial_merge(tmr, imp, CompressionConfig(target_ratio=1.0))
    assert cv.count == 4
    assert all(p.kind == "selected" for p in cv.provenance)


def test_cluster_representatives_at_center_slots():
    rng = np.random.default_rng(13)
    stream, tmr, imp = make_pipeline_inputs(
        rng, b=6, grid=(3, 3), d=8, redundant_run=(0, 6, 9))
    cfg = CompressionConfig(target_ratio=0.1)
    cv = spatial_merge(tmr, imp, cfg)
    reps = [p for p in cv.provenance if p.kind == "cluster_rep"]
    assert reps, "expected cluster representatives in this construction"
    start, _ = tmr.plan.segments()[0]
    for p in reps:
        assert p.frame == start - 1
        assert tmr.redundant[0, p.spatial_index]
        assert p.members  # absorbed occurrences recorded


def reassembly_oracle(tmr, imp, cfg):
    """Per-token reassembly: one entry per output token, then a sort."""
    stream = tmr.stream
    b, n_v = stream.frames, stream.tokens_per_frame
    target = math.ceil(cfg.target_ratio * b * n_v)
    pass_through = tmr.survivor_count <= target
    rate = target / tmr.survivor_count
    entries = []
    for start, end, red, merged in merged_segments(tmr):
        def absorbed(slot, start=start, end=end):
            return [(f, int(slot)) for f in range(start, end - 1)]
        for f0 in range(start - 1, end - 1):
            kept = np.setdiff1d(np.arange(n_v), red)
            if not pass_through and kept.size:
                scores = imp.scores[f0, kept]
                kept = kept[attention_select(scores, math.ceil(rate * kept.size))]
            for slot in kept:
                entries.append((f0, int(slot), stream.data[f0, slot], "selected", []))
        f0 = start - 1
        if red.size == 0:
            continue
        if pass_through:
            for pos, slot in enumerate(red):
                entries.append((f0, int(slot), merged[pos],
                                "temporal_rep", absorbed(slot)))
            continue
        k = cfg.knn_k or min(max(2, math.isqrt(red.size)), red.size - 1)
        state = dpc_knn_cluster(merged, min(max(k, 1), max(red.size - 1, 1)),
                                math.ceil(rate * red.size))
        reps, centers = merge_clusters(merged, state)
        for rep, center in zip(reps, centers):
            members = absorbed(red[center])
            for m in range(red.size):
                if m != center and state.assignment[m] == center:
                    members += [(f0, int(red[m]))] + absorbed(red[m])
            entries.append((f0, int(red[center]), rep, "cluster_rep", members))
    entries.sort(key=lambda e: e[:2])
    tokens = np.array([e[2] for e in entries], dtype=np.float32)
    return tokens, [(f, s, kind, tuple(m)) for f, s, _, kind, m in entries]


@pytest.mark.parametrize("seed,ratio", [(20, 1.0), (21, 0.5), (22, 0.25),
                                        (23, 0.1), (24, 0.6)])
def test_reassembly_matches_per_token_oracle(seed, ratio):
    rng = np.random.default_rng(seed)
    _, tmr, imp = make_pipeline_inputs(rng, b=7, grid=(3, 4), d=6,
                                       redundant_run=(1, 5, 7))
    cfg = CompressionConfig(target_ratio=ratio)
    cv = spatial_merge(tmr, imp, cfg)
    tokens, prov = reassembly_oracle(tmr, imp, cfg)
    assert any(p.members for p in cv.provenance)
    np.testing.assert_array_equal(cv.tokens, tokens)
    assert [(p.frame, p.spatial_index, p.kind, p.members)
            for p in cv.provenance] == prov
