"""Spatial stage tests: attention, pooling, selection, DPC-KNN, budget."""

import math

import numpy as np
import pytest

from tokmerge import (
    CompressionConfig,
    DataError,
    VideoTokenStream,
    apply_temporal_merge,
    attention_select,
    build_importance,
    dpc_knn_cluster,
    frame_attention,
    importance_scores,
    merge_clusters,
    optimal_segmentation,
    pairwise_redundancy,
    pool_importance,
    spatial_merge,
)


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


class TestFrameAttention:
    def test_zero_queries_give_uniform_rows(self):
        q = np.zeros((5, 3))
        k = np.random.default_rng(0).standard_normal((5, 3))
        a = frame_attention(q, k)
        np.testing.assert_allclose(a, np.full((5, 5), 0.2), atol=1e-12)

    def test_singleton(self):
        a = frame_attention(np.ones((1, 4)), np.ones((1, 4)))
        np.testing.assert_allclose(a, [[1.0]])

    def test_scalar_softmax_oracle(self):
        a = frame_attention(np.array([[1.0], [0.0]]), np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(a[0], [0.7311, 0.2689], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        a = frame_attention(rng.standard_normal((9, 6)), rng.standard_normal((9, 6)))
        np.testing.assert_allclose(a.sum(axis=1), np.ones(9), atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            frame_attention(np.ones((3, 2)), np.ones((4, 2)))


class TestImportanceScores:
    def test_uniform(self):
        n = 6
        scores = importance_scores(np.full((n, n), 1.0 / n))
        np.testing.assert_allclose(scores, np.full(n, 1.0 / n))

    def test_identity_rows(self):
        scores = importance_scores(np.eye(5))
        np.testing.assert_allclose(scores, np.full(5, 0.2))

    def test_single_column_mass(self):
        a = np.zeros((4, 4))
        a[:, 2] = 1.0
        scores = importance_scores(a)
        np.testing.assert_allclose(scores, [0, 0, 1.0, 0])

    def test_non_square_rejected(self):
        with pytest.raises(DataError):
            importance_scores(np.ones((3, 4)))


class TestPoolImportance:
    def test_constant_grid(self):
        out = pool_importance(np.full((6, 9), 3.5), (2, 3))
        np.testing.assert_allclose(out, np.full((2, 3), 3.5))

    def test_full_average(self):
        out = pool_importance(np.array([[1.0, 2.0], [3.0, 4.0]]), (1, 1))
        np.testing.assert_allclose(out, [[2.5]])

    def test_ramp_bin_edges(self):
        """27 -> 14 bins: enumerate the floor edges and average each bin."""
        raw = np.arange(27.0 * 27.0).reshape(27, 27)
        out = pool_importance(raw, (14, 14))
        edges = [(i * 27) // 14 for i in range(15)]
        assert edges[0] == 0 and edges[1] == 1
        np.testing.assert_allclose(out[0, 0], raw[0, 0])
        for i in range(14):
            for j in range(14):
                block = raw[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]
                np.testing.assert_allclose(out[i, j], block.mean())

    def test_mean_preserved_for_divisible_grids(self):
        rng = np.random.default_rng(2)
        raw = rng.random((12, 8))
        out = pool_importance(raw, (4, 4))
        np.testing.assert_allclose(out.mean(), raw.mean(), rtol=1e-12)

    def test_identity_pooling_matches_bin_loop(self):
        rng = np.random.default_rng(16)
        raw = np.round(rng.random((5, 12)), 1)  # repeated scores, as in ties
        imp = build_importance(raw, (3, 4))
        expect = np.stack([pool_importance(f.reshape(3, 4), (3, 4)) for f in raw])
        np.testing.assert_array_equal(imp.pooled, expect)
        np.testing.assert_array_equal(imp.token_scores(), raw)

    def test_oversized_pooled_grid_rejected(self):
        with pytest.raises(DataError):
            pool_importance(np.ones((3, 3)), (4, 2))


class TestAttentionSelect:
    def test_keep_all_identity(self):
        scores = np.array([0.3, 0.1, 0.2])
        np.testing.assert_array_equal(attention_select(scores, 3), [0, 1, 2])

    def test_top_two(self):
        np.testing.assert_array_equal(
            attention_select(np.array([0.1, 0.9, 0.5]), 2), [1, 2])

    def test_tie_break_toward_smaller_index(self):
        np.testing.assert_array_equal(
            attention_select(np.full(5, 0.7), 3), [0, 1, 2])

    def test_rows_select_like_single_frames(self):
        scores = np.round(np.random.default_rng(17).random((6, 9)), 1)
        got = attention_select(scores, 4)
        for row, expect in zip(scores, got):
            np.testing.assert_array_equal(attention_select(row, 4), expect)

    def test_keep_too_large(self):
        with pytest.raises(DataError):
            attention_select(np.ones(3), 4)


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
    imp = build_importance(rng.random((b, n_v)), grid)
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
    scores = imp.token_scores()
    for frame in range(b):
        slots = [p.spatial_index for p in cv.provenance if p.frame == frame]
        expect = attention_select(scores[frame], keep)
        np.testing.assert_array_equal(slots, expect)


def test_budget_adherence_mixed_instance():
    """B=4, N_v=16, target 0.25: count lands within per-group ceiling slack."""
    rng = np.random.default_rng(11)
    stream, tmr, imp = make_pipeline_inputs(
        rng, b=4, grid=(4, 4), d=8, redundant_run=(0, 3, 6))
    cfg = CompressionConfig(target_ratio=0.25)
    cv = spatial_merge(tmr, imp, cfg)
    target = math.ceil(0.25 * 4 * 16)
    groups = sum((seg.survivor_idx.size > 0) * seg.length
                 + (seg.redundant_idx.size > 0)
                 for seg in tmr.segments)
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
    imp = build_importance(raw, (4, 4), pooled_grid=(2, 2))
    scores = imp.token_scores()[0].reshape(4, 4)
    for i in range(4):
        for j in range(4):
            assert scores[i, j] == imp.pooled[0, i // 2, j // 2]


def test_spatial_merge_with_coarse_pooled_grid():
    """Selection under a coarser pooled grid scores each slot by its bin."""
    rng = np.random.default_rng(14)
    stream, tmr, _ = make_pipeline_inputs(rng, b=3, grid=(4, 4), d=64)
    assert tmr.pruned_count == 0  # gaussians in d=64 stay below tau
    raw = rng.random((3, 16))
    imp = build_importance(raw, (4, 4), pooled_grid=(2, 2))
    cfg = CompressionConfig(target_ratio=0.25, pooled_grid=(2, 2))
    cv = spatial_merge(tmr, imp, cfg)
    keep = math.ceil(0.25 * 16)
    scores = imp.token_scores()
    for frame in range(3):
        slots = [p.spatial_index for p in cv.provenance if p.frame == frame]
        np.testing.assert_array_equal(slots, attention_select(scores[frame], keep))


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
    seg = tmr.segments[0]
    for p in reps:
        assert p.frame == seg.start - 1
        assert p.spatial_index in set(seg.redundant_idx)
        assert p.members  # absorbed occurrences recorded


def reassembly_oracle(tmr, imp, cfg):
    """Per-token reassembly: one entry per output token, then a sort."""
    stream = tmr.stream
    b, n_v = stream.frames, stream.tokens_per_frame
    target = math.ceil(cfg.target_ratio * b * n_v)
    pass_through = tmr.survivor_count <= target
    rate = target / tmr.survivor_count
    entries = []
    for seg in tmr.segments:
        def absorbed(slot, seg=seg):
            return [(f, int(slot)) for f in range(seg.start, seg.end - 1)]
        for f0 in range(seg.start - 1, seg.end - 1):
            kept = seg.survivor_idx
            if not pass_through and kept.size:
                scores = imp.token_scores()[f0, kept]
                kept = kept[attention_select(scores, math.ceil(rate * kept.size))]
            for slot in kept:
                entries.append((f0, int(slot), stream.data[f0, slot], "selected", []))
        red, f0 = seg.redundant_idx, seg.start - 1
        if red.size == 0:
            continue
        if pass_through:
            for pos, slot in enumerate(red):
                entries.append((f0, int(slot), seg.merged_values[pos],
                                "temporal_rep", absorbed(slot)))
            continue
        k = cfg.knn_k or min(max(2, math.isqrt(red.size)), red.size - 1)
        state = dpc_knn_cluster(seg.merged_values, min(max(k, 1), max(red.size - 1, 1)),
                                math.ceil(rate * red.size))
        reps, centers = merge_clusters(seg.merged_values, state)
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
