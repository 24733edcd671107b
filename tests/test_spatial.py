"""Spatial stage tests: attention, pooling, selection, DPC-KNN, budget."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tokmerge
from tokmerge import (
    CompressionConfig,
    ConfigError,
    DataError,
    ImportanceMap,
    VideoTokenStream,
    apply_temporal_merge,
    compress,
    core,
    importance_from_attention,
    importance_from_qk,
    optimal_segmentation,
    pairwise_redundancy,
    spatial,
    spatial_merge,
)
from oracles import (dpc_oracle, frame_attention, importance_scores, pool_importance,
                     reassembly_oracle, spread_bins, top_k_oracle)
from support import (BLAS_SETTINGS, CASES, cluster_means, duplicate_corpus_digest,
                     mutual_nearest_misses, pooled_scores)


def select(scores, keep):
    """The ``keep`` (one per row) first slots of each row in the shared score
    order, as spatial_merge selects them."""
    return core._score_rank(np.asarray(scores, dtype=np.float64)) < np.asarray(keep)[..., None]


def qk_raw(q, k):
    """Scores of one frame's q/k through importance_from_qk, pooled to the
    grid itself: its raw importance."""
    return importance_from_qk(q[None], k[None], (q.shape[0], 1)).scores[0]


def attention_raw(a):
    """Scores of one frame's attention through importance_from_attention,
    pooled to the grid itself: its raw importance."""
    return importance_from_attention(a[None], (a.shape[0], 1)).scores[0]


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

    def test_negative_entry_rejected(self):
        attn = np.full((2, 4, 4), 0.25)
        attn[1, 0, 3] = -1e-300
        with pytest.raises(DataError, match="^attention: attention scores must be non-negative$"):
            importance_from_attention(attn, (2, 2))
        with pytest.raises(DataError, match="^attn.npy: attention scores must be non-negative$"):
            importance_from_attention(attn, (2, 2), name="attn.npy")
        attn[1, 0, 3] = -0.0  # not below zero
        importance_from_attention(attn, (2, 2))


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


def test_qk_dumps_with_zero_dim_named():
    """d = 0 dumps fail their shape contract rather than overflowing."""
    q = k = np.zeros((2, 4, 0), dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=(
                r"^query, key: shape \(2, 4, 0\), expected \(B, N_v, d >= 1\)$")):
            importance_from_qk(q, k, (2, 2))
        with pytest.raises(DataError, match="^q.npy, k.npy: shape"):
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
        with pytest.raises(ConfigError, match="^pooled_grid 4x2 must fit within the token grid 3x3$"):
            pooled(np.ones((3, 3)), (4, 2))


class TestAttentionSelect:
    def test_keep_all_identity(self):
        scores = np.array([0.3, 0.1, 0.2])
        np.testing.assert_array_equal(select(scores, 3), [True, True, True])

    def test_top_two(self):
        np.testing.assert_array_equal(np.flatnonzero(select([0.1, 0.9, 0.5], 2)), [1, 2])

    def test_tie_break_toward_smaller_index(self):
        np.testing.assert_array_equal(np.flatnonzero(select(np.full(5, 0.7), 3)), [0, 1, 2])

    def test_rows_select_like_single_frames(self):
        rng = np.random.default_rng(17)
        scores = np.round(rng.random((6, 9)), 1)
        for keep in (4, rng.integers(0, 10, 6)):
            got = select(scores, keep)
            for row, k, expect in zip(scores, np.broadcast_to(keep, 6), got):
                np.testing.assert_array_equal(select(row, k), expect)
                np.testing.assert_array_equal(np.flatnonzero(expect), top_k_oracle(row, k))
                assert expect.sum() == k


class TestDpcKnn:
    def test_single_token(self):
        centers, assignment = spatial._cluster(np.ones((1, 4)), 1, 1)
        np.testing.assert_array_equal(centers, [0])
        np.testing.assert_array_equal(assignment, [0])

    def test_identical_tokens_first_index_center(self):
        centers, assignment = spatial._cluster(np.ones((5, 3)), 2, 1)
        np.testing.assert_array_equal(centers, [0])
        assert (assignment == 0).all()

    def test_two_separated_pairs(self):
        tokens = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.0, 10.12]])
        centers, assignment = spatial._cluster(tokens, 1, 2)
        assert set(centers) & {0, 1}
        assert set(centers) & {2, 3}
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]

    def test_farthest_distance_decides_centers(self):
        """Token 0 leads the density order (ties by index) but lies 0.001
        from token 1: its delta, the farthest distance 10.5, makes it the
        top center. Its nearest distance instead would make gamma 0.001 and
        the centers [2] and [2, 3]."""
        tokens = np.array([[0.0], [0.001], [10.0], [10.5]])
        for c, expect in ((1, [0]), (2, [0, 2])):
            centers, assignment = spatial._cluster(tokens, 1, c)
            oracle_centers, oracle_assignment = dpc_oracle(tokens, 1, c)
            assert list(centers) == oracle_centers == expect
            np.testing.assert_array_equal(assignment, oracle_assignment)
            assert list(assignment[:2]) == [0, 0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            d = int(rng.integers(1, 5))
            tokens = rng.standard_normal((n, d))
            k = int(rng.integers(1, n))
            c = int(rng.integers(1, n + 1))
            centers, assignment = spatial._cluster(tokens, k, c)
            expect_centers, expect_assignment = dpc_oracle(tokens, k, c)
            assert list(centers) == expect_centers
            np.testing.assert_array_equal(assignment, expect_assignment)


    def test_duplicates_cluster_alike_under_every_blas_kernel(self):
        """The kernel matrix. Equal tokens are at distance 0 whichever kernel
        OpenBLAS runs the Gram matrix with, so a corpus of duplicates
        clusters as the oracle does, and each mutual-nearest pair's smaller
        index is its center; here, and in fresh interpreters under each
        BLAS_SETTINGS entry, which also reproduce the golden digests and
        criterion 4's agreement with dpc_oracle."""
        expect = {"golden": CASES, "criterion 4": [],
                  "duplicates": duplicate_corpus_digest(dpc_oracle), "pairs": []}
        assert duplicate_corpus_digest() == expect["duplicates"]
        assert mutual_nearest_misses() == []
        # the CLI prints as it writes; the facts are the last line
        code = "import json, support; print(json.dumps(support.kernel_facts()))"
        paths = [str(Path(tokmerge.__file__).parents[1]), str(Path(__file__).parent)]
        runs = [subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths), **setting),
        ) for setting in BLAS_SETTINGS]
        try:
            for setting, run in zip(BLAS_SETTINGS, runs):
                out, err = run.communicate(timeout=120)
                assert run.returncode == 0, err
                assert json.loads(out.splitlines()[-1]) == expect, setting
        finally:
            for run in runs:
                run.kill()


class TestMergeClusters:
    def test_singleton_clusters_identity(self):
        tokens = np.random.default_rng(5).standard_normal((4, 3))
        centers, assignment = spatial._cluster(tokens, 1, 4)
        np.testing.assert_array_equal(centers, np.arange(4))
        np.testing.assert_allclose(cluster_means(tokens, centers, assignment), tokens)

    def test_pair_cluster_mean(self):
        tokens = np.array([[0.0, 0.0], [1.0, 1.0]])
        centers, assignment = spatial._cluster(tokens, 1, 1)
        np.testing.assert_allclose(cluster_means(tokens, centers, assignment), [[0.5, 0.5]])

    def test_group_mean_oracle(self):
        rng = np.random.default_rng(6)
        tokens = rng.standard_normal((10, 4))
        centers, assignment = spatial._cluster(tokens, 3, 3)
        for rep, center in zip(cluster_means(tokens, centers, assignment), centers):
            group = tokens[assignment == center]
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
    stream, tmr, imp = make_pipeline_inputs(rng)
    cfg = CompressionConfig(target_ratio=0.25)
    with pytest.raises(DataError, match=r"match stream 4x4, got shape \(3, 4\)"):
        spatial_merge(tmr, ImportanceMap(imp.scores[:3], (2, 2)), cfg)
    with pytest.raises(DataError, match=r"must be finite and match stream 4x4, got shape \(4, 4\)"):
        spatial_merge(tmr, ImportanceMap(np.where(imp.scores > 0.5, np.nan, imp.scores), (2, 2)),
                      cfg)
    with pytest.raises(DataError, match=r"pooled to \(2, 2\) but config asks for \(1, 2\)"):
        spatial_merge(tmr, imp, CompressionConfig(target_ratio=0.25, pooled_grid=(1, 2)))
    # no pooled_grid is the stream grid, so a map pooled 1x2 is rejected as with (2, 2)
    with pytest.raises(DataError, match=r"pooled to \(1, 2\) but config asks for \(2, 2\)"):
        spatial_merge(tmr, ImportanceMap(imp.scores, (1, 2)), cfg)
    # a pooled grid beyond the stream grid, also in a pass-through run with no map
    fault = "^pooled_grid 9x9 must fit within the token grid 2x2$"
    with pytest.raises(ConfigError, match=fault):
        compress(stream, CompressionConfig(pooled_grid=(9, 9)))
    with pytest.raises(ConfigError, match=fault):
        spatial_merge(tmr, None, CompressionConfig(target_ratio=0.25, pooled_grid=(9, 9)))


@pytest.mark.parametrize("ratio", [1.0, 0.3])
def test_importance_checked_whenever_given(ratio):
    """A map for another stream, or with a NaN, is refused in a pass-through
    run as in a compressing one."""
    rng = np.random.default_rng(9)
    stream, _, _ = make_pipeline_inputs(rng, b=6, grid=(2, 3))
    cfg = CompressionConfig(target_ratio=ratio)
    with pytest.raises(DataError, match=(
            r"^importance scores must be finite and match stream 6x6, got shape \(9, 6\)$")):
        compress(stream, cfg, ImportanceMap(rng.random((9, 6)), (2, 3)))
    scores = rng.random((6, 6))
    scores[4, 1] = np.nan
    with pytest.raises(DataError, match=r"must be finite and match stream 6x6, got shape \(6, 6\)"):
        compress(stream, cfg, ImportanceMap(scores, (2, 3)))


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
        np.testing.assert_array_equal(slots, top_k_oracle(imp.scores[frame], keep))


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
        np.testing.assert_array_equal(slots, top_k_oracle(scores, keep))


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
