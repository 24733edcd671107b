"""Temporal stage tests: mask semantics, DP optimality vs brute force, merging."""

import numpy as np
import pytest

from tokmerge import (
    DataError,
    RedundancyMask,
    VideoTokenStream,
    apply_temporal_merge,
    optimal_segmentation,
    pairwise_redundancy,
    segment_gain,
    temporal,
)


def direct_cosine_mask(data, tau):
    """Oracle: per-slot cosine between consecutive frames via explicit loops."""
    b, n_v, _ = data.shape
    rows = np.zeros((b - 1, n_v), dtype=bool)
    for m in range(b - 1):
        for k in range(n_v):
            u = data[m, k].astype(np.float64)
            v = data[m + 1, k].astype(np.float64)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            sim = 0.0 if nu == 0 or nv == 0 else float(u @ v) / (nu * nv)
            rows[m, k] = sim > tau
    return rows


def reference_similarity(data):
    """Oracle: the float64 cosine definition over the whole batch at once.

    Consecutive-frame similarity of every slot from float64 ``einsum`` dot
    products and norms of the float32 tokens; zero norm gives 0, and values
    are clipped to [-1, 1].
    """
    x = np.asarray(data, dtype=np.float32)
    norms = np.sqrt(np.einsum("bkd,bkd->bk", x, x, dtype=np.float64))
    dots = np.einsum("bkd,bkd->bk", x[:-1], x[1:], dtype=np.float64)
    denom = norms[:-1] * norms[1:]
    sim = np.zeros_like(dots)
    nz = denom > 0
    sim[nz] = np.clip(dots[nz] / denom[nz], -1.0, 1.0)
    return sim


def reference_mask(data, tau):
    """Oracle: the redundancy mask of the float64 definition."""
    return reference_similarity(data) > tau


def brute_force_gains(rows):
    """All segment gains of a bool mask, computed from the defining product."""
    b = rows.shape[0] + 1
    g = {}
    for s in range(1, b + 1):
        for e in range(s + 1, b + 2):
            if e - s == 1:
                g[s, e] = 0
            else:
                persistent = rows[s - 1 : e - 2].all(axis=0)
                g[s, e] = int(persistent.sum()) * (e - s - 1)
    return g


def brute_force_best_total(rows):
    """Exhaustive maximum over all 2^(B-1) boundary subsets."""
    b = rows.shape[0] + 1
    g = brute_force_gains(rows)
    best = -1
    for bits in range(2 ** (b - 1)):
        bounds = [1] + [t + 2 for t in range(b - 1) if bits >> t & 1] + [b + 1]
        best = max(best, sum(g[s, e] for s, e in zip(bounds, bounds[1:])))
    return best


def reference_dp(rows):
    """The DP recurrence in plain Python over ``brute_force_gains``.

    Returns ``(dp, prev)`` for frames 1..B+1: ``dp[i] = max_j dp[j] + g[j, i]``
    over 1 <= j < i, and ``prev[i]`` the smallest maximising ``j``.
    """
    b = rows.shape[0] + 1
    g = brute_force_gains(rows)
    dp, prev = [0] * (b + 2), [0] * (b + 2)
    for i in range(2, b + 2):
        prev[i] = max(range(1, i), key=lambda j: (dp[j] + g[j, i], -j))
        dp[i] = dp[prev[i]] + g[prev[i], i]
    return dp[1:], prev[1:]


def reference_merged_values(data, s, e, red, mode):
    """Oracle: a segment's merged values from a gathered copy of every
    occurrence of its redundant slots ``red`` in frames [s, e) (1-based)."""
    if mode == "first":
        return data[s - 1, red, :]
    return data[s - 1 : e - 1, red, :].mean(axis=0, dtype=np.float64).astype(np.float32)


def random_rows(rng, b, n_v):
    return rng.random((b - 1, n_v)) < rng.uniform(0.1, 0.95)


def random_stream(rng, b=4, n_v=6, d=8):
    return VideoTokenStream(
        rng.standard_normal((b, n_v, d)).astype(np.float32), (1, n_v))


class TestPairwiseRedundancy:
    def test_identical_frames_all_true(self):
        frame = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)
        stream = VideoTokenStream(np.broadcast_to(frame, (4, 6, 8)).copy(), (2, 3))
        mask = pairwise_redundancy(stream, 0.8)
        assert mask.to_bool().all()

    def test_orthogonal_token_false(self):
        data = np.zeros((2, 2, 4), dtype=np.float32)
        data[0, 0, 0] = 1.0
        data[1, 0, 1] = 1.0  # orthogonal across the pair
        data[:, 1, 2] = 1.0  # identical across the pair
        mask = pairwise_redundancy(VideoTokenStream(data, (1, 2)), 0.8).to_bool()
        assert not mask[0, 0]
        assert mask[0, 1]

    def test_zero_norm_never_redundant(self):
        data = np.zeros((3, 2, 4), dtype=np.float32)
        mask = pairwise_redundancy(VideoTokenStream(data, (1, 2)), 0.0)
        assert not mask.to_bool().any()

    def test_single_frame_empty_mask(self):
        stream = random_stream(np.random.default_rng(1), b=1)
        mask = pairwise_redundancy(stream, 0.8)
        assert mask.to_bool().shape == (0, 6)

    def test_constant_column_against_direct_cosine(self):
        """Gaussian d=16 tokens with one slot held constant across 4 frames."""
        rng = np.random.default_rng(42)
        data = rng.standard_normal((4, 10, 16)).astype(np.float32)
        data[:, 3] = data[0, 3]
        stream = VideoTokenStream(data, (2, 5))
        got = pairwise_redundancy(stream, 0.8).to_bool()
        expected = direct_cosine_mask(stream.data, 0.8)
        np.testing.assert_array_equal(got, expected)
        assert got[:, 3].all()
        assert got.sum() == got[:, 3].sum()  # nothing else crosses 0.8

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((6, 8, 12)).astype(np.float32)
        data[1:4] = data[0] + 0.05 * rng.standard_normal((3, 8, 12)).astype(np.float32)
        stream = VideoTokenStream(data, (2, 4))
        lo = pairwise_redundancy(stream, 0.5).to_bool()
        hi = pairwise_redundancy(stream, 0.9).to_bool()
        assert (lo | hi == lo).all()  # every entry true at 0.9 is true at 0.5

    def test_pairs_near_tau_rechecked_exactly(self, monkeypatch):
        """Pairs planted at cosine tau fall in the error band; their bits
        come from the float64 recheck and equal the definition."""
        rng = np.random.default_rng(11)
        d, tau = 896, 0.8
        first, other = rng.standard_normal((2, 40, d))
        first /= np.linalg.norm(first, axis=1, keepdims=True)
        other -= np.sum(other * first, axis=1, keepdims=True) * first
        other /= np.linalg.norm(other, axis=1, keepdims=True)
        second = tau * first + np.sqrt(1 - tau**2) * other
        stream = VideoTokenStream(np.stack([first, second]).astype(np.float32), (5, 8))
        rechecked = []
        exact = temporal._exact_similarity

        def spy(a, b):
            rechecked.append(len(a))
            return exact(a, b)

        monkeypatch.setattr(temporal, "_exact_similarity", spy)
        got = pairwise_redundancy(stream, tau).to_bool()
        expected = reference_mask(stream.data, tau)
        np.testing.assert_array_equal(got, expected)
        assert sum(rechecked) == 40
        assert 0 < expected.sum() < 40  # both sides of tau occur

    def test_recheck_equals_batch_definition(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 9, 1000)).astype(np.float32)
        x[2, 3] = 0.0
        f, k = np.nonzero(rng.random((3, 9)) < 0.5)
        got = temporal._exact_similarity(x[f, k], x[f + 1, k])
        np.testing.assert_array_equal(got, reference_similarity(x)[f, k])


class TestSegmentGain:
    def test_all_true_full_span(self):
        mask = RedundancyMask.from_bool(np.ones((2, 5), dtype=bool))
        assert segment_gain(mask, 1, 4) == 10

    def test_length_one_span_zero(self):
        mask = RedundancyMask.from_bool(np.ones((2, 5), dtype=bool))
        assert all(segment_gain(mask, s, s + 1) == 0 for s in (1, 2, 3))

    def test_enumerated_example(self):
        mask = RedundancyMask.from_bool(np.array([[1, 0, 1], [1, 1, 0]], dtype=bool))
        assert segment_gain(mask, 1, 4) == 2  # only slot 0 persists

    def test_out_of_range(self):
        mask = RedundancyMask.from_bool(np.ones((2, 3), dtype=bool))
        with pytest.raises(DataError):
            segment_gain(mask, 0, 2)
        with pytest.raises(DataError):
            segment_gain(mask, 2, 5)

    def test_matches_brute_force_table(self):
        rng = np.random.default_rng(3)
        rows = rng.random((5, 9)) < 0.5
        mask = RedundancyMask.from_bool(rows)
        table = brute_force_gains(rows)
        for (s, e), expect in table.items():
            assert segment_gain(mask, s, e) == expect


class TestOptimalSegmentation:
    def test_all_true_single_segment(self):
        mask = RedundancyMask.from_bool(np.ones((3, 7), dtype=bool))
        plan = optimal_segmentation(mask)
        assert plan.boundaries == (1, 5)
        assert plan.total_gain == 7 * 3

    def test_all_false_single_segment_by_tiebreak(self):
        mask = RedundancyMask.from_bool(np.zeros((4, 6), dtype=bool))
        plan = optimal_segmentation(mask)
        assert plan.total_gain == 0
        assert plan.boundaries == (1, 6)

    def test_single_frame(self):
        mask = RedundancyMask.from_bool(np.zeros((0, 4), dtype=bool), n_tokens=4)
        plan = optimal_segmentation(mask)
        assert plan.boundaries == (1, 2)
        assert plan.total_gain == 0

    def test_single_frame_tables(self):
        mask = RedundancyMask.from_bool(np.zeros((0, 5), dtype=bool), n_tokens=5)
        plan = optimal_segmentation(mask)
        assert plan.dp[2] == 0 and plan.prev[2] == 1

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            b = int(rng.integers(1, 10))
            n_v = int(rng.integers(1, 24))
            rows = rng.random((b - 1, n_v)) < rng.uniform(0.2, 0.9)
            plan = optimal_segmentation(RedundancyMask.from_bool(rows, n_v))
            assert plan.total_gain == brute_force_best_total(rows)

    def assert_tables_match_reference(self, rows):
        plan = optimal_segmentation(RedundancyMask.from_bool(rows, rows.shape[1]))
        dp, prev = reference_dp(rows)
        np.testing.assert_array_equal(plan.dp[1:], dp)
        np.testing.assert_array_equal(plan.prev[1:], prev)

    def test_tables_match_reference_recurrence(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            b = int(rng.integers(1, 40))
            n_v = int(rng.integers(1, 200))
            rows = random_rows(rng, b, n_v) if b > 1 else np.zeros((0, n_v), dtype=bool)
            self.assert_tables_match_reference(rows)

    def test_tables_match_reference_across_word_boundaries(self):
        rng = np.random.default_rng(1)
        for n_v in (1, 63, 64, 65, 127, 128, 129, 200):
            self.assert_tables_match_reference(random_rows(rng, 12, n_v))

    def test_dp_consistency_along_plan(self):
        rng = np.random.default_rng(13)
        rows = rng.random((9, 16)) < 0.6
        mask = RedundancyMask.from_bool(rows)
        plan = optimal_segmentation(mask)
        for s, e in plan.segments():
            assert plan.dp[e] == plan.dp[s] + segment_gain(mask, s, e)


class TestApplyTemporalMerge:
    def _merge(self, data, grid, tau, mode):
        stream = VideoTokenStream(data, grid)
        mask = pairwise_redundancy(stream, tau)
        plan = optimal_segmentation(mask)
        return stream, plan, apply_temporal_merge(stream, plan, mask, mode)

    def test_identical_frames_first_mode_dedups(self):
        frame = np.random.default_rng(2).standard_normal((4, 8)).astype(np.float32)
        data = np.broadcast_to(frame, (5, 4, 8)).copy()
        _, plan, tmr = self._merge(data, (2, 2), 0.8, "first")
        assert plan.boundaries == (1, 6)
        seg = tmr.segments[0]
        assert seg.survivor_idx.size == 0
        np.testing.assert_array_equal(seg.merged_values, frame)
        assert tmr.survivor_count == 4

    def test_first_mode_keeps_first_occurrence(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 12)).astype(np.float32)
        data = np.stack([base + 0.05 * rng.standard_normal((6, 12)).astype(np.float32)
                         for _ in range(5)])
        stream, plan, tmr = self._merge(data, (2, 3), 0.8, "first")
        assert plan.total_gain > 0
        for seg in tmr.segments:
            np.testing.assert_array_equal(
                seg.merged_values, stream.data[seg.start - 1, seg.redundant_idx])

    def test_identical_frames_mean_mode_same_values(self):
        frame = np.random.default_rng(4).standard_normal((4, 8)).astype(np.float32)
        data = np.broadcast_to(frame, (5, 4, 8)).copy()
        _, _, tmr = self._merge(data, (2, 2), 0.8, "mean")
        np.testing.assert_allclose(tmr.segments[0].merged_values, frame, rtol=1e-6)

    def test_three_frame_arithmetic_mean(self):
        """Values v, v+eps, v+2eps above tau merge to v+eps under mode=mean."""
        v = np.full(8, 2.0, dtype=np.float32)
        eps = np.full(8, 0.01, dtype=np.float32)
        data = np.stack([v, v + eps, v + 2 * eps])[:, None, :]
        _, plan, tmr = self._merge(data, (1, 1), 0.8, "mean")
        assert plan.total_gain == 2
        np.testing.assert_allclose(
            tmr.segments[0].merged_values[0], v + eps, rtol=1e-6)

    def test_mean_conservation_on_random_segments(self):
        """Merged values equal the direct mean of absorbed occurrences."""
        rng = np.random.default_rng(21)
        base = rng.standard_normal((6, 12)).astype(np.float32)
        data = np.stack([base + 0.01 * rng.standard_normal((6, 12)).astype(np.float32)
                         for _ in range(7)])
        stream, plan, tmr = self._merge(data, (2, 3), 0.8, "mean")
        for seg in tmr.segments:
            occ = stream.data[seg.start - 1 : seg.end - 1, seg.redundant_idx, :]
            expect = occ.astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(seg.merged_values, expect, rtol=1e-6)

    def test_count_identity(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((8, 9, 6)).astype(np.float32)
        data[2:5] = data[1]  # plant a redundant run
        stream, plan, tmr = self._merge(data, (3, 3), 0.9, "mean")
        survivors = sum(seg.redundant_idx.size
                        + seg.length * seg.survivor_idx.size
                        for seg in tmr.segments)
        assert survivors == tmr.survivor_count
        assert tmr.original_count - survivors == plan.total_gain

    def test_dimension_mismatch_rejected(self):
        stream = random_stream(np.random.default_rng(5), b=4)
        mask = pairwise_redundancy(stream, 0.8)
        plan = optimal_segmentation(mask)
        other = random_stream(np.random.default_rng(6), b=5)
        wrong_mask = pairwise_redundancy(other, 0.8)
        with pytest.raises(DataError):
            apply_temporal_merge(other, plan, wrong_mask, "mean")


class TestMergedValuesBitExact:
    """merged_values equal the gathered-mean oracle bit for bit."""

    @staticmethod
    def merge_segment(data, red, mode):
        """Merge frames 2..B of ``data`` as one segment persistent on ``red``.

        Frame 1 is a segment of its own (the first pair has no redundant
        slot), so the merged segment starts at frame 2; with ``red`` empty
        the optimum is one segment over every frame.
        """
        b, n_v, _ = data.shape
        rows = np.zeros((b - 1, n_v), dtype=bool)
        rows[1:, red] = True
        mask = RedundancyMask.from_bool(rows, n_v)
        plan = optimal_segmentation(mask)
        tmr = apply_temporal_merge(VideoTokenStream(data, (1, n_v)), plan, mask, mode)
        seg = tmr.segments[-1]
        assert (seg.start, seg.end) == ((2 if len(red) else 1), b + 1)
        np.testing.assert_array_equal(seg.redundant_idx, red)
        return seg

    @staticmethod
    def assert_bits_equal(a, b):
        assert a.dtype == b.dtype == np.float32 and a.shape == b.shape
        assert np.array_equal(a.view(np.uint32), b.view(np.uint32))

    @staticmethod
    def scaled_tokens(rng, b, n_v, d):
        """Tokens with per-token scales 1e-30..1e30, float32 subnormals included."""
        scale = 10.0 ** rng.integers(-30, 31, (b, n_v, 1))
        data = (rng.standard_normal((b, n_v, d)) * scale).astype(np.float32)
        data[:, 0, : d // 2] = np.float32(1e-40) * rng.integers(1, 100, (b, d // 2))
        assert (np.abs(data[:, 0, : d // 2]) < np.finfo(np.float32).tiny).all()
        return data

    @pytest.mark.parametrize("length", [2, 3, 9, 33, 129, 300])
    @pytest.mark.parametrize("layout", ["scattered", "contiguous", "empty"])
    def test_mean_matches_gathered_oracle(self, length, layout):
        rng = np.random.default_rng(length)
        n_v, d = 24, 7
        data = self.scaled_tokens(rng, length + 1, n_v, d)
        red = {"scattered": np.array([0, 3, 4, 11, 17, 23]),
               "contiguous": np.arange(5, 15),
               "empty": np.array([], dtype=np.int64)}[layout]
        # slots 4 and 11 hold unit-scale tokens whose first two occurrences
        # in the segment cancel, so any other summation order loses the
        # later terms
        data[:, [4, 11]] = rng.standard_normal((length + 1, 2, d))
        big = np.float32(1e30) * rng.standard_normal(d).astype(np.float32)
        data[1, [4, 11]], data[2, [4, 11]] = big, -big
        seg = self.merge_segment(data, red, "mean")
        self.assert_bits_equal(
            seg.merged_values, reference_merged_values(data, seg.start, seg.end, red, "mean"))

    @pytest.mark.parametrize("length", [2, 3, 9, 33, 129, 300])
    def test_signed_zero_slots(self, length):
        """An all -0.0 slot merges to +0.0, as a sum from +0.0 gives."""
        rng = np.random.default_rng(100 + length)
        n_v, d = 6, 5
        data = rng.standard_normal((length + 1, n_v, d)).astype(np.float32)
        data[:, 1] = np.float32(-0.0)
        data[:, 4] = np.where(rng.random((length + 1, d)) < 0.5, np.float32(-0.0),
                              np.float32(0.0))
        data[:, 4, 0] = np.float32(-0.0)  # one all -0.0 component in the mixed slot
        red = np.array([1, 2, 4])
        seg = self.merge_segment(data, red, "mean")
        self.assert_bits_equal(
            seg.merged_values, reference_merged_values(data, seg.start, seg.end, red, "mean"))
        merged = seg.merged_values
        assert not np.signbit(merged[0]).any() and not np.signbit(merged[2]).any()

    @pytest.mark.parametrize("length", [2, 9, 300])
    def test_first_mode_unchanged(self, length):
        rng = np.random.default_rng(200 + length)
        data = self.scaled_tokens(rng, length + 1, 10, 4)
        red = np.array([0, 2, 3, 9])
        seg = self.merge_segment(data, red, "first")
        self.assert_bits_equal(
            seg.merged_values, reference_merged_values(data, seg.start, seg.end, red, "first"))
