"""Temporal stage tests: mask semantics, DP optimality vs brute force, merging."""

import dataclasses

import numpy as np
import pytest

from tokmerge import (
    DataError,
    SegmentPlan,
    VideoTokenStream,
    apply_temporal_merge,
    optimal_segmentation,
    pairwise_redundancy,
    temporal,
)
from oracles import (brute_force_best_total, brute_force_gains, direct_cosine_mask, reference_dp,
                     reference_mask, reference_merged_values, reference_similarity, segment_gain)
from support import merged_segments, same_bits


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
        assert mask.all()

    def test_orthogonal_token_false(self):
        data = np.zeros((2, 2, 4), dtype=np.float32)
        data[0, 0, 0] = 1.0
        data[1, 0, 1] = 1.0  # orthogonal across the pair
        data[:, 1, 2] = 1.0  # identical across the pair
        mask = pairwise_redundancy(VideoTokenStream(data, (1, 2)), 0.8)
        assert not mask[0, 0]
        assert mask[0, 1]

    def test_zero_norm_never_redundant(self):
        data = np.zeros((3, 2, 4), dtype=np.float32)
        mask = pairwise_redundancy(VideoTokenStream(data, (1, 2)), 0.0)
        assert not mask.any()

    def test_single_frame_empty_mask(self):
        stream = random_stream(np.random.default_rng(1), b=1)
        mask = pairwise_redundancy(stream, 0.8)
        assert mask.shape == (0, 6)

    def test_constant_column_against_direct_cosine(self):
        """Gaussian d=16 tokens with one slot held constant across 4 frames."""
        rng = np.random.default_rng(42)
        data = rng.standard_normal((4, 10, 16)).astype(np.float32)
        data[:, 3] = data[0, 3]
        stream = VideoTokenStream(data, (2, 5))
        got = pairwise_redundancy(stream, 0.8)
        expected = direct_cosine_mask(stream.data, 0.8)
        np.testing.assert_array_equal(got, expected)
        assert got[:, 3].all()
        assert got.sum() == got[:, 3].sum()  # nothing else crosses 0.8

    def test_tau_monotonicity(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((6, 8, 12)).astype(np.float32)
        data[1:4] = data[0] + 0.05 * rng.standard_normal((3, 8, 12)).astype(np.float32)
        stream = VideoTokenStream(data, (2, 4))
        lo = pairwise_redundancy(stream, 0.5)
        hi = pairwise_redundancy(stream, 0.9)
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
        exact = temporal._cosine

        def spy(a, b):
            rechecked.append(len(a))
            return exact(a, b)

        monkeypatch.setattr(temporal, "_cosine", spy)
        got = pairwise_redundancy(stream, tau)
        expected = reference_mask(stream.data, tau)
        np.testing.assert_array_equal(got, expected)
        assert sum(rechecked) == 40
        assert 0 < expected.sum() < 40  # both sides of tau occur

    def test_recheck_equals_batch_definition(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 9, 1000)).astype(np.float32)
        x[2, 3] = 0.0
        f, k = np.nonzero(rng.random((3, 9)) < 0.5)
        got = np.clip(temporal._cosine(x[f, k], x[f + 1, k]), -1.0, 1.0)
        np.testing.assert_array_equal(got, reference_similarity(x)[f, k])


class TestSegmentGain:
    def test_all_true_full_span(self):
        mask = np.ones((2, 5), dtype=bool)
        assert segment_gain(mask, 1, 4) == 10

    def test_length_one_span_zero(self):
        mask = np.ones((2, 5), dtype=bool)
        assert all(segment_gain(mask, s, s + 1) == 0 for s in (1, 2, 3))

    def test_enumerated_example(self):
        mask = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
        assert segment_gain(mask, 1, 4) == 2  # only slot 0 persists

    def test_out_of_range(self):
        mask = np.ones((2, 3), dtype=bool)
        with pytest.raises(DataError):
            segment_gain(mask, 0, 2)
        with pytest.raises(DataError):
            segment_gain(mask, 2, 5)

    def test_matches_brute_force_table(self):
        rng = np.random.default_rng(3)
        rows = rng.random((5, 9)) < 0.5
        table = brute_force_gains(rows)
        for (s, e), expect in table.items():
            assert segment_gain(rows, s, e) == expect


class TestOptimalSegmentation:
    def test_all_true_single_segment(self):
        mask = np.ones((3, 7), dtype=bool)
        plan = optimal_segmentation(mask)
        assert plan.boundaries == (1, 5)
        assert plan.total_gain == 7 * 3

    def test_all_false_single_segment_by_tiebreak(self):
        mask = np.zeros((4, 6), dtype=bool)
        plan = optimal_segmentation(mask)
        assert plan.total_gain == 0
        assert plan.boundaries == (1, 6)

    def test_single_frame(self):
        mask = np.zeros((0, 4), dtype=bool)
        plan = optimal_segmentation(mask)
        assert plan.boundaries == (1, 2)
        assert plan.total_gain == 0

    def test_single_frame_tables(self):
        mask = np.zeros((0, 5), dtype=bool)
        plan = optimal_segmentation(mask)
        assert plan.dp[2] == 0 and plan.prev[2] == 1

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            b = int(rng.integers(1, 10))
            n_v = int(rng.integers(1, 24))
            rows = rng.random((b - 1, n_v)) < rng.uniform(0.2, 0.9)
            plan = optimal_segmentation(rows)
            assert plan.total_gain == brute_force_best_total(rows)

    def assert_tables_match_reference(self, rows):
        plan = optimal_segmentation(rows)
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
        # Random masks, then with long all-ones runs (large gains) and
        # all-zero runs (equal-dp plateaus, where ties place the boundaries).
        rng = np.random.default_rng(13)
        cases = [rng.random((9, 16)) < 0.6]
        for _ in range(30):
            rows = random_rows(rng, int(rng.integers(2, 60)), int(rng.integers(1, 130)))
            for lo, hi in np.sort(rng.integers(0, rows.shape[0] + 1, (3, 2)), axis=1):
                rows[lo:hi] = rng.random() < 0.5
            cases.append(rows)
        for rows in cases:
            plan = optimal_segmentation(rows)
            for s, e in plan.segments():
                assert plan.dp[e] == plan.dp[s] + segment_gain(rows, s, e)
            assert plan.gains == tuple(segment_gain(rows, s, e) for s, e in plan.segments())
            assert sum(plan.gains) == plan.total_gain


class TestSegmentPlan:
    def test_tables_give_boundaries_gains_and_total(self):
        plan = SegmentPlan(np.array([0, 0, 0, 4, 4]), np.array([0, 0, 1, 1, 3]))
        assert plan.boundaries == (1, 3, 4)
        assert plan.segments() == ((1, 3), (3, 4))
        assert plan.gains == (4, 0)
        assert plan.total_gain == 4 and plan.n_segments == 2

    @pytest.mark.parametrize("prev", [
        [0, 0, 0, 1, 2],  # frame 2 points before frame 1
        [0, 0, 2, 1, 1],  # frame 2 points at itself
        [0, 0, 1, 3, 3],  # frame 3 points at itself
        [0, 0, 1, 2, 5],  # frame 4 points forward
        [0, 0],           # no frame
    ])
    def test_rejects_prev_not_pointing_back(self, prev):
        with pytest.raises(DataError):
            SegmentPlan(np.zeros(len(prev), dtype=np.int64), np.array(prev))

    def test_rejects_tables_of_different_shapes(self):
        with pytest.raises(DataError):
            SegmentPlan(np.zeros(4, dtype=np.int64), np.array([0, 0, 1, 1, 3]))


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
        assert tmr.redundant.all()
        np.testing.assert_array_equal(tmr.merged_values, frame)
        assert tmr.survivor_count == 4

    def test_first_mode_keeps_first_occurrence(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((6, 12)).astype(np.float32)
        data = np.stack([base + 0.05 * rng.standard_normal((6, 12)).astype(np.float32)
                         for _ in range(5)])
        stream, plan, tmr = self._merge(data, (2, 3), 0.8, "first")
        assert plan.total_gain > 0
        for start, _, red, merged in merged_segments(tmr):
            np.testing.assert_array_equal(merged, stream.data[start - 1, red])

    def test_identical_frames_mean_mode_same_values(self):
        frame = np.random.default_rng(4).standard_normal((4, 8)).astype(np.float32)
        data = np.broadcast_to(frame, (5, 4, 8)).copy()
        _, _, tmr = self._merge(data, (2, 2), 0.8, "mean")
        np.testing.assert_allclose(tmr.merged_values, frame, rtol=1e-6)

    def test_three_frame_arithmetic_mean(self):
        """Values v, v+eps, v+2eps above tau merge to v+eps under mode=mean."""
        v = np.full(8, 2.0, dtype=np.float32)
        eps = np.full(8, 0.01, dtype=np.float32)
        data = np.stack([v, v + eps, v + 2 * eps])[:, None, :]
        _, plan, tmr = self._merge(data, (1, 1), 0.8, "mean")
        assert plan.total_gain == 2
        np.testing.assert_allclose(
            tmr.merged_values[0], v + eps, rtol=1e-6)

    def test_mean_conservation_on_random_segments(self):
        """Merged values equal the direct mean of absorbed occurrences."""
        rng = np.random.default_rng(21)
        base = rng.standard_normal((6, 12)).astype(np.float32)
        data = np.stack([base + 0.01 * rng.standard_normal((6, 12)).astype(np.float32)
                         for _ in range(7)])
        stream, plan, tmr = self._merge(data, (2, 3), 0.8, "mean")
        for start, end, red, merged in merged_segments(tmr):
            occ = stream.data[start - 1 : end - 1, red, :]
            expect = occ.astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(merged, expect, rtol=1e-6)

    def test_count_identity(self):
        rng = np.random.default_rng(23)
        data = rng.standard_normal((8, 9, 6)).astype(np.float32)
        data[2:5] = data[1]  # plant a redundant run
        stream, plan, tmr = self._merge(data, (3, 3), 0.9, "mean")
        survivors = sum(red.size + (e - s) * (tmr.stream.tokens_per_frame - red.size)
                        for s, e, red, _ in merged_segments(tmr))
        assert survivors == tmr.survivor_count
        assert tmr.original_count - survivors == plan.total_gain

    @pytest.mark.parametrize("mode", ["mean", "first"])
    def test_result_arrays(self, mode):
        """One read-only redundant row per segment, unset in single-frame
        segments; one read-only merged row per set entry, in nonzero order."""
        rng = np.random.default_rng(24)
        rows = random_rows(rng, 12, 7)
        rows[4:6] = False  # frame 6 shares no slot with either neighbour
        stream = random_stream(rng, b=12, n_v=7, d=5)
        plan = optimal_segmentation(rows)
        tmr = apply_temporal_merge(stream, plan, rows, mode)
        assert (6, 7) in plan.segments()
        assert tmr.redundant.dtype == bool
        assert tmr.redundant.shape == (plan.n_segments, 7)
        for (s, e), row in zip(plan.segments(), tmr.redundant):
            np.testing.assert_array_equal(row, e - s > 1 and rows[s - 1 : e - 2].all(axis=0))
        seg, slot = np.nonzero(tmr.redundant)
        assert tmr.merged_values.dtype == np.float32
        assert tmr.merged_values.shape == (seg.size, 5)
        starts = np.array(plan.boundaries)[seg]
        for row, (s, e, k) in enumerate(zip(starts, np.array(plan.boundaries)[seg + 1], slot)):
            np.testing.assert_array_equal(tmr.merged_values[row],
                                          reference_merged_values(stream.data, s, e, [k], mode)[0])
        assert tmr.pruned_count == plan.total_gain
        assert tmr.survivor_count == 12 * 7 - plan.total_gain
        for arr in (tmr.redundant, tmr.merged_values):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_plan_from_another_mask_rejected(self):
        rows = np.zeros((5, 3), dtype=bool)
        rows[:, 0] = True
        plan = optimal_segmentation(rows)
        stream = random_stream(np.random.default_rng(25), b=6, n_v=3)
        with pytest.raises(DataError, match="pruned 0 occurrences but plan promised 5"):
            apply_temporal_merge(stream, plan, np.zeros_like(rows), "mean")

    @pytest.mark.parametrize("field,value,message", [
        ("redundant", lambda t: t.redundant[:, :2], r"redundant must be a \(2, 4\) bool"),
        ("redundant", lambda t: t.redundant.astype(np.int8), r"redundant must be a \(2, 4\) bool"),
        ("redundant", lambda t: np.ones((2, 4), dtype=bool), "unset for single-frame segments"),
        ("merged_values", lambda t: t.merged_values[:1], r"merged_values must be a \(2, 5\)"),
        ("merged_values", lambda t: t.merged_values.astype(np.float64),
         r"merged_values must be a \(2, 5\) float32"),
        ("stream", lambda t: random_stream(np.random.default_rng(0), b=5, n_v=4, d=5),
         "plan covers 4 frames, stream has 5"),
    ])
    def test_hand_built_result_checked(self, field, value, message):
        """A result must fit its plan and stream, or spatial_merge would end
        in a broadcasting error."""
        rows = np.zeros((3, 4), dtype=bool)
        rows[:2, 1:3] = True  # segments [1, 4) with slots 1 and 2, then [4, 5)
        stream = random_stream(np.random.default_rng(26), b=4, n_v=4, d=5)
        plan = optimal_segmentation(rows)
        tmr = apply_temporal_merge(stream, plan, rows, "mean")
        assert plan.segments() == ((1, 4), (4, 5))
        with pytest.raises(DataError, match=message):
            dataclasses.replace(tmr, **{field: value(tmr)})

    def test_unknown_mode_rejected(self):
        stream = random_stream(np.random.default_rng(5), b=4)
        mask = pairwise_redundancy(stream, 0.8)
        with pytest.raises(DataError, match="^unknown merge mode 'median'$"):
            apply_temporal_merge(stream, optimal_segmentation(mask), mask, "median")

    def test_dimension_mismatch_rejected(self):
        stream = random_stream(np.random.default_rng(5), b=4)
        mask = pairwise_redundancy(stream, 0.8)
        plan = optimal_segmentation(mask)
        other = random_stream(np.random.default_rng(6), b=5)
        wrong_mask = pairwise_redundancy(other, 0.8)
        with pytest.raises(DataError):
            apply_temporal_merge(other, plan, wrong_mask, "mean")

    @pytest.mark.parametrize("shape", [(3, 5), (3, 7), (4, 6)])
    def test_mask_shape_must_be_frame_pairs_by_slots(self, shape):
        stream = random_stream(np.random.default_rng(5), b=4, n_v=6)
        plan = optimal_segmentation(np.zeros((3, 6), dtype=bool))
        with pytest.raises(DataError, match=r"does not match stream 4x6; expected \(3, 6\)"):
            apply_temporal_merge(stream, plan, np.ones(shape, dtype=bool), "mean")

    def test_mask_returned_read_only(self):
        mask = pairwise_redundancy(random_stream(np.random.default_rng(7)), 0.5)
        assert mask.dtype == bool and mask.shape == (3, 6)
        with pytest.raises(ValueError):
            mask[0, 0] = True


@pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
def test_mask_not_two_dimensional_rejected(shape):
    mask = np.ones(shape, dtype=bool)
    with pytest.raises(DataError, match=r"mask must be a 2-D \(B-1, N_v\) array"):
        optimal_segmentation(mask)


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
        plan = optimal_segmentation(rows)
        tmr = apply_temporal_merge(VideoTokenStream(data, (1, n_v)), plan, rows, mode)
        start, end, slots, merged = merged_segments(tmr)[-1]
        assert (start, end) == ((2 if len(red) else 1), b + 1)
        np.testing.assert_array_equal(slots, red)
        return start, end, merged

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
        start, end, merged = self.merge_segment(data, red, "mean")
        assert same_bits(merged, reference_merged_values(data, start, end, red, "mean"))

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
        start, end, merged = self.merge_segment(data, red, "mean")
        assert same_bits(merged, reference_merged_values(data, start, end, red, "mean"))
        assert not np.signbit(merged[0]).any() and not np.signbit(merged[2]).any()

    @pytest.mark.parametrize("length", [2, 9, 300])
    def test_first_mode_unchanged(self, length):
        rng = np.random.default_rng(200 + length)
        data = self.scaled_tokens(rng, length + 1, 10, 4)
        red = np.array([0, 2, 3, 9])
        start, end, merged = self.merge_segment(data, red, "first")
        assert same_bits(merged, reference_merged_values(data, start, end, red, "first"))
