"""Inner-merge tests: ranking, cosine assignment, group means, conservation."""

import math

import numpy as np
import pytest

from tokmerge import (
    DataError,
    InnerMergeInput,
    inner_merge,
    merge_assigned,
    rank_by_last_attention,
    similarity_assign,
)


def cosine_argmax_oracle(candidates, retained, hidden):
    """Exhaustive pairwise cosine with smaller-retained-index tie-break."""
    out = {}
    for c in candidates:
        best, best_sim = None, -np.inf
        for r in retained:
            u, v = hidden[c].astype(np.float64), hidden[r].astype(np.float64)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            sim = 0.0 if nu == 0 or nv == 0 else float(u @ v) / (nu * nv)
            if sim > best_sim:
                best, best_sim = r, sim
        out[int(c)] = int(best)
    return out


class TestRanking:
    def test_r_zero_retains_all(self):
        retained, candidates = rank_by_last_attention(np.array([0.5, 0.2, 0.9]), 0)
        np.testing.assert_array_equal(retained, [0, 1, 2])
        assert candidates.size == 0

    def test_bottom_two_by_score(self):
        retained, candidates = rank_by_last_attention(
            np.array([0.4, 0.1, 0.3, 0.2]), 50)
        np.testing.assert_array_equal(candidates, [1, 3])
        np.testing.assert_array_equal(retained, [0, 2])

    def test_tie_break_retains_smaller_indices(self):
        retained, candidates = rank_by_last_attention(np.full(4, 0.25), 50)
        np.testing.assert_array_equal(retained, [0, 1])
        np.testing.assert_array_equal(candidates, [2, 3])

    def test_count_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            r = float(rng.uniform(0, 99.9))
            retained, candidates = rank_by_last_attention(rng.random(n), r)
            assert candidates.size == math.floor(r * n / 100)
            assert retained.size + candidates.size == n
            assert not set(retained) & set(candidates)

    def test_r_out_of_range(self):
        with pytest.raises(DataError):
            rank_by_last_attention(np.ones(4), 100)


class TestAssignment:
    def test_single_retained_token(self):
        hidden = np.random.default_rng(1).standard_normal((5, 4))
        assignment = similarity_assign(np.array([1, 2, 3, 4]), np.array([0]), hidden)
        assert assignment == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_exact_match_wins(self):
        hidden = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        assignment = similarity_assign(np.array([2]), np.array([0, 1]), hidden)
        assert assignment == {2: 1}  # cos = 1 with token 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            hidden = rng.standard_normal((n, 4))
            retained, candidates = rank_by_last_attention(rng.random(n), 50)
            if candidates.size == 0:
                continue
            got = similarity_assign(candidates, retained, hidden)
            assert got == cosine_argmax_oracle(candidates, retained, hidden)

    def test_zero_norm_vectors_score_zero(self):
        # candidate 3 is the zero vector: every similarity is 0, so the
        # smallest retained index wins; retained 0 is zero too and never
        # beats a positive similarity
        hidden = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.2], [0.0, 0.0],
                           [-2.0, 0.3]])
        retained, candidates = np.array([0, 1, 2]), np.array([3, 4])
        got = similarity_assign(candidates, retained, hidden)
        assert got == {3: 0, 4: 2}
        assert got == cosine_argmax_oracle(candidates, retained, hidden)

    def test_empty_retained_rejected(self):
        with pytest.raises(DataError):
            similarity_assign(np.array([0]), np.array([], dtype=int), np.ones((1, 2)))


class TestMerge:
    def test_no_candidates_identity(self):
        hidden = np.random.default_rng(3).standard_normal((4, 3)).astype(np.float32)
        result = merge_assigned(hidden, np.arange(4), {})
        np.testing.assert_array_equal(result.updated, hidden)

    def test_two_assignees_mean(self):
        hidden = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 3.0]], dtype=np.float32)
        result = merge_assigned(hidden, np.array([0]), {1: 0, 2: 0})
        np.testing.assert_allclose(result.updated, [[2.0, 2.0]])

    def test_group_mean_oracle(self):
        rng = np.random.default_rng(4)
        hidden = rng.standard_normal((12, 5)).astype(np.float32)
        inp = InnerMergeInput(hidden, rng.random(12))
        result = inner_merge(inp, 50)
        groups = {int(r): [int(r)] for r in result.retained_indices}
        for cand, ret in result.assignment.items():
            groups[ret].append(cand)
        for pos, ret in enumerate(result.retained_indices):
            expect = hidden[groups[int(ret)]].astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(result.updated[pos], expect, rtol=1e-6)

    def test_mass_conservation(self):
        rng = np.random.default_rng(5)
        hidden = rng.standard_normal((30, 8)).astype(np.float32)
        inp = InnerMergeInput(hidden, rng.random(30))
        result = inner_merge(inp, 40)
        sizes = np.ones(result.retained_indices.size)
        for ret in result.assignment.values():
            sizes[np.searchsorted(result.retained_indices, ret)] += 1
        recovered = (sizes[:, None] * result.updated.astype(np.float64)).sum(axis=0)
        expect = hidden.astype(np.float64).sum(axis=0)
        # vector-level relative error (components may cancel to ~0)
        assert np.linalg.norm(recovered - expect) <= 1e-5 * np.linalg.norm(expect)

    def test_idempotent_at_r_zero(self):
        rng = np.random.default_rng(6)
        hidden = rng.standard_normal((9, 4)).astype(np.float32)
        result = inner_merge(InnerMergeInput(hidden, rng.random(9)), 0)
        np.testing.assert_array_equal(result.updated, hidden)
        np.testing.assert_array_equal(result.retained_indices, np.arange(9))
        assert result.assignment == {}


class TestInput:
    def test_negative_attention_rejected(self):
        with pytest.raises(DataError):
            InnerMergeInput(np.ones((2, 2)), np.array([0.5, -0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            InnerMergeInput(np.ones((3, 2)), np.ones(2))
