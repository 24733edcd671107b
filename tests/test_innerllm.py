"""Inner-merge tests: ranking, cosine assignment, group means, conservation."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from tokmerge import (
    DataError,
    InnerMergeInput,
    get_profile,
    inner_merge,
    innerllm,
    validate_config,
)
from tokmerge.cost import layer_token_counts
from tokmerge.innerllm import _assign, _merge, _rank, check_hidden
from oracles import cosine_argmax_oracle, reference_assign, reference_merge, reference_rank
from support import assert_matches_reference, same_bits, traced_peak


def assign(candidates, retained, hidden):
    """The retained index each candidate merges into: ``_assign``'s
    positions into ``retained``, mapped through it."""
    return retained[_assign(candidates, retained, hidden)]


def band(d):
    return (2 * d + 4) * 2.0**-24 + 1e-12


def count_rechecks(monkeypatch):
    calls = []
    exact = innerllm._exact_argmax

    def counting(hidden, cand, *cols_and_norms):
        calls.append(int(cand))
        return exact(hidden, cand, *cols_and_norms)

    monkeypatch.setattr(innerllm, "_exact_argmax", counting)
    return calls


class TestRanking:
    def test_r_zero_retains_all(self):
        retained, candidates = _rank(np.array([0.5, 0.2, 0.9]), 0)
        np.testing.assert_array_equal(retained, [0, 1, 2])
        assert candidates.size == 0

    def test_bottom_two_by_score(self):
        retained, candidates = _rank(np.array([0.4, 0.1, 0.3, 0.2]), 50)
        np.testing.assert_array_equal(candidates, [1, 3])
        np.testing.assert_array_equal(retained, [0, 2])

    def test_tie_break_retains_smaller_indices(self):
        retained, candidates = _rank(np.full(4, 0.25), 50)
        np.testing.assert_array_equal(retained, [0, 1])
        np.testing.assert_array_equal(candidates, [2, 3])

    def test_count_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            r = float(rng.uniform(0, 99.9))
            retained, candidates = _rank(rng.random(n), r)
            assert candidates.size == math.floor(r * n / 100)
            assert retained.size + candidates.size == n
            assert not set(retained) & set(candidates)

    def test_matches_sorted_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            scores = rng.integers(0, 4, n) / 4  # many exact ties
            r = float(rng.uniform(0, 99.9))
            for got, expect in zip(_rank(scores, r), reference_rank(scores, r)):
                np.testing.assert_array_equal(got, expect)

    def test_r_out_of_range(self):
        with pytest.raises(DataError):
            _rank(np.ones(4), 100)

    def test_count_matches_flops_schedule(self):
        # one rule for the post-layer-K count: the merge keeps what the
        # FLOPs schedule prices, and at least one token of N >= 1
        profile = get_profile("llava-ov-7b")
        scores = np.random.default_rng(4).random(2000)
        for r in (0, 0.5, 10, 25, 30, 33.3, 50, 66.7, 70, 99.9):
            cfg = validate_config({"inner_ratio_R": r})
            for n in range(2001):
                kept = layer_token_counts(profile, n, cfg)[-1]
                assert _rank(scores[:n], r)[0].size == kept, (n, r)
                assert kept >= min(n, 1), (n, r)


class TestAssignment:
    def test_single_retained_token(self):
        hidden = check_hidden(np.random.default_rng(1).standard_normal((5, 4)))
        slots = _assign(np.array([1, 2, 3, 4]), np.array([0]), hidden)
        assert slots.dtype == np.int64
        np.testing.assert_array_equal(slots, [0, 0, 0, 0])

    def test_exact_match_wins(self):
        hidden = check_hidden([[1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
        targets = assign(np.array([2]), np.array([0, 1]), hidden)
        np.testing.assert_array_equal(targets, [1])  # cos = 1 with token 1

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            hidden = check_hidden(rng.standard_normal((n, 4)))
            retained, candidates = reference_rank(rng.random(n), 50)
            if candidates.size == 0:
                continue
            got = assign(candidates, retained, hidden)
            assert (dict(zip(candidates.tolist(), got.tolist()))
                    == cosine_argmax_oracle(candidates, retained, hidden))

    def test_zero_norm_vectors_score_zero(self):
        # candidate 3 is the zero vector: every similarity is 0, so the
        # smallest retained index wins; retained 0 is zero too and never
        # beats a positive similarity
        hidden = check_hidden([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.2], [0.0, 0.0],
                               [-2.0, 0.3]])
        retained, candidates = np.array([0, 1, 2]), np.array([3, 4])
        got = assign(candidates, retained, hidden)
        np.testing.assert_array_equal(got, [0, 2])
        assert (dict(zip(candidates.tolist(), got.tolist()))
                == cosine_argmax_oracle(candidates, retained, hidden))

    def test_no_candidates(self):
        slots = _assign(np.array([], dtype=np.int64), np.array([0]), check_hidden(np.ones((1, 2))))
        assert slots.dtype == np.int64 and slots.size == 0

    @pytest.mark.parametrize("n,d", [(64, 16), (3174, 896)])
    def test_matches_reference_on_random_states(self, n, d):
        rng = np.random.default_rng(n)
        hidden = rng.standard_normal((n, d), dtype=np.float32)
        retained, candidates = reference_rank(rng.random(n), 50)
        np.testing.assert_array_equal(assign(candidates, retained, hidden),
                                      reference_assign(candidates, retained, hidden))

    @pytest.mark.parametrize("n_cand", [1, 4, 5, 9])
    def test_chunk_edges(self, monkeypatch, n_cand):
        # candidate counts of 1, exactly one chunk, one chunk plus one and
        # several chunks; 11 retained rows are normalised in three chunks
        monkeypatch.setattr(innerllm, "_ASSIGN_CHUNK", 4)
        rng = np.random.default_rng(n_cand)
        hidden = rng.standard_normal((11 + n_cand, 6), dtype=np.float32)
        hidden[11:] = hidden[rng.integers(0, 11, n_cand)] + 0.05 * rng.standard_normal(
            (n_cand, 6), dtype=np.float32)
        hidden[3] = hidden[7]  # a duplicated retained vector in another chunk
        retained, candidates = np.arange(11), np.arange(11, 11 + n_cand)
        assert_matches_reference(assign(candidates, retained, hidden),
                                 candidates, retained, hidden)

    def test_duplicate_retained_vectors_smallest_index_wins(self, monkeypatch):
        # Wide enough that a single BLAS product can score the copies with
        # different roundings; the recheck sums each pair on its own, so
        # equal vectors tie exactly and the smaller index wins.
        monkeypatch.setattr(innerllm, "_ASSIGN_CHUNK", 64)
        rng = np.random.default_rng(7)
        n_r, d = 600, 96
        hidden = rng.standard_normal((n_r + 40, d), dtype=np.float32)
        pairs = [(0, n_r - 1), (5, 300), (299, 598), (17, 18)]
        for p, q in pairs:
            hidden[q] = hidden[p]
        for i in range(40):
            p = pairs[i % len(pairs)][0]
            hidden[n_r + i] = hidden[p] + 1e-3 * rng.standard_normal(d, dtype=np.float32)
        calls = count_rechecks(monkeypatch)
        targets = assign(np.arange(n_r, n_r + 40), np.arange(n_r), hidden)
        np.testing.assert_array_equal(targets, [pairs[i % len(pairs)][0] for i in range(40)])
        assert len(calls) == 40  # every row is an exact tie

    @pytest.mark.parametrize("lead", [0.0, 0.25, 0.75, 1.5, 3.0])
    def test_near_ties_at_band_edge(self, monkeypatch, lead):
        # candidate c has cosine cos_a with retained 1 and cos_a - delta
        # with retained 2, where delta is `lead` times twice the band
        d = 64
        delta = lead * 2 * band(d)
        cos_a = 0.6
        cos_b = cos_a - delta
        hidden = np.zeros((4, d))
        hidden[0, 3] = 1.0                  # orthogonal retained token
        hidden[1, 0], hidden[1, 1] = cos_a, math.sqrt(1 - cos_a**2)
        hidden[2, 0], hidden[2, 2] = cos_b, math.sqrt(1 - cos_b**2)
        hidden[3, 0] = 1.0                  # the candidate
        for dtype in (np.float64, np.float32):  # the dump's dtype, narrowed by check_hidden
            h = check_hidden(hidden.astype(dtype))
            calls = count_rechecks(monkeypatch)
            got = assign(np.array([3]), np.array([0, 1, 2]), h)
            assert_matches_reference(got, np.array([3]), np.array([0, 1, 2]), h)
            np.testing.assert_array_equal(got, [1])
            # a lead of more than twice the band is decided in float32
            assert len(calls) == (0 if lead >= 1.5 else 1)

    def test_zero_subnormal_and_huge_rows(self):
        rng = np.random.default_rng(11)
        n, d = 48, 12
        hidden = rng.standard_normal((n, d)).astype(np.float32)
        hidden[[2, 9]] = 0.0
        hidden[[4, 30]] = 1e-42 * np.sign(rng.standard_normal((2, d)))  # subnormal
        hidden[[6, 31]] *= 1e30
        hidden[[7, 33]] *= -1e30
        hidden[35] = 1e-42 * hidden[6] / np.abs(hidden[6]).max()
        retained, candidates = reference_rank(rng.random(n), 50)
        assert_matches_reference(assign(candidates, retained, hidden),
                                 candidates, retained, hidden)

    def test_unit_rows_multiply_in_float32(self):
        def reciprocals(rows):
            exact = rows.astype(np.float64)
            norms = np.sqrt(np.einsum("nd,nd->n", exact, exact))
            return norms, np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)

        rng = np.random.default_rng(12)
        rows = (rng.standard_normal((6, 20)) * 2.0 ** np.arange(-60, 60, 20)[:, None]).astype(np.float32)
        rows[1] = 0.0
        norms, scale = reciprocals(rows)
        got_norms, units = innerllm._unit_rows(rows.copy())
        assert same_bits(got_norms, norms)
        assert same_bits(units, rows * scale.astype(np.float32)[:, None])
        # a reciprocal beyond float32's normal range: the block multiplies in float64
        rows[2] = 1e-42
        scale = reciprocals(rows)[1]
        assert scale[2] > 2.0**127
        units = innerllm._unit_rows(rows.copy())[1]
        assert same_bits(units, (rows.astype(np.float64) * scale[:, None]).astype(np.float32))


class TestMerge:
    def test_no_candidates_identity(self):
        hidden = np.random.default_rng(3).standard_normal((4, 3)).astype(np.float32)
        result = _merge(hidden, np.arange(4), np.empty(0, np.int64), np.empty(0, np.int64))
        np.testing.assert_array_equal(result.updated, hidden)
        assert result.assignment == {}

    def test_two_assignees_mean(self):
        hidden = np.array([[3.0, 0.0], [0.0, 3.0], [3.0, 3.0]], dtype=np.float32)
        result = _merge(hidden, np.array([0]), np.array([1, 2]), np.array([0, 0]))
        np.testing.assert_allclose(result.updated, [[2.0, 2.0]])
        assert result.assignment == {1: 0, 2: 0}

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

    def test_matches_reference_bits(self):
        # groups of 0 to 12 candidates, values spanning 2**+-60 and -0.0
        rng = np.random.default_rng(8)
        n, d = 400, 7
        hidden = (rng.standard_normal((n, d))
                  * 2.0 ** rng.integers(-60, 60, (n, d))).astype(np.float32)
        hidden[rng.random((n, d)) < 0.1] = -0.0
        retained, candidates = reference_rank(rng.random(n), 75)
        slots = np.minimum(rng.geometric(0.3, candidates.size), 99)
        targets = retained[slots]
        result = _merge(hidden, retained, candidates, slots)
        assert same_bits(result.updated,
                         reference_merge(hidden, retained, candidates, targets))

    def test_negative_zero_row_passes_as_positive_zero(self):
        hidden = np.array([[-0.0, 1.5], [2.0, -0.0], [-0.0, -0.0]], dtype=np.float32)
        result = _merge(hidden, np.array([0, 2]), np.array([1]), np.array([1]))
        assert same_bits(result.updated, np.array([[0.0, 1.5], [1.0, 0.0]], np.float32))

    def test_one_dimension_sums_in_member_order(self):
        # For d = 1 numpy's mean over a (m, 1) array sums pairwise; the
        # merge sums every dimension in member order, as for d >= 2.
        rng = np.random.default_rng(9)
        hidden = (rng.standard_normal((40, 1))
                  * 2.0 ** rng.integers(-60, 60, (40, 1))).astype(np.float32)
        candidates = np.arange(1, 40)
        result = _merge(hidden, np.array([0]), candidates, np.zeros(39, np.int64))
        acc = 0.0
        for x in hidden[:, 0].astype(np.float64):
            acc += x
        assert same_bits(result.updated, np.array([[acc / 40]], np.float32))


class TestInput:
    def test_negative_attention_rejected(self):
        with pytest.raises(DataError):
            InnerMergeInput(np.ones((2, 2)), np.array([0.5, -0.1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            InnerMergeInput(np.ones((3, 2)), np.ones(2))

    def test_hidden_not_2d_rejected(self):
        with pytest.raises(DataError, match="^hidden states must be 2-D, got rank 1$"):
            InnerMergeInput(np.ones(3), np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    def test_non_finite_hidden_rejected(self, value):
        hidden = np.ones((3, 2))
        hidden[1, 0] = value
        fault = "value out of float32 range" if np.isfinite(value) else "non-finite value"
        with pytest.raises(DataError, match=f"^{fault} at flat offset 2$"):
            InnerMergeInput(hidden, np.ones(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_attention_rejected(self, value):
        with pytest.raises(DataError, match="^non-finite value at flat offset 2$"):
            InnerMergeInput(np.ones((3, 2)), np.array([0.5, 0.1, value]))

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), ()], ids=["column", "row", "scalar"])
    def test_attention_row_not_1d_rejected(self, shape):
        attn = np.full(shape, 0.5)
        with pytest.raises(DataError, match=re.escape(
                f"attention row must be 1-D (N,), got shape {shape}")):
            innerllm.check_last_attn(attn)
        with pytest.raises(DataError, match="attention row must be 1-D"):
            InnerMergeInput(np.ones((attn.size, 2)), attn)

    def test_float64_hidden_beyond_float32_range(self):
        hidden = np.ones((3, 2))
        hidden[0, 0] = 1e39
        hidden[2, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^value out of float32 range at flat offset 0$"):
                InnerMergeInput(hidden, np.ones(3))

    def test_inner_merge_checks_each_input_once(self, monkeypatch):
        checked, check = [], innerllm._checked

        def counting(arr, *args, **kwargs):
            checked.append(np.shape(arr))
            return check(arr, *args, **kwargs)
        monkeypatch.setattr(innerllm, "_checked", counting)
        rng = np.random.default_rng(4)
        inner_merge(InnerMergeInput(rng.standard_normal((10, 3)), rng.random(10)), 50)
        assert checked == [(10, 3), (10,)]

    def test_inner_merge_takes_only_its_input_type(self):
        # an object with the same fields would skip check_hidden
        dumps = SimpleNamespace(hidden=np.full((4, 2), 1e200), last_attn=np.ones(4))
        with pytest.raises(TypeError, match="^expected InnerMergeInput, got SimpleNamespace$"):
            inner_merge(dumps, 50.0)

    @pytest.mark.parametrize("dump", [
        "float64-underflow", "float64-near-float32-max", "float16", "int32", "big-endian-float32"])
    def test_dumps_reach_assign_as_float32_rows(self, monkeypatch, dump):
        # rows 1 (retained) and 8 (a candidate) narrow to zero rows or lie
        # near float32's maximum; every dump is scored as check_hidden's rows
        rng = np.random.default_rng(3)
        hidden = rng.standard_normal((12, 5))
        if dump == "float64-underflow":
            hidden[[1, 8]] *= 1e-160
        elif dump == "float64-near-float32-max":
            hidden[[1, 8]] *= 3e38 / np.abs(hidden[[1, 8]]).max(axis=1, keepdims=True)
        else:
            hidden = (20 * hidden).astype({"float16": np.float16, "int32": np.int32,
                                           "big-endian-float32": ">f4"}[dump])
        seen, assign_rows = [], innerllm._assign

        def spy(candidates, retained, rows):
            seen.append((rows.dtype, rows.flags.c_contiguous))
            return assign_rows(candidates, retained, rows)
        monkeypatch.setattr(innerllm, "_assign", spy)
        last = np.arange(12, 0, -1.0)  # retained 0-5, candidates 6-11
        result = inner_merge(InnerMergeInput(hidden, last), 50)
        assert seen == [(np.float32, True)]
        checked = innerllm.check_hidden(hidden)
        if dump == "float64-underflow":
            assert not checked[[1, 8]].any()
        retained, candidates = np.arange(6), np.arange(6, 12)
        expect = cosine_argmax_oracle(candidates, retained, checked)
        assert result.assignment == expect
        targets = np.array([expect[c] for c in candidates.tolist()])
        assert same_bits(result.updated, reference_merge(checked, retained, candidates, targets))

    @pytest.mark.parametrize("which", ["hidden", "last_attn"])
    def test_complex_dump_rejected(self, which):
        dumps = {"hidden": np.ones((3, 2)), "last_attn": np.ones(3)}
        dumps[which] = dumps[which] + 1j
        check = {"hidden": innerllm.check_hidden, "last_attn": innerllm.check_last_attn}[which]
        with pytest.raises(DataError, match="^dtype complex128, expected real values$"):
            check(dumps[which])
        with pytest.raises(DataError, match="^dtype complex128, expected real values$"):
            InnerMergeInput(**dumps)


class TestMemory:
    def peak_mb(self, monkeypatch, chunk, n=4096, d=32):
        monkeypatch.setattr(innerllm, "_ASSIGN_CHUNK", chunk)
        rng = np.random.default_rng(12)
        inp = InnerMergeInput(rng.standard_normal((n, d), dtype=np.float32), rng.random(n))
        return traced_peak(inner_merge, inp, 50) / 2**20

    def test_peak_grows_with_chunk_not_n_squared(self, monkeypatch):
        # 2,048 x 2,048 similarities take 16 MB in float32 and 32 MB in
        # float64 (the former dense form held three such float64 arrays);
        # a block of c rows takes c * 2,048 * 4 bytes
        small = self.peak_mb(monkeypatch, 128)
        large = self.peak_mb(monkeypatch, 1024)
        assert small < 4.0
        assert large - small > 0.75 * (1024 - 128) * 2048 * 4 / 2**20
        assert large < 16.0
