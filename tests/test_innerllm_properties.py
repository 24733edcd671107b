"""Property tests: the chunked inner merge equals the former dense one.

``innerllm._assign`` must choose the same targets as ``reference_assign``
(the former single float64 BLAS product) wherever that one is decided,
and the smallest index on exact ties; ``innerllm._merge`` must give the
same bits as ``reference_merge`` (the former per-group ``mean``); both for
any chunk size, and so must ``inner_merge``. Retained and candidate
tokens come from the ``reference_rank`` oracle.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import (  # noqa: E402
    InnerMergeInput,
    inner_merge,
    innerllm,
)
from oracles import reference_merge, reference_rank  # noqa: E402
from support import assert_matches_reference, same_bits  # noqa: E402

DIMS = (1, 2, 3, 8, 33, 64)
# per-row scales: ordinary, zero, float32 subnormal and near float32's limit
SCALES = (1.0, 1.0, 1.0, 0.0, 1e-42, 1e30, -1e30)
# separation of planted near-ties: exact, inside and around the float32
# error band (about 1e-5 at d = 64), and clear
GAPS = (0.0, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-2)
CHUNKS = (1, 2, 3, 7, innerllm._ASSIGN_CHUNK)


@st.composite
def hidden_states(draw, dims=DIMS):
    """Random float32 hidden states with planted ties and extreme rows.

    Rows may copy an earlier row exactly, scaled by a power of two, or
    negated (exact ties), or sit near the bisector of two earlier rows at
    one of GAPS. Ties closer than float64 rounding are planted only
    exactly: below about d * 2**-53, which of two float64 cosines is larger
    depends on the summation order, see assert_matches_reference.
    """
    n = draw(st.integers(1, 40))
    d = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, d)) * rng.choice(SCALES, n)[:, None]
    for i in range(1, n):
        kind = rng.integers(0, 6)
        a, b = rng.integers(0, i, 2)
        if kind == 1:
            x[i] = x[a]
        elif kind == 2:
            x[i] = x[a] * 2.0 ** rng.integers(-3, 4)
        elif kind == 3:
            x[i] = -x[a]
        elif kind == 4:
            na, nb = np.linalg.norm(x[a]), np.linalg.norm(x[b])
            if (1e-30 < na < 1e30 and 1e-30 < nb < 1e30
                    and abs(x[a] @ x[b]) < 0.99 * na * nb):  # not collinear
                gap = rng.choice(GAPS)
                x[i] = (x[a] / na) * (1 + gap) + x[b] / nb
    return x.astype(np.float32), rng


@settings(max_examples=300, deadline=None)
@given(hidden_states(), st.sampled_from(CHUNKS), st.floats(0, 99))
def test_assign_matches_reference(case, chunk, ratio):
    hidden, rng = case
    retained, candidates = reference_rank(rng.random(hidden.shape[0]), ratio)
    if retained.size == 0 or candidates.size == 0:
        return
    with mock.patch.object(innerllm, "_ASSIGN_CHUNK", chunk):
        got = retained[innerllm._assign(candidates, retained, hidden)]
    assert_matches_reference(got, candidates, retained, hidden)


@settings(max_examples=200, deadline=None)
@given(hidden_states(dims=(2, 3, 8, 33)), st.floats(0, 99), st.booleans())
def test_merge_matches_reference(case, ratio, wide):
    # d >= 2: for d = 1 numpy's mean sums an (m, 1) array pairwise, see
    # test_innerllm.TestMerge.test_one_dimension_sums_in_member_order
    hidden, rng = case
    n, d = hidden.shape
    if wide:  # values spanning 2**+-60, where summation order shows
        hidden = hidden * np.float32(2.0) ** rng.integers(-60, 60, (n, d))
    hidden[rng.random((n, d)) < 0.1] = -0.0
    retained, candidates = reference_rank(rng.random(n), ratio)
    if retained.size == 0:
        return
    slots = rng.integers(0, min(retained.size, 4), candidates.size)
    targets = retained[slots]
    got = innerllm._merge(hidden, retained, candidates, slots).updated
    assert same_bits(got, reference_merge(hidden, retained, candidates, targets))


@settings(max_examples=100, deadline=None)
@given(hidden_states(dims=(2, 8, 64)), st.sampled_from(CHUNKS), st.floats(0, 99))
def test_inner_merge_matches_reference(case, chunk, ratio):
    hidden, rng = case
    last = rng.random(hidden.shape[0])
    with mock.patch.object(innerllm, "_ASSIGN_CHUNK", chunk):
        result = inner_merge(InnerMergeInput(hidden, last), ratio)
    retained, candidates = reference_rank(last, ratio)
    targets = np.array([result.assignment[c] for c in candidates.tolist()], np.int64)
    if candidates.size:
        assert_matches_reference(targets, candidates, retained, hidden)
    assert np.array_equal(result.retained_indices, retained)
    assert same_bits(result.updated, reference_merge(hidden, retained, candidates, targets))
