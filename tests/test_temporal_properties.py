"""Properties: the redundancy mask against the float64 cosine definition.

``pairwise_redundancy`` decides most pairs in float32 and rechecks the
pairs near tau in float64; both must give the mask of the definition,
bit for bit, also at tau itself and at the extremes of float32 range.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import VideoTokenStream, pairwise_redundancy, temporal  # noqa: E402
from test_temporal import reference_mask, reference_similarity  # noqa: E402

DIMS = (1, 3, 64, 896, 1000, 8193, 10000)
# per-token scales: ordinary, zero, squares that are subnormal or flush to
# zero in float32, and squares that overflow float32
SCALES = (1.0, 1.0, 1.0, 0.0, 1e-20, 1e-25, 1e19)
OFFSETS = (0.0, 1e-7, -1e-7, 1e-4, -1e-4, 3e-4, -3e-4)


def plant(rng, prev, cosine):
    """A random vector at the given cosine to ``prev`` (float64)."""
    unit = prev / np.linalg.norm(prev)
    other = rng.standard_normal(prev.shape)
    other -= (other @ unit) * unit
    norm = np.linalg.norm(other)
    if norm == 0:  # d == 1: only cosines of +-1 exist
        return unit if cosine >= 0 else -unit
    return cosine * unit + np.sqrt(max(1.0 - cosine**2, 0.0)) * other / norm


@st.composite
def streams(draw):
    d = draw(st.sampled_from(DIMS))
    b = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.sampled_from((0.0, 0.3, 0.8, 0.95, 1.0)))
    x = rng.standard_normal((b, n, d))
    for f in range(1, b):
        for k in range(n):
            if draw(st.booleans()):
                cosine = min(max(base + draw(st.sampled_from(OFFSETS)), -1.0), 1.0)
                x[f, k] = plant(rng, x[f - 1, k], cosine)
    scales = draw(st.lists(st.sampled_from(SCALES), min_size=b * n, max_size=b * n))
    x *= np.reshape(scales, (b, n, 1))
    return VideoTokenStream(x.astype(np.float32), (1, n)), base, rng


@settings(max_examples=300, deadline=None)
@given(streams(), st.sampled_from(("planted", "own", "zero", "one")))
def test_mask_equals_definition(case, tau_kind):
    stream, base, rng = case
    sims = reference_similarity(stream.data)
    tau = {"planted": base, "zero": 0.0, "one": 1.0,
           "own": float(rng.choice(sims.ravel()))}[tau_kind]
    got = pairwise_redundancy(stream, tau).to_bool()
    assert np.array_equal(got, reference_mask(stream.data, tau))


@settings(max_examples=100, deadline=None)
@given(streams())
def test_recheck_equals_batch_values(case):
    """The float64 recheck of gathered rows reproduces the whole-batch
    einsum values exactly, so rechecked bits are the definition's bits."""
    stream, _, rng = case
    x = stream.data
    f, k = np.nonzero(rng.random((x.shape[0] - 1, x.shape[1])) < 0.5)
    got = temporal._exact_similarity(x[f, k], x[f + 1, k])
    assert np.array_equal(got, reference_similarity(x)[f, k])
