"""Properties: the redundancy mask against the float64 cosine definition,
and the segmentation DP against its plain recurrence.

``pairwise_redundancy`` decides most pairs in float32 and rechecks the
pairs near tau in float64; both must give the mask of the definition,
bit for bit, also at tau itself and at the extremes of float32 range.
``optimal_segmentation`` must give the tables of ``reference_dp`` exactly,
ties included, and recover planted segments at B = 4,096.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import (  # noqa: E402
    SynthSpec,
    VideoTokenStream,
    generate,
    optimal_segmentation,
    pairwise_redundancy,
    temporal,
)
from oracles import reference_dp, reference_mask, reference_similarity  # noqa: E402

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
    got = pairwise_redundancy(stream, tau)
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


@st.composite
def run_masks(draw):
    """Random masks overlaid with long all-ones runs over some slots and
    all-zero plateaus over every slot (equal dp values, where ties decide)."""
    b = draw(st.integers(1, 24))
    n_v = draw(st.sampled_from((1, 63, 64, 65, 130)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((b - 1, n_v)) < draw(st.sampled_from((0.0, 0.3, 0.7, 0.95, 1.0)))
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(st.integers(0, b - 1))
        hi = draw(st.integers(lo, b - 1))
        if draw(st.booleans()):
            rows[lo:hi, : draw(st.integers(1, n_v))] = True
        else:
            rows[lo:hi] = False
    return rows


def walk_back(prev):
    bounds = [len(prev)]
    while bounds[-1] > 1:
        bounds.append(prev[bounds[-1] - 1])
    return tuple(reversed(bounds))


@settings(max_examples=200, deadline=None)
@given(run_masks())
def test_dp_equals_reference_recurrence(rows):
    plan = optimal_segmentation(rows)
    dp, prev = reference_dp(rows)
    assert plan.dp[1:].tolist() == dp
    assert plan.prev[1:].tolist() == prev
    assert plan.boundaries == walk_back(prev)


def test_all_ones_long_video_is_one_segment():
    plan = optimal_segmentation(np.ones((4095, 196), dtype=bool))
    assert plan.boundaries == (1, 4097)
    assert plan.total_gain == 196 * 4095


def test_planted_long_video_recovered():
    rng = np.random.default_rng(4096)
    lengths = rng.integers(2, 65, 200)
    lengths = lengths[np.cumsum(lengths) < 4096 - 64].tolist()
    lengths.append(4096 - sum(lengths))
    fractions = rng.choice((0.02, 0.25, 0.5, 0.75, 1.0), len(lengths)).tolist()
    spec = SynthSpec(frames=4096, grid=(14, 14), dim=1,
                     segments=tuple(zip(lengths, fractions)))
    assert min(spec.planted_counts()) > 0  # a unique optimum
    _, truth = generate(spec)
    plan = optimal_segmentation(truth)
    assert plan.boundaries == spec.planted_boundaries()
    assert plan.total_gain == spec.planted_gain()
