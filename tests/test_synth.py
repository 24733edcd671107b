"""Synthetic corpus tests: determinism, planted masks, boundary recovery."""

import numpy as np
import pytest

from tokmerge import (
    DataError,
    SynthSpec,
    generate,
    optimal_segmentation,
    pairwise_redundancy,
)


def spec_with(**kw):
    base = dict(frames=8, grid=(2, 3), dim=32,
                segments=((4, 0.5), (4, 1.0)), noise_sigma=0.0, seed=123)
    base.update(kw)
    return SynthSpec(**base)


def test_same_seed_bit_identical():
    a, _ = generate(spec_with())
    b, _ = generate(spec_with())
    assert a.data.tobytes() == b.data.tobytes()


def test_different_seed_differs():
    a, _ = generate(spec_with())
    b, _ = generate(spec_with(seed=124))
    assert a.data.tobytes() != b.data.tobytes()


def test_noise_free_full_fraction_mask_matches_truth():
    stream, truth = generate(spec_with(segments=((4, 1.0), (4, 1.0))))
    mask = pairwise_redundancy(stream, 0.99)
    np.testing.assert_array_equal(mask, truth)


def test_zero_fraction_mask_all_false():
    stream, truth = generate(spec_with(segments=((8, 0.0),), dim=32))
    assert not truth.any()
    mask = pairwise_redundancy(stream, 0.8)
    np.testing.assert_array_equal(mask, truth)


def test_planted_mask_matches_pairwise_redundancy():
    spec = spec_with(dim=64)
    stream, truth = generate(spec)
    mask = pairwise_redundancy(stream, 0.8)
    np.testing.assert_array_equal(mask, truth)


def test_planted_recovery_noise_free():
    spec = spec_with(frames=16, grid=(3, 4), dim=64,
                     segments=((6, 0.5), (4, 0.25), (6, 1.0)))
    stream, _ = generate(spec)
    plan = optimal_segmentation(pairwise_redundancy(stream, 0.8))
    assert plan.boundaries == spec.planted_boundaries()
    assert plan.total_gain == spec.planted_gain()


def test_noise_degrades_gracefully():
    """With sigma > 0 the planted mask is still ground truth, not the measured one."""
    spec = spec_with(dim=64, noise_sigma=2.0)
    stream, truth = generate(spec)
    measured = pairwise_redundancy(stream, 0.8)
    assert truth.sum() > 0
    assert measured.sum() <= truth.sum()


def test_segment_lengths_must_sum():
    with pytest.raises(DataError):
        spec_with(segments=((4, 0.5), (3, 0.5)))


def test_fraction_out_of_range():
    with pytest.raises(DataError):
        spec_with(segments=((8, 1.2),))
