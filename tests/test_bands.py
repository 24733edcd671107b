"""The proven error bands, tested at their size.

The redundancy mask and the inner merge decide in float32 and recheck in
float64 inside a proven error band. Real float32 sums err far less than the
worst case the band covers, so here the float32 calls of the shared kernels
(``core._row_dots`` for the mask, ``core._gram`` for the inner merge) are
replaced by an adversary: the exact value moved by the largest error the
band's derivation allows, toward the decision's boundary. On planted
corpora whose decisions lie inside that error, every float32 decision is
wrong and outside a cut band (a quarter of the mask's, ``2**-24`` for the
inner merge's), so only the proven band's recheck keeps the outputs equal
to the float64 definition.
"""

import numpy as np
import pytest

from oracles import reference_assign, reference_mask, reference_similarity
from tokmerge import VideoTokenStream, core, innerllm, pairwise_redundancy, temporal

U = 2.0**-24


def g(d):
    """The relative error bound of a float32 sum of d products, in any order."""
    return d * U / (1 - d * U)


def orthonormal(rng, n, d, k):
    """(k, n, d): for each of n draws, k orthonormal float64 rows."""
    q = np.linalg.qr(rng.standard_normal((n, d, k)))[0]
    return np.moveaxis(q, -1, 0)


# ---------------------------------------------------------------------------
# The redundancy mask
# ---------------------------------------------------------------------------

TAU = 0.8


def planted_pairs(rng, n, d):
    """(2, n, d) float32 frames. Slot k's pair has float64 cosine TAU + s_k *
    delta_k with delta_k in [0.1, 0.6] * g(d): s_k = +1 (above TAU) for even
    k, -1 for odd k. Each token is in one pair, so no two near-TAU pairs
    share a token, and the norms vary by powers of two."""
    e1, e2 = orthonormal(rng, n, d, 2)
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cos = TAU + sign * 0.35 * g(d)
    second = cos[:, None] * e1 + np.sqrt(1 - cos**2)[:, None] * e2
    data = (np.stack([e1, second]) * 2.0 ** rng.integers(-3, 4, (2, n, 1))).astype(np.float32)
    delta = sign * (reference_similarity(data)[0] - TAU)
    assert ((0.1 * g(d) <= delta) & (delta <= 0.6 * g(d))).all()
    return data, sign


def mask_adversary(real, push, seen):
    """``core._row_dots`` with every float32 call answered by the worst case
    the mask's band allows: a squared norm moved by g relative, up where
    ``push`` (one entry per slot) is +1 and down where it is -1; a neighbour
    dot moved by g * |a| * |b|, down where the pair's cosine is above TAU
    and up where it is below. Float64 calls go to ``real``; ``seen``
    collects the float32 results."""
    def row_dots(a, b, dtype=None, out=None):
        if dtype is not None:
            return real(a, b, dtype, out)
        exact, gd = real(a, b, np.float64), g(a.shape[-1])
        if a.ctypes.data == b.ctypes.data:  # squared norms
            out[...] = exact * (1 + push * gd)
        else:
            scale = np.sqrt(real(a, a, np.float64) * real(b, b, np.float64))
            out[...] = exact + np.where(exact > TAU * scale, -gd, gd) * scale
        seen.append(out.copy())
        return out
    return row_dots


@pytest.mark.parametrize("d", [64, 896])
def test_mask_equals_definition_under_worst_float32_error(monkeypatch, d):
    data, sign = planted_pairs(np.random.default_rng(d), 48, d)
    seen = []
    adversary = mask_adversary(core._row_dots, sign, seen)
    monkeypatch.setattr(core, "_row_dots", adversary)
    monkeypatch.setattr(temporal, "_row_dots", adversary)
    stream = VideoTokenStream(data, (48, 1))
    got = pairwise_redundancy(stream, TAU)
    expect = reference_mask(data, TAU)
    np.testing.assert_array_equal(got, expect)
    assert expect.sum() == 24  # the even slots
    # every float32 decision is wrong, and beyond a quarter of the band
    norms, dots = stream.sq_norms.astype(np.float64), seen[-1]
    assert len(seen) >= 2 and not np.array_equal(norms, np.einsum("bkd,bkd->bk", data, data))
    approx = dots / np.sqrt(norms[0] * norms[1])
    assert ((approx > TAU) != expect).all()
    assert (np.abs(approx - TAU) > d * U).all()


# ---------------------------------------------------------------------------
# The inner merge
# ---------------------------------------------------------------------------

def near_tie_hidden(rng, n, d):
    """(hidden, candidates, retained, best): n float32 candidates after 2n
    retained rows. Candidate i has cosine 0.6 with its best retained row
    and 0.6 - delta_i with a runner-up, delta_i in [0.3, 1.2] * g(d); the
    best row is the pair's first or second at random, and rows are scaled
    by powers of two: 2**-3 to 2**3, and 2**-100 and 2**100, which lie
    outside [2**-60, 2**60] and inside float32's normal range. With n >= 9
    every scale occurs among the retained rows and among the candidates."""
    e1, e2, e3 = orthonormal(rng, n, d, 3)
    p, q = 0.6, 0.6 - 0.7 * g(d)
    cand = p * e1 + q * e2 + np.sqrt(1 - p**2 - q**2) * e3
    flip = rng.random(n) < 0.5
    pair = np.stack([np.where(flip[:, None], e2, e1), np.where(flip[:, None], e1, e2)], axis=1)
    hidden = np.concatenate([pair.reshape(2 * n, d), cand])
    scales = 2.0 ** np.array([-100, *range(-3, 4), 100])
    scale = np.concatenate([rng.permutation(np.resize(scales, m)) for m in (2 * n, n)])
    hidden = (hidden * scale[:, None]).astype(np.float32)
    retained, candidates = np.arange(2 * n), np.arange(2 * n, 3 * n)
    best = 2 * np.arange(n) + flip
    h = hidden.astype(np.float64)
    cos = h[candidates] @ h[retained].T / np.outer(np.linalg.norm(h[candidates], axis=1),
                                                  np.linalg.norm(h[retained], axis=1))
    rows = np.arange(n)
    delta = cos[rows, best] - cos[rows, best ^ 1]
    assert ((0.3 * g(d) <= delta) & (delta <= 1.2 * g(d))).all()
    return hidden, candidates, retained, best


def gram_adversary(seen):
    """``core._gram`` for the float32 block product of ``_assign``: each
    score the exact product of the float32 operands, moved by 1.01 * g * |c|
    (c the candidate row), the true best down and every other score up.
    ``seen`` collects, per row, whether the float32 top left the true best,
    and its lead over the runner-up in units of |c|."""
    def gram(a, b, out=None):
        a64 = a.astype(np.float64)
        exact = a64 @ b.astype(np.float64).T
        c = np.linalg.norm(a64, axis=1)
        move = 1.01 * g(a.shape[1]) * c[:, None]
        best = (np.arange(a.shape[0]), exact.argmax(axis=1))
        moved = exact + move
        moved[best] = exact[best] - move[:, 0]
        out[...] = moved
        top = np.sort(out, axis=1)
        seen.append((out.argmax(axis=1) != best[1], (top[:, -1] - top[:, -2]) / c))
        return out
    return gram


@pytest.mark.parametrize("d", [64, 896])
def test_assignment_equals_definition_under_worst_float32_error(monkeypatch, d):
    hidden, candidates, retained, best = near_tie_hidden(np.random.default_rng(d), 16, d)
    seen = []
    monkeypatch.setattr(innerllm, "_gram", gram_adversary(seen))
    got = retained[innerllm._assign(candidates, retained, hidden)]
    np.testing.assert_array_equal(got, reference_assign(candidates, retained, hidden))
    np.testing.assert_array_equal(got, best)
    # every float32 top is wrong, leading by more than twice 2**-24
    wrong, lead = map(np.concatenate, zip(*seen))
    assert wrong.size == 16 and wrong.all()
    assert (lead > 2 * U).all()
