"""Property tests: the array forms of importance, pooling and cluster means
give the same bits as the per-frame and per-cluster oracles in
test_spatial.

Ties decide which tokens attention selection keeps (``token_scores`` gives
every slot of a bin one score, and ``attention_select`` breaks ties by
index), so a 1-ulp drift would change the output; equality is exact.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import (  # noqa: E402
    build_importance,
    dpc_knn_cluster,
    importance_from_attention,
    importance_from_qk,
    merge_clusters,
)
from test_innerllm import same_bits  # noqa: E402
from test_spatial import (  # noqa: E402
    frame_attention,
    importance_scores,
    merge_clusters_loop,
    pool_importance,
)

DTYPES = (np.float32, np.float64)
# score magnitudes: the selection compares scores of any size
SCALES = (1e-8, 1.0, 1e8)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.sampled_from(DTYPES),
       st.integers(0, 2**32 - 1))
def test_attention_importance_matches_per_frame_oracle(b, n_v, dtype, seed):
    rng = np.random.default_rng(seed)
    attn = rng.random((b, n_v, n_v)).astype(dtype)
    attn[rng.random(attn.shape) < 0.1] = 0.0  # repeated scores, as in ties
    raw = importance_from_attention(attn, (n_v, 1)).raw
    assert same_bits(raw, np.stack([importance_scores(a) for a in attn]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.integers(1, 70),
       st.sampled_from(DTYPES), st.sampled_from(SCALES), st.integers(0, 2**32 - 1))
def test_qk_importance_matches_per_frame_oracle(b, n_v, d, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((2, b, n_v, d)) * scale).astype(dtype)
    raw = importance_from_qk(q, k, (n_v, 1)).raw
    expect = np.stack([importance_scores(frame_attention(qf, kf)) for qf, kf in zip(q, k)])
    assert same_bits(raw, expect)


@st.composite
def pooling_cases(draw):
    """(raw (B, H*W), grid, pooled grid): uneven bins, bins wider than
    numpy's 8-wide pairwise block, and scores spanning 1e-8 to 1e8."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    hp, wp = draw(st.integers(1, h)), draw(st.integers(1, w))
    b = draw(st.sampled_from((1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((b, h * w)) * rng.choice(SCALES, (b, h * w))
    raw[rng.random(raw.shape) < 0.1] = 0.5  # repeated scores
    return raw, (h, w), (hp, wp)


@settings(max_examples=300, deadline=None)
@given(pooling_cases())
@example((np.arange(729.0).reshape(1, -1), (27, 27), (14, 14)))
@example((np.geomspace(1e-8, 1e8, 2 * 4096).reshape(2, -1), (64, 64), (2, 3)))
@example((np.geomspace(1e8, 1e-8, 5 * 35).reshape(5, -1), (5, 7), (5, 7)))
def test_pooling_matches_per_frame_oracle(case):
    raw, (h, w), pg = case
    imp = build_importance(raw, (h, w), pg)
    expect = np.stack([pool_importance(f.reshape(h, w), pg) for f in raw])
    assert same_bits(imp.pooled, expect)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), st.sampled_from((2, 3, 8, 33)), st.sampled_from(DTYPES),
       st.data())
def test_merge_clusters_matches_loop_oracle(n, d, dtype, data):
    # d >= 2: for d = 1 numpy's mean sums an (m, 1) group pairwise, while
    # merge_clusters sums in member order for every d
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.standard_normal((n, d))
    tokens[:, rng.random(d) < 0.3] = -0.0
    for i in range(1, n):
        if rng.random() < 0.2:
            tokens[i] = tokens[rng.integers(0, i)]
    tokens = tokens.astype(dtype)
    k = data.draw(st.integers(1, n - 1))
    state = dpc_knn_cluster(tokens, k, data.draw(st.integers(1, n)))
    reps, centers = merge_clusters(tokens, state)
    expect, expect_centers = merge_clusters_loop(tokens, state)
    assert same_bits(reps, expect)
    np.testing.assert_array_equal(centers, expect_centers)
