"""Property tests: the array forms of importance, pooling, cluster means and
the spatial merge give the same bits as the per-frame, per-cluster and
per-token oracles in oracles.py.

Ties decide which tokens attention selection keeps (pooling gives every
slot of a bin one score, and the selection breaks ties by index), so
a 1-ulp drift would change the output; equality is exact.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import (  # noqa: E402
    CompressionConfig,
    VideoTokenStream,
    apply_temporal_merge,
    importance_from_attention,
    importance_from_qk,
    optimal_segmentation,
    pairwise_redundancy,
    spatial,
    spatial_merge,
)
from tokmerge.core import TEMPORAL_MERGE_MODES  # noqa: E402
from oracles import (frame_attention, importance_scores, merge_clusters_loop,  # noqa: E402
                     pool_importance, reassembly_oracle, spread_bins)
from support import cluster_means, pooled_scores, same_bits  # noqa: E402

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
    # pooled to the grid itself, the scores are the raw importance
    raw = importance_from_attention(attn, (n_v, 1)).scores
    assert same_bits(raw, np.stack([importance_scores(a) for a in attn]))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 40), st.integers(1, 70),
       st.sampled_from(DTYPES), st.sampled_from(SCALES), st.integers(0, 2**32 - 1))
def test_qk_importance_matches_per_frame_oracle(b, n_v, d, dtype, scale, seed):
    rng = np.random.default_rng(seed)
    q, k = (rng.standard_normal((2, b, n_v, d)) * scale).astype(dtype)
    raw = importance_from_qk(q, k, (n_v, 1)).scores
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
    expect = np.stack([pool_importance(f.reshape(h, w), pg) for f in raw])
    assert same_bits(pooled_scores(raw, (h, w), pg), spread_bins(expect, (h, w)))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 60), st.sampled_from((1, 2, 3, 8, 33)), st.sampled_from(DTYPES),
       st.data())
def test_merge_clusters_matches_loop_oracle(n, d, dtype, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tokens = rng.standard_normal((n, d))
    tokens[:, rng.random(d) < 0.3] = -0.0
    for i in range(1, n):
        if rng.random() < 0.2:
            tokens[i] = tokens[rng.integers(0, i)]
    tokens = tokens.astype(dtype)
    k = data.draw(st.integers(1, n - 1))
    centers, assignment = spatial._cluster(tokens, k, data.draw(st.integers(1, n)))
    expect = merge_clusters_loop(tokens, centers, assignment)
    assert same_bits(cluster_means(tokens, centers, assignment), expect)


@st.composite
def merge_cases(draw):
    """(tmr, imp, cfg): up to 13 frames on grids up to 4x4, with several
    planted segments (some all-redundant), duplicate tokens, integer-tied
    attention, uneven pooled grids and an explicit or automatic knn_k."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, h, w = draw(st.integers(1, 13)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n_v = h * w
    data = rng.standard_normal((b, n_v, draw(st.sampled_from((1, 2, 5))))).astype(np.float32)
    if draw(st.booleans()):  # some slots copy others: duplicate tokens
        copy = rng.random(n_v) < 0.3
        data[:, copy] = data[:, rng.integers(0, n_v, copy.sum())]
    cuts = sorted(draw(st.sets(st.integers(1, b - 1), max_size=4))) if b > 1 else []
    for s, e in zip([0, *cuts], [*cuts, b]):
        planted = rng.random(n_v) < draw(st.sampled_from((0.0, 0.5, 1.0)))
        data[s:e, planted] = data[s, planted]
    stream = VideoTokenStream(data, (h, w))
    mask = pairwise_redundancy(stream, 0.8)
    mode = draw(st.sampled_from(TEMPORAL_MERGE_MODES))
    tmr = apply_temporal_merge(stream, optimal_segmentation(mask), mask, mode)
    attn = (rng.integers(0, 3, (b, n_v, n_v)).astype(np.float64) if draw(st.booleans())
            else rng.random((b, n_v, n_v)))
    pg = (draw(st.integers(1, h)), draw(st.integers(1, w)))
    cfg = CompressionConfig(target_ratio=draw(st.sampled_from((1.0, 0.7, 0.4, 0.2, 0.05))),
                            temporal_merge_mode=mode, pooled_grid=pg,
                            knn_k=draw(st.sampled_from((None, 1, 2, 3, 5))))
    return tmr, importance_from_attention(attn, (h, w), pg), cfg


@settings(max_examples=200, deadline=None)
@given(merge_cases())
def test_spatial_merge_matches_reassembly_oracle(case):
    tmr, imp, cfg = case
    cv = spatial_merge(tmr, imp, cfg)
    tokens, prov = reassembly_oracle(tmr, imp, cfg)
    assert same_bits(cv.tokens, tokens)
    assert [(p.frame, p.spatial_index, p.kind, p.members) for p in cv.provenance] == prov
