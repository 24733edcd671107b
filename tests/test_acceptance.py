"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 7 (benchmark
accuracy / wall-clock speedups) requires GPU inference of 7B/72B models and
is excluded by design; criteria 1-6 and 8 below stand in for it.
"""

import functools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from tokmerge import (
    CompressionConfig,
    ImportanceMap,
    InnerMergeInput,
    SynthSpec,
    apply_temporal_merge,
    compress,
    core,
    generate,
    get_profile,
    importance_from_qk,
    inner_merge,
    optimal_segmentation,
    pairwise_redundancy,
    pipeline_cost_report,
    prefill_flops,
    retained_for_ratio,
    spatial,
    spatial_merge,
    validate_config,
)
from tokmerge.cli import main
from tokmerge.cost import layer_token_counts
from oracles import brute_force_best_total
from support import cluster_means, clustering_disagreements, merged_segments


def criterion(label):
    """Print one PASS/FAIL line per criterion after running its asserts."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# Criterion 1: FLOPs table reproduction (each entry within 1 %)
# ---------------------------------------------------------------------------

def _model_tflops(profile_name, ratio, inner_k, expected_t):
    profile = get_profile(profile_name)
    retained = retained_for_ratio(profile, ratio)
    if inner_k is None:
        value = prefill_flops(profile, [retained] * profile.layers_T)
    else:
        cfg = validate_config({"inner_layer_K": inner_k, "inner_ratio_R": 50})
        value = pipeline_cost_report(profile, cfg, retained).prefill_flops
    rel_err = abs(value - expected_t * 1e12) / (expected_t * 1e12)
    return value, rel_err


TABLE_ENTRIES = [
    # (profile, retained ratio, inner-merge layer K or None, reference TFLOPs)
    ("llava-ov-7b", 1.00, None, 40.8),
    ("llava-ov-7b", 0.25, None, 8.7),
    ("llava-ov-7b", 0.25, 18, 7.1),
    ("llava-ov-7b", 0.20, None, 7.0),
    ("llava-ov-7b", 0.20, 18, 5.8),
    ("llava-ov-7b", 0.15, None, 5.2),
    ("llava-ov-7b", 0.15, 18, 4.3),
    ("llava-ov-7b", 0.10, 18, 2.8),
    ("llava-ov-72b", 1.00, None, 429.3),
    ("llava-ov-72b", 0.15, None, 59.0),
    ("llava-ov-72b", 0.15, 60, 51.6),
    ("llava-video-7b", 1.00, None, 80.2),
    ("llava-video-7b", 0.15, None, 9.3),
    ("llava-video-7b", 0.15, 18, 7.6),
]


@criterion("criterion 1 (FLOPs tables, 14 feasible entries at 1%)")
def test_criterion_1_flops_tables():
    start = time.perf_counter()
    for profile, ratio, inner_k, expected in TABLE_ENTRIES:
        value, rel_err = _model_tflops(profile, ratio, inner_k, expected)
        assert rel_err <= 0.01, (
            f"{profile} ratio={ratio} inner_k={inner_k}: "
            f"{value:.4e} vs {expected} T ({rel_err:.2%})")
        assert round(value / 1e12, 1) == expected  # matches at printed precision
    assert time.perf_counter() - start < 1.0  # criterion allows milliseconds


@criterion("criterion 1 (headline: 6.9% of prefill FLOPs at 10% retained, K=18, R=50)")
def test_criterion_1_headline_prefill_ratio(capsys):
    """The paper's 6.9%: 2.815 T over the 40.77 T full-token prefill, the
    ratio that the library and `tokmerge flops` both report."""
    profile = get_profile("llava-ov-7b")
    report = pipeline_cost_report(profile, CompressionConfig(), retained_for_ratio(profile, 0.10))
    assert round(report.ratio, 3) == 0.069
    assert main(["flops", "--profile", "llava-ov-7b", "--ratio", "0.10"]) == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == report.ratio


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Known tolerance artifact: the reference table prints one decimal, "
        "and at this entry's magnitude the rounding quantum (0.05/3.4 = "
        "1.47%) exceeds the 1% bound enforced here. The only per-frame "
        "retained count consistent with the 20% entry (ceil: 640 tokens at "
        "10%) evaluates to 3.4363e12 = 1.07% from 3.4e12 while rounding to "
        "exactly the printed 3.4; no consistent counting rule lands inside "
        "1% for this entry without breaking the 20% one."),
)
def test_criterion_1_table1_entry_3_4_known_infeasible():
    value, rel_err = _model_tflops("llava-ov-7b", 0.10, None, 3.4)
    assert round(value / 1e12, 1) == 3.4  # reproduces the printed value
    print(f"ACCEPTANCE criterion 1 (entry 3.4): rel err {rel_err:.4%} vs 1% bound")
    assert rel_err <= 0.01


# ---------------------------------------------------------------------------
# Criterion 2: DP optimality vs exhaustive enumeration
# ---------------------------------------------------------------------------

@criterion("criterion 2 (DP optimality, 200 exhaustive instances)")
def test_criterion_2_dp_exhaustive():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    for _ in range(200):
        b = int(rng.integers(1, 13))
        n_v = int(rng.integers(1, 33))
        rows = rng.random((b - 1, n_v)) < rng.uniform(0.1, 0.95)
        plan = optimal_segmentation(rows)
        assert plan.total_gain == brute_force_best_total(rows)
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# Criterion 3: planted segmentation recovery at scale
# ---------------------------------------------------------------------------

@criterion("criterion 3 (planted recovery, B=64 N_v=196 d=128)")
def test_criterion_3_planted_recovery():
    spec = SynthSpec(
        frames=64, grid=(14, 14), dim=128,
        segments=((16, 0.5), (16, 0.25), (8, 1.0), (24, 0.75)),
        noise_sigma=0.0, seed=31)
    analytic = sum(round(f * 196) * (length - 1) for length, f in spec.segments)
    start = time.perf_counter()
    stream, _ = generate(spec)
    plan = optimal_segmentation(pairwise_redundancy(stream, 0.8))
    elapsed = time.perf_counter() - start
    assert plan.boundaries == spec.planted_boundaries()
    assert plan.total_gain == analytic == spec.planted_gain()
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 4: DPC-KNN vs brute force
# ---------------------------------------------------------------------------

@criterion("criterion 4 (clustering oracle, 200 instances)")
def test_criterion_4_clustering_oracle():
    assert clustering_disagreements() == []


# ---------------------------------------------------------------------------
# Criterion 5: merge conservation across all three merge kinds
# ---------------------------------------------------------------------------

@criterion("criterion 5 (merge conservation, 1e-6 / 1e-5)")
def test_criterion_5_merge_conservation():
    rng = np.random.default_rng(55)

    # temporal mean-merge vs directly recomputed occurrence means
    spec = SynthSpec(frames=12, grid=(3, 4), dim=24,
                     segments=((6, 0.5), (6, 0.75)), noise_sigma=0.05, seed=8)
    stream, _ = generate(spec)
    mask = pairwise_redundancy(stream, 0.8)
    plan = optimal_segmentation(mask)
    tmr = apply_temporal_merge(stream, plan, mask, "mean")
    checked = 0
    for s, e, red, merged in merged_segments(tmr):
        if red.size == 0:
            continue
        occ = stream.data[s - 1 : e - 1, red, :]
        expect = occ.astype(np.float64).mean(axis=0)
        np.testing.assert_allclose(merged, expect, rtol=1e-6)
        checked += red.size
    assert checked > 0

    # cluster representatives vs group means
    for _ in range(20):
        n = int(rng.integers(2, 40))
        tokens = rng.standard_normal((n, 16)).astype(np.float32)
        k = min(max(2, int(math.isqrt(n))), n - 1)
        centers, assignment = spatial._cluster(tokens, k, int(rng.integers(1, n + 1)))
        reps = cluster_means(tokens, centers, assignment)
        for rep, center in zip(reps, centers):
            group = tokens[assignment == center].astype(np.float64)
            np.testing.assert_allclose(rep, group.mean(axis=0), rtol=1e-6)

    # inner merge: group means and the mass-conservation identity
    for _ in range(20):
        n = int(rng.integers(2, 60))
        hidden = rng.standard_normal((n, 12)).astype(np.float32)
        result = inner_merge(InnerMergeInput(hidden, rng.random(n)),
                             float(rng.integers(0, 80)))
        groups = {int(r): [int(r)] for r in result.retained_indices}
        for cand, ret in result.assignment.items():
            groups[ret].append(cand)
        sizes = []
        for pos, ret in enumerate(result.retained_indices):
            members = groups[int(ret)]
            expect = hidden[members].astype(np.float64).mean(axis=0)
            np.testing.assert_allclose(result.updated[pos], expect, rtol=1e-6)
            sizes.append(len(members))
        recovered = (np.array(sizes)[:, None]
                     * result.updated.astype(np.float64)).sum(axis=0)
        expect_total = hidden.astype(np.float64).sum(axis=0)
        # vector-level relative error; per-component ratios are ill-posed
        # where the token sum cancels to ~0
        err = np.linalg.norm(recovered - expect_total)
        assert err <= 1e-5 * np.linalg.norm(expect_total)


# ---------------------------------------------------------------------------
# Criterion 6: budget adherence and tau monotonicity
# ---------------------------------------------------------------------------

@criterion("criterion 6 (budget adherence + tau monotonicity)")
def test_criterion_6_budget_and_tau():
    spec = SynthSpec(frames=16, grid=(3, 4), dim=48,
                     segments=((6, 0.5), (5, 0.25), (5, 0.75)),
                     noise_sigma=0.0, seed=66)
    stream, _ = generate(spec)
    rng = np.random.default_rng(6)
    imp = ImportanceMap(rng.random((16, 12)), (3, 4))  # pooled to the grid itself
    mask = pairwise_redundancy(stream, 0.8)
    plan = optimal_segmentation(mask)
    tmr = apply_temporal_merge(stream, plan, mask, "mean")
    for ratio in (0.25, 0.20, 0.15, 0.10):
        cfg = CompressionConfig(tau=0.8, target_ratio=ratio)
        cv = spatial_merge(tmr, imp, cfg)
        target = math.ceil(ratio * 16 * 12)
        red = tmr.redundant
        groups = int(((~red).any(axis=1) * np.diff(plan.boundaries) + red.any(axis=1)).sum())
        assert target <= cv.count <= target + groups, (
            f"ratio {ratio}: {cv.count} outside [{target}, {target + groups}]")

    noisy_spec = SynthSpec(frames=16, grid=(3, 4), dim=48,
                           segments=((8, 0.75), (8, 0.5)),
                           noise_sigma=0.4, seed=67)
    noisy, _ = generate(noisy_spec)
    gains = [optimal_segmentation(pairwise_redundancy(noisy, tau)).total_gain
             for tau in (0.5, 0.65, 0.8, 0.95)]
    assert all(a >= b for a, b in zip(gains, gains[1:])), gains
    assert gains[0] > gains[-1]  # the sweep actually exercises the threshold


# ---------------------------------------------------------------------------
# Criterion 7: excluded by design (GPU-scale benchmark accuracy / latency)
# ---------------------------------------------------------------------------

def test_criterion_7_exclusion_documented():
    print("ACCEPTANCE criterion 7: N/A (model-inference accuracy/TTFT excluded; "
          "covered by criteria 1-6, 8)")


# ---------------------------------------------------------------------------
# Criterion 8: single-core throughput of the full pipeline
# ---------------------------------------------------------------------------

@criterion("criterion 8 (full pipeline under 2 s at B=64 N_v=196 d=896)")
def test_criterion_8_throughput(monkeypatch):
    spec = SynthSpec(frames=64, grid=(14, 14), dim=896,
                     segments=((16, 0.5), (24, 0.75), (24, 0.25)),
                     noise_sigma=0.01, seed=88)
    stream, _ = generate(spec)
    rng = np.random.default_rng(88)
    q = rng.standard_normal((64, 196, 64)).astype(np.float32)
    kk = rng.standard_normal((64, 196, 64)).astype(np.float32)
    cfg = validate_config({"tau": 0.8, "target_ratio": 0.25})
    target = math.ceil(0.25 * 64 * 196)
    dump_rows = target + 512  # headroom for per-group ceiling slack
    hidden = rng.standard_normal((dump_rows, 896)).astype(np.float32)
    last = rng.random(dump_rows)
    profile = get_profile("llava-ov-7b")
    # one worker: the whole-stream passes split across CPUs otherwise
    monkeypatch.setattr(core, "_cpu_count", lambda: 1)

    start = time.perf_counter()
    imp = importance_from_qk(q, kk, stream.grid)
    cv, report = compress(stream, cfg, imp, profile.name)
    inner = inner_merge(InnerMergeInput(hidden[: cv.count], last[: cv.count]),
                        cfg.inner_ratio_R)
    elapsed = time.perf_counter() - start

    assert cv.count >= target
    assert inner.updated.shape[0] == cv.count - int(cv.count * 50 / 100)
    assert report.prefill_flops > 0
    assert elapsed < 2.0, f"pipeline took {elapsed:.2f}s"
    print(f"  (pipeline wall time {elapsed * 1e3:.0f} ms, "
          f"{layer_token_counts(profile, cv.count, cfg)[0]} tokens retained)")


# ---------------------------------------------------------------------------
# Memory of the full pipeline on a long video
# ---------------------------------------------------------------------------

def test_compress_peak_memory_linear_in_frames():
    """compress holds O(B * N_v) memory beyond its outputs: its tracemalloc
    peak stays within twice the outputs plus eight (B, N_v) int64 arrays.
    One dense B x B int64 table (32 MB here) would break the bound."""
    b, n_v = 2048, 196
    spec = SynthSpec(frames=b, grid=(14, 14), dim=16,
                     segments=((32, 0.75),) * (b // 32), seed=17)
    stream, _ = generate(spec)
    tracemalloc.start()
    try:
        cv, report = compress(stream, CompressionConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = cv.tokens.nbytes + sum(a.nbytes for a in cv.provenance_arrays)
    bound = 2 * outputs + 8 * b * n_v * 8
    assert report.temporal_prune_ratio > 0.7
    assert peak <= bound, f"peak {peak / 2**20:.1f} MB > bound {bound / 2**20:.1f} MB"
