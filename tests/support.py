"""Helpers shared by the test modules: comparisons, adapters that run one
piece of the package the way the pipeline calls it, and the golden-digest
runner. The oracles themselves live in ``oracles.py``."""

import hashlib
import json

import numpy as np

from oracles import exact_cosine_argmax, reference_similarities
from tokmerge import CompressedVideo, CompressionReport, TokenProvenance, core, spatial
from tokmerge.cli import main


def same_bits(a, b):
    """Equal dtypes and equal bits: -0.0 differs from +0.0 and a NaN equals
    only the same NaN."""
    return a.dtype == b.dtype and np.array_equal(
        a.view(np.uint32 if a.dtype == np.float32 else np.uint64),
        b.view(np.uint32 if b.dtype == np.float32 else np.uint64))


def arrays(records):
    """ProvenanceArrays from TokenProvenance records, through the column
    parser load_compressed uses."""
    return core._provenance_arrays(*([r[i] for r in records] for i in range(4)))


def small_cv():
    """Three tokens, one record of each provenance kind."""
    tokens = np.arange(6, dtype=np.float32).reshape(3, 2)
    prov = (
        TokenProvenance(0, 0, "temporal_rep", ((1, 0), (2, 0))),
        TokenProvenance(0, 1, "selected", ()),
        TokenProvenance(1, 2, "cluster_rep", ((0, 3), (1, 3))),
    )
    return CompressedVideo(tokens, arrays(prov))


def small_report(final=3):
    """A consistent report of 12 tokens, 8 after the temporal stage and
    ``final`` (at most 8) at the end."""
    return CompressionReport(12, 8, final, 1 - 8 / 12, final / 12, ((1, 3, 4), (3, 4, 0)),
                             1.5e11, 1e12)


# Report documents whose counts are not real counts: (the fields that
# replace small_report's, the DataError report_from_dict raises). Each was
# once read as a count: 0 ended in a ZeroDivisionError, the negative counts
# were aggregated, and "12", 12.9 and true were read as 12, 12 and 1. The
# last four are value faults, raised by CompressionReport itself.
BAD_REPORT_COUNTS = {
    "zero": ({"original_count": 0, "after_temporal_count": 0, "final_count": 0,
              "temporal_prune_ratio": 0.0, "overall_retained_ratio": 0.0},
             "counts must have original_count >= 1 and final_count >= 0, got 0 and 0"),
    "negative": ({"original_count": -5, "after_temporal_count": -6, "final_count": -7,
                  "temporal_prune_ratio": 1 - -6 / -5, "overall_retained_ratio": -7 / -5},
                 "counts must have original_count >= 1 and final_count >= 0, got -5 and -7"),
    "string": ({"original_count": "12"},
               "report counts must be int64 integers: original_count '12'"),
    "float": ({"after_temporal_count": 12.9},
              "report counts must be int64 integers: after_temporal_count 12.9"),
    "bool": ({"final_count": True},
             "report counts must be int64 integers: final_count True"),
    "segment": ({"segments": [{"start": 1, "end": 3.0, "gain": 4}]},
                "report segments must be int64 integers: segments 3.0"),
}


def bad_report_doc(case):
    """small_report's document with BAD_REPORT_COUNTS[case]'s fields, and
    the message it must raise."""
    edits, message = BAD_REPORT_COUNTS[case]
    return {**core.report_to_dict(small_report()), **edits}, message


def merged_segments(tmr):
    """(start, end, redundant slots, merged values) of each segment of a
    TemporalMergeResult, cut from its arrays."""
    cuts = np.cumsum(tmr.redundant.sum(axis=1))[:-1]
    return [(s, e, np.flatnonzero(row), values) for (s, e), row, values
            in zip(tmr.plan.segments(), tmr.redundant, np.split(tmr.merged_values, cuts))]


# Float64 cosines of d <= 896 computed in different summation orders
# differ by less than this.
ORDER_NOISE = 1e-12


def assert_matches_reference(got, candidates, retained, hidden):
    """``got`` equals the former dense assignment on every row where that
    one is decided by more than ORDER_NOISE, and the exactly rounded first
    maximum on the other rows.

    The former single BLAS product rounds each column in its own summation
    order, so on an exact tie (equal or power-of-two scaled retained
    vectors) it can pick a later index; there its choice is not a property
    of the data.
    """
    sims = reference_similarities(candidates, retained, hidden)
    ref = np.asarray(retained)[np.argmax(sims, axis=1)]
    top2 = np.sort(sims, axis=1)[:, -2:]
    clear = (top2[:, -1] - top2[:, 0] > ORDER_NOISE) | (sims.shape[1] == 1)
    np.testing.assert_array_equal(got[clear], ref[clear])
    for i in np.flatnonzero(~clear):
        assert got[i] == exact_cosine_argmax(candidates[i], retained, hidden)


def cluster_means(tokens, centers, assignment):
    """Cluster means through core._group_mean, as spatial_merge takes them:
    each cluster's rows ascending, the clusters in center order."""
    return core._group_mean(tokens, np.argsort(assignment, kind="stable"),
                            np.bincount(assignment)[centers])


def duplicate_corpus_digest(cluster=spatial._cluster):
    """sha256 of ``cluster``'s centers and assignments over a corpus of exact
    duplicates, such as a static background gives: 40 seeds, each 60
    tokens drawn from 12 distinct float32 vectors of d = 896, k = 7, c = 15."""
    digest = hashlib.sha256()
    for seed in range(40):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((12, 896)).astype(np.float32)
        for part in cluster(vectors[rng.integers(0, 12, 60)], 7, 15):
            digest.update(np.asarray(part, dtype=np.int64).tobytes())
    return digest.hexdigest()


def pooled_scores(raw, grid, pooled_grid=None):
    """(B, H*W) slot scores of raw (B, H*W) importance, through the
    package's pooling."""
    return spatial._importance(np.asarray(raw, dtype=np.float64), grid, pooled_grid,
                               ("raw",)).scores


# Golden cases: the synth corpus, and for each case the sha256 of every
# output file (see test_golden.py for where these digests hold).
SYNTH = ["--frames", "24", "--grid", "4x4", "--dim", "16",
         "--segments", "8:0.5,8:1.0,8:0.25", "--noise", "0.01", "--seed", "3"]
# final_count of the Q/K case at target ratio 0.3; the inner-merge dumps
# hold one row per compressed token
QK_FINAL_COUNT = 122

CASES = {
    "pass-mean": {
        "tokens.npy":
            "b8053e0cd51ed0e7d44f39e07e3f4c845db66f7715706e12747d92d8fcdf6432",
        "compressed.json":
            "dc103bcb8c4704eee079f17940b7504bffa4941f08c8fd4095b8facb6b5216b2",
    },
    "pass-first": {
        "tokens.npy":
            "3a8685bc62fcb85a1e16ab77fd60dc872a32f5a047f0575767154cf260761e35",
        "compressed.json":
            "dc103bcb8c4704eee079f17940b7504bffa4941f08c8fd4095b8facb6b5216b2",
    },
    "cluster-attn": {
        "tokens.npy":
            "0e29854c843a7e71e179cc1cb5716d211db3370f45c6fe93330cd0574e706a49",
        "compressed.json":
            "c387f98e7f9593e0068769649eebdf105dcba43ecb9e28f9818c10421d193dd5",
    },
    "pooled-attn": {
        "tokens.npy":
            "9e533a4e9831e41a2f1cb3c10a9c89066792756632d57ed4d98e04fda50061e1",
        "compressed.json":
            "5d077ea8e218d98b536b9af3365714f44490981c89ad8c9b0656ee4b6ebd9139",
    },
    "cluster-qk-inner": {
        "tokens.npy":
            "d586059e0b09c26f733dcfe2e0fa9d48cffeb225ed2bbf57796578ee3691bfcc",
        "compressed.json":
            "bbd090f7dbe5e1fd8a3903158a99f0dee6cf1bb5fbf7fb8d2beab9be8f2a1c59",
        "inner_tokens.npy":
            "0451941f6bc21c2a23db7c9f6f1553c2e4f9b595ab9073bf5eb53711b44a9c2d",
        "inner.json":
            "43569f89f2204549dea83724bc6b5e72ae1ff7e867161babcb82748b95336f0f",
    },
}


def compress_case(case: str, work) -> dict:
    """Run one case in ``work``; return {output file name: sha256}."""
    corpus = work / "corpus"
    assert main(["synth", "--out", str(corpus), *SYNTH]) == 0
    rng = np.random.default_rng(11)
    argv = ["compress", "--tokens", str(corpus / "tokens.npy"), "--grid", "4x4",
            "--tau", "0.8", "--out", str(work / "out")]
    if case == "pass-first":
        (work / "cfg.json").write_text(json.dumps({"temporal_merge_mode": "first"}))
        argv += ["--config", str(work / "cfg.json")]
    elif case == "cluster-attn":
        attn = rng.random((24, 16, 16))
        np.save(work / "attn.npy", attn / attn.sum(axis=2, keepdims=True))
        argv += ["--attn", str(work / "attn.npy"), "--target-ratio", "0.25"]
    elif case == "pooled-attn":
        # 4x4 -> 3x3 pools uneven bins: row and column edges 0, 1, 2, 4
        attn = rng.random((24, 16, 16))
        np.save(work / "attn.npy", attn / attn.sum(axis=2, keepdims=True))
        argv += ["--attn", str(work / "attn.npy"), "--target-ratio", "0.25",
                 "--pooled-grid", "3x3"]
    elif case == "cluster-qk-inner":
        for name in ("q", "k"):
            np.save(work / f"{name}.npy", rng.standard_normal((24, 16, 8)).astype(np.float32))
        np.save(work / "hidden.npy",
                rng.standard_normal((QK_FINAL_COUNT, 16)).astype(np.float32))
        np.save(work / "last.npy", rng.random(QK_FINAL_COUNT))
        argv += ["--qk", str(work / "q.npy"), str(work / "k.npy"), "--target-ratio", "0.3",
                 "--hidden", str(work / "hidden.npy"), "--last-attn", str(work / "last.npy")]
    assert main(argv) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((work / "out").iterdir())}
