"""Golden output digests of ``tokmerge compress`` on small synthetic corpora.

Each case plants a corpus with ``tokmerge synth``, runs ``tokmerge
compress`` on it and compares the sha256 of every output file with the
digest recorded for it. The output is meant to stay byte-identical across
refactors and speed-ups; a change that alters it on purpose records new
digests here and says why.

The pass-through cases use no matrix product. The cluster and inner-merge
cases do (DPC-KNN distances, Q/K attention, inner-merge similarities), and
BLAS may round those differently on another CPU or library build, so their
digests hold for the host they were recorded on: x86-64, numpy 2.4 with
its bundled OpenBLAS.
"""

import hashlib
import json

import numpy as np
import pytest

from tokmerge.cli import main

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


@pytest.mark.parametrize("case", sorted(CASES))
def test_compress_output_digests(case, tmp_path):
    assert compress_case(case, tmp_path) == CASES[case]
