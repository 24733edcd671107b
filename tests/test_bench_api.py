"""The benchmark worker's use of the library still resolves.

``perfbench/worker.py`` replays ``tokmerge compress`` through public names;
deleting or renaming one of them, or an attribute of what they return,
would break the traced benchmark without failing any library test. This
checks every name the worker takes from ``tokmerge`` against the package,
and runs its traced compress in-process on tiny videos.
"""

import ast
import importlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import tokmerge
from tokmerge import CompressedVideo, ProvenanceArrays

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def worker_tree():
    return ast.parse(WORKER.read_text(encoding="utf-8"), filename=str(WORKER))


def test_worker_tokmerge_attributes_exist():
    tree = worker_tree()
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "tokmerge"}
    assert aliases == {"tm"}
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert "importance_from_qk" in used and "spatial_merge" in used
    assert sorted(name for name in used if not hasattr(tokmerge, name)) == []


def test_worker_from_imports_exist():
    for node in ast.walk(worker_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tokmerge"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_provenance_records_have_kind_and_members():
    cv = CompressedVideo(np.zeros((2, 3), dtype=np.float32), ProvenanceArrays(
        np.array([0, 1]), np.array([0, 0]), np.array([0, 2]),
        np.array([0, 0, 1]), np.array([[2, 0]])))
    assert [p.kind for p in cv.provenance] == ["selected", "cluster_rep"]
    assert [len(p.members) for p in cv.provenance] == [0, 1]


@pytest.fixture(scope="module")
def worker():
    sys.path.insert(0, str(WORKER.parent))
    try:
        yield importlib.import_module("worker")
    finally:
        sys.path.remove(str(WORKER.parent))


def tiny_video(tmp_path, source):
    """A manifest run and video entry of 6 frames on a 2x3 grid, with one
    redundant run, clustered at target ratio 0.3: ``attn`` pools the
    attention to 1x2, ``qk`` brings query/key and inner-merge dumps."""
    rng = np.random.default_rng(3)
    data = rng.standard_normal((6, 6, 8)).astype(np.float32)
    data[1:5, :4] = data[1, :4]
    np.save(tmp_path / "tokens.npy", data)
    run = {"grid": [2, 3], "tau": 0.8, "target_ratio": 0.3,
           "pooled_grid": [1, 2] if source == "attn" else None}
    video = {"frames": 6, "tokens": str(tmp_path / "tokens.npy")}
    if source == "attn":
        np.save(tmp_path / "attn.npy", rng.random((6, 6, 6)))
        video["attn"] = str(tmp_path / "attn.npy")
        return run, video
    video["qk"] = [str(tmp_path / "q.npy"), str(tmp_path / "k.npy")]
    for path in video["qk"]:
        np.save(path, rng.standard_normal((6, 6, 4)))
    stream = tokmerge.VideoTokenStream(data, (2, 3))
    cfg = tokmerge.validate_config({"tau": 0.8, "target_ratio": 0.3})
    imp = tokmerge.importance_from_qk(*(np.load(p) for p in video["qk"]), (2, 3))
    final = tokmerge.compress(stream, cfg, imp)[1].final_count
    video["hidden"], video["last_attn"] = (str(tmp_path / "hidden.npy"),
                                           str(tmp_path / "last_attn.npy"))
    np.save(video["hidden"], rng.standard_normal((final, 8)).astype(np.float32))
    np.save(video["last_attn"], rng.random(final))
    return run, video


@pytest.mark.parametrize("source", ["attn", "qk"])
def test_traced_compress_runs_in_process(worker, tmp_path, source):
    run, video = tiny_video(tmp_path, source)
    out = tmp_path / "out"
    spans = worker.Spans()
    counts = worker.traced_compress(run, video, out, spans)
    assert worker.check_outputs(run, video, out)[0] == []
    assert {"spatial.importance", "spatial.merge", "core.save"} <= spans.called
    assert counts["spatial.cluster_reps"] > 0 and counts["spatial.absorbed"] > 0
    pooled = run["pooled_grid"] or run["grid"]
    assert counts["spatial.pool.bins"] == 6 * math.prod(pooled)
    if source == "qk":
        assert "innerllm.merge" in spans.called
        assert (out / "inner.json").exists()
