"""The benchmark worker's use of the library still resolves.

``perfbench/worker.py`` replays ``tokmerge compress`` through public names;
deleting or renaming one of them would break the traced benchmark without
failing any library test. This reads the worker's source and checks every
name it takes from ``tokmerge`` against the package.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

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
