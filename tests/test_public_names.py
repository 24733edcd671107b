"""The package's public names: ``tokmerge.__all__`` lists exactly what the
package binds, the README documents each of them, its code examples name
only what exists, and its "Removed names" are gone."""

import dataclasses
import re
import types
from pathlib import Path

import tokmerge

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_all_lists_the_bound_public_names():
    bound = [name for name, value in vars(tokmerge).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(tokmerge.__all__) == sorted(bound)


def test_every_public_name_in_readme():
    current = README.split("### Removed names", 1)[0] + README.split("\n## File formats", 1)[1]
    assert sorted(name for name in tokmerge.__all__
                  if not re.search(rf"\b{name}\b", current)) == []


def test_readme_code_names_resolve():
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, re.M | re.S)
    names = {m for block in blocks for m in re.findall(r"\btm((?:\.\w+)+)", block)}
    assert "compress" in {dotted.split(".")[1] for dotted in names}

    def resolves(dotted):
        obj = tokmerge
        for part in dotted.split(".")[1:]:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True
    assert sorted(f"tm{dotted}" for dotted in names if not resolves(dotted)) == []


def test_removed_names_are_gone():
    section = README.split("### Removed names", 1)[1].split("\n#", 1)[0]
    bullets = re.findall(r"^\* (.*?):", section, re.M | re.S)
    removed = {name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)}
    assert {"merge_assigned", "dpc_knn_cluster", "ClusterState"} <= removed
    assert sorted(removed & set(vars(tokmerge))) == []

    # a dataclass field with no default is not bound on its class
    def present(cls_name, attr):
        cls = getattr(tokmerge, cls_name, None)
        return hasattr(cls, attr) or (dataclasses.is_dataclass(cls) and attr in {
            f.name for f in dataclasses.fields(cls)})
    members = {m for bullet in bullets for m in re.findall(r"`(\w+)\.(\w+)(?:\(\))?`", bullet)}
    assert {("CostReport", "total_flops"), ("TemporalMergeResult", "segments")} <= members
    assert sorted(f"{c}.{a}" for c, a in members if present(c, a)) == []
