"""The test suite's layout: shared code lives in ``oracles.py`` and
``support.py``, so no test module imports another, and the oracles import
none of the stage code they are compared with. The package's layout: the
CLI runs the pipeline through ``pipeline``, never stage by stage, and one
module writes the inner merge's outputs."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tokmerge"


def imports(path):
    """(module, imported names) of each import statement in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, ()) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or ""), tuple(a.name for a in node.names)


def test_no_test_module_imports_another():
    found = sorted(f"{path.name}: {module} {names}" for path in TESTS.glob("test_*.py")
                   for module, names in imports(path)
                   if any(part.startswith("test_") for part in [*module.split("."), *names]))
    assert found == []


def test_oracles_import_no_stage_code():
    def allowed(module, names):
        if module == "tokmerge":  # ``import tokmerge`` names nothing and is refused
            return bool(names) and set(names) <= {"DataError", "ConfigError"}
        top = module.split(".")[0]
        return top == "numpy" or top in sys.stdlib_module_names
    found = sorted(f"{module} {names}" for module, names in imports(TESTS / "oracles.py")
                   if not allowed(module, names))
    assert found == []


def test_cli_imports_no_stage_function():
    stages = {"pairwise_redundancy", "optimal_segmentation", "apply_temporal_merge",
              "spatial_merge"}
    found = sorted(f"{module} {name}" for module, names in imports(SRC / "cli.py")
                   for name in names if name in stages)
    assert found == []


def test_one_source_file_names_inner_json():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if '"inner.json"' in path.read_text(encoding="utf-8")] == ["core.py"]
