"""The test suite's layout: shared code lives in ``oracles.py`` and
``support.py``, so no test module imports another, and the oracles import
none of the stage code they are compared with and read BLAS only where they
say so. The package's layout: the CLI runs the pipeline through
``pipeline``, never stage by stage, one module writes the inner merge's
outputs, every vector product goes through core's two kernels, and one
function releases a mapped token file's pages."""

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


PRODUCTS = {"@", "einsum", "matmul", "dot", "vdot", "inner", "tensordot", "vecdot", "linalg"}
BLAS = PRODUCTS - {"einsum"}  # einsum without optimize sums elementwise
KERNELS = {"_row_dots", "_gram"}  # core's row-wise dot and matrix-product kernels
# the oracles whose docstrings name them kernel-dependent
KERNEL_DEPENDENT_ORACLES = {"frame_attention", "reference_similarities"}


def uses(path, names=PRODUCTS, allowed=()):
    """``file:line name`` of each attribute or import in ``names`` in
    ``path``, and of each ``@`` if ``names`` holds it, outside the bodies of
    the functions ``allowed``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name in allowed for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                and "@" in names):
            yield f"{path.name}:{node.lineno} @"
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield f"{path.name}:{node.lineno} {node.attr}"
        elif isinstance(node, ast.alias) and names & set(node.name.split(".")):
            yield f"{path.name}:{node.lineno} {node.name}"


def test_products_only_in_core_kernels():
    """Every dot product, Gram matrix and norm the error bands and ties read
    is taken by core._row_dots or core._gram, the seams a test can replace."""
    found = [uses(path, allowed=KERNELS if path.name == "core.py" else ())
             for path in SRC.glob("*.py")]
    assert sorted(line for lines in found for line in lines) == []


def test_oracles_read_blas_only_where_named():
    """The oracles give the same bits under every BLAS kernel: ``@``, ``dot``,
    ``matmul`` and ``linalg`` appear only in the oracles named kernel-dependent."""
    oracles = TESTS / "oracles.py"
    assert sorted(uses(oracles, BLAS, KERNEL_DEPENDENT_ORACLES)) == []
    tree = ast.parse(oracles.read_text(encoding="utf-8"))
    docs = {fn.name: ast.get_docstring(fn) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert all("Kernel-dependent" in docs[name] for name in KERNEL_DEPENDENT_ORACLES)


def test_mapped_pages_released_in_one_place():
    """``madvise`` appears only in core._release, which drops pages only of
    the shared read-only file mappings core._file_mapping finds; temporal
    and spatial read the token stream only through core._sweep (and
    core._gather, built on it), which releases each chunk once it is read."""
    found = [uses(path, {"madvise"}, {"_release"} if path.name == "core.py" else ())
             for path in SRC.glob("*.py")]
    found += [uses(SRC / name, {"data"}) for name in ("temporal.py", "spatial.py")]
    assert sorted(line for lines in found for line in lines) == []
