import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gkm3"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements, so invariants must raise.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_does_not_import_numpy():
    # The kernel is plain lists of ints; Fraction is left only in linalg's
    # two rational routines (see the import budget below).
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "numpy" or (top == "fractions" and path.name != "linalg.py"):
                    found.append(f"{path.name}:{node.lineno} {module}")
    assert found == []


def test_src_imports_no_dataclasses_and_fractions_only_on_call():
    # Import budget: a CLI call starts a process, so every module loaded at
    # import is paid on every call.  dataclasses pulls in inspect, ast and
    # dis, and fractions pulls in decimal; neither is needed for a verdict.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        in_functions = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top == "dataclasses" or (top == "fractions" and (
                        path.name != "linalg.py" or id(node) not in in_functions)):
                    found.append(f"{path.name}:{node.lineno} {module}")
    assert found == []


def test_cli_import_loads_no_dataclasses_inspect_fractions_or_decimal():
    code = ("import sys; before = set(sys.modules); import gkm3.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "gkm3.cli" in out
    assert {"dataclasses", "inspect", "fractions", "decimal"} & set(out) == set()


def test_cli_import_loads_no_importlib_resources():
    # -S skips site, whose .pth files may import importlib.resources
    # themselves; only `gkm3 corpus` needs it, and imports it on call.
    code = ("import sys; import gkm3.cli; "
            "print('importlib.resources' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC.parent,
                         check=True, capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_rational_routines_still_return_fractions():
    from gkm3 import linalg

    R, pivots = linalg.rref([[2, 4], [1, 3]])
    assert pivots == [0, 1] and R == [[1, 0], [0, 1]]
    assert all(type(x) is Fraction for row in R for x in row)
    c = linalg.solve_left([[2, 0], [0, 4]], [1, 1])
    assert c == [Fraction(1, 2), Fraction(1, 4)]
    assert all(type(x) is Fraction for x in c)


def test_benchmark_traced_names_resolve():
    # The benchmark's traced runs wrap these functions by name; a deleted or
    # renamed one would break `benchmark/run.py --trace 1`.
    spec = importlib.util.spec_from_file_location(
        "benchmark_spans", SRC.parents[1] / "benchmark" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"gkm3.{layer}"), name, None))
    ]
    assert missing == []


def test_only_linalg_names_hnf_solve():
    # Thom classes are checked on their own edges, so no module but linalg,
    # which keeps hnf_solve for the traced runs, solves against a lattice
    # by that name.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if "hnf_solve" in (getattr(node, "id", None), getattr(node, "attr", None),
                           getattr(node, "name", None))
    ]
    assert found == []
