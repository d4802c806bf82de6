import ast
import importlib
import importlib.util
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
    # two rational routines.
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
