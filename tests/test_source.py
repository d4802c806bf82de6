import ast
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
