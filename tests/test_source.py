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


def test_only_graph_touches_the_memo_or_a_graph_dict():
    # Every per-graph result is kept by graph.per_graph, which alone keys
    # GkmGraph.memo: no other module names .memo (so none subscripts it,
    # tests membership in it or holds it under another name) or __dict__.
    found = [
        f"{path.name}:{node.lineno} {node.attr}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("memo", "__dict__")
    ]
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


def _module_imports(path: Path) -> set:
    """The gkm3 modules that path imports outside any function, by
    `from . import x`, `from .x import y` or the absolute forms."""
    out, stack = set(), list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("gkm3."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and (module == "gkm3" or module.startswith("gkm3.")):
                module = module[len("gkm3."):]  # "" for the package itself
            elif node.level != 1:
                continue
            out.update([module.split(".")[0]] if module else
                       [alias.name for alias in node.names])
    return out


def test_no_module_imports_one_that_imports_it():
    # The import graph of the package's modules (__init__ aside) is acyclic:
    # repeatedly dropping the modules that import no module left finds an
    # order, and whatever stays lies on a cycle.  cohomology imports thom,
    # the certificate module, and thom imports nothing from cohomology.
    modules = {path.stem for path in SRC.glob("*.py") if path.stem != "__init__"}
    graph = {m: _module_imports(SRC / f"{m}.py") & modules for m in modules}
    assert "thom" in graph["cohomology"] and "cohomology" not in graph["thom"]
    while leaves := {m for m, deps in graph.items() if not deps}:
        graph = {m: deps - leaves for m, deps in graph.items() if m not in leaves}
    assert graph == {}


def test_cohomology_imports_nothing_from_connection():
    # The layering is cohomology -> thom -> connection, with no import back
    # (see the test above): only gkm3.thom, the certificate module, walks the
    # faces of a connection, and cohomology reads its certificate from
    # _free_betti and _pairing.  An edge Thom class, which thom builds, reads
    # its sign from orientation.eta, so cohomology itself imports nothing
    # from the connection layer.
    found = []
    for node in ast.walk(ast.parse((SRC / "cohomology.py").read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if any(name.split(".")[-1] == "connection" for name in names):
                found.append(f"cohomology.py:{node.lineno}")
    assert found == []


def _calls(path: Path) -> dict:
    """Function name -> the names it calls, its nested functions' included."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            out.setdefault(node.name, set()).update(
                getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                for call in ast.walk(node) if isinstance(call, ast.Call))
    return out


def test_one_statement_of_the_compatibility_rule():
    # The enumeration and the transition kernel both ask
    # transport_coefficients, the record and the holonomy read the kernel,
    # and no function of connection.py forms its own determinants with det2.
    calls = _calls(SRC / "connection.py")
    assert "transport_coefficients" in calls["_compatible_bijections"]
    assert "transport_coefficients" in calls["_phi"]
    assert "_phi" in calls["transition"] and "_phi" in calls["loop_holonomy"]
    assert {"transition", "TransitionData"} & calls["loop_holonomy"] == set()
    assert [name for name, called in calls.items() if "det2" in called] == []


def test_face_walk_and_basis_values_make_no_per_step_calls():
    # The face walk steps on plain tuples, and the closed basis's values are
    # dot products with a power table.
    walk = _calls(SRC / "connection.py")["connection_paths"]
    assert {"apply", "directed", "target", "source", "reversed"} & walk == set()
    thom = _calls(SRC / "thom.py")
    assert {"poly_eval", "_blocks"} & (thom["certificate"] | thom["_functional"]) == set()


def test_edge_options_read_only_the_edges_at_each_edge():
    # One edge's options read the weights at its two ends, so listing every
    # edge's options is linear in |E|: no loop or comprehension inside
    # _compatible_bijections passes over the graph's edges.
    tree = ast.parse((SRC / "connection.py").read_text())
    fn = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              and node.name == "_compatible_bijections")
    loops = [ast.unparse(node.iter) for node in ast.walk(fn)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert loops and [it for it in loops if "edges" in it] == []


def test_the_thom_peel_walks_each_face_whole():
    # No generator pauses a face walk: thom.py yields nothing, so a walk
    # runs in one call, to its end or to its first vertex not yet picked.
    tree = ast.parse((SRC / "thom.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Yield, ast.YieldFrom))] == []
