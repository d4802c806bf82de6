"""Command-line front end.

Subcommands: validate, connections, orientability, cohomology, freeness,
surface, verdict, corpus.  Exit codes: 0 on success, 1 on a negative
verdict when --strict is given or when the reader closes stdout early, 2 on
input errors.  JSON output is
bit-exact (sorted keys, two-space indent); text output is a pure rendering
of the same data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from . import cohomology
from .graph import GraphSemanticError, GraphSyntaxError, parse_graph
from .verdict import MIN_DEGREE_CAP, Analysis, NoSuchConnection, realizability_report

CORPUS_ENV = "GKM3_CORPUS"

# The longest lists that `connections` and `freeness` print; above them the
# command exits 2.  Listing prism4's 4096 connections peaks at about 100 MiB,
# and 2^16 checked degrees take about 15 MiB.
MAX_LISTED_CONNECTIONS = 1 << 13
MAX_LISTED_DEGREES = 1 << 16


class InputError(Exception):
    """User-input problem; reported on stderr with exit code 2."""


def _open(args, path: str) -> Analysis:
    """The load path of every subcommand and corpus entry.  A bad connection
    block or index is raised later, by the analysis's connection stage."""
    cap = getattr(args, "degree_cap", cohomology.DEFAULT_DEGREE_CAP)
    if cap % 2 or cap < 0:
        raise InputError("--degree-cap must be even and nonnegative")
    if args.command == "verdict" and cap < MIN_DEGREE_CAP:
        raise InputError(
            f"verdict needs --degree-cap {MIN_DEGREE_CAP} or more (Betti "
            "numbers stabilize only once b_8 = b_10 = 0)"
        )
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        g = parse_graph(text)
    except (GraphSyntaxError, GraphSemanticError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    a = Analysis(g, cap, getattr(args, "connection", 0))
    if args.command not in ("validate", "verdict", "corpus") and not a.validity.ok:
        raise InputError("graph is invalid; run `validate` for details")
    return a


def _dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _render_text(data, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(data, dict):
        for k in sorted(data):
            v = data[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(data, list):
        for v in data:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines += _render_text(v, indent + 1)
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(data)}")
    return lines


def _scalar(v) -> str:
    if v is True:
        return "true"
    if v is False:
        return "false"
    if v is None:
        return "null"
    if isinstance(v, (dict, list)):
        return "{}" if isinstance(v, dict) else "[]"
    return str(v)


def _emit(data, fmt: str) -> None:
    if fmt == "json":
        print(_dumps(data))
    else:
        print("\n".join(_render_text(data)))


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns (payload, negative)
# ---------------------------------------------------------------------------

def _cmd_validate(a: Analysis, args) -> Tuple[dict, bool]:
    rep = a.validity
    payload = {
        "name": a.graph.name,
        "ok": rep.ok,
        "failures": [dict(f) for f in rep.failures],
        "warnings": list(a.graph.warnings),
    }
    return payload, not rep.ok


def _cmd_connections(a: Analysis, args) -> Tuple[dict, bool]:
    conns, explicit = a.connections
    if conns.count > MAX_LISTED_CONNECTIONS:
        raise InputError(f"{conns.count} compatible connections, too many to list")
    payload = {
        "name": a.graph.name,
        "count": conns.count,
        "explicit": explicit,
        "connections": [
            {str(eid): {"forward": {str(x): y for x, y in c.maps[(eid, True)]}}
             for eid in range(len(a.graph.edges))}
            for c in conns
        ],
    }
    return payload, not conns


def _cmd_orientability(a: Analysis, args) -> Tuple[dict, bool]:
    payload = dict(
        a.orientability_section(), name=a.graph.name, connection=args.connection
    )
    return payload, not a.orientability.orientable


def _cmd_cohomology(a: Analysis, args) -> Tuple[dict, bool]:
    drop = {"q": "rank_z", "z": "dim_q"}.get(args.ring)
    payload = {
        "name": a.graph.name,
        "degree_cap": args.degree_cap,
        "ring": args.ring,
        "stabilized": a.betti.stabilized,
        "total_rank": a.betti.total,
        "table": [
            {k: v for k, v in row.items() if k != drop}
            for row in cohomology.cohomology_table(a.graph, a.degree_cap)
        ],
    }
    return payload, False


def _cmd_freeness(a: Analysis, args) -> Tuple[dict, bool]:
    res = a.freeness
    degrees = res.checked_degrees  # 0, 2, ..., a range
    if degrees[MAX_LISTED_DEGREES:]:  # sliced, as len() overflows past sys.maxsize
        raise InputError(f"{degrees[-1] // 2 + 1} checked degrees, too many to list")
    payload = {
        "name": a.graph.name,
        "degree_cap": args.degree_cap,
        "status": res.status,
        "checked_degrees": list(res.checked_degrees),
        "witness": res.witness,
    }
    return payload, res.status != "certified"


def _cmd_surface(a: Analysis, args) -> Tuple[dict, bool]:
    s = a.surface
    payload = dict(
        a.surface_section(),
        name=a.graph.name,  # the surface's name moves to classification
        connection=args.connection,
        cells={
            "vertices": len(a.graph.vertices),
            "edges": len(a.graph.edges),
            "faces": len(s.faces),
        },
        classification=s.name,
    )
    if args.emit_complex:
        payload["complex"] = {
            "polygons": [
                [
                    {"edge": step.edge_id, "forward": step.forward}
                    for step in path.steps
                ]
                for path in s.faces
            ]
        }
    return payload, not s.closed


def _cmd_verdict(a: Analysis, args) -> Tuple[dict, bool]:
    # Through the public function, which traced runs time as the verdict.
    report = realizability_report(a.graph, a.degree_cap, a.connection_index)
    return report, report["tier"] in ("invalid", "not-gkm", "not-realizable")


def _corpus_root(args) -> Path:
    if getattr(args, "root", None):
        return Path(args.root)
    env = os.environ.get(CORPUS_ENV)
    if env:
        return Path(env)
    # Imported here, as only `gkm3 corpus` reads the packaged corpus.
    from importlib import resources

    return Path(str(resources.files("gkm3") / "corpus"))


def _diff_path(a, b, path: str = "$") -> Optional[str]:
    """First diverging field path between two JSON values, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}.{k}"
            p = _diff_path(a[k], b[k], f"{path}.{k}")
            if p:
                return p
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}.length"
        for i, (x, y) in enumerate(zip(a, b)):
            p = _diff_path(x, y, f"{path}[{i}]")
            if p:
                return p
        return None
    return None if a == b else path


def _cmd_corpus(args) -> Tuple[dict, bool]:
    root = _corpus_root(args)
    if not root.is_dir():
        raise InputError(f"corpus root {root} is not a directory")
    graph_files = sorted(
        p for p in root.glob("*.json") if not p.name.endswith(".golden.json")
    )
    if not graph_files:
        return {"root": str(root), "entries": [], "ok": False,
                "error": "no entries"}, True
    entries = []
    ok = True
    for gf in graph_files:
        golden_path = gf.with_name(gf.stem + ".golden.json")
        entry = {"name": gf.stem, "file": str(gf)}
        try:
            report = _open(args, str(gf)).report()
            if not golden_path.exists():
                entry.update(status="fail", error="missing golden file")
                ok = False
            else:
                try:
                    golden = json.loads(golden_path.read_text())
                except (OSError, ValueError, RecursionError) as exc:
                    raise InputError(f"cannot read {golden_path}: {exc}") from exc
                diverging = _diff_path(json.loads(_dumps(report)), golden)
                if diverging is None:
                    entry["status"] = "pass"
                else:
                    entry.update(status="fail", first_diverging_field=diverging)
                    ok = False
        except (InputError, GraphSemanticError) as exc:
            entry.update(status="fail", error=str(exc))
            ok = False
        entries.append(entry)
    return {"root": str(root), "entries": entries, "ok": ok}, not ok


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkm3",
        description="Exact realizability checks for 3-valent rank-2 GKM graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file=True, connection=False, degree_cap=False):
        if file:
            p.add_argument("file", help="graph JSON file")
        if connection:
            p.add_argument("--connection", type=int, default=0,
                           help="index of the compatible connection (default 0)")
        if degree_cap:
            p.add_argument("--degree-cap", type=int,
                           default=cohomology.DEFAULT_DEGREE_CAP,
                           help="maximum cohomological degree (even, default 20)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--strict", action="store_true",
                       help="exit 1 on a negative verdict")

    common(sub.add_parser("validate", help="check the abstract-graph axioms"))
    common(sub.add_parser("connections", help="enumerate compatible connections"))
    common(sub.add_parser("orientability", help="decide orientability"),
           connection=True)
    coh = sub.add_parser("cohomology", help="dimension/rank table")
    coh.add_argument("--ring", choices=("q", "z", "both"), default="both")
    common(coh, degree_cap=True)
    common(sub.add_parser("freeness", help="integral freeness certificate"),
           degree_cap=True)
    surf = sub.add_parser("surface", help="classify the glued surface")
    surf.add_argument("--emit-complex", action="store_true",
                      help="include the polygon-gluing presentation")
    common(surf, connection=True)
    common(sub.add_parser("verdict", help="full realizability report"),
           connection=True, degree_cap=True)
    corpus = sub.add_parser("corpus", help="check bundled corpus against goldens")
    corpus.add_argument("--root", help="corpus directory (overrides bundled)")
    common(corpus, file=False)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "connections": _cmd_connections,
    "orientability": _cmd_orientability,
    "cohomology": _cmd_cohomology,
    "freeness": _cmd_freeness,
    "surface": _cmd_surface,
    "verdict": _cmd_verdict,
}


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "corpus":
            payload, negative = _cmd_corpus(args)
        else:
            payload, negative = _COMMANDS[args.command](_open(args, args.file), args)
    except (InputError, GraphSemanticError, NoSuchConnection) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.format)
    return 1 if (negative and args.strict) else 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`gkm3 verdict g.json | head`).  Point
        # stdout at devnull, so that the flush at exit raises nothing, and
        # exit 1 without a traceback, as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
