"""Prints one digest line per gkm3 CLI call, to compare two checkouts.

Run from a checkout root:

    python3 tools/cli_digest.py > digest.txt

It imports gkm3 from the checkout's src/ and calls gkm3.cli.run in-process
for every subcommand, in --format json and text, on the corpus graphs,
tests/torsion_k4.json, tests/free_no_flow_up.json and the invalid graphs
in tests/invalid/ (dependent labels, elementary divisors [2, 2], [1, 2]
and [2, 6], loops, a 2-valent square, K5, two components and an isolated
vertex); the --degree-cap commands run at caps 10 and 20, and
`cohomology` also runs with --ring q and --ring z.
`orientability` and `surface --emit-complex` also run at every
--connection index of theta and nonorientable, whose 72 connections glue
spheres, genus-1 surfaces and crosscap-1 to crosscap-3 surfaces, and
`surface --emit-complex --format json` at every --connection index of
flag, whose 512 connections have the longest faces of the corpus.
Last, tests/sq22.json, a prism with 2^66 connections, runs validate,
cohomology, freeness, orientability, surface and verdict in json, and
orientability and verdict at --connection 2^66 - 1 (the last connection)
and 2^66 (out of range); then the verdict of tests/hexprism24.json, the
48-vertex hexagon-labelled prism.
Each line holds the exit code, the argv (paths relative to the checkout
root) and the sha256 of stdout, so a diff of the lines printed in two
checkouts shows whether their output is byte-identical.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path
from typing import List, Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gkm3 import cli  # noqa: E402
from gkm3.connection import available_connections  # noqa: E402
from gkm3.graph import parse_graph  # noqa: E402


def calls() -> List[List[str]]:
    """The argv of every call, in a fixed order."""
    corpus = "src/gkm3/corpus"
    graphs = sorted(
        f"{corpus}/{p.name}" for p in (ROOT / corpus).glob("*.json")
        if not p.name.endswith(".golden.json")
    ) + ["tests/torsion_k4.json", "tests/free_no_flow_up.json"] + sorted(
        f"tests/invalid/{p.name}" for p in (ROOT / "tests/invalid").glob("*.json")
    )

    def connections(path: str) -> List[str]:
        graph = parse_graph((ROOT / path).read_text())
        return list(map(str, range(len(available_connections(graph)[0]))))

    every_connection = [
        (path, connections(path))
        for path in (f"{corpus}/theta.json", f"{corpus}/nonorientable.json")
    ]
    flag = f"{corpus}/flag.json"
    out = []
    for fmt in ("json", "text"):
        for path in graphs:
            for cmd in ("validate", "connections", "orientability", "surface"):
                out.append([cmd, path, "--format", fmt])
            for cmd in ("cohomology", "freeness", "verdict"):
                for cap in ("10", "20"):
                    out.append([cmd, path, "--degree-cap", cap, "--format", fmt])
            for ring in ("q", "z"):
                out.append(["cohomology", path, "--ring", ring, "--format", fmt])
        for path, indices in every_connection:
            for i in indices:
                out.append(["orientability", path, "--connection", i, "--format", fmt])
                out.append(["surface", path, "--connection", i, "--emit-complex",
                            "--format", fmt])
        out.append(["corpus", "--root", corpus, "--format", fmt])
    out += [["surface", flag, "--connection", i, "--emit-complex", "--format", "json"]
            for i in connections(flag)]
    sq22 = "tests/sq22.json"
    out += [[cmd, sq22, "--format", "json"] for cmd in (
        "validate", "cohomology", "freeness", "orientability", "surface", "verdict")]
    out += [[cmd, sq22, "--connection", str(i), "--format", "json"]
            for i in (2 ** 66 - 1, 2 ** 66) for cmd in ("orientability", "verdict")]
    out.append(["verdict", "tests/hexprism24.json", "--format", "json"])
    return out


def digest_line(argv: Sequence[str]) -> str:
    """`exit-code argv sha256(stdout)` for one in-process call."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv))
    sha = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    return f"{code} {' '.join(argv)} {sha}"


def main() -> int:
    if Path.cwd().resolve() != ROOT:
        print(f"error: run from the checkout root {ROOT}", file=sys.stderr)
        return 2
    for argv in calls():
        print(digest_line(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
