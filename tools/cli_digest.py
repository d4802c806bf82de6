"""Prints one digest line per gkm3 CLI call, to compare two checkouts.

Run from a checkout root:

    python3 tools/cli_digest.py > digest.txt

It imports gkm3 from the checkout's src/ and calls gkm3.cli.run in-process
for every subcommand, in --format json and text, on the corpus graphs and
on tests/torsion_k4.json; the --degree-cap commands run at caps 10 and 20.
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


def calls() -> List[List[str]]:
    """The argv of every call, in a fixed order."""
    corpus = "src/gkm3/corpus"
    graphs = sorted(
        f"{corpus}/{p.name}" for p in (ROOT / corpus).glob("*.json")
        if not p.name.endswith(".golden.json")
    ) + ["tests/torsion_k4.json"]
    out = []
    for fmt in ("json", "text"):
        for path in graphs:
            for cmd in ("validate", "connections", "orientability", "surface"):
                out.append([cmd, path, "--format", fmt])
            for cmd in ("cohomology", "freeness", "verdict"):
                for cap in ("10", "20"):
                    out.append([cmd, path, "--degree-cap", cap, "--format", fmt])
        out.append(["corpus", "--root", corpus, "--format", fmt])
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
