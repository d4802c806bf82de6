"""The three benchmark workloads and the operations they are made of.

A run is a closed loop with one client: operations run one after another
in one process, with no threads.  Operations come in rounds; a round runs
each of the workload's operations exactly once, in an order drawn from the
seed, so every round does the same work and no operation is weighted over
another.

* ``corpus``: one in-process verdict per operation on a freshly parsed
  corpus graph or CP^3.  Everyday use; cohomology and linalg dominate.
* ``many-connections``: in-process verdicts on seeded relifted and
  reordered copies of prism4 (4096 connections), flag (512) and
  nonorientable (64).  Connection enumeration and orientability dominate.
* ``cli-mixed``: one ``python -m gkm3.cli`` process per operation.
  Interpreter and numpy start-up, argument handling, validation, error
  paths and output dominate.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from inputs import NEGATIVES, Input, build_graphs, variant

NAMES = ("corpus", "many-connections", "cli-mixed")

# Per-operation wall-time limit, several times the slowest correct
# operation of the workload on a 2-core x86 host.  The 4-valent K5 verdict
# runs for minutes, so on cli-mixed it ends at the limit as a failure.
OP_LIMIT_S = {"corpus": 30.0, "many-connections": 30.0, "cli-mixed": 5.0}

# About how long one round takes in a run of the seed code on a 2-core x86
# host, pace samples included (``pace.py``).  A run of
# ``--seconds`` does ``rounds(...)`` whole rounds, a count that does not
# depend on the host's speed at run time: so every run of a workload does
# the same operations, its percentiles fall at the same ranks, and a faster
# program does the same work in less time.
ROUND_S = {"corpus": 5.0, "many-connections": 10.0, "cli-mixed": 25.0}


def rounds(name: str, seconds: float) -> int:
    """Whole rounds in a run of ``seconds`` on ``name``, at least one."""
    return max(1, round(seconds / ROUND_S[name]))


# The graphs of the in-process workloads: the four corpus graphs plus CP^3,
# and the three many-connection graphs.
GRAPHS = {
    "corpus": ("cube", "flag", "theta", "nonorientable", "cp3"),
    "many-connections": ("prism4", "flag", "nonorientable"),
}

# cli-mixed runs every command on every small graph, the cohomology of the
# two hexagon prisms, and a verdict on every negative.  The cube is left
# out of the small graphs: its 2.7 s CLI verdict would outweigh start-up,
# and corpus covers it in-process.
SMALL_GRAPHS = ("theta", "nonorientable", "flag", "cp3")
CLI_COMMANDS = ("validate", "connections", "orientability", "surface",
                "cohomology", "freeness", "verdict")
CLI_LARGE = (("cohomology", "prism6"), ("cohomology", "prism8"))


@dataclass(frozen=True)
class Op:
    """One operation: an in-process verdict on ``text``, or one CLI call.

    An in-process verdict is parsed, computed and rendered as ``gkm3
    verdict`` prints it.  ``exact`` marks unmodified input, whose rendering
    must match the golden file byte for byte.
    """

    label: str
    graph: Input
    text: Optional[str] = None
    cmd: Optional[str] = None
    argv: Tuple[str, ...] = ()
    exact: bool = True


class Workload:
    """Inputs of one workload and the seeded stream of its rounds."""

    def __init__(self, name: str, root: Path, seed: int, workdir: Path) -> None:
        if name not in NAMES:
            raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
        self.name = name
        self.limit_s = OP_LIMIT_S[name]
        self.graphs: Dict[str, Input] = build_graphs(root)
        self.rng = random.Random(seed)
        self.files: Dict[str, Path] = {}
        if name == "cli-mixed":
            for gname in SMALL_GRAPHS + tuple(g for _, g in CLI_LARGE) + NEGATIVES:
                path = workdir / f"{gname}.json"
                path.write_text(self.graphs[gname].json_text())
                self.files[gname] = path

    def _cli_op(self, cmd: str, gname: str) -> Op:
        extra = ("--ring", "both") if cmd == "cohomology" else ()
        argv = (sys.executable, "-m", "gkm3.cli", cmd, str(self.files[gname])) + extra
        return Op(f"cli {cmd} {gname}", self.graphs[gname], cmd=cmd, argv=argv)

    def next_round(self) -> List[Op]:
        """The operations of the next round, in seeded order."""
        g = self.graphs
        if self.name == "corpus":
            ops = [Op(f"verdict {n}", g[n], text=g[n].json_text())
                   for n in GRAPHS[self.name]]
        elif self.name == "many-connections":
            ops = [Op(f"verdict {n}~", g[n], exact=False,
                      text=json.dumps(variant(g[n].doc, self.rng)))
                   for n in GRAPHS[self.name]]
        else:
            calls = [(c, n) for n in SMALL_GRAPHS for c in CLI_COMMANDS]
            calls += list(CLI_LARGE)
            calls += [("verdict", n) for n in NEGATIVES]
            ops = [self._cli_op(c, n) for c, n in calls]
        self.rng.shuffle(ops)
        return ops
