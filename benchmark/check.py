"""Correctness checks for every benchmark operation.

The sources of truth are independent of the code under test: the golden
reports pinned in the repository (compared byte for byte on unmodified
corpus graphs), Betti numbers of manifolds with known topology, and the
invariance of connection-independent fields under relifting and
reordering.  A variant is also compared with every other variant of the
same graph met in the run.

An operation's outcome is one of ``ok``, ``wrong`` (an answer that
contradicts a source of truth), ``traceback``, ``exit`` (an unexpected exit
code) or ``timeout``.  All four non-``ok`` outcomes count as failed
operations.  A run is correct only if every failure is on an input with a
known defect (``Input.defect``) and none is ``wrong`` (``run_correct``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from inputs import Input, strip_zeros

OK, WRONG, TRACEBACK, EXIT, TIMEOUT = "ok", "wrong", "traceback", "exit", "timeout"


def run_correct(results: Iterable[Tuple[Input, str]]) -> bool:
    """Whether a run with these (input, outcome) pairs is correct."""
    return all(outcome == OK or (inp.defect is not None and outcome != WRONG)
               for inp, outcome in results)


def invariants(report: dict) -> dict:
    """Verdict fields that do not depend on the lift, order or connection."""
    pd = report.get("poincare_duality") or {}
    zf = report.get("z_freeness") or {}
    conns = report.get("connections") or {}
    orient = report.get("orientability") or {}
    return {
        "tier": report.get("tier"),
        "betti": strip_zeros(report.get("betti") or []),
        "poincare_ok": pd.get("ok"),
        "z_freeness": zf.get("status"),
        "connections": conns.get("count"),
        "consistent": orient.get("consistent_across_connections"),
    }


def pinned(inp: Input) -> dict:
    """Invariant fields an independent source fixes for ``inp``."""
    out = invariants(inp.golden) if inp.golden_text else {}
    out.update({k: v for k, v in inp.expect.items() if k != "exit"})
    return out


class Checker:
    """Checks operation outputs; remembers invariants per graph for the run."""

    def __init__(self) -> None:
        self.seen: Dict[str, dict] = {}

    def verdict(self, inp: Input, report: dict,
                rendered: Optional[str] = None) -> List[str]:
        """Problems with a verdict.

        ``rendered`` is the report as printed for unmodified input, which
        must equal the golden file byte for byte.
        """
        problems = []
        if rendered is not None and inp.golden_text and rendered != inp.golden_text:
            problems.append("rendered report differs from the golden file")
        inv = invariants(report)
        for key, want in pinned(inp).items():
            if inv.get(key) != want:
                problems.append(f"{key}: got {inv.get(key)!r}, want {want!r}")
        first = self.seen.setdefault(inp.name, inv)
        for key, value in inv.items():
            if first[key] != value:
                problems.append(
                    f"{key}: {value!r} differs from another variant's {first[key]!r}")
        return problems

    def cli(self, inp: Input, cmd: str, rc: int, out: str, err: str) -> tuple:
        """(outcome, detail) for one CLI call."""
        if "Traceback (most recent call last)" in err:
            return TRACEBACK, err.strip().splitlines()[-1]
        negative = "exit" in inp.expect or inp.expect.get("tier") in (
            "invalid", "not-gkm")
        if negative:
            if rc == 2 and err.startswith("error:"):
                return OK, ""
            if "exit" in inp.expect or rc != 0:
                return EXIT, f"exit code {rc}"
        if rc != 0:
            return EXIT, f"exit code {rc}: {err.strip()[:200]}"
        try:
            problems = _CLI_CHECKS[cmd](self, inp, json.loads(out), out)
        except json.JSONDecodeError as exc:
            return WRONG, f"stdout is not JSON: {exc}"
        except (KeyError, TypeError) as exc:
            return WRONG, f"stdout lacks an expected field: {exc!r}"
        return (WRONG, "; ".join(problems)) if problems else (OK, "")

    # Per-command checks; each returns a list of problems.

    def _validate(self, inp, data, out):
        return [] if data.get("ok") is True else ["validation failed"]

    def _connections(self, inp, data, out):
        problems = []
        if data["count"] != len(data["connections"]) or data["count"] < 1:
            problems.append(f"count {data['count']} vs {len(data['connections'])} listed")
        want = pinned(inp).get("connections")
        if want is not None and data["count"] != want:
            problems.append(f"count {data['count']}, want {want}")
        return problems

    def _orientability(self, inp, data, out):
        witness = data["potential"] if data["orientable"] else data["violating_cycle"]
        problems = [] if witness else ["no witness for the orientability answer"]
        if inp.golden_text:
            gold = inp.golden["orientability"]
            if (data["orientable"], data["eta"]) != (gold["orientable"], gold["eta"]):
                problems.append("orientability differs from the golden report")
        return problems

    def _surface(self, inp, data, out):
        cells = data["cells"]
        problems = []
        if data["euler_characteristic"] != cells["vertices"] - cells["edges"] + cells["faces"]:
            problems.append("euler characteristic is not V - E + F")
        if inp.golden_text:
            gold = inp.golden["surface"]
            if (data["classification"], data["face_lengths"]) != (
                    gold["name"], gold["face_lengths"]):
                problems.append("surface differs from the golden report")
        return problems

    def _cohomology(self, inp, data, out):
        problems = []
        betti = strip_zeros([row["betti"] for row in data["table"]])
        want = pinned(inp).get("betti")
        if want is not None and betti != want:
            problems.append(f"betti {betti}, want {want}")
        if any(row.get("dim_q") != row.get("rank_z") for row in data["table"]):
            problems.append("dim over Q differs from rank over Z")
        return problems

    def _freeness(self, inp, data, out):
        want = pinned(inp).get("z_freeness")
        if want is not None and data["status"] != want:
            return [f"status {data['status']}, want {want}"]
        return []

    def _verdict(self, inp, data, out):
        return self.verdict(inp, data, out)


_CLI_CHECKS = {
    "validate": Checker._validate,
    "connections": Checker._connections,
    "orientability": Checker._orientability,
    "surface": Checker._surface,
    "cohomology": Checker._cohomology,
    "freeness": Checker._freeness,
    "verdict": Checker._verdict,
}

