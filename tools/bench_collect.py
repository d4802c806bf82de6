"""Collects benchmark runs into a per-metric summary file.

Each input file holds the stdout of one ``benchmark/run.py`` run; its last
line is the JSON result that run.py prints.  Runs of the parent commit and
of the change are given separately, in pair order, and the median and
quartiles of each metric go into the output file under the workload's name:

    python3 tools/bench_collect.py BENCH_7.json --workload corpus \\
        --parent runs/corpus_parent_*.out --change runs/corpus_change_*.out

An existing output file is updated, so one file can hold every workload.
For the end-to-end metrics of BENCHMARK.json, ``wins`` counts the pairs
(parent run i, change run i) in which the change is better.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def result_line(path: Path) -> dict:
    """The JSON result of one run: the last nonblank line of its stdout."""
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: last line is not a run result: {exc}") from exc


def summarize(files: List[Path], results: List[dict]) -> dict:
    """Run files, correctness and the per-metric medians of one side."""
    names = sorted({name for r in results for name in r["metrics"]})
    metrics = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        unit = next(r["metrics"][name]["unit"] for r in results if name in r["metrics"])
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        metrics[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                         "unit": unit, "runs": len(values)}
    return {
        "files": [f.name for f in files],
        "all_correct": all(r["correct"] for r in results),
        "failed_share": (sum(r["failed"] for r in results)
                         / max(1, sum(r["attempted"] for r in results))),
        "metrics": metrics,
    }


def pair_wins(parent: List[dict], change: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: pairs won by the change, and the median ratio."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    out = {}
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        wins = sum((c > p) if higher else (c < p) for p, c in pairs)
        med_p = statistics.median(p for p, _ in pairs)
        med_c = statistics.median(c for _, c in pairs)
        out[name] = {"better": metric["better"], "pairs": len(pairs),
                     "wins": wins,
                     "change_over_parent": med_c / med_p if med_p else None}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path, help="summary file to create or update")
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", nargs="+", type=Path, required=True)
    p.add_argument("--change", nargs="+", type=Path, required=True)
    p.add_argument("--host", default="", help="where the runs were made")
    args = p.parse_args(argv)
    try:
        parent = [result_line(f) for f in args.parent]
        change = [result_line(f) for f in args.change]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data.setdefault("workloads", {})[args.workload] = {
        "host": args.host,
        "parent": summarize(args.parent, parent),
        "change": summarize(args.change, change),
        "end_to_end_pairs": pair_wins(parent, change),
    }
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
