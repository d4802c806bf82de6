"""Records the benchmark's baseline: two sets of runs and a traced run.

Usage, from the root of a checkout:

    python3 benchmark/baseline.py --out benchmark/baseline.json

For each workload it makes ten untraced runs with seeds 1-10, then, after
all workloads, ten more with seeds 11-20, each of ``run_seconds`` from
BENCHMARK.json.  It records per set and end-to-end metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over median), and how much worse the second set's median is than
the first's.  Last, per workload, an untraced and a traced run of one seed,
made one after the other, give the per-layer table and the tracing
overhead: one minus the traced throughput over the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import NAMES  # noqa: E402

SEEDS = 10
FIRST_SEEDS = (1, 11)
TRACED_SEED = 1000


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["summary"] = [ln for ln in lines[:-1] if ln.startswith(("failed:", "latency tail"))]
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def one_set(workload: str, first_seed: int, seconds: int) -> dict:
    runs = [one_run(workload, seed, seconds, 0)
            for seed in range(first_seed, first_seed + SEEDS)]
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = dict(unit=runs[0]["metrics"][name]["unit"], **summarize(values))
        print(f"{workload:16s} seeds {first_seed:2d}+ {name:22s} median "
              f"{metrics[name]['median']:.5g} spread {metrics[name]['spread']:.3f}",
              flush=True)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "failed_share": [r["failed"] / r["attempted"] for r in runs],
        "notes": runs[0]["summary"],
        "end_to_end": metrics,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = {first: {w: one_set(w, first, seconds) for w in NAMES}
            for first in FIRST_SEEDS}
    record = {"run_seconds": seconds, "python": sys.version.split()[0],
              "host": f"{platform.machine()}, {os.cpu_count()} CPUs",
              "why": {w["name"]: w["why"] for w in spec["workloads"]},
              "sets": {f"seeds_{f}_to_{f + SEEDS - 1}": s for f, s in sets.items()},
              "comparison": {}, "traced": {}}
    first, second = (sets[f] for f in FIRST_SEEDS)
    for w in NAMES:
        record["comparison"][w] = {
            name: {"bound": bounds[name],
                   "spread_first": m["spread"],
                   "spread_second": second[w]["end_to_end"][name]["spread"],
                   "worse_by": _worse_by(spec, name, m["median"],
                                         second[w]["end_to_end"][name]["median"])}
            for name, m in first[w]["end_to_end"].items()}
        untraced = one_run(w, TRACED_SEED, seconds, 0)["metrics"]
        traced = one_run(w, TRACED_SEED, seconds, 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced_ops = untraced["throughput_ops_per_s"]["value"]
        record["traced"][w] = {
            "seed": TRACED_SEED, "correct": traced["correct"],
            "per_layer": layers, "untraced_ops_per_s": untraced_ops,
            "tracing_overhead": 1 - layers["trace.ops_per_s"] / untraced_ops}
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


def _worse_by(spec: dict, name: str, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
    change = (second - first) / first
    return change if better == "lower" else -change


if __name__ == "__main__":
    sys.exit(main())
