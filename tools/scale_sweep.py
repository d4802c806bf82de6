"""Times each verdict stage on hexagon-labelled prisms of growing size.

Run from a checkout root:

    python3 tools/scale_sweep.py BENCH_20.json --sizes 6 12 18 24 30 36 \\
        --repeat 5 --side change

The prism over an n-gon (n a multiple of 3) is the benchmark's
(benchmark/inputs.prism with HEXAGON_LABELS and HEXAGON_VERTICAL): polygon
edges labelled (1, 0), (1, 1), (0, 1) in turn on both n-gons and vertical
edges labelled (1, 2).  It is the GKM graph of the toric surface of the polygon times CP^1, so its
Betti numbers are (1, n - 1, n - 1, 1), and the sweep stops with exit code 1
when a verdict reads others.  Each repetition parses the graph afresh and
times every stage of one gkm3.verdict.Analysis in the order the report
needs them, then the report itself, which reads them all; a stage's number
is its best over the repetitions, and verdict_s is the best total.  The
numbers go into the output file under "hexagon_prisms", then --side (the
commit measured: "parent" or "change"), keyed by n; the rest of the file is
kept, so one file holds both sides and the benchmark workloads
(tools/bench_collect.py).
gkm3 is imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gkm3.graph import parse_graph  # noqa: E402
from gkm3.verdict import Analysis  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "benchmark_inputs", ROOT / "benchmark" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = inputs  # dataclasses look their module up
_spec.loader.exec_module(inputs)

# Analysis stages in the order the verdict report computes them.
STAGES = ("validity", "connections", "connection", "betti", "poincare",
          "freeness", "isotropy", "orientability", "surface")


def hexagon_prism(n: int) -> dict:
    """The hexagon-labelled prism over an n-gon, as a graph document."""
    return inputs.prism(n, inputs.HEXAGON_LABELS, inputs.HEXAGON_VERTICAL,
                        f"prism{n}")


def time_stages(text: str) -> Tuple[Dict[str, float], Tuple[int, ...]]:
    """Seconds per stage of one fresh Analysis, its report and their total,
    and the Betti numbers it found."""
    a = Analysis(parse_graph(text))
    out = {}
    for stage in STAGES:
        t0 = perf_counter()
        getattr(a, stage)
        out[f"{stage}_s"] = perf_counter() - t0
    t0 = perf_counter()
    a.report()
    out["report_s"] = perf_counter() - t0
    out["verdict_s"] = sum(out.values())
    return out, a.betti.betti


def sweep(sizes: List[int], repeat: int) -> Dict[str, Dict[str, float]]:
    """Best-of-repeat stage seconds per prism size; ValueError when a
    prism's Betti numbers are not (1, n - 1, n - 1, 1)."""
    results = {}
    for n in sizes:
        text = json.dumps(hexagon_prism(n))
        best: Dict[str, float] = {}
        for _ in range(repeat):
            times, betti = time_stages(text)
            if tuple(betti[:4]) != (1, n - 1, n - 1, 1) or any(betti[4:]):
                raise ValueError(f"prism{n}: Betti numbers {betti}, "
                                 f"expected (1, {n - 1}, {n - 1}, 1)")
            for key, value in times.items():
                best[key] = min(best.get(key, value), value)
        results[str(n)] = {key: round(value, 6) for key, value in best.items()}
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path, help="summary file to create or update")
    p.add_argument("--sizes", nargs="+", type=int, default=[6, 12, 18, 24, 30, 36])
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--side", choices=("parent", "change"), default="change")
    p.add_argument("--host", default="", help="where the sweep was run")
    args = p.parse_args(argv)
    if args.repeat < 1 or any(n < 3 or n % 3 for n in args.sizes):
        p.error("--repeat must be positive and every size a multiple of 3")
    try:
        results = sweep(args.sizes, args.repeat)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    prisms = data.setdefault("hexagon_prisms", {})
    prisms["method"] = (
        "tools/scale_sweep.py: per size, best of --repeat fresh-graph "
        "Analysis runs, each stage timed in report order")
    prisms[args.side] = {"host": args.host, "repeat": args.repeat,
                         "seconds": results}
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
