"""Times each verdict stage on hexagon-labelled prisms or CP^3 blow-ups.

Run from a checkout root:

    python3 tools/scale_sweep.py BENCH_20.json --sizes 6 12 18 24 30 36 \\
        --repeat 5 --side change
    python3 tools/scale_sweep.py BENCH_21.json --family blowup \\
        --sizes 5 10 15 20 --rules first last cycle --repeat 3

The prism over an n-gon (n a multiple of 3) is the benchmark's
(benchmark/inputs.prism with HEXAGON_LABELS and HEXAGON_VERTICAL): polygon
edges labelled (1, 0), (1, 1), (0, 1) in turn on both n-gons and vertical
edges labelled (1, 2).  It is the GKM graph of the toric surface of the polygon times CP^1, so its
Betti numbers are (1, n - 1, n - 1, 1).  The blow-up family is
tools/gen_blowup.py's: K blow-ups of CP^3 by each --rules rule, projected
by BLOWUP_P, with Betti numbers (1, 1 + K, 1 + K, 1); each of its records
also holds the graph's largest label content and the largest entry bit
length of the class rows that ht_basis_z's fallback pass
(cohomology._lattice_rows) returned, 0 when no lattice took it, and the
route that certified its cohomology: "thom" (thom.free_basis, the
Thom-class certificate, memo key ("thom",)), "closed-basis"
(cohomology._closed_basis, whose classes thom.certificate reads into the
same record, memo key ("basis",)) or "quotient-scan" (no certificate, so
the quotients were scanned).  The sweep stops with
exit code 1 when a verdict reads other Betti numbers.  Each repetition
parses the graph afresh and times every stage of one gkm3.verdict.Analysis
in the order the report needs them, then the report itself, which reads
them all; a stage's number is its best over the repetitions, and
verdict_s is the best total.  Beside each run's seconds, growth holds per
stage, for each pair of consecutive sizes (of one rule, for blow-ups),
keyed "key1-key2", the exponent log(t2 / t1) / log(|V|2 / |V|1) rounded to
2 places, None where a time rounds to 0.  The numbers go into the
output file under "hexagon_prisms" (keyed by n) or "blowups" (keyed by
rule and K, as "last10"), then --side (the commit measured: "parent" or
"change"), which holds that side's latest run; "runs" keeps every run, in
order, each with its side, so alternating runs of the two sides can be
told from host drift.  The rest of the file is kept, so one file holds
both sides and the benchmark workloads (tools/bench_collect.py).  gkm3 is
imported from the src/ of the checkout that holds this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gkm3 import cohomology  # noqa: E402
from gkm3.graph import parse_graph  # noqa: E402
from gkm3.verdict import Analysis  # noqa: E402


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


inputs = _load("benchmark_inputs", ROOT / "benchmark" / "inputs.py")
gen_blowup = _load("gen_blowup", ROOT / "tools" / "gen_blowup.py")
BLOWUP_P = [[-3, 3, 2], [-3, -2, -2]]

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


def _graphs(family: str, sizes: List[int], rules: List[str]):
    """(key, document text, expected b_2) of each graph of the sweep."""
    if family == "hexagon":
        return [(str(n), json.dumps(hexagon_prism(n)), n - 1) for n in sizes]
    return [(f"{rule}{K}", json.dumps(gen_blowup.blowup_document(K, rule, BLOWUP_P)),
             1 + K) for rule in rules for K in sizes]


def _route_and_fallback_bits(text: str) -> Tuple[str, int]:
    """The route that certified one verdict's cohomology, and the largest
    entry bit length of the class rows that the fallback pass returned
    while its bases were formed, 0 without one."""
    bits = [0]
    rows_of = cohomology._lattice_rows

    def spy(*args):
        rows = rows_of(*args)
        bits.append(max(abs(x).bit_length() for row in rows for x in row))
        return rows

    cohomology._lattice_rows = spy
    try:
        g = parse_graph(text)
        Analysis(g).report()
    finally:
        cohomology._lattice_rows = rows_of
    if g.memo.get(("thom",)) is not None:
        route = "thom"
    else:
        route = "quotient-scan" if cohomology._free_betti(g) is None else "closed-basis"
    return route, max(bits)


def growth(seconds: Dict[str, Dict[str, float]],
           vertices: Dict[str, int]) -> Dict[str, Dict[str, float]]:
    """Per stage, the growth exponent of each pair of consecutive graphs of
    one rule (the key less its digits), in order of |V|."""
    groups: Dict[str, List[str]] = {}
    for key in sorted(seconds, key=vertices.get):
        groups.setdefault(key.rstrip("0123456789"), []).append(key)
    out: Dict[str, Dict[str, float]] = {}
    for keys in groups.values():
        for k1, k2 in zip(keys, keys[1:]):
            scale = math.log(vertices[k2] / vertices[k1])
            for stage, t1 in seconds[k1].items():
                t2 = seconds[k2][stage]
                if stage.endswith("_s"):
                    out.setdefault(stage, {})[f"{k1}-{k2}"] = (
                        round(math.log(t2 / t1) / scale, 2) if t1 and t2 else None)
    return out


def sweep(family: str, sizes: List[int], repeat: int, rules: List[str] = ()
          ) -> Tuple[Dict[str, Dict[str, float]], Dict[str, Dict[str, float]]]:
    """Best-of-repeat stage seconds per graph, and their growth exponents;
    ValueError when a graph's Betti numbers are not (1, b, b, 1) with b its
    known b_2."""
    results, vertices = {}, {}
    for key, text, b2 in _graphs(family, sizes, rules):
        g = parse_graph(text)
        vertices[key] = len(g.vertices)
        best: Dict[str, float] = {}
        for _ in range(repeat):
            times, betti = time_stages(text)
            if tuple(betti[:4]) != (1, b2, b2, 1) or any(betti[4:]):
                name = f"prism{key}" if family == "hexagon" else key
                raise ValueError(f"{name}: Betti numbers {betti}, "
                                 f"expected (1, {b2}, {b2}, 1)")
            for stage, value in times.items():
                best[stage] = min(best.get(stage, value), value)
        results[key] = {stage: round(value, 6) for stage, value in best.items()}
        if family == "blowup":
            results[key]["label_content"] = max(e.weight.content() for e in g.edges)
            results[key]["route"], results[key]["fallback_bits"] = (
                _route_and_fallback_bits(text))
    return results, growth(results, vertices)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("out", type=Path, help="summary file to create or update")
    p.add_argument("--family", choices=("hexagon", "blowup"), default="hexagon")
    p.add_argument("--sizes", nargs="+", type=int,
                   help="prism sizes n, or blow-up counts K "
                        "(default 6 12 18 24 30 36, or 5 10 15 20)")
    p.add_argument("--rules", nargs="+", choices=gen_blowup.RULES,
                   default=list(gen_blowup.RULES), help="blow-up vertex rules")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--side", choices=("parent", "change"), default="change")
    p.add_argument("--host", default="", help="where the sweep was run")
    args = p.parse_args(argv)
    hexagon = args.family == "hexagon"
    sizes = args.sizes or ([6, 12, 18, 24, 30, 36] if hexagon else [5, 10, 15, 20])
    if args.repeat < 1:
        p.error("--repeat must be positive")
    if hexagon and any(n < 3 or n % 3 for n in sizes):
        p.error("every prism size must be a multiple of 3")
    if not hexagon and any(K < 0 for K in sizes):
        p.error("every blow-up count must be nonnegative")
    try:
        results, exponents = sweep(args.family, sizes, args.repeat, args.rules)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    section = data.setdefault("hexagon_prisms" if hexagon else "blowups", {})
    section["method"] = (
        "tools/scale_sweep.py: per graph, best of --repeat fresh-graph "
        "Analysis runs, each stage timed in report order")
    if not hexagon:
        section["projection"] = BLOWUP_P
    run = {"host": args.host, "repeat": args.repeat, "seconds": results,
           "growth": exponents}
    section[args.side] = run
    section.setdefault("runs", []).append(dict(run, side=args.side))
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
