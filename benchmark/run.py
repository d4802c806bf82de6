"""The gkm3 benchmark: verdict throughput and latency on three workloads.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  A run is a closed loop with
one client and no threads.  It runs a fixed number of whole rounds of
operations, sized so that the seed code takes about ``--seconds`` on a
2-core host (``workloads.rounds``).  Every operation's output is checked
(``check.py``); the run is correct only if every failed operation is on an
input with a known defect and no answer is wrong.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the public functions of every gkm3 module are wrapped
(``spans.py``) and it reports per-layer metrics instead.  Lines before it
are a readable summary.  The exit code is 0 whenever a result line is
printed, and 2 when the checkout has no gkm3 source to measure.

End-to-end metrics:

* ``throughput_ops_per_s``: correct operations per second of operation
  time (set-up probes and trace bookkeeping left out).
* ``latency_p50_s`` and ``latency_tail_s``: the median of the operations'
  times and the highest percentile with at least ten operations above it
  (the maximum when a run has ten operations or fewer).
* ``setup_s``: median over fresh processes, spread through the run, of
  importing gkm3 and generating the workload's inputs.
* ``peak_rss_mib``: the benchmark process's peak RSS for in-process
  workloads; on cli-mixed the largest peak RSS of a CLI process that ran to
  its end (one stopped at the time limit has no defined peak).

Every time in these metrics is a wall time scaled to a fixed host pace
(``pace.py``): the shared host's speed changes by up to 2x from second to
second and minute to minute.  Fixed reference work sampled through the run
measures it: an integer loop for in-process operations, and an interpreter
start that imports numpy for CLI calls and set-up probes.  Each time is scaled by
the pace near it.  The summary lines give the run factors and the unscaled
per-operation medians.

Failed operations are counted in ``failed`` on the result line and listed
in the summary with ``failed_share``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import OK, TIMEOUT, TRACEBACK, WRONG, Checker, run_correct  # noqa: E402
from pace import CPU_REFERENCE_S, START_REFERENCE_S, Pace, cpu_loop, numpy_start  # noqa: E402
from spans import LAYERS, Totals, Tracer  # noqa: E402
from workloads import NAMES, SMALL_GRAPHS, Op, Workload, rounds  # noqa: E402

SETUP_TRIALS = 11
IMPORT_TRIALS = 5
TAIL_BEYOND = 10
# Pace samples after every in-process operation, after every CLI call, and
# before every set-up probe.
CPU_SAMPLES_AFTER = 3
START_SAMPLES_AFTER = 1
START_SAMPLES_BEFORE_PROBE = 1


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def run_child(argv, env, limit: float, cwd: Path, workdir: Path):
    """Runs one process to its end or to ``limit`` seconds.

    Returns (seconds, exit code or None on timeout, stdout, stderr, peak
    RSS in KiB).  On timeout the child gets SIGTERM, then SIGKILL one second
    later; it is always waited for.  Output goes through files in
    ``workdir``, and the child is reaped with wait4, which gives its own
    peak RSS.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    timed_out = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=err)
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except OpTimeout:
                timed_out = True
                proc.terminate()
                signal.setitimer(signal.ITIMER_REAL, 1.0)
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                except OpTimeout:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    rc = None if timed_out else proc.returncode
    return seconds, rc, out_path.read_bytes(), err_path.read_bytes(), usage.ru_maxrss


def median_child_seconds(argv, env, root: Path, workdir: Path, trials: int) -> float:
    """Median wall time of ``trials`` runs of a short child process."""
    times = []
    for _ in range(trials):
        seconds, rc, _, err, _ = run_child(argv, env, 60.0, root, workdir)
        if rc != 0:
            raise SystemExit(f"error: {' '.join(argv)} failed: {err.decode()[-500:]}")
        times.append(seconds)
    return statistics.median(times)


class Runner:
    """Runs operations and keeps their outcomes, latencies and traces."""

    def __init__(self, workload: Workload, seed: int, root: Path, env: dict,
                 workdir: Path, tracer) -> None:
        self.w = workload
        self.seed = seed
        self.root, self.env, self.workdir = root, env, workdir
        self.tracer = tracer
        self.totals = Totals()
        self.checker = Checker()
        self.latencies = []
        self.windows = []  # (start, end) perf_counter of each operation
        self.outcomes = []  # (op, outcome, detail)
        self.setup_values = []  # (seconds, start, end) of each probe
        self.cli_rss_kib = 0
        self.stdout_bytes = 0
        self.small_wall = 0.0
        self.small_startup_cli = 0.0
        self.excluded_s = 0.0  # set-up probes and trace folding, not operations
        import gkm3
        import gkm3.cli  # in-process verdicts are rendered as the CLI prints them
        self.gkm3 = gkm3
        # In-process work is scaled by the CPU loop's pace, child processes
        # by the pace of an interpreter start that imports numpy (pace.py).
        self.cpu_pace = Pace(cpu_loop, CPU_REFERENCE_S)
        self.start_pace = Pace(lambda: numpy_start(env, root), START_REFERENCE_S)
        self.run_pace = self.start_pace if workload.name == "cli-mixed" else self.cpu_pace

    def probe_setup(self) -> None:
        """Times one set-up in a fresh process (``setup_probe.py``)."""
        for _ in range(START_SAMPLES_BEFORE_PROBE):
            self.start_pace.sample()
        t0 = perf_counter()
        probe_dir = self.workdir / f"setup{len(self.setup_values)}"
        probe_dir.mkdir()
        argv = [sys.executable, str(HERE / "setup_probe.py"), self.w.name,
                str(self.seed), str(probe_dir)]
        _, rc, out, err, _ = run_child(argv, self.env, 60.0, self.root, probe_dir)
        if rc != 0:
            raise SystemExit(f"error: set-up probe failed: {err.decode()[-500:]}")
        self.setup_values.append((float(out.decode().strip()), t0, perf_counter()))
        self.excluded_s += perf_counter() - t0

    def _since(self, t0: float, spent0: float) -> float:
        """Wall seconds since ``t0``, less pace samples taken since then."""
        return perf_counter() - t0 - (self.cpu_pace.spent_s - spent0)

    def _inprocess(self, op: Op):
        gkm3 = self.gkm3
        out = io.StringIO()
        # Pace samples inside spans would land in layer self times.
        sampling = self.cpu_pace.sampling() if self.tracer is None else contextlib.nullcontext()
        spent0 = self.cpu_pace.spent_s
        signal.setitimer(signal.ITIMER_REAL, self.w.limit_s)
        t0 = perf_counter()
        try:
            with sampling:
                report = gkm3.realizability_report(gkm3.parse_graph(op.text))
                with contextlib.redirect_stdout(out):
                    gkm3.cli._emit(report, "json")
        except OpTimeout:
            return self._since(t0, spent0), TIMEOUT, f"over {self.w.limit_s} s"
        except Exception as exc:  # the operation failed; the run goes on
            return self._since(t0, spent0), TRACEBACK, f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = self._since(t0, spent0)
        self.stdout_bytes += len(out.getvalue())
        rendered = out.getvalue() if op.exact else None
        problems = self.checker.verdict(op.graph, report, rendered)
        return seconds, (WRONG if problems else OK), "; ".join(problems)

    def _cli(self, op: Op):
        argv = op.argv
        spans_file = self.workdir / "spans.json"
        if self.tracer is not None:
            spans_file.unlink(missing_ok=True)
            argv = (argv[0], str(HERE / "cli_child.py"), str(spans_file)) + argv[3:]
        seconds, rc, out, err, rss_kib = run_child(
            argv, self.env, self.w.limit_s, self.root, self.workdir)
        self.stdout_bytes += len(out)
        if rc is None:
            outcome, detail = TIMEOUT, f"over {self.w.limit_s} s"
        else:
            self.cli_rss_kib = max(self.cli_rss_kib, rss_kib)
            outcome, detail = self.checker.cli(
                op.graph, op.cmd, rc, out.decode(), err.decode())
        if self.tracer is not None:
            t0 = perf_counter()
            data = {"spans": [], "counts": {}}
            if spans_file.exists():
                data = json.loads(spans_file.read_text())
            per_layer = self.totals.add([tuple(s) for s in data["spans"]],
                                        data["counts"], seconds)
            self._fold_small(op, per_layer, seconds)
            self.excluded_s += perf_counter() - t0
        return seconds, outcome, detail

    def _fold_small(self, op: Op, per_layer, seconds: float) -> None:
        if op.graph.name in SMALL_GRAPHS:
            self.small_wall += seconds
            self.small_startup_cli += per_layer["startup"] + per_layer["cli"]

    def run_op(self, op: Op) -> None:
        start = perf_counter()
        if op.argv:
            seconds, outcome, detail = self._cli(op)
        else:
            seconds, outcome, detail = self._inprocess(op)
            if self.tracer is not None:
                t0 = perf_counter()
                spans, counts = self.tracer.take()
                per_layer = self.totals.add(spans, counts, seconds)
                self._fold_small(op, per_layer, seconds)
                self.excluded_s += perf_counter() - t0
        self.latencies.append(seconds)
        self.windows.append((start, perf_counter()))
        self.outcomes.append((op, outcome, detail))
        pace, samples = ((self.start_pace, START_SAMPLES_AFTER) if op.argv
                         else (self.cpu_pace, CPU_SAMPLES_AFTER))
        for _ in range(samples):
            pace.sample()

    def ok_count(self) -> int:
        return sum(1 for _, outcome, _ in self.outcomes if outcome == OK)


def run_rounds(runner: Runner, seconds: float, setup_probes: int) -> float:
    """Runs the rounds of a run of ``seconds``.

    ``setup_probes`` set-up probes are spread evenly between the
    operations.  Returns the operations' wall time, leaving out probes and
    trace folding.
    """
    ops = [op for _ in range(rounds(runner.w.name, seconds))
           for op in runner.w.next_round()]
    probe_at = Counter(len(ops) * k // setup_probes for k in range(setup_probes))
    t0 = perf_counter()
    for i, op in enumerate(ops):
        for _ in range(probe_at[i]):
            runner.probe_setup()
        runner.run_op(op)
    return (perf_counter() - t0 - runner.excluded_s - runner.cpu_pace.spent_s
            - runner.start_pace.spent_s)


def tail(latencies):
    """(value, percentile, samples): the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def paced_latencies(runner: Runner):
    """Each operation's wall time at the host pace near it.  An operation
    stopped at the time limit counts as the limit, which is wall-clock time
    whatever the host's pace."""
    return [runner.w.limit_s if outcome == TIMEOUT else
            seconds * (runner.start_pace if op.argv else runner.cpu_pace).factor(start, end)
            for seconds, (start, end), (op, outcome, _)
            in zip(runner.latencies, runner.windows, runner.outcomes)]


def end_to_end(runner: Runner) -> dict:
    latencies = paced_latencies(runner)
    setup = [seconds * runner.start_pace.factor(start, end)
             for seconds, start, end in runner.setup_values]
    value, pct, n = tail(latencies)
    print(f"latency tail: p{pct:.1f} of {n} operations")
    if runner.w.name == "cli-mixed":
        rss_kib = runner.cli_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_ops_per_s": (runner.ok_count() / sum(latencies), "ops/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(runner: Runner, import_s: float) -> dict:
    t = runner.totals
    n = len(runner.latencies)
    layer = t.layer_self()
    c = t.counts
    out = {
        "graph.parse_s": (t.group("graph.parse_graph") / n, "s/op"),
        "graph.validate_s": (t.group("graph.validate") / n, "s/op"),
        "connection.enumerate_s": (t.group(
            "connection.enumerate_connections", "connection.available_connections",
            "connection.connection_from_block") / n, "s/op"),
        "connection.count": (c["connection.count"] / n, "count/op"),
        "connection.transition_calls": (t.ncalls("connection.transition") / n, "calls/op"),
        "connection.transition_s": (t.group("connection.transition") / n, "s/op"),
        "connection.paths_s": (t.group("connection.connection_paths") / n, "s/op"),
        "orientation.is_orientable_calls": (
            t.ncalls("orientation.is_orientable") / n, "calls/op"),
        "orientation.is_orientable_s": (layer["orientation"] / n, "s/op"),
        "cohomology.basis_q_s": (t.group("cohomology.ht_basis_q") / n, "s/op"),
        "cohomology.basis_z_s": (t.group("cohomology.ht_basis_z") / n, "s/op"),
        "cohomology.basis_calls": (c["cohomology.basis_calls"] / n, "calls/op"),
        "cohomology.basis_cache_hits": (c["cohomology.basis_cache_hits"] / n, "count/op"),
        "cohomology.betti_s": (t.group(
            "cohomology.betti_numbers", "cohomology.cohomology_table") / n, "s/op"),
        "cohomology.poincare_s": (t.group("cohomology.poincare_duality") / n, "s/op"),
        "cohomology.freeness_s": (t.group("cohomology.z_freeness") / n, "s/op"),
        "linalg.rref_calls": (t.ncalls("linalg.rref") / n, "calls/op"),
        "linalg.rref_s": (t.group("linalg.rref", "linalg.q_rank") / n, "s/op"),
        "linalg.z_kernel_s": (t.group("linalg.z_kernel") / n, "s/op"),
        "linalg.hnf_s": (t.group("linalg.hnf", "linalg.hnf_transform") / n, "s/op"),
        "linalg.snf_s": (t.group(
            "linalg.snf_transform", "linalg.elementary_divisors") / n, "s/op"),
        "linalg.solve_s": (t.group(
            "linalg.solve_left", "linalg.lattice_solve", "linalg.hnf_solve",
            "linalg.nullspace", "linalg.unimodular_inverse") / n, "s/op"),
        "linalg.max_entry_bits": (c["linalg.max_entry_bits"], "bits"),
        "linalg.cells": (c["linalg.cells"] / n, "cells/op"),
        "surface.classify_s": (t.group(
            "surface.build_surface", "surface.classify_surface") / n, "s/op"),
        "verdict.self_s": (t.group("verdict.realizability_report") / n, "s/op"),
        "cli.import_s": (import_s, "s"),
        "cli.emit_s": (t.group("cli._emit") / n, "s/op"),
        "cli.stdout_bytes": (runner.stdout_bytes / n, "bytes/op"),
    }
    for name in LAYERS:
        out[f"{name}.self_share"] = (layer[name] / t.wall, "share")
    out["startup.self_share"] = (t.uncovered / t.wall, "share")
    out["cli.small_graph_startup_cli_share"] = (
        runner.small_startup_cli / runner.small_wall, "share")
    # Same estimator as throughput_ops_per_s, so the two give the overhead.
    out["trace.ops_per_s"] = (runner.ok_count() / sum(runner.latencies), "ops/s")
    out["trace.bookkeeping_share"] = (t.bookkeeping / t.wall, "share")
    # Times and rates at the run's host pace: the traced run takes no pace
    # samples during operations, which would land in layer self times.
    f = runner.run_pace.factor()
    for name, (value, unit) in out.items():
        if unit in ("s", "s/op"):
            out[name] = (value * f, unit)
        elif unit == "ops/s":
            out[name] = (value / f, unit)
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gkm3" / "__init__.py").is_file():
        print(f"error: no gkm3 source under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ, PYTHONPATH=str(src))
    signal.signal(signal.SIGALRM, _alarm)
    with tempfile.TemporaryDirectory(prefix=".bench_work_", dir=root) as tmp:
        workdir = Path(tmp)
        import_s = 0.0
        if args.trace:
            bare = median_child_seconds([sys.executable, "-c", "pass"], env, root,
                                        workdir, IMPORT_TRIALS)
            cli = median_child_seconds([sys.executable, "-c", "import gkm3.cli"],
                                       env, root, workdir, IMPORT_TRIALS)
            import_s = cli - bare
        import gkm3
        if Path(gkm3.__file__).resolve().parent != (src / "gkm3").resolve():
            print(f"error: gkm3 imported from {gkm3.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        run_dir = workdir / "run"
        run_dir.mkdir()
        workload = Workload(args.workload, root, args.seed, run_dir)
        runner = Runner(workload, args.seed, root, env, run_dir, tracer)
        wall = run_rounds(runner, args.seconds, 0 if args.trace else SETUP_TRIALS)

    failed = [(op, o, d) for op, o, d in runner.outcomes if o != OK]
    for op, outcome, detail in failed:
        known = f" (known defect: {op.graph.defect})" if op.graph.defect else ""
        print(f"failed: {op.label}: {outcome}: {detail}{known}")
    metrics = per_layer(runner, import_s) if args.trace else end_to_end(runner)
    by_label = {}
    for (op, _, _), seconds in zip(runner.outcomes, runner.latencies):
        by_label.setdefault(op.label, []).append(seconds)
    for label, values in sorted(by_label.items()):
        print(f"  {label}: {len(values)} x, fastest {min(values):.4f} s, "
              f"median {statistics.median(values):.4f} s wall")
    for name, pace in (("cpu", runner.cpu_pace), ("start", runner.start_pace)):
        if pace.samples:
            print(f"{name} pace: {len(pace.samples)} samples, run factor {pace.factor():.4f}")
    attempted = len(runner.outcomes)
    print(f"{args.workload}: {attempted} operations in {wall:.2f} s wall, "
          f"{len(failed)} failed (failed_share {len(failed) / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": run_correct((op.graph, o) for op, o, _ in runner.outcomes),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
