"""Tests of the benchmark itself: python3 -m pytest benchmark -q

Generators must be deterministic per seed, the checker must reject wrong
answers and unexpected failures, and each workload must complete a minimal
run.  The smoke runs take about a minute in all, since each runs one whole
round.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from check import OK, TIMEOUT, TRACEBACK, WRONG, Checker, invariants, run_correct  # noqa: E402
from inputs import build_graphs, variant  # noqa: E402
from workloads import NAMES, Op, Workload  # noqa: E402

GRAPHS = build_graphs(ROOT)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def dumps(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def round_of(name, seed, work):
    work.mkdir()
    return [(op.label, op.text, op.cmd) for op in
            Workload(name, ROOT, seed, work).next_round()]


@pytest.mark.parametrize("name", NAMES)
def test_rounds_repeat_for_a_seed(name, tmp_path):
    first = round_of(name, 7, tmp_path / "a")
    assert first == round_of(name, 7, tmp_path / "b")
    assert first != round_of(name, 8, tmp_path / "c")


def test_variants_repeat_for_a_seed():
    doc = GRAPHS["flag"].doc
    assert variant(doc, random.Random(3)) == variant(doc, random.Random(3))
    assert variant(doc, random.Random(3)) != variant(doc, random.Random(4))


@pytest.mark.parametrize("name", ["flag", "nonorientable", "theta"])
def test_variant_keeps_the_invariant_fields(name):
    from gkm3 import parse_graph, realizability_report

    inp = GRAPHS[name]
    report = realizability_report(parse_graph(json.dumps(variant(inp.doc, random.Random(5)))))
    assert invariants(report) == invariants(inp.golden)


CP3_REPORT = {"tier": "integer-gkm-realizable", "betti": [1, 1, 1, 1, 0, 0],
              "poincare_duality": {"ok": True}, "z_freeness": {"status": "certified"}}


@pytest.mark.parametrize("name,report", [
    ("cube", GRAPHS["cube"].golden),
    ("cp3", CP3_REPORT),
])
@pytest.mark.parametrize("field,value", [
    ("betti", [1, 3, 2, 1, 0, 0]),
    ("tier", "rigid-class"),
])
def test_checker_rejects_a_perturbed_verdict(name, report, field, value):
    inp = GRAPHS[name]
    assert Checker().verdict(inp, report, dumps(report)) == []
    perturbed = dict(report, **{field: value})
    assert Checker().verdict(inp, perturbed)


def test_checker_rejects_a_variant_that_disagrees():
    inp = GRAPHS["prism4"]
    checker = Checker()
    report = {"tier": "rigid-class", "betti": [1, 3, 3, 1],
              "poincare_duality": {"ok": True}, "z_freeness": {"status": "certified"},
              "connections": {"count": 4096},
              "orientability": {"consistent_across_connections": True}}
    assert checker.verdict(inp, report) == []
    report["orientability"] = {"consistent_across_connections": False}
    assert checker.verdict(inp, report)


def test_checker_rejects_wrong_cli_answers():
    checker = Checker()
    theta = GRAPHS["theta"]
    table = {"table": [{"betti": b, "dim_q": 1, "rank_z": 1} for b in (1, 0, 0, 1)]}
    assert checker.cli(theta, "cohomology", 0, json.dumps(table), "")[0] == OK
    table["table"][1]["betti"] = 1
    assert checker.cli(theta, "cohomology", 0, json.dumps(table), "")[0] == WRONG
    assert checker.cli(theta, "verdict", 0, dumps(theta.golden), "")[0] == OK
    assert checker.cli(theta, "verdict", 0, dumps(theta.golden) + " ", "")[0] == WRONG
    assert checker.cli(theta, "connections", 0, "{}", "")[0] == WRONG
    crash = "Traceback (most recent call last):\n  ...\nValueError: boom\n"
    assert checker.cli(GRAPHS["two-valent"], "verdict", 1, "", crash)[0] == TRACEBACK
    assert checker.cli(GRAPHS["malformed"], "verdict", 2, "", "error: bad\n")[0] == OK


def test_only_known_defects_may_fail():
    cube, two_valent, k5 = GRAPHS["cube"], GRAPHS["two-valent"], GRAPHS["k5"]
    assert run_correct([(cube, OK), (two_valent, TRACEBACK), (k5, TIMEOUT)])
    assert not run_correct([(cube, TRACEBACK), (two_valent, TRACEBACK)])
    assert not run_correct([(cube, OK), (two_valent, WRONG)])


def test_a_traceback_on_a_corpus_graph_makes_the_run_incorrect(tmp_path):
    import signal

    import run

    signal.signal(signal.SIGALRM, run._alarm)
    workload = Workload("corpus", ROOT, 1, tmp_path)
    runner = run.Runner(workload, 1, ROOT, {}, tmp_path, None)
    runner.run_op(Op("verdict cube", GRAPHS["cube"], text=GRAPHS["cube"].json_text()))
    runner.run_op(Op("verdict theta", GRAPHS["theta"], text='{"vertices": ['))
    assert [o for _, o, _ in runner.outcomes] == [OK, TRACEBACK]
    assert not run_correct((op.graph, o) for op, o, _ in runner.outcomes)


def test_pace_factor_uses_the_samples_near_an_operation():
    import pace

    p = pace.Pace(pace.cpu_loop, 0.5)
    p.times = [float(t) for t in range(20)]
    p.samples = [0.5] * 10 + [1.0] * 10
    assert p.factor(1.5, 2.5) == 1.0
    assert p.factor(16.5, 17.5) == 0.5
    assert p.factor(9.5, 9.6) in (1.0, 0.5)
    assert p.factor() == pytest.approx(2 / 3)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_run(name):
    proc = run_bench("--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_run():
    proc = run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_a_directory_without_source(tmp_path):
    proc = run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
