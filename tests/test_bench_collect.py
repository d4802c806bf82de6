import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_collect.py"
spec = importlib.util.spec_from_file_location("bench_collect", TOOL)
bench_collect = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_collect)


def _run_file(tmp_path, name, throughput, p50):
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "throughput_ops_per_s": {"value": throughput, "unit": "ops/s"},
        "latency_p50_s": {"value": p50, "unit": "s"},
    }}
    path = tmp_path / name
    path.write_text("corpus: 10 operations\n" + json.dumps(result) + "\n")
    return path


def test_medians_and_pair_wins(tmp_path):
    parent = [_run_file(tmp_path, f"p{i}", t, 0.2) for i, t in enumerate((1, 2, 3))]
    change = [_run_file(tmp_path, f"c{i}", t, 0.1) for i, t in enumerate((10, 1, 30))]
    out = tmp_path / "BENCH.json"
    args = [str(out), "--workload", "corpus", "--parent", *map(str, parent),
            "--change", *map(str, change)]
    assert bench_collect.main(args) == 0
    data = json.loads(out.read_text())["workloads"]["corpus"]
    assert data["parent"]["metrics"]["throughput_ops_per_s"]["median"] == 2
    assert data["change"]["metrics"]["throughput_ops_per_s"]["median"] == 10
    # Quartiles by linear interpolation over the runs (inclusive method).
    assert data["parent"]["metrics"]["throughput_ops_per_s"]["q1"] == 1.5
    assert data["parent"]["metrics"]["throughput_ops_per_s"]["q3"] == 2.5
    pairs = data["end_to_end_pairs"]
    assert pairs["throughput_ops_per_s"]["wins"] == 2  # 10 > 1, 1 < 2, 30 > 3
    assert pairs["latency_p50_s"]["wins"] == 3  # lower is better
    # A second workload is added to the same file.
    args[2] = "cli-mixed"
    assert bench_collect.main(args) == 0
    assert set(json.loads(out.read_text())["workloads"]) == {"corpus", "cli-mixed"}


def test_run_without_result_line_is_an_error(tmp_path):
    bad = tmp_path / "bad.out"
    bad.write_text("Traceback (most recent call last):\n")
    out = tmp_path / "BENCH.json"
    assert bench_collect.main([str(out), "--workload", "corpus",
                               "--parent", str(bad), "--change", str(bad)]) == 2
    assert not out.exists()
