import json

import pytest

from conftest import scale_sweep


def test_sweep_times_every_stage_and_keeps_the_rest_of_the_file(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"workloads": {"corpus": {}}}))
    assert scale_sweep.main([str(out), "--sizes", "6", "12", "--repeat", "1",
                             "--side", "parent", "--host", "test host"]) == 0
    data = json.loads(out.read_text())
    assert data["workloads"] == {"corpus": {}}
    prisms = data["hexagon_prisms"]
    assert prisms["parent"]["host"] == "test host"
    seconds = prisms["parent"]["seconds"]
    assert sorted(seconds) == ["12", "6"]
    for times in seconds.values():
        stages = {f"{s}_s" for s in scale_sweep.STAGES} | {"report_s"}
        assert set(times) == stages | {"verdict_s"}
        assert all(t >= 0 for t in times.values())
        assert times["verdict_s"] == pytest.approx(
            sum(times[s] for s in stages), abs=1e-5)
    # A second side is added beside the first.
    assert scale_sweep.main([str(out), "--sizes", "6", "--repeat", "1"]) == 0
    prisms = json.loads(out.read_text())["hexagon_prisms"]
    assert sorted(prisms["change"]["seconds"]) == ["6"]
    assert sorted(prisms["parent"]["seconds"]) == ["12", "6"]


def test_sweep_stops_on_wrong_betti_numbers(tmp_path, monkeypatch, capsys):
    time_stages = scale_sweep.time_stages
    monkeypatch.setattr(scale_sweep, "time_stages",
                        lambda text: (time_stages(text)[0], (1, 4, 4, 1, 1)))
    out = tmp_path / "bench.json"
    assert scale_sweep.main([str(out), "--sizes", "6", "--repeat", "1"]) == 1
    assert "prism6: Betti numbers (1, 4, 4, 1, 1)" in capsys.readouterr().err
    assert not out.exists()
