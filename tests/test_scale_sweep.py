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


def test_blowup_sweep_records_label_content_and_fallback_bits(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"hexagon_prisms": {"parent": {}}}))
    assert scale_sweep.main([str(out), "--family", "blowup", "--sizes", "0", "3",
                             "--rules", "last", "cycle", "--repeat", "1"]) == 0
    data = json.loads(out.read_text())
    assert data["hexagon_prisms"] == {"parent": {}}
    blowups = data["blowups"]
    assert blowups["projection"] == scale_sweep.BLOWUP_P
    seconds = blowups["change"]["seconds"]
    assert sorted(seconds) == ["cycle0", "cycle3", "last0", "last3"]
    for key, record in seconds.items():
        assert record["verdict_s"] > 0
        # BLOWUP_P maps CP^3's label e1 to (-3, -3), of content 3, so some
        # lattice takes the fallback pass, whose rows stay small here.
        assert record["label_content"] >= 3
        assert 0 < record["fallback_bits"] < 128, key


def test_blowup_sweep_stops_on_wrong_betti_numbers(tmp_path, monkeypatch, capsys):
    time_stages = scale_sweep.time_stages
    monkeypatch.setattr(scale_sweep, "time_stages",
                        lambda text: (time_stages(text)[0], (1, 2, 2, 1)))
    out = tmp_path / "bench.json"
    assert scale_sweep.main([str(out), "--family", "blowup", "--sizes", "2",
                             "--rules", "first", "--repeat", "1"]) == 1
    assert "first2: Betti numbers (1, 2, 2, 1)" in capsys.readouterr().err
    assert not out.exists()
