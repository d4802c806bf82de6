import json

import pytest

from gkm3.graph import parse_graph

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


def test_sweep_keeps_every_run_and_records_the_route(tmp_path):
    """A side's entry is its latest run, and runs keeps every run in order."""
    out = tmp_path / "bench.json"
    for side, n in (("parent", "6"), ("change", "6"), ("parent", "12")):
        assert scale_sweep.main([str(out), "--sizes", n, "--repeat", "1",
                                 "--side", side]) == 0
    prisms = json.loads(out.read_text())["hexagon_prisms"]
    runs = prisms["runs"]
    assert [(r["side"], sorted(r["seconds"])) for r in runs] == [
        ("parent", ["6"]), ("change", ["6"]), ("parent", ["12"])]
    assert prisms["parent"] == {key: runs[2][key] for key in prisms["parent"]}
    assert set(runs[2]) == set(prisms["parent"]) | {"side"}


@pytest.mark.parametrize("declined, route", [(False, "thom"), (True, "closed-basis")])
def test_blowup_sweep_records_the_certifying_route(tmp_path, request, declined, route):
    if declined:
        request.getfixturevalue("closed_basis_route")
    out = tmp_path / "bench.json"
    assert scale_sweep.main([str(out), "--family", "blowup", "--sizes", "3",
                             "--rules", "last", "--repeat", "1"]) == 0
    record = json.loads(out.read_text())["blowups"]["change"]["seconds"]["last3"]
    assert record["route"] == route
    assert (record["fallback_bits"] > 0) == declined


def test_sweep_stops_on_wrong_betti_numbers(tmp_path, monkeypatch, capsys):
    time_stages = scale_sweep.time_stages
    monkeypatch.setattr(scale_sweep, "time_stages",
                        lambda text: (time_stages(text)[0], (1, 4, 4, 1, 1)))
    out = tmp_path / "bench.json"
    assert scale_sweep.main([str(out), "--sizes", "6", "--repeat", "1"]) == 1
    assert "prism6: Betti numbers (1, 4, 4, 1, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.usefixtures("closed_basis_route")
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


def test_sweep_records_each_stage_growth_per_pair_of_sizes(tmp_path, monkeypatch):
    """With every stage taking |V|^2 microseconds and the report |V|, each
    pair of consecutive sizes grows with exponent 2, the report with 1; a
    stage that reads 0 has no exponent.  Blow-ups pair sizes within a rule."""
    def stub(text):
        g = parse_graph(text)
        n = len(g.vertices)
        times = {f"{s}_s": n * n * 1e-6 for s in scale_sweep.STAGES}
        times.update(report_s=n * 1e-6, surface_s=0.0)
        times["verdict_s"] = sum(times.values())
        return times, (1, n // 2 - 1, n // 2 - 1, 1)  # b_2 of both families

    monkeypatch.setattr(scale_sweep, "time_stages", stub)
    out = tmp_path / "bench.json"
    assert scale_sweep.main([str(out), "--sizes", "24", "6", "12",
                             "--repeat", "1"]) == 0
    growth = json.loads(out.read_text())["hexagon_prisms"]["change"]["growth"]
    assert growth["betti_s"] == {"6-12": 2.0, "12-24": 2.0}
    assert growth["report_s"] == {"6-12": 1.0, "12-24": 1.0}
    assert growth["surface_s"] == {"6-12": None, "12-24": None}
    assert sorted(growth) == sorted(f"{s}_s" for s in (*scale_sweep.STAGES, "report",
                                                        "verdict"))
    assert scale_sweep.main([str(out), "--family", "blowup", "--sizes", "2", "1",
                             "--rules", "first", "last", "--repeat", "1"]) == 0
    growth = json.loads(out.read_text())["blowups"]["change"]["growth"]
    assert growth["betti_s"] == {"first1-first2": 2.0, "last1-last2": 2.0}
