import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gkm3 import cli, verdict

from conftest import CORPUS_DIR, gen_blowup, scale_sweep


def run(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


TESTS_DIR = Path(__file__).parent


def cpath(name):
    return str(CORPUS_DIR / f"{name}.json")


def test_validate_json(capsys):
    code, out, _ = run(capsys, "validate", cpath("cube"))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True and data["failures"] == []


def test_validate_strict_failure(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "weight": [1, 0]}] * 2,
    }))
    code, out, _ = run(capsys, "validate", str(bad), "--strict")
    assert code == 1
    assert json.loads(out)["ok"] is False
    code, _, _ = run(capsys, "validate", str(bad))
    assert code == 0  # negative verdicts exit 0 without --strict


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read" in err
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{not json")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2 and "syntax error" in err
    mangled.write_bytes(b"\xf6\xff not utf-8")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2 and "cannot read" in err
    mangled.write_text('{"vertices": [], "edges": [], "name": ' + "1" * 5000 + "}")
    code, _, err = run(capsys, "validate", str(mangled))
    assert code == 2 and "limit" in err
    mangled.write_text("[" * 200000)
    for cmd in ("validate", "verdict"):
        code, out, err = run(capsys, cmd, str(mangled))
        assert code == 2 and out == "" and "nested too deeply" in err
    code, _, err = run(capsys, "verdict", cpath("theta"), "--connection", "99")
    assert code == 2 and "out of range" in err
    # eta reads no connection, but a graph without one still exits 2.
    for cmd in ("orientability", "surface"):
        code, out, err = run(capsys, cmd, str(TESTS_DIR / "fuzz_k4.json"))
        assert code == 2 and out == ""
        assert "index 0 out of range (0 compatible connections)" in err
    code, _, err = run(capsys, "verdict", cpath("theta"), "--degree-cap", "7")
    assert code == 2 and "even" in err
    for cap in ("-4", "2", "4", "6", "8"):  # stable Betti numbers need b_10
        code, out, err = run(capsys, "verdict", cpath("theta"), "--degree-cap", cap)
        assert code == 2 and out == "" and "degree-cap" in err
    code, _, err = run(capsys, "cohomology", cpath("theta"), "--degree-cap", "-2")
    assert code == 2 and "negative" in err
    code, _, _ = run(capsys, "cohomology", cpath("theta"), "--degree-cap", "2")
    assert code == 0

    # A rejected connection block exits 2 from every command that reads it.
    doc = json.loads((CORPUS_DIR / "nonorientable.json").read_text())
    not_bijection = json.loads(json.dumps(doc["connection"]))
    not_bijection["0"]["forward"]["3"] = 5
    for block in (not_bijection, {"0": 5}, {"0": {"forward": {"x": 1}}}):
        bad = tmp_path / "bad_block.json"
        bad.write_text(json.dumps(dict(doc, connection=block)))
        for cmd in ("verdict", "connections", "orientability", "surface"):
            code, out, err = run(capsys, cmd, str(bad))
            assert code == 2 and out == "" and "connection" in err

    # A key written twice is rejected at any depth, not overwritten.
    text = (CORPUS_DIR / "nonorientable.json").read_text()
    at = text.index("{", text.index('"connection"')) + 1
    repeated = tmp_path / "repeated.json"
    for doc in (
        text[:at] + '"0": {"forward": {"0": 0, "1": 1, "5": 5}}, ' + text[at:],
        '{"vertices": ["a", "b"], "vertices": [], "edges": []}',
    ):
        repeated.write_text(doc)
        for cmd in ("validate", "connections"):
            code, out, err = run(capsys, cmd, str(repeated))
            assert code == 2 and out == "" and "appears twice" in err


def test_bad_connection_index_exits_before_cohomology(capsys, monkeypatch):
    def no_cohomology(*args):
        raise AssertionError("cohomology computed for an out-of-range index")

    monkeypatch.setattr(verdict, "betti_numbers", no_cohomology)
    code, out, err = run(capsys, "verdict", cpath("cube"), "--connection", "99")
    assert code == 2 and out == ""
    assert "connection index 99 out of range" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["frobnicate"])
    assert exc.value.code == 2


def test_connections_output(capsys):
    code, out, _ = run(capsys, "connections", cpath("theta"))
    data = json.loads(out)
    assert code == 0
    assert data["count"] == 8 and data["explicit"] is False
    assert len(data["connections"]) == 8


def test_orientability_nonorientable_witness(capsys):
    code, out, _ = run(
        capsys, "orientability", cpath("nonorientable"), "--strict"
    )
    data = json.loads(out)
    assert code == 1
    assert data["orientable"] is False
    assert len(data["violating_cycle"]) % 2 == 1


def test_cohomology_rings(capsys):
    code, out, _ = run(capsys, "cohomology", cpath("cube"), "--ring", "q")
    data = json.loads(out)
    assert code == 0
    assert [row["betti"] for row in data["table"]] == [1, 3, 3, 1, 0, 0]
    assert "rank_z" not in data["table"][0]
    code, out, _ = run(capsys, "cohomology", cpath("cube"), "--ring", "z")
    assert "dim_q" not in json.loads(out)["table"][0]


def test_freeness_strict(capsys):
    code, out, _ = run(
        capsys, "freeness", cpath("nonorientable"), "--strict",
        "--degree-cap", "8",
    )
    assert code == 1
    data = json.loads(out)
    assert data["status"] == "not-free"
    assert data["witness"]["order"] == 2


def test_fuzz_graph_verdict_at_cap_20_is_quick(capsys):
    # Labels in [-3, 3] with two imprimitive ones: the class lattices once
    # swelled here, a cap-16 verdict taking minutes.
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "verdict", str(TESTS_DIR / "fuzz_k4.json"), "--degree-cap", "20"
    )
    assert time.perf_counter() - start < 10
    data = json.loads(out)
    assert code == 0 and data["tier"] == "not-gkm"
    assert data["betti"] == [1, 1, 1, 1, 0, 0]
    assert data["z_freeness"]["status"] == "certified"


def test_certified_freeness_report_leaves_out_the_order(capsys):
    # The free-basis certificate covers every degree up to the cap.
    code, out, _ = run(capsys, "freeness", cpath("prism6"), "--degree-cap", "14")
    assert code == 0
    assert json.loads(out) == {
        "name": "prism6", "degree_cap": 14, "status": "certified",
        "checked_degrees": list(range(0, 15, 2)), "witness": None,
    }


def test_surface_emit_complex(capsys):
    code, out, _ = run(capsys, "surface", cpath("flag"), "--emit-complex")
    data = json.loads(out)
    assert code == 0
    assert data["classification"] == "crosscap-1 surface"
    assert sorted(len(p) for p in data["complex"]["polygons"]) == [4, 4, 4, 6]


def test_connection_count_beyond_a_machine_word(capsys):
    # The square-labelled prism with n = 22 (benchmark/inputs.py, prism):
    # 2^66 connections, more than len() can return.
    sq22 = str(TESTS_DIR / "sq22.json")
    count = 2 ** 66
    for cmd in ("validate", "cohomology", "freeness", "orientability", "surface"):
        code, out, err = run(capsys, cmd, sq22)
        assert code == 0 and out and err == "", cmd
    code, out, _ = run(capsys, "verdict", sq22)
    data = json.loads(out)
    assert code == 0 and data["connections"]["count"] == count
    assert data["betti"] == [1, 21, 21, 1, 0, 0] and data["tier"] == "rigid-class"
    last = str(count - 1)
    code, out, _ = run(capsys, "orientability", sq22, "--connection", last)
    assert code == 0 and json.loads(out)["eta"] == data["orientability"]["eta"]
    code, out, _ = run(capsys, "verdict", sq22, "--connection", last)
    assert code == 0 and json.loads(out)["tier"] == "rigid-class"
    for cmd in ("orientability", "verdict"):
        code, out, err = run(capsys, cmd, sq22, "--connection", str(count))
        assert code == 2 and out == ""
        assert f"out of range ({count} compatible connections)" in err
    # Listing them all cannot be done: an input error, not a traceback.
    code, out, err = run(capsys, "connections", sq22)
    assert code == 2 and out == ""
    assert f"{count} compatible connections, too many to list" in err


def test_connections_beyond_the_listing_bound(capsys, monkeypatch):
    # The hexagon prism with n = 24 has 2^40 connections: fewer than
    # sys.maxsize, but far too many to list.
    code, out, err = run(capsys, "connections", str(TESTS_DIR / "hexprism24.json"))
    assert code == 2 and out == ""
    assert f"{2 ** 40} compatible connections, too many to list" in err
    # prism4's 4096 connections are the most that any call lists.
    assert cli.MAX_LISTED_CONNECTIONS >= 4096
    # The bound itself is listed; one more is refused.
    monkeypatch.setattr(cli, "MAX_LISTED_CONNECTIONS", 8)
    code, out, _ = run(capsys, "connections", cpath("theta"))
    assert code == 0 and len(json.loads(out)["connections"]) == 8
    monkeypatch.setattr(cli, "MAX_LISTED_CONNECTIONS", 7)
    code, out, err = run(capsys, "connections", cpath("theta"))
    assert code == 2 and out == ""
    assert "8 compatible connections, too many to list" in err


def test_freeness_beyond_the_listing_bound(capsys):
    theta = cpath("theta")
    top = 2 * (cli.MAX_LISTED_DEGREES - 1)  # the last degree that is listed
    code, out, _ = run(capsys, "freeness", theta, "--degree-cap", str(top))
    data = json.loads(out)
    assert code == 0 and data["status"] == "certified"
    assert data["checked_degrees"] == list(range(0, top + 1, 2))
    for cap, count in ((top + 2, cli.MAX_LISTED_DEGREES + 1),
                       (200_000_000, 100_000_001), (2 ** 70, 2 ** 69 + 1)):
        for fmt in ("json", "text"):
            code, out, err = run(capsys, "freeness", theta, "--degree-cap",
                                 str(cap), "--format", fmt)
            assert code == 2 and out == ""
            assert f"error: {count} checked degrees, too many to list" in err
    # A torsion witness ends the scan, so a not-free graph lists its few
    # degrees at any cap; the verdict lists none.
    code, out, _ = run(capsys, "freeness", cpath("nonorientable"),
                       "--degree-cap", "200000000")
    assert code == 0 and json.loads(out)["checked_degrees"] == [0, 2, 4, 6]
    code, out, _ = run(capsys, "verdict", theta, "--degree-cap", "2000000000")
    assert code == 0 and json.loads(out)["tier"] == "rigid-class"


def test_verdict_text_format(capsys):
    code, out, _ = run(capsys, "verdict", cpath("cube"), "--format", "text")
    assert code == 0
    assert "tier: integer-gkm-realizable" in out


def test_text_is_function_of_json(capsys):
    _, json_out, _ = run(capsys, "verdict", cpath("cube"))
    _, text_out, _ = run(capsys, "verdict", cpath("cube"), "--format", "text")
    rendered = "\n".join(cli._render_text(json.loads(json_out))) + "\n"
    assert rendered == text_out


def test_corpus_check_passes(capsys):
    code, out, _ = run(capsys, "corpus")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert {e["name"] for e in data["entries"]} == {
        "cp3", "cube", "flag", "nonorientable", "prism4", "prism6", "theta"
    }
    assert all(e["status"] == "pass" for e in data["entries"])


def test_corpus_mutated_weight_fails_with_field_path(capsys, tmp_path):
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, root)
    doc = json.loads((root / "cube.json").read_text())
    doc["edges"][0]["weight"] = [1, 1]
    (root / "cube.json").write_text(json.dumps(doc))
    code, out, _ = run(capsys, "corpus", "--root", str(root), "--strict")
    data = json.loads(out)
    assert code == 1 and not data["ok"]
    entry = next(e for e in data["entries"] if e["name"] == "cube")
    assert entry["status"] == "fail"
    assert entry["first_diverging_field"].startswith("$.")


def test_corpus_empty_dir(capsys, tmp_path):
    code, out, _ = run(capsys, "corpus", "--root", str(tmp_path), "--strict")
    data = json.loads(out)
    assert code == 1
    assert data["error"] == "no entries"


def test_corpus_env_override(capsys, tmp_path, monkeypatch):
    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copy(CORPUS_DIR / "theta.json", root / "theta.json")
    shutil.copy(CORPUS_DIR / "theta.golden.json", root / "theta.golden.json")
    monkeypatch.setenv(cli.CORPUS_ENV, str(root))
    code, out, _ = run(capsys, "corpus")
    data = json.loads(out)
    assert code == 0 and data["root"] == str(root)
    assert [e["name"] for e in data["entries"]] == ["theta"]


def test_corpus_missing_golden(capsys, tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copy(CORPUS_DIR / "theta.json", root / "theta.json")
    code, out, _ = run(capsys, "corpus", "--root", str(root), "--strict")
    data = json.loads(out)
    assert code == 1
    assert data["entries"][0]["error"] == "missing golden file"


@pytest.mark.parametrize("golden", [
    b"{not json", b"\xff\xfe", pytest.param(b"[" * 200000, id="deeply-nested")])
def test_corpus_unreadable_golden(capsys, tmp_path, golden):
    root = tmp_path / "corpus"
    root.mkdir()
    shutil.copy(CORPUS_DIR / "theta.json", root / "theta.json")
    (root / "theta.golden.json").write_bytes(golden)
    code, out, _ = run(capsys, "corpus", "--root", str(root), "--strict")
    data = json.loads(out)
    assert code == 1 and not data["ok"]
    entry = data["entries"][0]
    assert entry["status"] == "fail"
    assert entry["error"].startswith(f"cannot read {root / 'theta.golden.json'}")


# Documents for the fuzz test: at most 4 vertices, weights in [-3, 3], and
# arbitrary JSON in place of one field the parser reads.  Most documents are
# built on a 3-valent shape so that many of them pass validation and reach
# the connection, cohomology and surface stages.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text("abxy0129", max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("0129fx", max_size=2), inner, max_size=3),
    max_leaves=6,
)
_ids = st.integers(0, 5)
_block = st.dictionaries(
    _ids.map(str),
    st.fixed_dictionaries(
        {"forward": st.dictionaries(_ids.map(str), _ids | _json, max_size=4)}
    ) | _json,
    max_size=6,
)
_SHAPES = (
    ("ab", "ab", "ab"),
    ("ab", "ac", "ad", "bc", "bd", "cd"),
    ("ab", "ab", "cd", "cd", "ac", "bd"),
)
# Drawn uniformly: integers() would favour 0 and so zero or parallel weights.
_weights = st.sampled_from([[a, b] for a in range(-3, 4) for b in range(-3, 4)])
_shapes = st.sampled_from(_SHAPES) | st.lists(
    st.sampled_from(["ab", "ba", "ac", "bc", "cd", "da", "bd", "aa"]), max_size=6
)


@st.composite
def _documents(draw):
    shape = draw(_shapes)
    doc = {
        "vertices": sorted(set("".join(shape))),
        "edges": [
            {"from": u, "to": v, "weight": draw(_weights)}
            for u, v in shape
        ],
    }
    if draw(st.booleans()):
        doc["connection"] = draw(_block)
    field = draw(st.sampled_from(
        [None] * 3 + ["vertices", "edges", "from", "weight", "connection", "name"]
    ))
    if field in ("from", "weight"):
        if doc["edges"]:
            doc["edges"][draw(st.integers(0, len(doc["edges"]) - 1))][field] = draw(_json)
    elif field is not None:
        doc[field] = draw(_json)
    return doc


@given(_documents())
@example({"vertices": ["a", "b", "c", "d"], "edges": [
    {"from": "a", "to": "b", "weight": [1, 0]},
    {"from": "b", "to": "c", "weight": [0, 1]},
    {"from": "c", "to": "d", "weight": [1, 0]},
    {"from": "d", "to": "a", "weight": [0, 1]}]})
@example({"vertices": ["u", "w"], "edges": [
    {"from": "u", "to": "w", "weight": [1, 0]},
    {"from": "u", "to": "w", "weight": [0, 1]},
    {"from": "u", "to": "w", "weight": [1, 1]}], "connection": {"0": 5}})
@example({"vertices": ["u", "w"], "edges": [
    {"from": "u", "to": "w", "weight": [1, 0]},
    {"from": "u", "to": "w", "weight": [0, 1]},
    {"from": "u", "to": "w", "weight": [1, 1]}],
    "connection": {"0": {"forward": {"x": 1}}}})
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_json_gives_exit_0_1_or_2(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    # At the default cap, so a graph the free-basis certificate does not
    # cover is scanned for torsion up to degree 20.
    assert cli.run(["verdict", str(path)]) in (0, 1, 2)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verdict", str(Path(__file__).parent / "invalid" / "k5.json")],
    # 0.5 MB: the pipe closes inside print, not at the final flush.
    ["connections", str(CORPUS_DIR / "flag.json")],
])
def test_closed_stdout_exits_without_a_traceback(argv):
    # The reader goes away before the report is written, as `head` does:
    # the write meets a closed pipe, and gkm3 exits 1 with nothing on stderr.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-c", "from gkm3.cli import main; main()", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and err == ""


def test_verdict_on_the_k40_last_blowup_finishes(tmp_path):
    # The duality pairing of this 84-vertex blow-up is 41 x 41, its entries
    # share a factor of about 2000 bits, and an elimination that multiplies
    # that factor into every step ran past 14 minutes.
    path = tmp_path / "last40.json"
    path.write_text(json.dumps(
        gen_blowup.blowup_document(40, "last", scale_sweep.BLOWUP_P)))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "from gkm3.cli import main; main()", "verdict", str(path)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    report = json.loads(proc.stdout)
    assert report["betti"][:4] == [1, 41, 41, 1]
    assert report["poincare_duality"]["pairing_rank"] == 41
