import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digest.py"
spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
cli_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_digest)


def test_digest_lines(monkeypatch):
    monkeypatch.chdir(ROOT)
    theta = "src/gkm3/corpus/theta.json"
    assert ["verdict", theta, "--degree-cap", "20", "--format", "json"] in (
        cli_digest.calls()
    )
    # The invalid fixtures pin validate's failure lists.
    assert ["validate", "tests/invalid/divisors_2_6.json", "--format", "json"] in (
        cli_digest.calls()
    )
    # Every connection of flag, whose faces are the longest, glues a surface.
    flag = "src/gkm3/corpus/flag.json"
    assert ["surface", flag, "--connection", "511", "--emit-complex",
            "--format", "json"] in cli_digest.calls()
    # The last calls are the verdicts at each of theta's 8 and
    # nonorientable's 64 connections, which pin their loop holonomy.
    calls = cli_digest.calls()
    nonorientable = "src/gkm3/corpus/nonorientable.json"
    assert calls[-72:] == [
        ["verdict", path, "--connection", str(i), "--format", "json"]
        for path, count in ((theta, 8), (nonorientable, 64)) for i in range(count)]
    calls = calls[:-72]
    # Before them, after the 2^66 connections of sq22, one past the last
    # exits 2, come the 48-vertex hexagon prism's verdict, the seven
    # subcommands on the 24-vertex blow-up last10, and two lists too long
    # to print.
    sq22 = ["verdict", "tests/sq22.json", "--connection", str(2 ** 66),
            "--format", "json"]
    blowup = "tests/blowup_last10.json"
    refused = [
        ["connections", "tests/hexprism24.json", "--format", "json"],
        ["freeness", theta, "--degree-cap", "200000000", "--format", "json"]]
    assert calls[-11:] == [
        sq22, ["verdict", "tests/hexprism24.json", "--format", "json"]] + [
        [cmd, blowup, "--format", "json"] for cmd in (
            "validate", "connections", "orientability", "surface",
            "cohomology", "freeness", "verdict")] + refused
    assert cli_digest.digest_line(sq22).startswith("2 verdict")
    # Every subcommand on last10 succeeds.
    for argv in calls[-9:-2]:
        assert cli_digest.digest_line(argv).startswith(f"0 {argv[0]} ")
    # The two refusals exit 2 with nothing on stdout.
    for argv in refused:
        assert cli_digest.digest_line(argv) == (
            f"2 {' '.join(argv)} {hashlib.sha256(b'').hexdigest()}")
    # A verdict's stdout is its golden file, byte for byte.
    golden = (ROOT / "src/gkm3/corpus/theta.golden.json").read_bytes()
    assert cli_digest.digest_line(["verdict", theta]) == (
        f"0 verdict {theta} {hashlib.sha256(golden).hexdigest()}"
    )
    # An input error exits 2 with nothing on stdout.
    assert cli_digest.digest_line(["surface", "tests/torsion_k4.json"]) == (
        f"2 surface tests/torsion_k4.json {hashlib.sha256(b'').hexdigest()}"
    )


def test_digest_matches_the_committed_digest(monkeypatch):
    """Every call's exit code and stdout hash equal tests/cli_digest.txt,
    so a change to any report shows here, named by its first lines."""
    monkeypatch.chdir(ROOT)
    expected = (ROOT / "tests" / "cli_digest.txt").read_text().splitlines()
    got = [cli_digest.digest_line(argv) for argv in cli_digest.calls()]
    differing = [f"line {i + 1}: expected {e!r}, got {g!r}"
                 for i, (e, g) in enumerate(zip(expected, got)) if e != g]
    assert len(got) == len(expected) and not differing, (
        f"{len(got)} lines against {len(expected)}, {len(differing)} differ; "
        + "; ".join(differing[:3]))
