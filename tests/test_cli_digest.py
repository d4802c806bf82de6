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
    # After the 2^66 connections of sq22, one past the last exits 2, comes
    # the 48-vertex hexagon prism's verdict.
    sq22 = ["verdict", "tests/sq22.json", "--connection", str(2 ** 66),
            "--format", "json"]
    assert cli_digest.calls()[-2:] == [
        sq22, ["verdict", "tests/hexprism24.json", "--format", "json"]]
    assert cli_digest.digest_line(sq22).startswith("2 verdict")
    # A verdict's stdout is its golden file, byte for byte.
    golden = (ROOT / "src/gkm3/corpus/theta.golden.json").read_bytes()
    assert cli_digest.digest_line(["verdict", theta]) == (
        f"0 verdict {theta} {hashlib.sha256(golden).hexdigest()}"
    )
    # An input error exits 2 with nothing on stdout.
    assert cli_digest.digest_line(["surface", "tests/torsion_k4.json"]) == (
        f"2 surface tests/torsion_k4.json {hashlib.sha256(b'').hexdigest()}"
    )
