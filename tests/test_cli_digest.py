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
    # A verdict's stdout is its golden file, byte for byte.
    golden = (ROOT / "src/gkm3/corpus/theta.golden.json").read_bytes()
    assert cli_digest.digest_line(["verdict", theta]) == (
        f"0 verdict {theta} {hashlib.sha256(golden).hexdigest()}"
    )
    # An input error exits 2 with nothing on stdout.
    assert cli_digest.digest_line(["surface", "tests/torsion_k4.json"]) == (
        f"2 surface tests/torsion_k4.json {hashlib.sha256(b'').hexdigest()}"
    )
