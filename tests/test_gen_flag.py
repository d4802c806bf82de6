import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("gen_flag", ROOT / "tools" / "gen_flag.py")
gen_flag = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gen_flag)


def test_gen_flag_reproduces_the_corpus_file():
    # The generator's search (connection enumeration and paths) still finds
    # the embedded connection; nothing is written.
    expected = (ROOT / "src/gkm3/corpus/flag.json").read_text()
    assert gen_flag.flag_document() == expected
