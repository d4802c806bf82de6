import json
import time

import pytest

from gkm3.graph import parse_graph
from gkm3.verdict import realizability_report

from conftest import ROOT, gen_blowup

PROJECTIONS = [[[-3, 3, 2], [-3, -2, -2]], [[1, 0, 2], [0, 1, 3]],
               [[2, -1, 1], [1, 3, -2]]]
REALIZABLE = {"rational-gkm-realizable", "integer-gkm-realizable", "rigid-class"}


@pytest.mark.parametrize("P", PROJECTIONS, ids=["p0", "p1", "p2"])
@pytest.mark.parametrize("rule", gen_blowup.RULES)
def test_blowups_have_the_toric_answers(rule, P):
    # K blow-ups of CP^3: 4 + 2K vertices, 6 + 3K edges, Betti numbers
    # (1, 1 + K, 1 + K, 1) and at least rational duality, from toric
    # geometry.  The integral tier is gkm3's own answer on every instance
    # tried, pinned here as a regression only.
    for K in range(5):
        doc = gen_blowup.blowup_document(K, rule, P)
        assert len(doc["vertices"]) == 4 + 2 * K
        assert len(doc["edges"]) == 6 + 3 * K
        report = realizability_report(parse_graph(json.dumps(doc)))
        assert report["betti"][:4] == [1, 1 + K, 1 + K, 1], K
        assert not any(report["betti"][4:]), K
        assert report["tier"] in REALIZABLE, K
        assert report["tier"] == "integer-gkm-realizable", K


def test_blow_up_replaces_a_vertex_by_a_triangle():
    # CP^3's vertex 0 has out-weights e1, e2, e3 on its edges to 1, 2, 3.
    vertices, edges = gen_blowup.blow_up(*gen_blowup.cp3(), 0)
    assert vertices == [1, 2, 3, 4, 5, 6]
    assert edges[:3] == [(4, 1, (1, 0, 0)), (5, 2, (0, 1, 0)),
                         (6, 3, (0, 0, 1))]
    assert edges[6:] == [(4, 5, (-1, 1, 0)), (4, 6, (-1, 0, 1)),
                         (5, 6, (0, -1, 1))]
    # Edges pointing into vertex 3 keep their direction; its out-weights
    # are -e3, e1 - e3 and e2 - e3, so the last triangle edge has e2 - e1.
    vertices, edges = gen_blowup.blow_up(*gen_blowup.cp3(), 3)
    assert edges[2] == (0, 4, (0, 0, 1))
    assert edges[-1] == (5, 6, (-1, 1, 0))


def test_invalid_projection_or_rule_raises():
    with pytest.raises(ValueError, match="not a valid graph"):
        gen_blowup.blowup_document(2, "last", [[1, 0, 1], [0, 1, 2]])
    with pytest.raises(ValueError, match="rule must be one of"):
        gen_blowup.blowup_document(1, "middle", PROJECTIONS[0])


def test_last10_file_is_the_generator_output(capsys):
    assert gen_blowup.main(["10", "last", "-3", "3", "2", "-3", "-2", "-2"]) == 0
    expected = (ROOT / "tests" / "blowup_last10.json").read_text()
    assert capsys.readouterr().out == expected


def test_last10_verdict_is_quick():
    # The class lattices of last10 take the fallback at degrees 1 to 3;
    # an elimination over all unknowns took minutes there.
    g = parse_graph((ROOT / "tests" / "blowup_last10.json").read_text())
    t0 = time.monotonic()
    report = realizability_report(g)
    assert time.monotonic() - t0 < 20
    assert report["betti"][:4] == [1, 11, 11, 1]
    assert report["tier"] == "integer-gkm-realizable"
