import json
import time

import pytest

from gkm3 import cohomology, linalg
from gkm3 import verdict
from gkm3.connection import Connection, _compatible_bijections
from gkm3.graph import parse_graph
from gkm3.verdict import SCHEMA, Analysis, realizability_report

from conftest import CORPUS_NAMES, corpus_graph, prism_graph

NOT_GKM_K4 = {
    "vertices": ["A", "B", "C", "D"],
    "edges": [
        {"from": "A", "to": "B", "weight": [1, -2]},
        {"from": "B", "to": "C", "weight": [1, 2]},
        {"from": "C", "to": "D", "weight": [0, 3]},
        {"from": "D", "to": "A", "weight": [2, -3]},
        {"from": "A", "to": "C", "weight": [1, 3]},
        {"from": "B", "to": "D", "weight": [3, -1]},
    ],
}


def test_cube_tier_and_warning(cube):
    rep = realizability_report(cube)
    assert rep["schema"] == SCHEMA
    assert rep["tier"] == "integer-gkm-realizable"
    assert rep["betti"] == [1, 3, 3, 1, 0, 0]
    assert rep["poincare_duality"]["ok"]
    assert rep["z_freeness"]["status"] == "certified"
    assert not rep["connected_isotropy"]["ok"]
    assert any("unique" in w for w in rep["warnings"])
    assert rep["connections"]["count"] == 1
    assert rep["connections"]["loop_holonomy_trivial"]
    assert rep["surface"]["name"] == "sphere"
    assert rep["findings"] == []


def test_flag_tier(flag):
    rep = realizability_report(flag)
    assert rep["tier"] == "rigid-class"
    assert rep["betti"] == [1, 2, 2, 1, 0, 0]
    assert rep["connected_isotropy"]["ok"]
    assert rep["surface"]["name"] == "crosscap-1 surface"
    assert rep["orientability"]["orientable"]
    assert rep["warnings"] == []


def test_theta_tier(theta):
    rep = realizability_report(theta)
    assert rep["tier"] == "rigid-class"
    assert rep["betti"] == [1, 0, 0, 1, 0, 0]


def test_nonorientable_tier(nonorientable):
    rep = realizability_report(nonorientable)
    assert rep["tier"] == "not-realizable"
    assert not rep["poincare_duality"]["ok"]
    assert not rep["orientability"]["orientable"]
    assert rep["orientability"]["violating_cycle"]
    assert rep["z_freeness"]["status"] == "not-free"


def test_invalid_tier():
    g = parse_graph(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "weight": [1, 0]}] * 2,
    }))
    rep = realizability_report(g)
    assert rep["tier"] == "invalid"
    assert not rep["validity"]["ok"]
    assert rep["connections"] is None
    assert rep["betti"] is None
    assert rep["surface"] is None


def test_not_gkm_tier():
    g = parse_graph(json.dumps(NOT_GKM_K4))
    rep = realizability_report(g)
    assert rep["validity"]["ok"]
    assert rep["tier"] == "not-gkm"
    assert rep["connections"]["count"] == 0
    assert rep["orientability"] is None
    assert rep["surface"] is None
    # Cohomology is still reported for information.
    assert rep["betti"] is not None


def test_connection_index_selection(theta):
    rep0 = realizability_report(theta, connection_index=0)
    seen = {rep0["surface"]["name"]}
    for i in range(1, rep0["connections"]["count"]):
        rep = realizability_report(theta, connection_index=i)
        assert rep["tier"] == rep0["tier"]
        seen.add(rep["surface"]["name"])
    assert len(seen) > 1  # connection choice changes the glued surface
    with pytest.raises(IndexError):
        realizability_report(theta, connection_index=99)


def test_report_is_json_serializable(any_corpus_graph):
    rep = realizability_report(any_corpus_graph)
    parsed = json.loads(json.dumps(rep, sort_keys=True))
    assert parsed["schema"] == SCHEMA
    for key in (
        "validity", "connections", "orientability", "betti",
        "poincare_duality", "z_freeness", "connected_isotropy", "surface",
        "tier", "warnings", "findings", "options", "name",
    ):
        assert key in parsed


def test_orientability_consistency_flag(theta):
    # eta is the same under every compatible connection (see the orientation
    # module), so all eight theta connections agree; the report states it.
    rep = realizability_report(theta)
    assert rep["orientability"]["consistent_across_connections"] in (
        True, False,
    )
    if not rep["orientability"]["consistent_across_connections"]:
        assert any("differs" in w for w in rep["warnings"])


SQUARE = {  # CP^1 x CP^1 as a 2-valent graph
    "vertices": ["a", "b", "c", "d"],
    "edges": [
        {"from": "a", "to": "b", "weight": [1, 0]},
        {"from": "b", "to": "c", "weight": [0, 1]},
        {"from": "c", "to": "d", "weight": [1, 0]},
        {"from": "d", "to": "a", "weight": [0, 1]},
    ],
}

K5 = {  # CP^4 as a 4-valent graph, edge ij labelled by images of e_j - e_i
    "vertices": ["v1", "v2", "v3", "v4", "v5"],
    "edges": [
        {"from": f"v{i + 1}", "to": f"v{j + 1}",
         "weight": [c[0] - b[0], c[1] - b[1]]}
        for i, b in enumerate([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1)])
        for j, c in enumerate([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1)])
        if i < j
    ],
}


@pytest.mark.parametrize("doc, found", [(SQUARE, 2), (K5, 4)])
def test_valence_other_than_3_is_invalid(doc, found):
    t0 = time.perf_counter()
    rep = realizability_report(parse_graph(json.dumps(doc)))
    assert time.perf_counter() - t0 < 1.0
    assert rep["tier"] == "invalid"
    valence = [f for f in rep["validity"]["failures"] if f["kind"] == "valence"]
    assert len(valence) == len(doc["vertices"])
    assert all(f["expected"] == 3 and f["found"] == found for f in valence)


def test_analysis_runs_each_stage_once(theta, monkeypatch):
    calls = []
    real = verdict.is_orientable

    def counting(g, conn):
        calls.append(conn)
        return real(g, conn)

    monkeypatch.setattr(verdict, "is_orientable", counting)
    a = Analysis(theta, connection_index=3)
    rep = a.report()
    assert a.report() == rep
    conns, _ = a.connections
    assert len(calls) == 1  # exactly one call, on the selected connection
    assert calls[0] is a.connection and calls[0].maps == conns[3].maps
    # The Betti stage is the memo entry that poincare_duality reads too.
    assert cohomology.betti_numbers(theta, a.degree_cap) is a.betti


def test_prism6_verdict_never_builds_the_product(monkeypatch):
    # The hexagon toric surface times CP^1: 2^18 connections, Betti (1,5,5,1).
    g = prism_graph(6)
    edge_options = sum(
        len(_compatible_bijections(g, eid)) for eid in range(len(g.edges))
    )
    calls = []
    real = Connection.from_forward_maps

    def counting(g, forward):
        calls.append(forward)
        return real(g, forward)

    monkeypatch.setattr(Connection, "from_forward_maps", staticmethod(counting))
    t0 = time.perf_counter()
    rep = realizability_report(g, degree_cap=10)
    assert time.perf_counter() - t0 < 10.0
    assert rep["connections"]["count"] == 2 ** 18 == 262144
    assert rep["betti"] == [1, 5, 5, 1, 0, 0]
    assert rep["tier"] == "rigid-class"
    assert rep["orientability"]["consistent_across_connections"]
    assert len(calls) <= edge_options + 4


def test_verdict_below_min_degree_cap_raises(theta):
    # Below cap 10 the Betti numbers of a manifold cannot stabilize
    # (that takes b_8 = b_10 = 0), so any verdict would be "not-realizable".
    for cap in (-2, 0, 6, 8):
        with pytest.raises(ValueError, match="degree cap"):
            realizability_report(theta, degree_cap=cap)
    rep = realizability_report(theta, degree_cap=verdict.MIN_DEGREE_CAP)
    assert rep["tier"] == "rigid-class"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verdict_makes_at_most_one_rational_elimination(name, monkeypatch):
    # Bases, Betti numbers, duality, the pairing rank and freeness all come
    # from integer normal forms, so a verdict makes no rational elimination.
    calls = []
    real = linalg.rref

    def counting(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(linalg, "rref", counting)
    realizability_report(corpus_graph(name))
    assert calls == []
