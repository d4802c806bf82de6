import json
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings

from gkm3 import cohomology, connection, graph, linalg
from gkm3 import verdict
from gkm3.connection import Connection, _compatible_bijections
from gkm3.graph import parse_graph
from gkm3.verdict import SCHEMA, Analysis, realizability_report

from conftest import (
    CORPUS_NAMES,
    NOT_GKM_K4,
    coloured_graph_docs,
    corpus_graph,
    named_graph,
    prism_graph,
    small_graph_docs,
)

# Free, but no vertex order of it has flow-up classes.
FREE_NO_FLOW_UP = (Path(__file__).parent / "free_no_flow_up.json").read_text()


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


def test_verdict_memory_does_not_grow_with_the_degree_cap(theta):
    # A certified graph's checked degrees are a range, not one entry per
    # degree up to the cap.
    tracemalloc.start()
    try:
        rep = realizability_report(theta, 2 * 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["z_freeness"]["status"] == "certified"
    assert peak < 2**20


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
    # module), so all eight theta connections agree; the report states it
    # whichever connection it selects.
    for index in range(8):
        rep = realizability_report(theta, connection_index=index)
        assert rep["orientability"]["consistent_across_connections"] is True


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

    def counting(real):
        def spy(*args):
            calls.append(real.__name__)
            return real(*args)
        return spy

    for name in ("is_orientable", "betti_numbers"):
        monkeypatch.setattr(verdict, name, counting(getattr(verdict, name)))
    a = Analysis(theta, connection_index=3)
    rep = a.report()
    assert a.report() == rep
    conns, _ = a.connections
    assert sorted(calls) == ["betti_numbers", "is_orientable"]  # one call each
    assert a.connection.maps == conns[3].maps
    # The Betti stage is cached on the analysis, not on the graph: a second
    # run reads the memoized certificate and gives the same numbers.
    assert cohomology.betti_numbers(theta, a.degree_cap) == a.betti


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", CORPUS_NAMES + ["cp3", "prism4", "prism6"])
def test_verdict_caches_each_result_in_one_place(name):
    """After a verdict the graph's memo holds only the kinds that more than
    one reader takes; solvers and Betti results are not cached there."""
    g = corpus_graph(name)
    realizability_report(g)
    assert {key[0] for key in g.memo} <= {
        "options", "orientability", "evaluations", "z", "quotient", "basis"}
    assert ("basis",) in g.memo and ("quotient", 0) in g.memo
    # Degree 0 is read from the components, with no evaluation echelon.
    assert ("evaluations", 0) not in g.memo
    # One closed basis, which the certificate tests and the pairing reads;
    # no Betti numbers and no degree-6 functional are kept anywhere.
    basis = g.memo[("basis",)]
    assert (basis.det == basis.target) == (name != "nonorientable")
    assert (cohomology._free_betti(g) is None) == (name == "nonorientable")
    assert not hasattr(cohomology, "_certified")
    assert not hasattr(cohomology, "_solver")
    assert not hasattr(cohomology, "_certify_free")
    assert not hasattr(cohomology._Quotient, "functional")
    assert {"transform", "column"} & set(cohomology._Quotient._fields) == set()


@pytest.mark.parametrize("name", CORPUS_NAMES + ["cp3", "prism4", "prism6"])
def test_verdict_walks_the_components_once(name, monkeypatch):
    """validate and the degree-0 classes read one GkmGraph.components, so a
    verdict makes one signed_forest walk for them."""
    walks = []
    real = graph.signed_forest

    def spy(nodes, edges):
        walks.append(sys._getframe(1).f_code.co_name)
        return real(nodes, edges)

    monkeypatch.setattr(graph, "signed_forest", spy)
    g = corpus_graph(name)
    realizability_report(g)
    assert walks.count("components") == 1
    assert not hasattr(graph, "_components")


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", [
    "cube", "flag", "theta", "cp3", "prism4", "prism6", "free_no_flow_up",
    "blowup_last10", "hexprism24"])
def test_certified_verdict_forms_no_degree_6_lattice(name):
    """The Thom class of the first vertex closes the certificate's basis,
    and the pairing is read from that basis, so neither the degree-6 class
    lattice nor its quotient is formed."""
    g = named_graph(name)
    rep = realizability_report(g)
    assert rep["z_freeness"]["status"] == "certified"
    assert rep["poincare_duality"]["ok"]
    assert ("quotient", 3) not in g.memo and ("z", 3) not in g.memo
    assert max(key[1] for key in g.memo if key[0] in ("z", "quotient")) == 2


# The duality and freeness sections of the three graphs whose certificate
# does not close with a Thom class: their degree-6 quotients take a Smith
# form, fuzz_k4's without torsion.
UNCLOSED = {
    "nonorientable": {
        "betti": [1, 0, 3, 0, 0],
        "poincare_duality": {"ok": False, "pairing_rank": None, "reasons": [
            "b_6 = 0, expected 1", "b_2 = 0 differs from b_4 = 3"]},
        "z_freeness": {"status": "not-free", "witness": {
            "degree": 6, "order": 2,
            "class": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0]}},
        "tier": "not-realizable"},
    "fuzz_k4": {
        "betti": [1, 1, 1, 1, 0, 0],
        "poincare_duality": {"ok": True, "pairing_rank": 1, "reasons": []},
        "z_freeness": {"status": "certified", "witness": None},
        "tier": "not-gkm"},
    "torsion_k4": {
        "betti": [1, 0, 3, 0, 0],
        "poincare_duality": {"ok": False, "pairing_rank": None, "reasons": [
            "b_6 = 0, expected 1", "b_2 = 0 differs from b_4 = 3"]},
        "z_freeness": {"status": "not-free", "witness": {
            "degree": 6, "order": 9,
            "class": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, -2, -2, 0]}},
        "tier": "not-gkm"},
}


@pytest.mark.parametrize("name", sorted(UNCLOSED))
def test_reports_that_form_the_degree_6_quotient(name):
    g = named_graph(name)
    rep = realizability_report(g)
    assert {key: rep[key] for key in UNCLOSED[name]} == UNCLOSED[name]
    assert ("quotient", 3) in g.memo


def test_prism6_verdict_never_builds_the_product(monkeypatch):
    # The hexagon toric surface times CP^1: 2^18 connections, Betti (1,5,5,1).
    g = prism_graph(6)
    edge_options = sum(
        len(_compatible_bijections(g, eid)) for eid in range(len(g.edges))
    )
    calls = []
    real = Connection.from_forward_maps

    def counting(forward):
        calls.append(forward)
        return real(forward)

    monkeypatch.setattr(Connection, "from_forward_maps", staticmethod(counting))
    t0 = time.perf_counter()
    rep = realizability_report(g, degree_cap=10)
    assert time.perf_counter() - t0 < 10.0
    assert rep["connections"]["count"] == 2 ** 18 == 262144
    assert rep["betti"] == [1, 5, 5, 1, 0, 0]
    assert rep["tier"] == "rigid-class"
    assert rep["orientability"]["consistent_across_connections"]
    assert len(calls) <= edge_options + 4


def test_hexagon_prism24_betti_numbers():
    """A 48-vertex graph: the 24-gon with the hexagon's labels repeated
    around it is the graph of a torus 4-manifold over a 24-gon, Euler
    characteristic 24, so Betti (1, 22, 1); times CP^1 (the vertical
    edges) gives (1, 23, 23, 1)."""
    g = parse_graph((Path(__file__).parent / "hexprism24.json").read_text())
    assert len(g.vertices) == 48
    rep = realizability_report(g)
    assert rep["betti"] == [1, 23, 23, 1, 0, 0]
    assert rep["poincare_duality"]["ok"]
    assert rep["z_freeness"]["status"] == "certified"


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


@pytest.mark.usefixtures("closed_basis_route")
def test_certified_verdict_stops_at_degree_6(cube, monkeypatch):
    # The free-basis certificate proves freeness and the Betti numbers above
    # degree 6, so no class lattice above degree 6 is built.
    degrees = []
    real = cohomology.ht_basis_z

    def counting(g, d):
        degrees.append(d)
        return real(g, d)

    monkeypatch.setattr(cohomology, "ht_basis_z", counting)
    rep = realizability_report(cube)
    assert rep["z_freeness"] == {"status": "certified", "witness": None}
    assert rep["betti"] == [1, 3, 3, 1, 0, 0]
    assert degrees and max(degrees) <= 3


def test_free_graph_without_flow_up_order_is_certified():
    g = parse_graph(FREE_NO_FLOW_UP)
    rep = realizability_report(g)
    assert rep["tier"] == "integer-gkm-realizable"
    assert rep["betti"] == [1, 2, 2, 1, 0, 0]
    assert rep["z_freeness"] == {"status": "certified", "witness": None}
    # The determinant certifies freeness from the quotients up to degree 4
    # and the Thom class of the first vertex.
    assert max(key[1] for key in g.memo if key[0] == "quotient") == 2


def test_certified_report_equals_scanned_report(monkeypatch):
    certified = realizability_report(parse_graph(FREE_NO_FLOW_UP))
    monkeypatch.setattr(cohomology, "_free_betti", lambda g: None)
    assert realizability_report(parse_graph(FREE_NO_FLOW_UP)) == certified


def _scan_agrees_with_certificate(doc):
    """Without the certificate, Betti numbers come from the lattice ranks,
    freeness from a quotient scan and the pairing from the quotients'
    lifts; the report is the same."""
    text = json.dumps(doc)
    certified = realizability_report(parse_graph(text))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "_free_betti", lambda g: None)
        assert realizability_report(parse_graph(text)) == certified


@given(doc=small_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_certified_report_equals_scanned_report_on_random_graphs(doc):
    _scan_agrees_with_certificate(doc)


@given(doc=coloured_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_certified_report_equals_scanned_report_on_coloured_graphs(doc):
    _scan_agrees_with_certificate(doc)


@pytest.mark.parametrize("name", ["flag", "nonorientable"])
def test_verdict_builds_no_transition_data(name, monkeypatch):
    # The loop holonomy multiplies the transition kernel's matrices, and
    # eta reads the labels: a verdict builds no TransitionData record and
    # keeps no transition matrix, at any connection.
    built = []
    real = connection.TransitionData

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(connection, "TransitionData", counting)
    g = corpus_graph(name)
    for i in (0, 12):
        a = Analysis(g, connection_index=i)
        a.report()
        assert a.surface.faces
    assert built == []
    assert {key[0] for key in g.memo} <= {
        "options", "orientability", "evaluations", "z", "quotient", "basis", "thom"}
    # The public record is still built on request.
    e = connection.DirectedEdge(0, True)
    assert connection.transition(g, a.connection, e).edge == e and len(built) == 1


def test_loop_holonomy_trivial_reports_both_outcomes():
    # Every face of nonorientable's connection 0 has trivial holonomy; one
    # face of its connection 12 does not.
    text = (Path(verdict.__file__).parent / "corpus" / "nonorientable.json").read_text()
    outcomes = [
        realizability_report(parse_graph(text), connection_index=i)
        ["connections"]["loop_holonomy_trivial"]
        for i in (0, 12)
    ]
    assert outcomes == [True, False]


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize(
    "name", CORPUS_NAMES + ["cp3", "prism4", "prism6", "blowup_last10"]
)
def test_verdict_runs_no_reduction_pass_and_lifts_without_eye(name, monkeypatch):
    # Every echelon a verdict reads is read for its pivots, ranks or
    # solves, so the reduction above the pivots (hnf, hnf_transform) never
    # runs; ht_basis_z lifts unit vectors from their one nonzero entry, and
    # each degree's evaluations are eliminated once.  The one reduction is
    # square, once per class lattice that takes the fallback: blowup_last10
    # has two, in degrees 2 and 4; cp3's one is in degree 6, which its
    # certified verdict no longer forms.
    reductions, eyes, inside, evaluated, fallbacks, hnfs = [], [], [], [], [], []
    reduced, eye, basis = linalg.reduced, linalg.eye, cohomology.ht_basis_z
    evaluations = cohomology._evaluations

    def spy_reduced(E, n):
        reductions.append((tuple(inside), len(E), n))
        return reduced(E, n)

    def spy_evaluations(g, d):
        evaluated.append(d)
        return evaluations(g, d)

    def spy_hnf(name, real):
        def spy(A):
            hnfs.append(name)
            return real(A)
        return spy

    def spy_eye(n):
        if inside:
            eyes.append(n)
        return eye(n)

    def spy_basis(g, d):
        fresh = ("z", d) not in g.memo
        inside.append(d)
        try:
            B = basis(g, d)
        finally:
            inside.pop()
        if fresh and any(next(x for x in row if x) > 1 for row in B):
            fallbacks.append(d)
        return B

    monkeypatch.setattr(linalg, "reduced", spy_reduced)
    monkeypatch.setattr(cohomology, "_evaluations", spy_evaluations)
    for real in (linalg.hnf, linalg.hnf_transform):
        monkeypatch.setattr(linalg, real.__name__, spy_hnf(real.__name__, real))
    monkeypatch.setattr(linalg, "eye", spy_eye)
    monkeypatch.setattr(cohomology, "ht_basis_z", spy_basis)
    realizability_report(named_graph(name))
    assert hnfs == []
    assert evaluated and len(evaluated) == len(set(evaluated))
    assert 0 not in evaluated
    assert [where for where, _, _ in reductions] == [(d,) for d in fallbacks]
    assert all(m == n for _, m, n in reductions)
    assert fallbacks == ([1, 2] if name == "blowup_last10" else [])
    assert eyes == []
