"""The Thom-class route (gkm3.thom) against the closed-basis route, verdict
by verdict and certificate by certificate, its faults, its coverage, its
face walk and greedy order against the oracles' (oracles.corner_face,
oracles.greedy_order), the localization identity behind its pairing, its
pairing against the exact localized integral, and the cubic form and p_1
that the same integral reads on H^2 (oracles.cubic_form, p1_pairing), with
the spin^c index congruence they satisfy on a lift of w_2."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, given, settings

from gkm3 import cohomology as coh
from gkm3 import connection, linalg, orientation, thom
from gkm3.connection import ConnectionInconsistency
from gkm3.graph import GraphSemanticError, parse_graph, serialize_graph, validate
from gkm3.thom import free_basis as thom_route  # bound before any fixture declines it
from gkm3.verdict import realizability_report

import oracles
from conftest import (
    coloured_graph_docs,
    corpus_json,
    corpus_text,
    gen_blowup,
    prism_graph,
    scale_sweep,
    small_graph_docs,
)

HERE = Path(__file__).parent
CORPUS = ["cube", "flag", "nonorientable", "theta", "cp3", "prism4", "prism6"]


def _texts():
    """The corpus, tests/*.json and sweep graphs, by name."""
    out = {name: corpus_text(name) for name in CORPUS}
    out.update((path.stem, path.read_text()) for path in sorted(HERE.glob("*.json")))
    out.update((f"hexprism{n}", json.dumps(scale_sweep.hexagon_prism(n)))
               for n in (6, 12, 36))
    out.update((f"{rule}{K}", json.dumps(gen_blowup.blowup_document(
        K, rule, scale_sweep.BLOWUP_P)))
        for rule in gen_blowup.RULES for K in (1, 5, 12))
    return out


TEXTS = _texts()


def _cohomology(text):
    g = parse_graph(text)
    return g, (coh.betti_numbers(g), coh.z_freeness(g), coh.poincare_duality(g))


def _assert_routes_agree(text):
    """The Betti numbers, the freeness result (status and witness) and the
    duality result (pairing rank included) are the same by either route."""
    g, mine = _cohomology(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thom, "free_basis", lambda g: None)
        _, closed = _cohomology(text)
    assert mine == closed
    peel = thom.free_basis(g)
    if peel is not None:
        assert peel.det == peel.target
        assert sum(peel.degrees) == len(g.edges)
        assert mine[1].status == "certified"
        top = max(peel.degrees)
        assert mine[0].betti[:top + 1] == tuple(map(peel.degrees.count, range(top + 1)))
    return peel


@pytest.mark.parametrize("name", sorted(TEXTS))
def test_routes_agree(name):
    peel = _assert_routes_agree(TEXTS[name])
    if name in ("cube", "theta", "cp3", "prism4", "prism6", "sq22", "hexprism24",
                "blowup_last10", "hexprism36", "last12"):
        assert peel is not None, name
    if name in ("flag", "nonorientable", "free_no_flow_up", "fuzz_k4", "torsion_k4"):
        assert peel is None, name


@given(doc=small_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_routes_agree_on_random_graphs(doc):
    _assert_routes_agree(json.dumps(doc))


@given(doc=coloured_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_routes_agree_on_coloured_graphs(doc):
    _assert_routes_agree(json.dumps(doc))


@pytest.mark.parametrize("name", ["prism4", "prism6", "prism8"])
def test_seeded_variants_complete_the_peel(name):
    """Relifted, reordered copies (benchmark/inputs.variant, as the
    many-connections workload draws them) are certified by the route."""
    doc = (json.loads(serialize_graph(prism_graph(8))) if name == "prism8"
           else corpus_json(name))
    for seed in range(20):
        copy = scale_sweep.inputs.variant(doc, random.Random(seed))
        g = parse_graph(json.dumps(copy))
        assert thom.free_basis(g) is not None, seed


def test_faces_do_not_depend_on_the_connection_index():
    text = corpus_text("prism4")
    first = realizability_report(parse_graph(text), connection_index=0)
    g = parse_graph(text)
    last = realizability_report(g, connection_index=4095)
    assert last["connections"]["count"] == 4096
    for key in ("betti", "poincare_duality", "z_freeness", "tier", "orientability"):
        assert first[key] == last[key], key
    assert g.memo[("thom",)] == thom.free_basis(parse_graph(text))


def test_a_bad_connection_block_fails_only_where_it_did():
    """The route reads the per-edge options, never the file's block."""
    doc = corpus_json("cube")
    g = parse_graph(json.dumps(doc))
    options = connection.edge_options(g)
    doc["connection"] = {str(eid): {"forward": {"0": "0"}}
                         for eid in range(len(options))}
    bad = parse_graph(json.dumps(doc))
    assert coh.betti_numbers(bad) == coh.betti_numbers(g)
    assert thom.free_basis(bad) == thom.free_basis(g)
    with pytest.raises(GraphSemanticError):
        realizability_report(bad)


def test_flag_and_nonorientable_fall_back():
    for name, certified in (("flag", True), ("nonorientable", False)):
        g = parse_graph(corpus_text(name))
        rep = realizability_report(g)
        assert g.memo[("thom",)] is None and ("basis",) in g.memo
        assert (rep["z_freeness"]["status"] == "certified") == certified


def test_certified_cube_verdict_forms_no_lattice():
    g = parse_graph(corpus_text("cube"))
    rep = realizability_report(g)
    assert rep["z_freeness"]["status"] == "certified"
    assert rep["poincare_duality"]["pairing_rank"] == 3
    assert isinstance(g.memo[("thom",)], thom.Certificate)
    assert [key for key in g.memo
            if key[0] in ("evaluations", "z", "quotient", "basis")] == []


def test_a_verdict_enumerates_the_options_and_decides_orientability_once(monkeypatch):
    bijections, assignments = [], []
    real_bijections, real_assignment = (connection._compatible_bijections,
                                        orientation.eta_assignment)
    monkeypatch.setattr(
        connection, "_compatible_bijections",
        lambda g, eid: bijections.append(eid) or real_bijections(g, eid))
    monkeypatch.setattr(orientation, "eta_assignment",
                        lambda g: assignments.append(g) or real_assignment(g))
    g = parse_graph(corpus_text("prism4"))
    realizability_report(g)
    assert sorted(bijections) == list(range(len(g.edges)))
    assert len(assignments) == 1
    assert thom.free_basis(g) is g.memo[("thom",)] is not None
    assert orientation.is_orientable(g) is orientation.is_orientable(g)


# A face that visits v2 and v5 at two corners each (the corners of v0's
# edges 0 and 4, for one), and one with eps product -1 (the digon at v0's
# edges 2 and 5), both found by Hypothesis among small_graph_docs.
REVISITING = {"vertices": ["v0", "v1", "v2", "v3", "v4", "v5"], "edges": [
    {"from": "v0", "to": "v4", "weight": [1, 0]}, {"from": "v1", "to": "v3", "weight": [1, 0]},
    {"from": "v2", "to": "v5", "weight": [1, 0]}, {"from": "v0", "to": "v1", "weight": [2, -2]},
    {"from": "v2", "to": "v0", "weight": [0, -1]}, {"from": "v3", "to": "v4", "weight": [2, -2]},
    {"from": "v5", "to": "v4", "weight": [-2, 1]}, {"from": "v1", "to": "v2", "weight": [-2, 1]},
    {"from": "v3", "to": "v5", "weight": [0, -1]}]}
SIGN_MINUS_1 = {"vertices": ["v0", "v1", "v2", "v3"], "edges": [
    {"from": "v0", "to": "v1", "weight": [-1, 1]}, {"from": "v2", "to": "v1", "weight": [2, 0]},
    {"from": "v3", "to": "v0", "weight": [0, -1]}, {"from": "v2", "to": "v1", "weight": [0, -1]},
    {"from": "v3", "to": "v2", "weight": [1, 1]}, {"from": "v0", "to": "v3", "weight": [2, 0]}]}


def _peelable(g) -> bool:
    """Whether thom._order can run on g: valid, 3-valent, no loop, and a
    compatible map at every edge."""
    return (validate(g).ok and all(len(ids) == 3 for ids in g.incident.values())
            and not any(e.u == e.v for e in g.edges) and all(connection.edge_options(g)))


def _corners(g):
    """Every (vertex, e1, e2) with e1 != e2 at the vertex, with the whole
    face of its corner under the oracle's connection (oracles.corner_face)."""
    conn = oracles.least_k_connection(g)
    for v in g.vertices:
        for e1 in g.incident[v]:
            for e2 in g.incident[v]:
                if e1 != e2:
                    yield v, e1, e2, oracles.corner_face(g, conn, v, e1, e2)


def _walk(g, v, e1, e2):
    """thom._walk with every vertex but v picked, so that only a revisit or
    an eps product of -1 stops it."""
    return thom._walk(g, v, e1, e2, connection.edge_options(g), {},
                      [u != v for u in g.vertices])


def _far(g, eid, v) -> str:
    e = g.edges[eid]
    return e.v if e.u == v else e.u


def _far_end_of_third_edge(g, v, e1, e2) -> str:
    return _far(g, next(eid for eid in g.incident[v] if eid not in (e1, e2)), v)


def _assert_order_is_the_oracles(g):
    if _peelable(g):
        assert thom._order(g, connection.edge_options(g)) == oracles.greedy_order(g)


def test_a_flipped_sign_at_one_face_vertex_raises(monkeypatch):
    real = thom._walk

    def flipped(*args):
        face = real(*args)
        if face is None:
            return None
        v, normal, s = face[1]
        return face[:1] + [(v, normal, -s)] + face[2:]

    monkeypatch.setattr(thom, "_walk", flipped)
    with pytest.raises(RuntimeError, match="escaped the class lattice"):
        thom.free_basis(parse_graph(corpus_text("cube")))


@pytest.mark.parametrize("fault", ["revisit", "sign"])
def test_a_face_that_revisits_or_has_sign_minus_1_is_not_used(fault):
    """With every vertex but the start picked, _walk gives no face at a
    corner whose whole face (oracles.corner_face) comes back to a vertex or
    has eps product -1, and the greedy order of the graph is the oracle's."""
    g = parse_graph(json.dumps(REVISITING if fault == "revisit" else SIGN_MINUS_1))
    faulty = 0
    for v, e1, e2, (steps, sign) in _corners(g):
        revisits = len({u for u, _, _, _ in steps}) < len(steps)
        if revisits if fault == "revisit" else sign == -1 and not revisits:
            faulty += 1
            assert _walk(g, v, e1, e2) is None, (v, e1, e2)
    assert faulty and _peelable(g)
    _assert_order_is_the_oracles(g)


def test_a_usable_face_is_walked_whole():
    """With every vertex but the start picked, _walk gives the oracle's face
    at every corner whose whole face visits each vertex once and has eps
    product +1, and None at every other corner."""
    for name in ("cube", "prism4", "hexprism12", "last5", "first5", "cycle5", "flag"):
        g = parse_graph(TEXTS[name])
        for v, e1, e2, (steps, sign) in _corners(g):
            vertices = [u for u, _, _, _ in steps]
            usable = sign == 1 and len(set(vertices)) == len(vertices)
            assert _walk(g, v, e1, e2) == ([step[:3] for step in steps] if usable else None)


def test_a_face_that_leaves_the_picked_set_is_not_used():
    """Every face class of an order lies in the vertices picked before its
    own.  On the stalled peels of first5 and cycle5, some face that visits
    each vertex once, has eps product +1 and misses the far end of its
    vertex's third edge still has a vertex not yet picked when its vertex
    reaches k = 2 (oracles.corner_face, at the oracle's picks), and the
    peel stalls without it, as the oracle's does."""
    left = set()
    for name in ("cube", "prism4", "hexprism12", "last5", "first5", "cycle5", "flag"):
        g = parse_graph(TEXTS[name])
        order = thom._order(g, connection.edge_options(g))
        picks = [v for v, _, _ in oracles.greedy_picks(g)]
        for i, (v, degree, data) in enumerate(order or ()):
            if degree == 1:
                assert all(picks.index(u) < i for u, _, _ in data[1:]), name
        assert (order is None) == (name in ("first5", "cycle5", "flag")), name
        conn, reached = oracles.least_k_connection(g), set()
        for i in range(len(picks)):
            picked = set(picks[:i + 1])
            for w in set(g.vertices) - picked - reached:
                ids = [eid for eid in g.incident[w] if _far(g, eid, w) in picked]
                if len(ids) < 2:
                    continue
                reached.add(w)
                if len(ids) == 2:
                    steps, sign = oracles.corner_face(g, conn, w, *ids)
                    vertices = [u for u, _, _, _ in steps]
                    if (sign == 1 and len(set(vertices)) == len(vertices)
                            and _far_end_of_third_edge(g, w, *ids) not in vertices
                            and not set(vertices[1:]) <= picked):
                        left.add(name)
    assert {"first5", "cycle5"} <= left


def test_no_walk_on_flag_goes_past_the_far_end_of_its_third_edge(monkeypatch):
    """During _order on flag, first5, cycle5, cube and prism4, a walk whose
    face (oracles.corner_face) comes to a vertex neither its start nor
    picked gives no face, having chosen the maps of the edges before the
    one into that vertex and no others.  Flag's faces each pass through all
    six vertices, so every walk there meets x, the far end of its start's
    third edge, which is not picked, and stops there or before."""
    real, meets_x, stops = thom._walk, [], []

    def spy(g, start, e1, e2, options, chosen, picked):
        before = set(chosen)
        face = real(g, start, e1, e2, options, chosen, picked)
        steps, _ = oracles.corner_face(g, conn, start, e1, e2)
        vertices = [u for u, _, _, _ in steps]
        meets_x.append(_far_end_of_third_edge(g, start, e1, e2) in vertices)
        j = next((j for j, u in enumerate(vertices)
                  if u != start and not picked[g.vertex_index[u]]), None)
        if j is not None:
            assert face is None
            assert set(chosen) - before <= {eid for _, _, _, eid in steps[:j - 1]}
            stops.append(start)
        return face

    monkeypatch.setattr(thom, "_walk", spy)
    for name in ("flag", "first5", "cycle5", "cube", "prism4"):
        g = parse_graph(TEXTS[name])
        conn = oracles.least_k_connection(g)
        meets_x.clear()
        stops.clear()
        thom._order(g, connection.edge_options(g))
        assert meets_x, name
        if name == "flag":
            assert all(meets_x) and len(stops) == len(meets_x)
        elif name in ("first5", "cycle5"):
            assert stops, name


ORDER_TEXTS = {name: text for name, text in TEXTS.items()
               if not name.startswith(("hexprism", "first", "last", "cycle"))}
ORDER_TEXTS.update((f"hexprism{n}", json.dumps(scale_sweep.hexagon_prism(n)))
                   for n in range(3, 37, 3))
ORDER_TEXTS.update((f"{rule}{K}", json.dumps(gen_blowup.blowup_document(
    K, rule, scale_sweep.BLOWUP_P))) for rule in gen_blowup.RULES for K in range(11))
ORDER_TEXTS.update(revisiting=json.dumps(REVISITING), sign_minus_1=json.dumps(SIGN_MINUS_1))


@pytest.mark.parametrize("name", sorted(ORDER_TEXTS))
def test_greedy_order_is_the_oracles(name):
    _assert_order_is_the_oracles(parse_graph(ORDER_TEXTS[name]))


def test_each_order_entry_carries_the_data_of_its_class():
    """On the oracle's graphs, a degree-0 or degree-3 entry of an order
    carries None, and a degree-2 entry the edge to its one neighbour picked
    before it."""
    seen = set()
    for name, text in sorted(ORDER_TEXTS.items()):
        g = parse_graph(text)
        if not _peelable(g):
            continue
        picked = set()
        for v, degree, data in thom._order(g, connection.edge_options(g)) or ():
            if degree != 1:
                to_picked = [eid for eid in g.incident[v] if _far(g, eid, v) in picked]
                assert data == (to_picked[0] if degree == 2 else None), (name, v)
                assert len(to_picked) == {0: 3, 2: 1, 3: 0}[degree], (name, v)
            seen.add(degree)
            picked.add(v)
    assert seen == {0, 1, 2, 3}


@given(doc=small_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_greedy_order_is_the_oracles_on_random_graphs(doc):
    _assert_order_is_the_oracles(parse_graph(json.dumps(doc)))


@given(doc=coloured_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_greedy_order_is_the_oracles_on_coloured_graphs(doc):
    _assert_order_is_the_oracles(parse_graph(json.dumps(doc)))


def _closed_functional(g):
    """The closed basis (coh._closed_basis) and the z of its classes
    (thom._functional), the classes being those of the builder's last call
    (thom.certificate), which made the record."""
    gens, real = [], thom.certificate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(thom, "certificate", lambda graph, classes, target: (
            gens.append(classes) or real(graph, classes, target)))
        basis = coh._closed_basis(g)
    if basis is None:
        return None, None
    _, det, z = thom._functional(g, gens[-1])
    assert basis == real(g, gens[-1], basis.target) and det == basis.det
    return basis, z


def _localization_holds(text) -> bool:
    """Whether g has a closed basis and a potential; if so, asserts that the
    closed basis's z is proportional to tau(p) / e_p(1, t), exactly."""
    g = parse_graph(text)
    try:
        orient = orientation.is_orientable(g)
    except ConnectionInconsistency:
        return False
    basis, z = _closed_functional(g)
    if not orient.orientable or basis is None or not basis.det:
        return False
    t = thom._point(g)
    ratios = {Fraction(zv * math.prod(g.edges[eid].weight.a + g.edges[eid].weight.b * t
                                       for eid in g.incident[v]), orient.potential[v])
              for v, zv in zip(g.vertices, z)}
    assert len(ratios) == 1 and 0 not in ratios, ratios
    return True


def test_localization_oracle():
    """The closed basis's functional is the localized integral
    int f = sum_p tau(p) f(p) / e_p (cohomology.poincare_duality)."""
    held = [name for name, text in sorted(TEXTS.items()) if _localization_holds(text)]
    assert {"cube", "flag", "theta", "cp3", "prism4", "prism6", "free_no_flow_up",
            "hexprism36", "blowup_last10", "last12", "first12", "cycle12"} <= set(held)
    assert "nonorientable" not in held and "fuzz_k4" not in held


@given(doc=small_graph_docs())
@settings(max_examples=150, deadline=None, database=None)
def test_localization_oracle_on_random_graphs(doc):
    _localization_holds(json.dumps(doc))


@given(doc=coloured_graph_docs())
@settings(max_examples=150, deadline=None, database=None)
def test_localization_oracle_on_coloured_graphs(doc):
    _localization_holds(json.dumps(doc))


def _rows_are_localized(text) -> bool:
    """Whether g has a certified peel; if so, asserts that each row of the
    pairing is a positive multiple of the exact row of int u v
    (oracles.localized_pairing) and that q_rank is sympy's rank."""
    g = parse_graph(text)
    peel = thom.free_basis(g)
    if peel is None:
        return False
    pairing, exact = coh._pairing(g), oracles.localized_pairing(g)
    assert len(pairing) == len(exact) == peel.degrees.count(1)
    for mine, row in zip(pairing, exact):
        assert len(mine) == len(row) == peel.degrees.count(2)
        k = next((Fraction(a) / b for a, b in zip(mine, row) if b), None)
        if k is None:
            assert not any(mine)
        else:
            assert k > 0 and mine == [k * b for b in row]
    ncols = peel.degrees.count(2)
    rank = sympy.Matrix(len(exact), ncols, [x for row in exact for x in row]).rank()
    assert linalg.q_rank(pairing) == rank
    return True


@pytest.mark.parametrize("name", ["cube", "theta", "cp3", "prism4", "prism6", "sq22",
                                  "hexprism24", "blowup_last10"])
def test_thom_pairing_rows_are_the_localized_integral(name):
    assert _rows_are_localized(TEXTS[name])


@given(doc=small_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_thom_pairing_rows_are_the_localized_integral_on_random_graphs(doc):
    _rows_are_localized(json.dumps(doc))


@given(doc=coloured_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_thom_pairing_rows_are_the_localized_integral_on_coloured_graphs(doc):
    _rows_are_localized(json.dumps(doc))


def _factors_product(cert):
    """The pairing of a certificate's factors, multiplied out entry by entry."""
    return [[sum(w * v.get(q, 0) for q, w in u.items()) for v in cert.cols]
            for u in cert.rows]


def _certificates_agree(text) -> bool:
    """Whether the Thom route certifies g; if so, asserts that the closed
    route's certificate, on a fresh copy whose Thom route is declined
    (closed_basis_route), has the same degrees, det and target, with
    det == target on both, and a pairing of the same rank."""
    g = parse_graph(text)
    mine = thom_route(g)
    if mine is None:
        return False
    closed = parse_graph(text)
    cert = coh._closed_basis(closed)
    assert thom.free_basis(closed) is None and isinstance(cert, thom.Certificate)
    assert cert.degrees == mine.degrees
    assert cert.det == cert.target == mine.det == mine.target
    assert linalg.q_rank(coh._pairing(closed)) == linalg.q_rank(_factors_product(mine))
    return True


CERTIFICATE_NAMES = CORPUS + sorted(path.stem for path in HERE.glob("*.json"))


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_both_routes_give_one_certificate(name):
    certified = _certificates_agree(TEXTS[name])
    assert certified == (name in ("cube", "theta", "cp3", "prism4", "prism6", "sq22",
                                  "hexprism24", "blowup_last10")), name


@pytest.mark.usefixtures("closed_basis_route")
@given(doc=coloured_graph_docs())
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_both_routes_give_one_certificate_on_coloured_graphs(doc):
    _certificates_agree(json.dumps(doc))


def _cols_are_the_edge_classes(text) -> bool:
    """Whether the Thom route certifies g; if so, asserts that its columns
    are the public thom_class_edge of the degree-2 picks of thom._order, in
    pick order, read at (1, t) (thom._point) at every vertex."""
    g = parse_graph(text)
    cert = thom_route(g)
    if cert is None:
        return False
    t, n = thom._point(g), len(g.vertices)
    picks = [data for _, degree, data in thom._order(g, connection.edge_options(g))
             if degree == 2]
    assert len(cert.cols) == len(picks)
    for col, eid in zip(cert.cols, picks):
        vec = thom.thom_class_edge(g, eid)
        assert [col.get(p, 0) for p in g.vertices] == [
            thom.poly_eval(vec[3 * i:3 * i + 3], 1, t) for i in range(n)], eid
    return True


@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_thom_columns_are_the_edge_thom_classes(name):
    certified = _cols_are_the_edge_classes(TEXTS[name])
    assert certified == (name in ("cube", "theta", "cp3", "prism4", "prism6", "sq22",
                                  "hexprism24", "blowup_last10")), name


@given(doc=coloured_graph_docs())
@settings(max_examples=60, deadline=None, database=None)
def test_thom_columns_are_the_edge_thom_classes_on_coloured_graphs(doc):
    _cols_are_the_edge_classes(json.dumps(doc))


REALIZABLE = ("integer-gkm-realizable", "rigid-class")


def _off_the_lines(g) -> int:
    """t with (1, t) off every line alpha'_e = 0."""
    return 1 + max(abs(e.weight.a) // math.gcd(*e.weight) for e in g.edges)


def _constants(g):
    """The constant classes x 1 and y 1 in degree 2."""
    n = len(g.vertices)
    return [[1, 0] * n, [0, 1] * n]


@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_cubic_form_is_integral_and_independent_of_t(name):
    """On each realizable graph, mu over the constants and the rows of
    ht_basis_z(g, 1) is an integer, the same at t and t + 1, and 0 when a
    class is constant."""
    g = parse_graph(TEXTS[name])
    if realizability_report(g)["tier"] not in REALIZABLE:
        assert name in ("nonorientable", "fuzz_k4", "torsion_k4"), name
        return
    classes, t = _constants(g) + coh.ht_basis_z(g, 1), _off_the_lines(g)
    mu = oracles.cubic_form(g, t, classes)
    assert all(m.denominator == 1 for m in mu.values())
    assert mu == oracles.cubic_form(g, t + 1, classes)
    assert [m for (i, _, _), m in mu.items() if i < 2 and m] == []


def test_cubic_form_of_cp3_and_of_the_cube():
    """CP^3: H^2(M) = Z x with |x^3| = 1.  The cube, (CP^1)^3: the rows of
    square 0 are a, b and c, pulled back from the factors, and they span
    H^2(M); oriented so that abc = 1, (a + b + c)^3 = 6."""
    g = parse_graph(TEXTS["cp3"])
    rows, t = coh.ht_basis_z(g, 1), _off_the_lines(g)
    gens = [x for x in rows if oracles.lattice_equal([x] + _constants(g), rows)]
    assert gens and all(abs(oracles.cubic_form(g, t, [x])[0, 0, 0]) == 1 for x in gens)

    g = parse_graph(TEXTS["cube"])
    rows, t = coh.ht_basis_z(g, 1), _off_the_lines(g)
    mu = oracles.cubic_form(g, t, rows)
    a, b, c = [u for i, u in enumerate(rows) if u not in _constants(g) and not any(
        mu[tuple(sorted((i, i, j)))] for j in range(len(rows)))]
    assert oracles.lattice_equal([a, b, c] + _constants(g), rows)
    sign = oracles.cubic_form(g, t, [a, b, c])[0, 1, 2]
    assert abs(sign) == 1
    s = [sign * x + y + z for x, y, z in zip(a, b, c)]
    assert oracles.cubic_form(g, t, [s])[0, 0, 0] == 6


@pytest.mark.parametrize("name", CERTIFICATE_NAMES)
def test_spin_c_classes_satisfy_the_index_congruence(name):
    """On each realizable graph a lattice class W lifts w_2 (oracles.w2_lift),
    and every z = W, W + 4a and W + 2a + 2b, over rows a != b of
    ht_basis_z(g, 1), has z^3 = p_1 z (mod 48), read at t and t + 1 off
    every line: z is c_1 of a spin^c structure on M, and the index of its
    Dirac operator, int e^{z/2} (1 - p_1/24) = (z^3 - p_1 z) / 48, is an
    integer.  p_1 z (oracles.p1_pairing) is an integer, the same at both
    points."""
    g = parse_graph(TEXTS[name])
    if realizability_report(g)["tier"] not in REALIZABLE:
        assert name in ("nonorientable", "fuzz_k4", "torsion_k4"), name
        return
    W, rows = oracles.w2_lift(g), coh.ht_basis_z(g, 1)
    assert W is not None, name
    zs = [W] + [[w + 4 * x for w, x in zip(W, a)] for a in rows] + [
        [w + 2 * x + 2 * y for w, x, y in zip(W, a, b)]
        for a, b in itertools.combinations(rows, 2)]
    t = _off_the_lines(g)
    p1z = oracles.p1_pairing(g, t, zs)
    assert p1z == oracles.p1_pairing(g, t + 1, zs)
    assert all(p.denominator == 1 for p in p1z)
    for s in (t, t + 1):
        cubes = [oracles.cubic_form(g, s, [z])[0, 0, 0] for z in zs]
        assert [i for i, (c, p) in enumerate(zip(cubes, p1z)) if (c - p) % 48] == [], s


def test_p1_of_cp3_and_of_the_products():
    """CP^3: p_1 = 4 x^2, so p_1 x = +-4 on each row that is not constant.
    The cube, (CP^1)^3, the flag manifold Fl(C^3) and prism4: p_1 z = 0 for
    every row z."""
    g = parse_graph(TEXTS["cp3"])
    rows, t = coh.ht_basis_z(g, 1), _off_the_lines(g)
    moving = [x for x in rows if len(set(zip(x[::2], x[1::2]))) > 1]
    assert moving and {abs(p) for p in oracles.p1_pairing(g, t, moving)} == {4}
    for name in ("cube", "flag", "prism4"):
        g = parse_graph(TEXTS[name])
        rows = coh.ht_basis_z(g, 1)
        assert set(oracles.p1_pairing(g, _off_the_lines(g), rows)) == {0}, name
