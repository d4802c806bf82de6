"""The Thom-class route (gkm3.thom) against the closed-basis route, its
faults, its coverage, the localization identity behind its pairing, and
its pairing against the exact localized integral."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings

from gkm3 import cohomology as coh
from gkm3 import connection, linalg, orientation, thom
from gkm3.connection import ConnectionInconsistency
from gkm3.graph import GraphSemanticError, parse_graph, serialize_graph
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
    assert isinstance(g.memo[("thom",)], thom.Peel)
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


def _rewritten(change):
    """A _walk whose face (face, eps product) goes through change."""
    real = thom._walk

    def walk(*args):
        found = yield from real(*args)
        return None if found is None else change(*found)

    return walk


def test_a_flipped_sign_at_one_face_vertex_raises(monkeypatch):
    def flip(face, sign):
        v, normal, s = face[1]
        return face[:1] + [(v, normal, -s)] + face[2:], sign

    monkeypatch.setattr(thom, "_walk", _rewritten(flip))
    with pytest.raises(RuntimeError, match="escaped the class lattice"):
        thom.free_basis(parse_graph(corpus_text("cube")))


@pytest.mark.parametrize("fault", ["revisit", "sign"])
def test_a_face_that_revisits_or_has_sign_minus_1_is_not_used(fault, monkeypatch):
    change = ((lambda face, sign: (face + face[:1], sign)) if fault == "revisit"
              else (lambda face, sign: (face, -sign)))
    monkeypatch.setattr(thom, "_walk", _rewritten(change))
    g = parse_graph(corpus_text("cube"))
    assert thom.free_basis(g) is None  # cube's three degree-2 classes are faces
    monkeypatch.undo()
    fresh = parse_graph(corpus_text("cube"))
    assert realizability_report(g) == realizability_report(fresh)


def test_a_face_that_leaves_the_picked_set_is_not_used(monkeypatch):
    """A walk that does not wait for the vertices not yet picked returns
    faces that leave the picked set; those are not used, so every face
    class of an order lies in the vertices picked before its own."""
    real, left = thom._walk, []

    def eager(g, start, e1, e2, options, chosen, picked):
        walk = real(g, start, e1, e2, options, chosen, picked)
        while True:
            try:
                next(walk)
            except StopIteration as end:
                found = end.value
                break
        if found is not None:
            left.append(any(not picked[g.vertex_index[v]] for v, _, _ in found[0][1:]))
        return found
        yield

    monkeypatch.setattr(thom, "_walk", eager)
    for name in ("cube", "prism4", "hexprism12", "last5", "first5", "cycle5", "flag"):
        g = parse_graph(TEXTS[name])
        order = thom._order(g, connection.edge_options(g))
        for i, (v, degree, data) in enumerate(order or ()):
            if degree == 1:
                earlier = {u for u, _, _ in order[:i]}
                assert {u for u, _, _ in data} - {v} <= earlier, name
    assert any(left)


def _localization_holds(text) -> bool:
    """Whether g has a closed basis and a potential; if so, asserts that the
    closed basis's z is proportional to tau(p) / e_p(1, t), exactly."""
    g = parse_graph(text)
    try:
        orient = orientation.is_orientable(g)
    except ConnectionInconsistency:
        return False
    basis = coh._closed_basis(g)
    if not orient.orientable or basis is None or not basis.det:
        return False
    t = coh._point(g)
    ratios = {Fraction(z * math.prod(g.edges[eid].weight.a + g.edges[eid].weight.b * t
                                      for eid in g.incident[v]), orient.potential[v])
              for v, z in zip(g.vertices, basis.z)}
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
    pairing, exact = coh._pairing(g), oracles.localized_pairing(g, peel)
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
