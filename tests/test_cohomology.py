import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings

from gkm3 import cohomology as coh
from gkm3 import linalg
from gkm3.connection import available_connections
from gkm3.graph import parse_graph, serialize_graph, validate
from gkm3.verdict import realizability_report

import oracles
from conftest import (
    CORPUS_NAMES,
    coloured_graph_docs,
    corpus_graph,
    corpus_json,
    corpus_text,
    gen_blowup,
    hexagon_prism,
    named_graph,
    random_graph_doc,
    scale_sweep,
    small_graph_docs,
)

# A valid K4 labelling whose integral classes have 9-torsion modulo the
# product ideal in degree 6 (found by randomized search, then verified
# against the sympy oracles below).
TORSION_K4 = json.loads((Path(__file__).parent / "torsion_k4.json").read_text())
# A 4-vertex graph with labels in [-3, 3], two of them imprimitive; its
# lattices once swelled inside the elimination (minutes at degree 16).
FUZZ_K4 = json.loads((Path(__file__).parent / "fuzz_k4.json").read_text())
# A free 6-vertex graph, three of whose labels have content 2, with no
# vertex order whose flow-up classes exist.
FREE_NO_FLOW_UP = json.loads(
    (Path(__file__).parent / "free_no_flow_up.json").read_text()
)
SINGLE_2X = {
    "vertices": ["u", "w"],
    "edges": [{"from": "u", "to": "w", "weight": [2, 0]}],
}


def test_poly_helpers():
    assert coh.poly_mul((1, 2), (3, 4)) == (3, 10, 8)
    assert coh.poly_mul((1,), (5, 6)) == (5, 6)
    assert coh.poly_eval((1, 0, -1), 2, 3) == 4 - 9


def test_raised_rows_are_the_block_multiples(theta):
    # x * (7x + 8y, x - y) and y * it, at theta's two vertices.
    assert coh._raised(theta, [[7, 8, 1, -1]], 1) == [
        [7, 8, 0, 1, -1, 0], [0, 7, 8, 0, 1, -1]]
    for name in CORPUS_NAMES + ["cp3"]:
        g = named_graph(name)
        for d in range(4):
            basis = coh.ht_basis_z(g, d)
            assert coh._raised(g, basis, d) == oracles.raised(g, basis, d), (name, d)


def test_dimensions_theta(theta):
    assert [len(coh.ht_basis_q(theta, d)) for d in range(4)] == [1, 2, 3, 5]
    assert [len(coh.ht_basis_z(theta, d)) for d in range(4)] == [1, 2, 3, 5]


def test_dimensions_cube(cube):
    assert len(coh.ht_basis_q(cube, 1)) == 5
    assert len(coh.ht_basis_q(cube, 2)) == 12


ALL_CORPUS = ["cp3", "cube", "flag", "nonorientable", "prism4", "prism6", "theta"]
EXPECTED_BETTI = {
    "cube": (1, 3, 3, 1, 0, 0),
    "flag": (1, 2, 2, 1, 0, 0),
    "theta": (1, 0, 0, 1, 0, 0),
    "nonorientable": (1, 0, 3, 0, 0),
}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_betti_numbers(name):
    g = corpus_graph(name)
    res = coh.betti_numbers(g)
    assert res.betti == EXPECTED_BETTI[name]
    assert res.stabilized
    assert res.total == len(g.vertices)


def test_betti_low_cap_does_not_stabilize(cube):
    res = coh.betti_numbers(cube, 4)
    assert not res.stabilized
    assert res.betti == (1, 3, 3)


def test_cohomology_table(cube):
    table = coh.cohomology_table(cube)
    assert [row["betti"] for row in table] == [1, 3, 3, 1, 0, 0]
    for row in table:
        assert row["dim_q"] == row["rank_z"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("d", range(6))
def test_oracle_equivalence_q(name, d):
    """Criterion: Q bases match an independent symbolic solver, degrees <= 10."""
    g = corpus_graph(name)
    basis = coh.ht_basis_q(g, d)
    assert len(basis) == oracles.q_dimension(g, d)
    rows = [list(r) for r in basis]
    assert oracles.q_rank_rows(rows) == len(basis)
    for r in rows:
        assert oracles.class_satisfies(g, r, d, over_z=False)


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("d", range(6))
def test_oracle_equivalence_z(name, d):
    """Criterion: Z bases match an independent Hermite-form oracle.

    With primitive weights (true of the whole corpus, asserted) the integer
    solution set is the saturation of the rational solution space, so
    lattice equality amounts to: every basis row is an integral solution
    (sympy polynomial division), the rank is the full rational dimension,
    and the basis lattice is saturated (sympy Smith form all ones).
    """
    g = corpus_graph(name)
    assert all(e.weight.is_primitive() for e in g.edges)
    basis = coh.ht_basis_z(g, d)
    rows = [[int(c) for c in r] for r in basis]
    assert len(basis) == oracles.q_dimension(g, d)
    for r in rows:
        assert oracles.class_satisfies(g, r, d, over_z=True)
    if rows:
        assert oracles.snf_divisors(rows, len(basis[0])) == [1] * len(rows)


def test_z_lattice_of_edgeless_graph_is_everything():
    g = parse_graph(json.dumps({"vertices": ["u"], "edges": []}))
    assert coh.ht_basis_z(g, 2) == linalg.eye(3)


def test_z_lattice_imprimitive_weight():
    g = parse_graph(json.dumps(SINGLE_2X))
    L = coh.ht_basis_z(g, 1)
    expected = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 0]]
    assert oracles.lattice_equal([list(r) for r in L], expected)
    # Over Q the divisibility by 2x is just divisibility by x: dimension 3,
    # but the integral lattice has index 2 in the integer points.
    assert len(coh.ht_basis_q(g, 1)) == 3
    assert oracles.class_satisfies(g, [1, 0, 1, 0], 1, over_z=True)
    assert not oracles.class_satisfies(g, [1, 0, 0, 0], 1, over_z=True)


@pytest.mark.parametrize(
    "doc", [corpus_json("cp3"), TORSION_K4, FUZZ_K4, SINGLE_2X],
    ids=["cp3", "torsion_k4", "fuzz_k4", "single_2x"],
)
@pytest.mark.parametrize("d", range(6))
def test_z_lattice_matches_smith_oracle(doc, d):
    # Imprimitive labels included: the oracle solves the auxiliary-polynomial
    # system through sympy's Smith decomposition.
    g = parse_graph(json.dumps(doc))
    assert oracles.lattice_equal(
        [list(r) for r in coh.ht_basis_z(g, d)], oracles.class_lattice(g, d)
    )


@given(doc=small_graph_docs())
@settings(max_examples=15, deadline=None)
def test_z_lattice_matches_smith_oracle_on_random_graphs(doc):
    g = parse_graph(json.dumps(doc))
    _assert_degree_0_is_the_components(g)
    for d in range(4):
        assert oracles.lattice_equal(
            [list(r) for r in coh.ht_basis_z(g, d)], oracles.class_lattice(g, d)
        ), d


# (graph, degree) cases of the parametrization below whose Hermite form has
# a pivot above 1, so some unit vector on the free coordinates does not lift.
FALLBACK = {("cp3", 3), ("fuzz_k4", 1), ("fuzz_k4", 3), ("single_2x", 1),
            ("single_2x", 3)}


@pytest.mark.parametrize("name", ["cube", "cp3", "fuzz_k4", "single_2x"])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_z_lattice_eliminates_one_column_per_edge(name, d, monkeypatch):
    # One evaluation row per edge over the class coordinates, eliminated
    # once, whether or not every unit vector on the free coordinates lifts:
    # the fallback's pass combines rows with an exgcd carry into a
    # triangular basis, whose Hermite form is one reduction pass.  Degree 0
    # eliminates nothing: its basis is the components' indicator vectors.
    calls, reductions = [], []
    echelon, reduced = linalg.echelon, linalg.reduced

    def spy(rows, n):
        calls.append((len(rows), n))
        return echelon(rows, n)

    def spy_reduced(E, n):
        reductions.append((len(E), n))
        return reduced(E, n)

    monkeypatch.setattr(linalg, "echelon", spy)
    monkeypatch.setattr(linalg, "reduced", spy_reduced)
    doc = {"fuzz_k4": FUZZ_K4, "single_2x": SINGLE_2X}.get(name) or corpus_json(name)
    g = parse_graph(json.dumps(doc))
    basis = coh.ht_basis_z(g, d)
    nf = len(g.vertices) * (d + 1)
    pivots = [next(x for x in row if x) for row in basis]
    fallback = any(p > 1 for p in pivots)
    assert fallback == ((name, d) in FALLBACK)
    assert calls == ([(len(g.edges), nf)] if d else [])
    # The fallback's one reduction is square, on the free coordinates whose
    # unit vectors do not lift.
    assert len(reductions) == fallback and all(m == n for m, n in reductions)
    # The memoized echelon serves every later reader of the degree.
    coh._lattice_rank(g, d)
    assert len(calls) == (d != 0)
    assert (("evaluations", d) in g.memo) == (d != 0)


def _oracle_cases():
    here = Path(__file__).parent
    cases = [pytest.param(corpus_text(name), id=name) for name in ALL_CORPUS]
    # blowup_last10 is left out: the oracle's elimination over all unknowns
    # swells there (minutes); test_basis_matches_oracle_on_blowups covers
    # the family.
    cases += [pytest.param(path.read_text(), id=path.stem)
              for path in sorted(here.glob("*.json")) + sorted(here.glob("invalid/*.json"))
              if path.stem != "blowup_last10"]
    cases += [pytest.param(json.dumps(scale_sweep.hexagon_prism(n)), id=f"hexprism{n}")
              for n in (6, 12)]
    return cases


@pytest.mark.parametrize("text", _oracle_cases())
def test_basis_matches_two_elimination_oracle(text):
    """The one-echelon basis is the two-elimination basis, entry for entry,
    to degree 10 on the corpus, the test graphs, the invalid graphs and two
    hexagon prisms."""
    g = parse_graph(text)
    for d in range(6):
        assert coh.ht_basis_z(g, d) == oracles.two_elimination_basis(g, d), d


def test_basis_matches_two_elimination_oracle_on_blowups():
    # Blow-ups of CP^3 under a projection with large entries: most of their
    # lattices take the fallback pass.
    fallbacks = 0
    for rule in gen_blowup.RULES:
        for K in range(1, 8):
            doc = gen_blowup.blowup_document(K, rule, [[-3, 3, 2], [-3, -2, -2]])
            g = parse_graph(json.dumps(doc))
            for d in range(4):
                basis = coh.ht_basis_z(g, d)
                assert basis == oracles.two_elimination_basis(g, d), (rule, K, d)
                fallbacks += any(next(x for x in row if x) > 1 for row in basis)
    assert fallbacks >= 60


def test_basis_matches_two_elimination_oracle_on_random_graphs():
    for seed in range(120):
        g = parse_graph(json.dumps(random_graph_doc(seed)))
        for d in range(5):
            assert coh.ht_basis_z(g, d) == oracles.two_elimination_basis(g, d), (seed, d)


def test_betti_and_table_match_quotient_oracle_on_random_graphs():
    """b_2d = r_d - 2 r_{d-1} + r_{d-2} gives the quotients' Betti numbers,
    stabilization flags and tables, certified graphs or not."""
    uncertified = 0
    for seed in range(320):
        doc = random_graph_doc(seed)
        g = parse_graph(json.dumps(doc))
        got = (coh.betti_numbers(g, 12), coh.cohomology_table(g, 12))
        uncertified += coh._free_betti(g) is None
        assert got == oracles.quotient_cohomology(parse_graph(json.dumps(doc)), 12), seed
    assert 200 < uncertified < 320


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_lattice_ranks_match_sympy_evaluation_rank(name):
    g = corpus_graph(name)
    for d in range(5):
        r = len(g.vertices) * (d + 1) - oracles.evaluation_rank(g, d)
        assert coh._lattice_rank(g, d) == r == oracles.q_dimension(g, d), d


@pytest.mark.parametrize("n", [6, 12, 24, 36])
def test_hexagon_prism_betti_from_ranks(n, monkeypatch):
    # Polygon x CP^1: (1, n - 1, n - 1, 1), here from the lattice ranks
    # alone, as the certificate is withheld.
    monkeypatch.setattr(coh, "_free_betti", lambda g: None)
    g = hexagon_prism(n)
    res = coh.betti_numbers(g)
    assert res.betti == (1, n - 1, n - 1, 1, 0, 0) and res.stabilized
    # A free module: r_d = sum_k b_2k (d - k + 1).
    assert [row["rank_z"] for row in coh.cohomology_table(g)] == [
        sum(b * (d - k + 1) for k, b in enumerate(res.betti[: d + 1]))
        for d in range(len(res.betti))
    ]


def test_uncertified_betti_and_table_form_no_quotient(nonorientable, monkeypatch):
    # Once the certificate has failed, the Betti numbers (to b_8) and the
    # table read ranks alone: no Smith form, and no lattice or quotient
    # beyond those the certificate formed (to degree 4).
    assert coh._free_betti(nonorientable) is None
    formed = {key for key in nonorientable.memo if key[0] in ("z", "quotient")}
    smiths = []
    snf = linalg.snf_transform
    monkeypatch.setattr(linalg, "snf_transform",
                        lambda *a: smiths.append(a) or snf(*a))
    betti = coh.betti_numbers(nonorientable)
    table = coh.cohomology_table(nonorientable)
    assert smiths == []
    assert {key for key in nonorientable.memo if key[0] in ("z", "quotient")} == formed
    assert ("evaluations", 4) in nonorientable.memo
    fresh = parse_graph(serialize_graph(nonorientable))
    assert (betti, table) == oracles.quotient_cohomology(fresh, coh.DEFAULT_DEGREE_CAP)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_vertex_thom_classes(name):
    g = corpus_graph(name)
    for v in g.vertices:
        th = coh.thom_class_vertex(g, v)
        blk = oracles.blocks(g, th, 3)
        for w in g.vertices:
            if w == v:
                expected = (1,)
                for eid in g.incident[v]:
                    expected = coh.poly_mul(
                        expected, g.edges[eid].weight.vector
                    )
                assert blk[w] == expected
            else:
                assert all(c == 0 for c in blk[w])


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_edge_thom_relation(name):
    """alpha(e) * Th_e equals Th_u +/- Th_w in degree 6."""
    g = corpus_graph(name)
    for eid, e in enumerate(g.edges):
        th_e = coh.thom_class_edge(g, eid)
        lhs = []
        for blk in oracles.blocks(g, th_e, 2).values():
            lhs.extend(coh.poly_mul(blk, e.weight.vector))
        thu = coh.thom_class_vertex(g, e.u)
        thv = coh.thom_class_vertex(g, e.v)
        assert any(
            lhs == [a + s * b for a, b in zip(thu, thv)] for s in (1, -1)
        )


def test_edge_thom_connection_independent(theta, nonorientable, flag):
    """The edge class, which reads eta, is the class that the transport
    signs of each connection give (oracles.edge_thom_class)."""
    for g, limit in ((theta, None), (nonorientable, None), (flag, 16)):
        conns, _ = available_connections(g)
        conns = conns[:limit] if limit else conns
        for eid in range(len(g.edges)):
            th = coh.thom_class_edge(g, eid)
            for c in conns:
                assert oracles.edge_thom_class(g, c, eid) == th, eid


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_edge_thom_class_adds_no_memo_entry(name):
    """An edge class builds no transition data and caches nothing."""
    g = corpus_graph(name)
    for eid in range(len(g.edges)):
        coh.thom_class_edge(g, eid)
    assert g.memo == {}


def _graph(vertices, edges):
    return parse_graph(json.dumps({"vertices": vertices, "edges": [
        {"from": u, "to": v, "weight": w} for u, v, w in edges]}))


def test_thom_classes_need_every_end_at_the_first_vertex_valence():
    """A block holds valence + 1 coefficients, the first vertex's valence,
    so a Thom class at a vertex of another valence is a ValueError: x's
    two labels are not written as a degree-6 block, and w's four labels,
    whose product is a class, are not reported as escaping the lattice."""
    g = _graph(["a", "b", "x"], [("a", "b", [1, 0]), ("a", "b", [0, 1]),
                                 ("a", "x", [1, 1]), ("x", "b", [1, 2])])
    with pytest.raises(ValueError, match="vertex 'x' has valence 2, not 3"):
        coh.thom_class_vertex(g, "x")
    with pytest.raises(ValueError, match="vertex 'x' has valence 2, not 3"):
        coh.thom_class_edge(g, 3)
    assert oracles.class_satisfies(g, coh.thom_class_vertex(g, "a"), 3, over_z=True)
    g = _graph(["a", "w", "b"], [("a", "w", [1, 0]), ("a", "w", [0, 1]),
                                 ("a", "b", [1, 1]), ("w", "b", [1, 2]),
                                 ("w", "b", [1, 3])])
    with pytest.raises(ValueError, match="vertex 'w' has valence 4, not 3"):
        coh.thom_class_vertex(g, "w")
    with pytest.raises(ValueError, match="vertex 'w' has valence 4, not 3"):
        coh.thom_class_edge(g, 3)


@pytest.mark.parametrize("name", ["cp3", "cube", "flag", "nonorientable",
                                  "prism4", "theta"])
def test_edge_thom_class_matches_sympy(name):
    g = corpus_graph(name)
    for conn in available_connections(g)[0][:8]:
        for eid in range(len(g.edges)):
            assert coh.thom_class_edge(g, eid) == (
                oracles.edge_thom_class(g, conn, eid)
            ), eid


def test_project_rejects_a_class_outside_the_lattice(cube):
    vec = [0] * (4 * len(cube.vertices))
    vec[0] = 1  # x^3 at the first vertex, 0 elsewhere
    assert not oracles.class_satisfies(cube, vec, 3, over_z=True)
    with pytest.raises(RuntimeError, match="escaped the class lattice"):
        oracles.projector(cube, 3)[2](vec)


def _raised_leading(mul):
    """poly_mul whose degree-3 products, the vertex products of a 3-valent
    graph, gain 1 in their leading coefficient."""
    def raised(p, q):
        out = mul(p, q)
        return (out[0] + (len(out) == 4),) + out[1:]
    return raised


def _spilled(mul):
    """poly_mul whose degree-3 products gain a fifth coefficient, which
    spills into the next vertex's block."""
    def spilled(p, q):
        out = mul(p, q)
        return out + (1,) * (len(out) == 4)
    return spilled


def _negated(eta):
    """eta with the opposite sign, so an edge class's target sign flips."""
    return lambda g, edge_id: -eta(g, edge_id)


def _flipped(transition):
    """transition whose transport signs multiply to the opposite sign, so
    the lattice route's edge class flips its target sign too."""
    def flipped(g, conn, e):
        t = transition(g, conn, e)
        return t._replace(eps=(-t.eps[0],) + t.eps[1:])
    return flipped


def test_thom_classes_outside_a_sublattice_raise(cube, monkeypatch):
    """A vertex product whose leading coefficient gains 1, or an edge class
    whose target sign flips, is no class, and the check of the edges the
    vector reaches says so with no lattice and no evaluation formed."""
    v = cube.vertices[0]
    with monkeypatch.context() as patch:
        patch.setattr(coh, "poly_mul", _raised_leading(coh.poly_mul))
        with pytest.raises(RuntimeError, match=re.escape(
                f"Thom class of vertex {v!r} escaped the class lattice")):
            coh.thom_class_vertex(cube, v)
    with monkeypatch.context() as patch:
        patch.setattr(coh, "eta", _negated(coh.eta))
        with pytest.raises(RuntimeError,
                           match="Thom class of edge 0 escaped the class lattice"):
            coh.thom_class_edge(cube, 0)
    assert not [key for key in cube.memo if key[0] in ("z", "evaluations")]


def _test_graphs():
    here = Path(__file__).parent
    return [pytest.param(corpus_text(name), id=name) for name in ALL_CORPUS] + [
        pytest.param(path.read_text(), id=path.stem)
        for path in sorted(here.glob("*.json"))]


def _is_hermite(rows) -> bool:
    """Whether the rows are a row-style Hermite form: strictly increasing
    positive pivots, every entry above a pivot in [0, pivot)."""
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    return (pivots == sorted(set(pivots))
            and all(row[p] > 0 for row, p in zip(rows, pivots))
            and all(0 <= above[p] < row[p]
                    for i, (row, p) in enumerate(zip(rows, pivots))
                    for above in rows[:i]))


def _assert_degree_0_is_the_components(g):
    """The degree-0 basis is the Hermite form of the sympy class lattice,
    one indicator row per component, formed with no evaluation echelon."""
    basis = coh.ht_basis_z(g, 0)
    assert _is_hermite(basis)
    assert oracles.lattice_equal(basis, oracles.class_lattice(g, 0))
    supports = [{v for v, x in zip(g.vertices, row) if x} for row in basis]
    assert supports == [set(c) for c in g.components]
    assert coh._lattice_rank(g, 0) == len(g.components)
    assert ("evaluations", 0) not in g.memo


@pytest.mark.parametrize("text", _test_graphs() + [
    pytest.param((Path(__file__).parent / "invalid" / f"{s}.json").read_text(), id=s)
    for s in ("two_components", "isolated_vertex", "loops")])
def test_degree_0_lattice_is_the_components(text):
    _assert_degree_0_is_the_components(parse_graph(text))


@given(doc=coloured_graph_docs())
@settings(max_examples=25, deadline=None)
def test_degree_0_lattice_is_the_components_on_coloured_graphs(doc):
    _assert_degree_0_is_the_components(parse_graph(json.dumps(doc)))


def _outcome(thom, *args):
    """A Thom class, or the type and message of the error it raised."""
    try:
        return thom(*args)
    except (RuntimeError, IndexError) as exc:
        return type(exc).__name__, str(exc)


def _assert_thom_routes_agree(text):
    """Every vertex and edge Thom class is the same, or raises the same
    error, by the edge check and by the lattice route
    (oracles.lattice_thom_class, which reads an edge's sign from the
    transition data of the first connection), as built and with each fault
    injected; each class returned is one by the sympy divisibility check."""
    g = parse_graph(text)
    conns = available_connections(g)[0]
    cases = [(coh.thom_class_vertex, (v,), oracles.lattice_thom_class_vertex, (v,), 3)
             for v in g.vertices]
    cases += [(coh.thom_class_edge, (eid,), oracles.lattice_thom_class_edge,
               (conns[0], eid), 2) for eid in range(len(g.edges)) if conns]
    faults = [(), [(coh, "poly_mul", _raised_leading)], [(coh, "poly_mul", _spilled)],
              [(coh, "eta", _negated), (oracles, "transition", _flipped)]]
    for fault in faults:
        with pytest.MonkeyPatch.context() as patch:
            for module, name, wrap in fault:
                patch.setattr(module, name, wrap(getattr(module, name)))
            for mine, args, lattice, lattice_args, d in cases:
                out = _outcome(mine, g, *args)
                assert out == _outcome(lattice, g, *lattice_args), (fault, args)
                if isinstance(out, list):
                    assert oracles.class_satisfies(g, out, d, over_z=True), args
                else:
                    assert fault, out


@pytest.mark.parametrize("text", _test_graphs())
def test_thom_classes_match_the_lattice_route(text):
    _assert_thom_routes_agree(text)


@given(doc=small_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_thom_classes_match_the_lattice_route_on_random_graphs(doc):
    _assert_thom_routes_agree(json.dumps(doc))


@given(doc=coloured_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_thom_classes_match_the_lattice_route_on_coloured_graphs(doc):
    _assert_thom_routes_agree(json.dumps(doc))


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lift_matches_transposed_sum(name):
    """Every quotient a verdict forms lifts coordinates as the sum over the
    transposed lattice does: the unit vectors, one mixed vector and, on the
    Smith path, the adapted basis rows.  Its reduced lifts complete the
    raised rows to a basis of L when every divisor is 1, and are the lifts
    of rows rank.. of T^-1 on the Smith path."""
    g = corpus_graph(name)
    coh.poincare_duality(g)
    coh.z_freeness(g)
    quotients = {key[1]: q for key, q in g.memo.items() if key[0] == "quotient"}
    assert quotients
    for d, q in quotients.items():
        k = len(q.lattice)
        mixed = [(-1) ** i * (i + 2) for i in range(k)]
        for coords in (q.inverse or []) + linalg.eye(k) + [mixed]:
            assert coh._combination(q.lattice, coords) == oracles.transposed_lift(
                q.lattice, coords)
        assert len(q.reduced_lifts) == len(q.lattice) - len(q.divisors), d
        if q.inverse is not None:
            assert q.reduced_lifts == [oracles.transposed_lift(q.lattice, row)
                                       for row in q.inverse[len(q.divisors):]], d
        if all(di == 1 for di in q.divisors):
            raised = [] if d == 0 else coh._raised(
                g, coh.ht_basis_z(g, d - 1), d - 1)
            assert oracles.lattice_equal(raised + q.reduced_lifts, q.lattice), d


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_h4_spanned_by_edge_thoms_and_scalars(name):
    g = corpus_graph(name)
    ones = [1] * len(g.vertices)
    spanning = []
    for eid in range(len(g.edges)):
        spanning.append(coh.thom_class_edge(g, eid))
    for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        vec = []
        for _ in g.vertices:
            vec.extend(mono)
        spanning.append(vec)
    dim = len(coh.ht_basis_q(g, 2))
    assert oracles.q_rank_rows(spanning) == dim


@pytest.mark.parametrize("name", CORPUS_NAMES + [
    "cp3", "prism4", "free_no_flow_up", "blowup_last10"])
def test_vertex_thoms_in_h6_quotient(name):
    """Vertex Thom classes agree up to sign in H^6; zero iff nonorientable.
    This is why the certificate may close its basis with one of them.
    fuzz_k4 is left out: its Thom classes agree only modulo torsion of the
    oracle's quotient, so their images differ."""
    g = named_graph(name)
    b6, _, proj = oracles.projector(g, 3)
    assert b6 == len(coh._quotient(g, 3).reduced_lifts)
    images = [proj(coh.thom_class_vertex(g, v)) for v in g.vertices]
    pd = coh.poincare_duality(g)
    if pd.ok:
        nonzero = [img for img in images if any(c != 0 for c in img)]
        assert len(nonzero) == len(images)
        ref = images[0]
        for img in images[1:]:
            assert img == ref or img == [-c for c in ref]
    if name == "nonorientable":
        assert all(all(c == 0 for c in img) for img in images)


def test_poincare_duality_corpus():
    for name, ok in (("cube", True), ("flag", True), ("theta", True),
                     ("nonorientable", False)):
        g = corpus_graph(name)
        pd = coh.poincare_duality(g)
        assert pd.ok is ok
        if ok:
            assert pd.pairing_rank == pd.betti[1]
        else:
            assert any("b_2" in r for r in pd.reasons)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_z_freeness_corpus(name):
    g = corpus_graph(name)
    res = coh.z_freeness(g)
    if name == "nonorientable":
        # The quotient by the product ideal has 2-torsion in degree 6
        # (oracle-verified below for the K4 fixture; the same check for this
        # witness is in test_z_freeness_nonorientable_witness).
        assert res.status == "not-free"
        assert (res.witness["degree"], res.witness["order"]) == (6, 2)
        assert res.checked_degrees == range(0, 7, 2)
    else:
        assert res.status == "certified"
        assert res.checked_degrees == range(0, 21, 2)


def test_z_freeness_nonorientable_witness(nonorientable):
    g = nonorientable
    res = coh.z_freeness(g)
    wit = res.witness
    d = wit["degree"] // 2
    assert linalg.hnf_solve(coh.ht_basis_z(g, d), wit["class"]) is not None
    assert oracles.class_satisfies(g, wit["class"], d, over_z=True)
    gens = coh._raised(g, coh.ht_basis_z(g, d - 1), d - 1)
    rows = [[int(c) for c in r] for r in gens]
    n = len(wit["class"])
    assert not oracles.in_lattice(rows, wit["class"], n)
    assert oracles.in_lattice(
        rows, [wit["order"] * c for c in wit["class"]], n
    )


def test_z_freeness_torsion_witness():
    g = parse_graph(json.dumps(TORSION_K4))
    assert validate(g).ok
    res = coh.z_freeness(g, 8)
    assert res.status == "not-free"
    wit = res.witness
    assert wit["degree"] == 6 and wit["order"] == 9
    d = wit["degree"] // 2
    L = coh.ht_basis_z(g, d)
    # The witness is an integral class ...
    assert linalg.hnf_solve(L, wit["class"]) is not None
    # ... not in the product ideal, while order * witness is.
    gens = coh._raised(g, coh.ht_basis_z(g, d - 1), d - 1)
    gen_rows = [[int(c) for c in r] for r in gens]
    n = len(L[0])
    assert not oracles.in_lattice(gen_rows, wit["class"], n)
    assert oracles.in_lattice(
        gen_rows, [wit["order"] * c for c in wit["class"]], n
    )


# (graph, degree) cases below whose raised rows leave a row with no unit
# entry, so that the quotient takes the Smith form.
SMITH = {("nonorientable", 3), ("torsion_k4", 3)}


@pytest.mark.parametrize("name", ALL_CORPUS + ["torsion_k4"])
def test_quotient_carries_the_inverse_transform(name):
    # The Smith elimination carries T^-1, and nothing of T.  The oracle
    # Smith form that scans for every pivot, of the raised rows'
    # coordinates solved for here, gives the same T^-1; T, sympy's inverse
    # of it, is unimodular, and C T spans the lattice of D's rows.
    # Quotients reduced with unit pivots keep no transform.
    doc = TORSION_K4 if name == "torsion_k4" else corpus_json(name)
    g = parse_graph(json.dumps(doc))
    assert {"transform", "column"} & set(coh._Quotient._fields) == set()
    for d in range(4):
        q = coh._quotient(g, d)
        assert (q.inverse is not None) == ((name, d) in SMITH), d
        if q.inverse is not None:
            L = coh.ht_basis_z(g, d)
            C = [oracles.dense_hnf_solve(L, r)
                 for r in coh._raised(g, coh.ht_basis_z(g, d - 1), d - 1)]
            D, Tinv = oracles.min_scan_snf(C, len(L))
            assert q.inverse == Tinv, d
            T = oracles.inverse(Tinv)
            assert abs(sympy.Matrix(T).det()) == 1, d
            CT = [[sum(c * t for c, t in zip(row, col)) for col in zip(*T)] for row in C]
            assert oracles.lattice_equal(CT, D), d
        else:
            assert set(q.divisors) <= {1}, d


@pytest.mark.parametrize("text", _test_graphs())
def test_unit_pivot_quotients_take_no_smith_form(text, request, monkeypatch):
    """The certificate, duality and torsion scan reduce every quotient with
    unit pivots, except one degree-6 quotient each of the three graphs whose
    raised rows leave no unit: nonorientable and torsion_k4 (torsion) and
    fuzz_k4 (free)."""
    calls = []
    snf = linalg.snf_transform
    monkeypatch.setattr(linalg, "snf_transform",
                        lambda A: calls.append(len(A)) or snf(A))
    g = parse_graph(text)
    coh._free_betti(g)
    coh.poincare_duality(g)
    coh.z_freeness(g)
    smith = [key[1] for key, q in g.memo.items()
             if key[0] == "quotient" and q.inverse is not None]
    name = request.node.callspec.id
    if name in ("nonorientable", "torsion_k4", "fuzz_k4"):
        assert smith == [3] and len(calls) == 1
    else:
        assert smith == [] and calls == []


DUAL = ["cp3", "cube", "flag", "prism4", "prism6", "theta"]  # b_6 = 1


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", DUAL + ["hexprism24", "fuzz_k4"])
def test_pairing_is_s_times_the_projected_pairing(name):
    """With V z = s e_top, the basis-read pairing of the reduced lifts is
    s / i times the pairing of the same lifts' products, formed, solved and
    projected into the oracle's degree-6 quotient, i the projection of the
    basis's top class (tau_p, or the degree-6 quotient's lift on fuzz_k4);
    z reads each vertex Thom class, which is not a product, as the same
    multiple of its projection."""
    g = named_graph(name)
    assert coh.betti_numbers(g).betti[3] == 1
    basis = coh._closed_basis(g)  # all of these are certified
    assert coh._free_betti(g) is not None
    # The pairing reads the certificate's basis and forms nothing more.
    formed = set(g.memo)
    pairing = coh._pairing(g)
    assert set(g.memo) == formed
    top = (coh._quotient(g, 3).reduced_lifts[0] if ("quotient", 3) in g.memo
           else coh.thom_class_vertex(g, g.vertices[0]))
    assert (("quotient", 3) in g.memo) == (name == "fuzz_k4")
    s = sum(v * z for v, z in zip(basis.values[-1], basis.z))
    assert s != 0
    reps2 = coh._quotient(g, 1).reduced_lifts
    reps4 = coh._quotient(g, 2).reduced_lifts
    _, _, project = oracles.projector(g, 3)
    k = Fraction(s, project(top)[0])
    expected = oracles.projected_pairing(g, reps2, reps4, project)
    assert len(pairing) == len(expected) == coh.betti_numbers(g).betti[1]
    assert all(len(row) == len(reps4) for row in pairing)
    assert [[x * k for x in row] for row in expected] == pairing
    assert linalg.q_rank(pairing) == sympy.Matrix(expected).rank() == len(reps2)
    t = coh._point(g)
    for v in g.vertices:
        thom = coh.thom_class_vertex(g, v)
        read = sum(z * coh.poly_eval(p, 1, t)
                   for z, p in zip(basis.z, oracles.blocks(g, thom, 3).values()))
        assert read == k * project(thom)[0], v


def _pairing_rank_agrees_with_the_oracle(doc):
    g = parse_graph(json.dumps(doc))
    betti = coh.betti_numbers(g).betti
    if not (betti[:1] == betti[3:4] == (1,) and betti[1] == betti[2]
            and not any(betti[4:])):
        return
    _, reps2, _ = oracles.projector(g, 1)
    _, reps4, _ = oracles.projector(g, 2)
    _, _, project = oracles.projector(g, 3)
    rank = sympy.Matrix(oracles.projected_pairing(g, reps2, reps4, project)).rank()
    assert linalg.q_rank(coh._pairing(g)) == rank
    with pytest.MonkeyPatch.context() as patch:  # closed by the top quotient
        patch.setattr(coh, "_vertex_thom", _zero(coh._vertex_thom))
        assert linalg.q_rank(coh._pairing(parse_graph(json.dumps(doc)))) == rank


@given(doc=small_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_pairing_rank_equals_the_oracles(doc):
    _pairing_rank_agrees_with_the_oracle(doc)


@given(doc=coloured_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_pairing_rank_equals_the_oracles_on_coloured_graphs(doc):
    _pairing_rank_agrees_with_the_oracle(doc)


@pytest.mark.parametrize("name", ALL_CORPUS + ["hexprism24"])
def test_poincare_duality_solves_nothing_after_betti(name, monkeypatch):
    """Once the Betti numbers are known, the duality check locates no class
    in a lattice: no solver is built or called."""
    g = named_graph(name)
    coh.betti_numbers(g)
    solves = []

    def counted(solve):
        def spy(v):
            solves.append(len(v))
            return solve(v)
        return spy

    hnf_solver = linalg.hnf_solver
    monkeypatch.setattr(linalg, "hnf_solver",
                        lambda H: solves.append("built") or counted(hnf_solver(H)))
    monkeypatch.setattr(linalg, "hnf_solve",
                        lambda H, v: counted(hnf_solver(H))(v))
    pd = coh.poincare_duality(g)
    assert solves == []
    assert pd.ok is (name != "nonorientable")


def test_class_product_blockwise(theta):
    u = [1, 0, 1, 0]  # x at both vertices (degree 2)
    v = [0, 1, 0, 1]  # y at both vertices
    prod = oracles.class_product(theta, u, 1, v, 1)
    assert prod == [0, 1, 0, 0, 1, 0]  # xy at both vertices


# ---------------------------------------------------------------------------
# Free basis certificate
# ---------------------------------------------------------------------------

CERTIFIED = ["cube", "flag", "theta", "cp3", "prism4", "prism6", "free_no_flow_up"]


def _assert_certificate_agrees_with_scan(g, cap):
    """A certificate must mean no torsion up to the cap, its Betti numbers
    and lattice ranks sum b_k (d - k + 1), all read from quotients formed
    on a fresh copy of the graph."""
    free = coh._free_betti(g)
    assert free is not None and sum(free) == len(g.vertices)
    betti = list(free) + [0] * (cap // 2 + 1 - len(free))
    fresh = parse_graph(serialize_graph(g))
    for d in range(cap // 2 + 1):
        q = coh._quotient(fresh, d)
        assert all(di == 1 for di in q.divisors), (d, q.divisors)
        assert len(q.reduced_lifts) == betti[d], d
        assert len(q.lattice) == sum(
            b * (d - k + 1) for k, b in enumerate(betti[: d + 1])
        ), d


def _certificate_implies_free(doc):
    # To the default cap 20: with one evaluation per edge, even the
    # degree-20 lattices take milliseconds on these graphs.  No quotient's
    # torsion is looked at first, so the determinant alone must reject it.
    g = parse_graph(json.dumps(doc))
    if coh._free_betti(g) is not None:
        _assert_certificate_agrees_with_scan(g, coh.DEFAULT_DEGREE_CAP)


@given(doc=small_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_certificate_implies_free_with_its_betti(doc):
    _certificate_implies_free(doc)


@given(doc=coloured_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_certificate_implies_free_with_its_betti_on_coloured_graphs(doc):
    _certificate_implies_free(doc)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certificate_agrees_with_cap_20_scan(name):
    _assert_certificate_agrees_with_scan(named_graph(name), 20)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certificate_determinant_matches_sympy(name):
    # The certificate's basis is the reduced lifts below degree 6 and the
    # Thom class of the first vertex, and sympy's symbolic determinant of
    # their values is +-N prod alpha'_e, N counted over (Z/lcm c_e)^V.
    g = named_graph(name)
    free = coh._free_betti(g)
    assert free is not None and len(free) == 4
    gens = [(d, f) for d in range(3) for f in coh._quotient(g, d).reduced_lifts]
    gens.append((3, coh.thom_class_vertex(g, g.vertices[0])))
    assert [d for d, _ in gens] == [d for d, b in enumerate(free) for _ in range(b)]
    basis = coh._closed_basis(g)
    t = coh._point(g)
    assert basis.degrees == tuple(d for d, _ in gens)
    assert basis.values == [
        [coh.poly_eval(p, 1, t) for p in oracles.blocks(g, f, d).values()]
        for d, f in gens]
    det = oracles.value_determinant(g, gens)
    expected = oracles.content_index(g) * oracles.primitive_label_product(g)
    assert det in (expected, -expected)
    assert basis.det == basis.target == abs(
        expected.subs({oracles.x: 1, oracles.y: t}))


def test_content_index_of_the_fixtures():
    assert oracles.content_index(corpus_graph("cp3")) == 2
    assert oracles.content_index(parse_graph(json.dumps(FREE_NO_FLOW_UP))) == 8


def test_no_certificate_for_graphs_with_torsion(nonorientable):
    for g in (nonorientable, parse_graph(json.dumps(TORSION_K4))):
        assert coh._free_betti(g) is None
        assert coh.z_freeness(g).status == "not-free"


def test_certified_freeness_checks_every_degree(cube):
    res = coh.z_freeness(cube, 14)
    assert res.status == "certified" and res.witness is None
    assert res.checked_degrees == range(0, 15, 2)


@pytest.mark.parametrize("name", ["cube", "cp3", "free_no_flow_up"])
def test_scan_without_certificate_gives_same_answers(name, monkeypatch):
    certified = named_graph(name)
    expected = (coh.betti_numbers(certified, 12), coh.z_freeness(certified, 12),
                coh.cohomology_table(certified, 12))
    monkeypatch.setattr(coh, "_free_betti", lambda g: None)
    scanned = named_graph(name)
    assert (coh.betti_numbers(scanned, 12), coh.z_freeness(scanned, 12),
            coh.cohomology_table(scanned, 12)) == expected
    assert ("quotient", 6) in scanned.memo and ("quotient", 6) not in certified.memo


def _doubled(thom):
    return lambda g: [2 * c for c in thom(g)]


def _zero(thom):
    return lambda g: [0] * len(thom(g))


@pytest.mark.usefixtures("closed_basis_route")
@pytest.mark.parametrize("name", CERTIFIED + ["fuzz_k4"])
@pytest.mark.parametrize("forced", [_doubled, _zero], ids=["2tau", "zero"])
@pytest.mark.parametrize("scanned", [False, True], ids=["certified", "scanned"])
def test_forced_fallbacks_give_identical_reports(name, forced, scanned, monkeypatch):
    """With tau_p replaced by 2 tau_p, which fails the determinant test, or
    by 0, which leaves V singular, the closed basis forms the degree-6
    quotient and closes with that quotient's lift, whether or not the
    certificate is read from it: every report is unchanged."""
    if scanned:
        monkeypatch.setattr(coh, "_free_betti", lambda g: None)
    expected = realizability_report(named_graph(name))
    monkeypatch.setattr(coh, "_vertex_thom", forced(coh._vertex_thom))
    g = named_graph(name)
    assert realizability_report(g) == expected
    assert ("quotient", 3) in g.memo
    assert coh._closed_basis(g).degrees[-1] == 3


@pytest.mark.parametrize("doc, betti", [
    ({"vertices": [], "edges": []}, (0, 0)),
    ({"vertices": ["a"], "edges": []}, (1, 0, 0)),
    ({"vertices": ["a", "b"], "edges": []}, (2, 0, 0)),
])
def test_edgeless_graphs_are_certified(doc, betti):
    g = parse_graph(json.dumps(doc))
    assert coh._free_betti(g) is not None
    assert coh.betti_numbers(g).betti == betti
    assert coh.z_freeness(g).status == "certified"


@pytest.mark.parametrize("edges, status", [
    # A loop at v0.
    ([(0, 0, [1, 0]), (0, 1, [0, 1]), (1, 1, [1, 1])], "certified"),
    # Dependent labels at v0 and v1.
    ([(0, 1, [1, 0]), (0, 1, [2, 0])], "certified"),
    # Not free, with a loop at v0: without the loop check and the degree
    # count, the determinant would certify it.
    ([(2, 0, [-2, -2]), (0, 0, [3, -3]), (1, 0, [2, -1]), (2, 1, [-1, 2]),
      (1, 2, [1, 2])], "not-free"),
    # Not free, with dependent labels at v0 and v1: without the
    # independence check and the degree count, likewise.
    ([(1, 0, [-3, 3]), (2, 1, [-1, 1]), (2, 0, [2, -2]), (2, 1, [1, 0]),
      (1, 0, [-2, 1])], "not-free"),
])
def test_no_certificate_for_loops_or_dependent_labels(edges, status):
    ends = {i for u, v, _ in edges for i in (u, v)}
    g = parse_graph(json.dumps({
        "vertices": [f"v{i}" for i in range(max(ends) + 1)],
        "edges": [{"from": f"v{u}", "to": f"v{v}", "weight": w} for u, v, w in edges],
    }))
    assert coh._free_betti(g) is None
    assert coh.z_freeness(g).status == status
