import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from gkm3 import cohomology as coh
from gkm3 import linalg
from gkm3.connection import available_connections
from gkm3.graph import parse_graph, validate

import oracles
from conftest import CORPUS_NAMES, corpus_graph, small_graph_docs

# A valid K4 labelling whose integral classes have 9-torsion modulo the
# product ideal in degree 6 (found by randomized search, then verified
# against the sympy oracles below).
TORSION_K4 = json.loads((Path(__file__).parent / "torsion_k4.json").read_text())


def test_poly_helpers():
    assert coh.poly_mul((1, 2), (3, 4)) == (3, 10, 8)
    assert coh.poly_mul((1,), (5, 6)) == (5, 6)
    assert coh.poly_eval((1, 0, -1), 2, 3) == 4 - 9
    assert coh.mult_x((7, 8)) == (7, 8, 0)
    assert coh.mult_y((7, 8)) == (0, 7, 8)


def test_dimensions_theta(theta):
    assert [len(coh.ht_basis_q(theta, d)) for d in range(4)] == [1, 2, 3, 5]
    assert [len(coh.ht_basis_z(theta, d)) for d in range(4)] == [1, 2, 3, 5]


def test_dimensions_cube(cube):
    assert len(coh.ht_basis_q(cube, 1)) == 5
    assert len(coh.ht_basis_q(cube, 2)) == 12


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
    g = parse_graph(json.dumps({
        "vertices": ["u", "w"],
        "edges": [{"from": "u", "to": "w", "weight": [2, 0]}],
    }))
    L = coh.ht_basis_z(g, 1)
    expected = [[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 0]]
    assert oracles.lattice_equal([list(r) for r in L], expected)
    # Over Q the divisibility by 2x is just divisibility by x: dimension 3,
    # but the integral lattice has index 2 in the integer points.
    assert len(coh.ht_basis_q(g, 1)) == 3
    assert oracles.class_satisfies(g, [1, 0, 1, 0], 1, over_z=True)
    assert not oracles.class_satisfies(g, [1, 0, 0, 0], 1, over_z=True)


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
    conn = available_connections(g)[0][0]
    for eid, e in enumerate(g.edges):
        th_e = coh.thom_class_edge(g, conn, eid)
        lhs = []
        for blk in oracles.blocks(g, th_e, 2).values():
            lhs.extend(coh.poly_mul(blk, e.weight.vector))
        thu = coh.thom_class_vertex(g, e.u)
        thv = coh.thom_class_vertex(g, e.v)
        assert any(
            lhs == [a + s * b for a, b in zip(thu, thv)] for s in (1, -1)
        )


def test_edge_thom_connection_independent(theta, nonorientable, flag):
    for g, limit in ((theta, None), (nonorientable, None), (flag, 16)):
        conns, _ = available_connections(g)
        conns = conns[:limit] if limit else conns
        for eid in range(len(g.edges)):
            classes = {
                tuple(coh.thom_class_edge(g, c, eid)) for c in conns
            }
            assert len(classes) == 1


def _reduced_projector(g, d):
    q = coh._quotient(g, d)
    return q.betti, q.project


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_h4_spanned_by_edge_thoms_and_scalars(name):
    g = corpus_graph(name)
    conn = available_connections(g)[0][0]
    ones = [1] * len(g.vertices)
    spanning = []
    for eid in range(len(g.edges)):
        spanning.append(coh.thom_class_edge(g, conn, eid))
    for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        vec = []
        for _ in g.vertices:
            vec.extend(mono)
        spanning.append(vec)
    dim = len(coh.ht_basis_q(g, 2))
    assert oracles.q_rank_rows(spanning) == dim


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_vertex_thoms_in_h6_quotient(name):
    """Vertex Thom classes agree up to sign in H^6; zero iff nonorientable."""
    g = corpus_graph(name)
    b6, proj = _reduced_projector(g, 3)
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
    else:
        assert res.status == "certified"
        assert res.checked_degrees == tuple(range(0, 21, 2))


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


def test_class_product_blockwise(theta):
    u = [1, 0, 1, 0]  # x at both vertices (degree 2)
    v = [0, 1, 0, 1]  # y at both vertices
    prod = coh.class_product(theta, u, 1, v, 1)
    assert prod == [0, 1, 0, 0, 1, 0]  # xy at both vertices


# ---------------------------------------------------------------------------
# Flow-up certificate
# ---------------------------------------------------------------------------

def _assert_certificate_agrees_with_scan(g, cap):
    """A flow-up order must mean no torsion up to the cap and one basis
    class per Betti number, both read from the plain quotients."""
    order = coh._flow_up_order(g)
    assert order is not None and sorted(order) == sorted(g.vertices)
    counts = coh._down_counts(g, order)
    for d in range(cap // 2 + 1):
        q = coh._quotient(g, d)
        assert all(di == 1 for di in q.divisors), (d, q.divisors)
        assert q.betti == counts.count(d), d
        assert len(q.lattice) == sum(d - k + 1 for k in counts if k <= d), d


@given(doc=small_graph_docs())
@settings(max_examples=40, deadline=None, database=None)
def test_certificate_implies_free_with_down_count_betti(doc):
    # Cap 10, not 20: the HNF of the larger class lattices swells on some
    # of these graphs, so a cap-20 scan can take minutes.
    g = parse_graph(json.dumps(doc))
    if coh._flow_up_order(g) is not None:
        _assert_certificate_agrees_with_scan(g, 10)


@pytest.mark.parametrize(
    "name", ["cube", "flag", "theta", "cp3", "prism4", "prism6"]
)
def test_certificate_agrees_with_cap_20_scan(name):
    _assert_certificate_agrees_with_scan(corpus_graph(name), 20)


@pytest.mark.parametrize(
    "name", ["cube", "flag", "theta", "cp3", "prism4", "prism6"]
)
def test_flow_up_steps_lie_in_restricted_lattice(name):
    # Each step of the order: 0 on the earlier vertices and D(v) at v is the
    # value there of some class, by sympy's Hermite form of the lattice
    # restricted to those coordinates (columns in flow-up order, not in
    # vertex order as the search takes them).
    g = corpus_graph(name)
    order = coh._flow_up_order(g)
    for i, v in enumerate(order):
        down = [eid for eid in g.incident[v]
                if coh._other_end(g, eid, v) in order[:i]]
        k = len(down) + 1
        cols = [g.vertex_index[w] * k + j for w in order[: i + 1] for j in range(k)]
        rows = [[row[c] for c in cols] for row in coh.ht_basis_z(g, k - 1)]
        target = [0] * (i * k) + list(coh._flow_up_value(g, down))
        assert oracles.in_lattice(rows, target, len(cols)), (name, v)


def test_no_certificate_for_graphs_with_torsion(nonorientable):
    for g in (nonorientable, parse_graph(json.dumps(TORSION_K4))):
        assert coh._flow_up_order(g) is None
        res = coh.z_freeness(g)
        assert res.status == "not-free" and res.order is None


def test_certified_freeness_checks_every_degree(cube):
    res = coh.z_freeness(cube, 14)
    assert res.status == "certified" and res.witness is None
    assert res.checked_degrees == tuple(range(0, 15, 2))
    assert res.order == coh._flow_up_order(cube)


def test_betti_raises_when_down_counts_disagree(cube, monkeypatch):
    real = coh._down_counts

    def shifted(g, order):
        counts = real(g, order)
        return counts[:-1] + [counts[-1] + 1]  # the top class one degree up

    monkeypatch.setattr(coh, "_down_counts", shifted)
    with pytest.raises(RuntimeError, match="flow-up basis"):
        coh.betti_numbers(cube)


def test_flow_up_search_respects_check_budget(cube, monkeypatch):
    monkeypatch.setattr(coh, "FLOW_UP_CHECKS", 3)
    assert coh._flow_up_order(cube) is None
    assert coh.z_freeness(cube, 10).order is None  # the scan decides
    assert coh.betti_numbers(cube, 10).betti == EXPECTED_BETTI["cube"]
