import json
import random

import pytest

from gkm3 import cohomology as coh
from gkm3 import thom
from gkm3.connection import (
    available_connections,
    connection_paths,
    loop_holonomy,
    transition,
)
from gkm3.graph import DirectedEdge, parse_graph, serialize_graph, validate
from gkm3.orientation import eta, is_orientable, potential_from_eta
from gkm3.surface import classify_surface
from gkm3.verdict import realizability_report

import oracles
from conftest import CORPUS_NAMES, corpus_graph


def all_connections(g):
    return available_connections(g)[0]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_eta_equals_sign_formula_everywhere(name):
    """(a) eta(e) = -sign(sigma) * det(phi) for every directed edge."""
    g = corpus_graph(name)
    for conn in all_connections(g):
        for eid in range(len(g.edges)):
            for forward in (True, False):
                data = transition(g, conn, DirectedEdge(eid, forward))
                assert eta(g, eid) == -data.sign_sigma * data.det_phi


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_transition_determinant_and_transport(name):
    """(b) det phi = +/-1 and the weight-transport identity.

    Both are asserted inside transition(); this exercises every directed
    edge of every compatible connection.
    """
    g = corpus_graph(name)
    for conn in all_connections(g):
        for eid in range(len(g.edges)):
            for forward in (True, False):
                data = transition(g, conn, DirectedEdge(eid, forward))
                assert data.det_phi in (1, -1)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_loop_holonomy_identity_when_orientable(name):
    """(c) holonomy around every connection path is Id for orientable pairs."""
    g = corpus_graph(name)
    if not is_orientable(g).orientable:
        return
    for conn in all_connections(g):
        for path in connection_paths(g, conn):
            h = loop_holonomy(g, conn, path)
            assert all(
                h[i][j] == (1 if i == j else 0)
                for i in range(3)
                for j in range(3)
            )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_path_lengths_sum(name):
    """(d) total connection path length is 2|E|."""
    g = corpus_graph(name)
    for conn in all_connections(g):
        paths = connection_paths(g, conn)
        assert sum(len(p) for p in paths) == 2 * len(g.edges)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_edge_thom_classes_connection_independent(name):
    """(e) edge Thom classes do not depend on the connection: the class
    read from eta is the one that every connection's transport signs give."""
    g = corpus_graph(name)
    conns = all_connections(g)
    for eid in range(len(g.edges)):
        th = coh.thom_class_edge(g, eid)
        for c in conns:
            assert oracles.edge_thom_class(g, c, eid) == th, eid


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_edge_thom_boundary_relation(name):
    """(f) alpha(e) * Th_e = Th_v +/- Th_w."""
    g = corpus_graph(name)
    for eid, e in enumerate(g.edges):
        th = coh.thom_class_edge(g, eid)
        lhs = []
        k = 3
        for i in range(len(g.vertices)):
            block = th[i * k : (i + 1) * k]
            lhs.extend(thom.poly_mul(block, e.weight.vector))
        thu = coh.thom_class_vertex(g, e.u)
        thv = coh.thom_class_vertex(g, e.v)
        assert any(
            lhs == [a + s * b for a, b in zip(thu, thv)] for s in (1, -1)
        )


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_h4_spanning(name):
    """(g) H^4_T is spanned over Q by edge Thom classes plus R^4 * 1."""
    import oracles

    g = corpus_graph(name)
    spanning = [coh.thom_class_edge(g, eid) for eid in range(len(g.edges))]
    for mono in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        spanning.append([c for _ in g.vertices for c in mono])
    assert oracles.q_rank_rows(spanning) == len(coh.ht_basis_q(g, 2))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_free_module_prediction(name):
    """(h) dim_Q H^{2d}_T = sum_j b_{2j} * dim R_{d-j}, total rank |V|."""
    g = corpus_graph(name)
    res = coh.betti_numbers(g)
    assert res.total == len(g.vertices)
    for d in range(6):
        predicted = sum(
            b * (d - j + 1) for j, b in enumerate(res.betti) if j <= d
        )
        assert len(coh.ht_basis_q(g, d)) == predicted


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_pd_implies_orientable(name):
    """(i) Poincare duality passing forces orientability of every connection,
    whose eta is read from its transition data."""
    g = corpus_graph(name)
    if not coh.poincare_duality(g).ok:
        return
    assert is_orientable(g).orientable
    for conn in all_connections(g):
        etas = {eid: oracles.transition_eta(g, conn, eid)
                for eid in range(len(g.edges))}
        assert potential_from_eta(g, etas)[1] is None


# ---------------------------------------------------------------------------
# Lift / input-order invariance
# ---------------------------------------------------------------------------

def _with_primary_block(doc, g):
    conn = available_connections(g)[0][0]
    doc["connection"] = {
        str(eid): {
            "forward": {
                str(a): b for a, b in sorted(conn.maps[(eid, True)].items())
            }
        }
        for eid in range(len(g.edges))
    }
    return doc


def _permuted(doc, seed):
    rng = random.Random(seed)
    vperm = list(doc["vertices"])
    rng.shuffle(vperm)
    order = list(range(len(doc["edges"])))
    rng.shuffle(order)  # order[new] = old
    new_of_old = {old: new for new, old in enumerate(order)}
    out = {
        "vertices": vperm,
        "edges": [doc["edges"][old] for old in order],
    }
    if "name" in doc:
        out["name"] = doc["name"]
    if "connection" in doc:
        out["connection"] = {
            str(new_of_old[int(old)]): {
                "forward": {
                    str(new_of_old[int(a)]): new_of_old[b]
                    for a, b in entry["forward"].items()
                }
            }
            for old, entry in doc["connection"].items()
        }
    return out


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_verdict_invariant_under_lift_negation(name):
    g = corpus_graph(name)
    doc = json.loads(serialize_graph(g))
    rng = random.Random(11)
    for e in doc["edges"]:
        if rng.random() < 0.5:
            e["weight"] = [-e["weight"][0], -e["weight"][1]]
    g2 = parse_graph(json.dumps(doc))
    base = realizability_report(g)
    rep = realizability_report(g2)
    assert rep["tier"] == base["tier"]
    assert rep["betti"] == base["betti"]
    if base["surface"] is not None:
        assert (
            rep["surface"]["euler_characteristic"]
            == base["surface"]["euler_characteristic"]
        )


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_verdict_invariant_under_input_order(name, seed):
    g = corpus_graph(name)
    doc = _with_primary_block(json.loads(serialize_graph(g)), g)
    base = realizability_report(parse_graph(json.dumps(doc)))
    g2 = parse_graph(json.dumps(_permuted(doc, seed)))
    rep = realizability_report(g2)
    assert rep["tier"] == base["tier"]
    assert rep["betti"] == base["betti"]
    assert (
        rep["surface"]["euler_characteristic"]
        == base["surface"]["euler_characteristic"]
    )
    assert rep["surface"]["name"] == base["surface"]["name"]
    assert (
        rep["orientability"]["orientable"] == base["orientability"]["orientable"]
    )
    assert rep["z_freeness"]["status"] == base["z_freeness"]["status"]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_pipeline_invariant_under_noncanonical_lifts(name):
    """validate / betti / duality / freeness on raw (non-canonical) lifts."""
    g = corpus_graph(name)
    rng = random.Random(23)
    weights = [
        e.weight.negated() if rng.random() < 0.5 else e.weight
        for e in g.edges
    ]
    g2 = g.with_weights(weights)
    assert validate(g2).ok == validate(g).ok
    assert coh.betti_numbers(g2).betti == coh.betti_numbers(g).betti
    assert coh.poincare_duality(g2).ok == coh.poincare_duality(g).ok
    assert coh.z_freeness(g2, 10).status == coh.z_freeness(g, 10).status
    conns, _ = available_connections(g2)
    base_conns, _ = available_connections(g)
    assert len(conns) == len(base_conns)
    s1 = classify_surface(g, base_conns[0])
    s2 = classify_surface(g2, conns[0])
    assert s1.name == s2.name
