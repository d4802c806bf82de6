import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm3.connection import (
    Connection,
    ConnectionInconsistency,
    _compatible_bijections,
    available_connections,
    connection_paths,
    transition,
)
from gkm3.graph import DirectedEdge, parse_graph, validate
from gkm3.orientation import eta, eta_assignment, is_orientable, potential_from_eta

import oracles
from conftest import (
    CORPUS_NAMES,
    coloured_graph_docs,
    corpus_graph,
    corpus_json,
    small_graph_docs,
)


def test_eta_cube_all_minus_one(cube):
    assert eta_assignment(cube) == {
        eid: -1 for eid in range(len(cube.edges))
    }


def test_cube_is_orientable_with_bipartite_potential(cube):
    res = is_orientable(cube)
    assert res.orientable
    tau = res.potential
    assert set(tau.values()) <= {1, -1}
    for eid, e in enumerate(cube.edges):
        assert tau[e.u] * tau[e.v] == res.eta[eid]
    # eta == -1 everywhere, so the potential alternates with bit parity.
    for v in cube.vertices:
        parity = (-1) ** v.count("1")
        assert tau[v] == tau["000"] * parity


def test_nonorientable_witness_is_odd_eta_cycle(nonorientable):
    res = is_orientable(nonorientable)
    assert not res.orientable
    assert res.potential is None
    cycle = res.violating_cycle
    assert cycle is not None and len(cycle) % 2 == 1
    prod = 1
    for eid in cycle:
        prod *= res.eta[eid]
    assert prod == -1
    # The witness is a closed walk in the graph.
    endpoints = [set((nonorientable.edges[eid].u, nonorientable.edges[eid].v))
                 for eid in cycle]
    for a, b in zip(endpoints, endpoints[1:] + endpoints[:1]):
        assert a & b


def test_potential_from_eta_trivial_assignment(cube):
    tau, cycle = potential_from_eta(cube, {e: 1 for e in range(len(cube.edges))})
    assert cycle is None
    assert set(tau.values()) == {1}


def _is_closed_walk(g, cycle):
    """Whether the edge ids, in order, can be walked from one vertex back
    to it."""
    e0 = g.edges[cycle[0]]
    for start in {e0.u, e0.v}:
        at = start
        for eid in cycle:
            e = g.edges[eid]
            if at not in (e.u, e.v):
                break
            at = e.v if at == e.u else e.u
        else:
            if at == start:
                return True
    return False


@given(small_graph_docs(), st.data())
@settings(max_examples=100, deadline=None)
def test_potential_from_eta_against_brute_force(doc, data):
    g = parse_graph(json.dumps(doc))
    eta_map = {eid: data.draw(st.sampled_from((1, -1)), label=f"eta{eid}")
               for eid in range(len(g.edges))}
    signed = [(e.u, e.v, eta_map[eid]) for eid, e in enumerate(g.edges)]
    tau, cycle = potential_from_eta(g, eta_map)
    if cycle is None:
        assert set(tau) == set(g.vertices)
        assert all(tau[a] * tau[b] == s for a, b, s in signed)
    else:
        assert tau is None
        assert _is_closed_walk(g, cycle)
        assert math.prod(eta_map[eid] for eid in cycle) == -1
        assert not oracles.has_sign_labelling(g.vertices, signed)


def test_potential_from_eta_on_two_components():
    # Two copies of theta side by side: the potential covers both.
    theta = corpus_json("theta")
    doc = {"vertices": [], "edges": []}
    for side in "LR":
        doc["vertices"] += [side + v for v in theta["vertices"]]
        doc["edges"] += [dict(e, **{"from": side + e["from"], "to": side + e["to"]})
                         for e in theta["edges"]]
    g = parse_graph(json.dumps(doc))
    eta_map = {eid: int(oracles.label_eta(g, eid)) for eid in range(len(g.edges))}
    tau, cycle = potential_from_eta(g, eta_map)
    assert cycle is None
    assert set(tau) == set(g.vertices) and len(tau) == 4
    for eid, e in enumerate(g.edges):
        assert tau[e.u] * tau[e.v] == eta_map[eid]


def test_eta_well_defined_per_edge(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    # The oracle cross-checks both directions and the determinant formula.
    for conn in conns[:4]:
        for eid in range(len(g.edges)):
            assert eta(g, eid) == oracles.transition_eta(g, conn, eid) in (1, -1)


def test_eta_without_compatible_transport_raises():
    # K4 whose edge ab: (1, 0) sees determinants -1, -1 at a and 1, -2 at
    # b: no bijection transports the labels with signs ±1.
    g = parse_graph(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"from": "a", "to": "b", "weight": [1, 0]},
            {"from": "a", "to": "c", "weight": [0, 1]},
            {"from": "a", "to": "d", "weight": [1, 1]},
            {"from": "b", "to": "c", "weight": [1, -1]},
            {"from": "b", "to": "d", "weight": [1, 2]},
            {"from": "c", "to": "d", "weight": [1, 0]},
        ],
    }))
    assert validate(g).ok and _compatible_bijections(g, 0) == []
    assert oracles.label_eta(g, 0) == 2
    with pytest.raises(ConnectionInconsistency, match="edge 0"):
        eta(g, 0)
    with pytest.raises(ConnectionInconsistency):
        is_orientable(g)


def test_orientability_invariant_under_relifting(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    conn = conns[0]
    base = is_orientable(g)
    rng = random.Random(7)
    for _ in range(3):
        weights = [
            e.weight.negated() if rng.random() < 0.5 else e.weight
            for e in g.edges
        ]
        g2 = g.with_weights(weights)
        res = is_orientable(g2)
        assert res.orientable == base.orientable
        # Individual eta signs are lift-dependent, but products around
        # closed paths are not; compare over the face cycles.
        for path in connection_paths(g2, conn):
            p1 = p2 = 1
            for s in path.steps:
                p1 *= base.eta[s.edge_id]
                p2 *= res.eta[s.edge_id]
            assert p1 == p2


def _check_eta_lemma(g):
    """eta of an edge with a compatible option is the label-only value and
    -sign(sigma) * det(phi) of every option's transition data, both ways;
    an edge whose label determinants differ in size raises."""
    for eid in range(len(g.edges)):
        options = _compatible_bijections(g, eid)
        if not options and abs(oracles.label_eta(g, eid)) != 1:
            with pytest.raises(ConnectionInconsistency):
                eta(g, eid)
            continue
        value = eta(g, eid)
        assert value == oracles.label_eta(g, eid)
        for m in options:
            conn = Connection.from_forward_maps({eid: m})
            for forward in (True, False):
                data = transition(g, conn, DirectedEdge(eid, forward))
                assert value == -data.sign_sigma * data.det_phi


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_eta_is_label_only(name):
    _check_eta_lemma(corpus_graph(name))


@given(small_graph_docs())
@settings(max_examples=60, deadline=None)
def test_eta_is_label_only_random(doc):
    _check_eta_lemma(parse_graph(json.dumps(doc)))


@given(coloured_graph_docs())
@settings(max_examples=60, deadline=None)
def test_eta_matches_transition_data_random(doc):
    """On graphs with connections, eta agrees with the transition data of
    every option at every edge."""
    g = parse_graph(json.dumps(doc))
    assert validate(g).ok
    options = [_compatible_bijections(g, eid) for eid in range(len(g.edges))]
    assert all(options)
    for eid, opts in enumerate(options):
        for m in opts:
            conn = Connection.from_forward_maps({eid: m})
            assert eta(g, eid) == oracles.transition_eta(g, conn, eid)
