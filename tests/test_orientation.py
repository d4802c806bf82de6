import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm3.connection import (
    Connection,
    _compatible_bijections,
    available_connections,
    enumerate_connections,
)
from gkm3.graph import Weight, parse_graph
from gkm3.orientation import (
    eta,
    eta_all_connections,
    eta_assignment,
    is_orientable,
    potential_from_eta,
)

import oracles
from conftest import CORPUS_NAMES, corpus_graph, corpus_json, small_graph_docs


def test_eta_cube_all_minus_one(cube):
    conn = enumerate_connections(cube)[0]
    assert eta_assignment(cube, conn) == {
        eid: -1 for eid in range(len(cube.edges))
    }


def test_cube_is_orientable_with_bipartite_potential(cube):
    conn = enumerate_connections(cube)[0]
    res = is_orientable(cube, conn)
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
    conns, _ = available_connections(nonorientable)
    res = is_orientable(nonorientable, conns[0])
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
    # eta() internally cross-checks both directions and the determinant
    # formula; just exercise it on every edge of a few connections.
    for conn in conns[:4]:
        for eid in range(len(g.edges)):
            assert eta(g, conn, eid) in (1, -1)


def test_orientability_invariant_under_relifting(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    conn = conns[0]
    base = is_orientable(g, conn)
    rng = random.Random(7)
    for _ in range(3):
        weights = [
            e.weight.negated() if rng.random() < 0.5 else e.weight
            for e in g.edges
        ]
        g2 = g.with_weights(weights)
        res = is_orientable(g2, conn)
        assert res.orientable == base.orientable
        # Individual eta signs are lift-dependent, but products around
        # closed paths are not; compare over the face cycles.
        from gkm3.connection import connection_paths

        for path in connection_paths(g2, conn):
            p1 = p2 = 1
            for s in path.steps:
                p1 *= base.eta[s.edge_id]
                p2 *= res.eta[s.edge_id]
            assert p1 == p2


def _check_eta_lemma(g):
    """eta of every edge under every compatible option is the label-only
    value, whatever the options at the other edges."""
    options = [_compatible_bijections(g, eid) for eid in range(len(g.edges))]
    first = {eid: opts[0] for eid, opts in enumerate(options) if opts}
    for eid, opts in enumerate(options):
        for m in opts:
            conn = Connection.from_forward_maps(g, {**first, eid: m})
            assert eta(g, conn, eid) == oracles.label_eta(g, eid)
    if all(options):
        assert eta_all_connections(g, options) == {
            eid: oracles.label_eta(g, eid) for eid in range(len(g.edges))
        }


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_eta_is_label_only(name):
    _check_eta_lemma(corpus_graph(name))


@given(small_graph_docs())
@settings(max_examples=60, deadline=None)
def test_eta_is_label_only_random(doc):
    _check_eta_lemma(parse_graph(json.dumps(doc)))
