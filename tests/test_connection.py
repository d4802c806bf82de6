import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm3.connection import (
    Connection,
    ConnectionPath,
    available_connections,
    connection_from_block,
    connection_paths,
    enumerate_connections,
    loop_holonomy,
    transition,
    transport_coefficients,
)
from gkm3.graph import DirectedEdge, GraphSemanticError, Weight, parse_graph
from gkm3.verdict import Analysis

import oracles
from conftest import (
    CORPUS_NAMES,
    corpus_graph,
    corpus_json,
    prism_graph,
    small_graph_docs,
)


def W(a, b):
    return Weight(a, b)


def test_transport_coefficients_known_values():
    # Cube weights: transporting a parallel weight is eps=1, k=0; the cross
    # pairings have non-unit eps and are rejected.
    assert transport_coefficients(W(1, 2), W(1, 2), W(1, 0)) == (1, 0)
    assert transport_coefficients(W(1, 5), W(1, 5), W(1, 0)) == (1, 0)
    assert transport_coefficients(W(1, 2), W(1, 5), W(1, 0)) is None  # eps 5/2
    assert transport_coefficients(W(1, 0), W(1, 5), W(1, 2)) is None  # eps -3/2
    assert transport_coefficients(W(1, 0), W(1, 2), W(1, 5)) is None  # eps 3/5
    # Unit eps, with k integral only when det(w(f), w(e)) = ±2 divides it.
    assert transport_coefficients(W(1, 0), W(1, 1), W(0, 2)) is None  # k 1/2
    assert transport_coefficients(W(1, 0), W(1, 2), W(0, 2)) == (1, 1)
    assert transport_coefficients(W(1, 0), W(1, 2), W(0, -2)) == (1, -1)
    # Theta weights: both bijections along the (1,0) edge are compatible.
    assert transport_coefficients(W(0, 1), W(1, 1), W(1, 0)) == (1, 1)
    assert transport_coefficients(W(1, 1), W(0, 1), W(1, 0)) == (1, -1)


def test_transport_coefficients_sign_invariance():
    base = transport_coefficients(W(0, 1), W(1, 1), W(1, 0))
    for sf, sfp, se in [(-1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, -1, -1)]:
        eps, k = transport_coefficients(
            Weight(0 * sf, 1 * sf),
            Weight(1 * sfp, 1 * sfp),
            Weight(1 * se, 0 * se),
        )
        assert eps in (1, -1) and isinstance(k, int)
    assert base == (1, 1)


def test_transport_rejects_dependent_pair():
    with pytest.raises(ValueError):
        transport_coefficients(W(1, 0), W(0, 1), W(2, 0))


def test_cube_connection_is_unique(cube):
    assert len(enumerate_connections(cube)) == 1


def test_theta_has_eight_connections(theta):
    assert len(enumerate_connections(theta)) == 8


def test_available_connections_puts_explicit_first(nonorientable):
    conns, explicit = available_connections(nonorientable)
    assert explicit
    assert len(conns) == 64
    first = conns[0]
    # The embedded connection is the label-preserving one: eps=1, k=0 away
    # from the edge itself.
    for eid in range(len(nonorientable.edges)):
        data = transition(nonorientable, first, DirectedEdge(eid, True))
        m = nonorientable.incident[nonorientable.source(DirectedEdge(eid, True))].index(eid)
        for i in range(3):
            if i != m:
                assert (data.eps[i], data.k[i]) == (1, 0)


def test_connection_block_validation(nonorientable):
    doc = corpus_json("nonorientable")
    g = nonorientable

    bad = json.loads(json.dumps(doc["connection"]))
    bad["0"]["forward"]["3"] = 5  # not a bijection onto E_v
    with pytest.raises(GraphSemanticError, match="bijection"):
        connection_from_block(g, bad)

    bad = json.loads(json.dumps(doc["connection"]))
    del bad["5"]
    with pytest.raises(GraphSemanticError, match="forward map"):
        connection_from_block(g, bad)

    bad = json.loads(json.dumps(doc["connection"]))
    bad["99"] = bad["0"]
    with pytest.raises(GraphSemanticError, match="out of range"):
        connection_from_block(g, bad)

    good = json.loads(json.dumps(doc["connection"]))
    good["0"]["backward"] = {str(v): int(k) for k, v in good["0"]["forward"].items()}
    connection_from_block(g, good)  # inverse backward accepted
    good["0"]["backward"] = {"0": 0, "1": 4, "5": 3}
    with pytest.raises(GraphSemanticError, match="inverse"):
        connection_from_block(g, good)

    # Entries that are not objects and ids that are not integers are
    # semantic errors too, never AttributeError or ValueError.
    for entry, match in (
        (5, "must be an object"),
        ({"forward": [0, 1, 2]}, "must be an object"),
        ({"forward": {"x": 1}}, "not an integer"),
        ({"forward": {"0": 1.5}}, "not an integer"),
        ({"forward": {"0": None}}, "not an integer"),
        ({"forward": {"0": True}}, "not an integer"),
    ):
        bad = json.loads(json.dumps(doc["connection"]))
        bad["0"] = entry
        with pytest.raises(GraphSemanticError, match=match):
            connection_from_block(g, bad)
    bad = json.loads(json.dumps(doc["connection"]))
    bad["zero"] = bad.pop("0")
    with pytest.raises(GraphSemanticError, match="not an integer"):
        connection_from_block(g, bad)

    # An id named twice, in the block or in one map, is an error, not a
    # silent overwrite by the later entry.
    for key, alias in (("2", "02"), ("0", "-0")):
        bad = json.loads(json.dumps(doc["connection"]))
        bad[alias] = bad[key]
        with pytest.raises(GraphSemanticError, match="repeated"):
            connection_from_block(g, bad)
    for side in ("forward", "backward"):
        bad = json.loads(json.dumps(doc["connection"]))
        fmap = {str(k): int(v) for k, v in bad["0"]["forward"].items()}
        if side == "backward":
            fmap = {str(v): int(k) for k, v in fmap.items()}
        src = next(iter(fmap))
        fmap["0" + src] = fmap[src]
        bad["0"][side] = fmap
        with pytest.raises(GraphSemanticError, match="twice"):
            connection_from_block(g, bad)


def test_connection_block_incompatible_transport(cube):
    # Start from the unique compatible connection and swap two transport
    # targets on one edge: still a bijection, no longer compatible.
    conn = enumerate_connections(cube)[0]
    block = {}
    for eid in range(len(cube.edges)):
        fwd = dict(conn.maps[(eid, True)])
        block[str(eid)] = {"forward": {str(a): b for a, b in fwd.items()}}
    fwd0 = block["0"]["forward"]
    others = [k for k in fwd0 if k != "0"]
    fwd0[others[0]], fwd0[others[1]] = fwd0[others[1]], fwd0[others[0]]
    with pytest.raises(GraphSemanticError, match="incompatibly"):
        connection_from_block(cube, block)


def test_transition_data_contract(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    conn = conns[0]
    for eid in range(len(g.edges)):
        for forward in (True, False):
            data = transition(g, conn, DirectedEdge(eid, forward))
            assert data.det_phi in (1, -1)
            assert sorted(data.sigma) == [0, 1, 2]
            m = g.incident[g.source(data.edge)].index(eid)
            assert (data.eps[m], data.k[m]) == (1, 0)


def test_path_canonical_form_rotation_reversal():
    steps = (
        DirectedEdge(3, True),
        DirectedEdge(1, False),
        DirectedEdge(2, True),
    )
    base = ConnectionPath.canonical(steps)
    for i in range(3):
        rotated = steps[i:] + steps[:i]
        assert ConnectionPath.canonical(rotated) == base
        rev = tuple(s.reversed() for s in reversed(rotated))
        assert ConnectionPath.canonical(rev) == base


def test_cube_paths_are_six_squares(cube):
    conn = enumerate_connections(cube)[0]
    paths = connection_paths(cube, conn)
    assert sorted(len(p) for p in paths) == [4] * 6
    assert sum(len(p) for p in paths) == 2 * len(cube.edges)


def test_flag_paths_profile(flag):
    conns, explicit = available_connections(flag)
    assert explicit
    paths = connection_paths(flag, conns[0])
    assert sorted(len(p) for p in paths) == [4, 4, 4, 6]


def test_theta_paths_are_digons(theta):
    for conn in enumerate_connections(theta):
        paths = connection_paths(theta, conn)
        assert sum(len(p) for p in paths) == 6
        assert all(len(p) in (2, 3, 6) or True for p in paths)


def test_paths_iterate_connection_rule(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    conn = conns[0]
    for path in connection_paths(g, conn):
        n = len(path)
        for i in range(n):
            prev = path.steps[(i - 1) % n]
            cur = path.steps[i]
            nxt = path.steps[(i + 1) % n]
            assert g.target(prev) == g.source(cur)
            assert conn.apply(cur, prev.edge_id) == nxt.edge_id


def test_loop_holonomy_identity_on_cube(cube):
    conn = enumerate_connections(cube)[0]
    for path in connection_paths(cube, conn):
        h = loop_holonomy(cube, conn, path)
        assert all(
            h[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)
        )


def test_paths_require_trivalent(theta):
    g = parse_graph(json.dumps({
        "vertices": ["a", "b"],
        "edges": [
            {"from": "a", "to": "b", "weight": [1, 0]},
            {"from": "a", "to": "b", "weight": [0, 1]},
        ],
    }))
    conns = enumerate_connections(g)
    with pytest.raises(ValueError, match="3-valent"):
        connection_paths(g, conns[0])


def _maps(conns):
    return [c.maps for c in conns]


def _check_against_brute_force(g):
    """The lazy sequence, iterated, indexed and sliced, lists the brute-force
    connections in their order, a file-supplied connection first."""
    conns, explicit = available_connections(g)
    brute = oracles.brute_force_connections(g)
    assert explicit == (g.connection_block is not None)
    assert len(conns) == len(brute)
    assert _maps(conns) == _maps(brute)
    assert _maps(conns[i] for i in range(len(conns))) == _maps(brute)
    assert _maps(conns[1::3]) == _maps(brute[1::3])
    assert _maps(conns[-2:]) == _maps(brute[-2:])
    plain = dataclasses.replace(g, connection_block=None)
    assert _maps(enumerate_connections(g)) == _maps(
        oracles.brute_force_connections(plain)
    )
    for i in (len(conns), -len(conns) - 1):
        with pytest.raises(IndexError):
            conns[i]


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lazy_connections_match_brute_force(name):
    _check_against_brute_force(corpus_graph(name))


def _block(g, conn):
    return {
        str(eid): {"forward": {str(a): b for a, b in conn.maps[(eid, True)]}}
        for eid in range(len(g.edges))
    }


@given(small_graph_docs(), st.data())
@settings(max_examples=60, deadline=None)
def test_lazy_connections_match_brute_force_random(doc, data):
    g = parse_graph(json.dumps(doc))
    brute = oracles.brute_force_connections(g)
    if brute and data.draw(st.booleans(), label="explicit"):
        conn = brute[data.draw(st.integers(0, len(brute) - 1), label="index")]
        g = parse_graph(json.dumps(dict(doc, connection=_block(g, conn))))
    _check_against_brute_force(g)
    if brute:
        assert Analysis(g).orientability_consistent == (
            oracles.brute_force_consistent(g)
        )


@pytest.mark.parametrize("name", CORPUS_NAMES + ["prism4"])
def test_orientability_consistency_matches_brute_force(name):
    g = prism_graph(4) if name == "prism4" else corpus_graph(name)
    assert Analysis(g).orientability_consistent == (
        oracles.brute_force_consistent(g)
    )
