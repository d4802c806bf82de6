import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import sympy
from sympy.combinatorics import Permutation

from gkm3 import connection
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
    _perm_sign,
)
from gkm3.graph import (
    DirectedEdge, GkmGraph, GraphSemanticError, Weight, parse_graph,
)
from gkm3.orientation import eta_assignment
from gkm3.verdict import realizability_report

import oracles
from conftest import (
    CORPUS_NAMES,
    NOT_GKM_K4,
    corpus_graph,
    corpus_json,
    coloured_graph_docs,
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


def test_connection_space_truth_reads_the_count():
    """A truth test never goes through len(), which overflows on sq22's
    2^66 connections."""
    sq22 = parse_graph((Path(__file__).parent / "sq22.json").read_text())
    assert bool(enumerate_connections(sq22)) is True
    not_gkm = enumerate_connections(parse_graph(json.dumps(NOT_GKM_K4)))
    assert not_gkm.count == 0 and bool(not_gkm) is False


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
    options = enumerate_connections(g).options

    bad = json.loads(json.dumps(doc["connection"]))
    bad["0"]["forward"]["3"] = 5  # not a bijection onto E_v
    with pytest.raises(GraphSemanticError, match="bijection"):
        connection_from_block(g, bad, options)

    bad = json.loads(json.dumps(doc["connection"]))
    del bad["5"]
    with pytest.raises(GraphSemanticError, match="forward map"):
        connection_from_block(g, bad, options)

    bad = json.loads(json.dumps(doc["connection"]))
    bad["99"] = bad["0"]
    with pytest.raises(GraphSemanticError, match="out of range"):
        connection_from_block(g, bad, options)

    good = json.loads(json.dumps(doc["connection"]))
    good["0"]["backward"] = {str(v): int(k) for k, v in good["0"]["forward"].items()}
    connection_from_block(g, good, options)  # inverse backward accepted
    good["0"]["backward"] = {"0": 0, "1": 4, "5": 3}
    with pytest.raises(GraphSemanticError, match="inverse"):
        connection_from_block(g, good, options)

    # Entries that are not objects and ids that are not integers are
    # semantic errors too, never AttributeError or ValueError.
    for entry, match in (
        (5, "must be an object"),
        ({"forward": [0, 1, 2]}, "must be an object"),
        ({"forward": {"x": 1}}, "not an integer"),
        ({"forward": {"0": 1.5}}, "not an integer"),
        ({"forward": {"0": None}}, "not an integer"),
        ({"forward": {"0": True}}, "not an integer"),
        # More digits than int() converts is a semantic error too, and the
        # message gives the count, not the digits.
        ({"forward": {"0": "1" * 5000}}, "edge id of 5000 digits is out of range"),
    ):
        bad = json.loads(json.dumps(doc["connection"]))
        bad["0"] = entry
        with pytest.raises(GraphSemanticError, match=match):
            connection_from_block(g, bad, options)
    # Only ASCII digits with an optional minus sign are ids: int() takes
    # an Arabic-Indic digit, a plus sign and surrounding blanks, and none
    # of them is an id, as a key of the block or of a map.
    for key in ("zero", "\u0661", "+1", " 1", "--1", "1.0"):
        bad = json.loads(json.dumps(doc["connection"]))
        bad[key] = bad.pop("0")
        with pytest.raises(GraphSemanticError, match="not an integer"):
            connection_from_block(g, bad, options)
        bad = json.loads(json.dumps(doc["connection"]))
        bad["0"]["forward"][key] = bad["0"]["forward"].pop(next(iter(bad["0"]["forward"])))
        with pytest.raises(GraphSemanticError, match="not an integer"):
            connection_from_block(g, bad, options)
    for key in ("1" * 5000, "0" * 4301):
        bad = json.loads(json.dumps(doc["connection"]))
        bad[key] = bad.pop("0")
        with pytest.raises(GraphSemanticError, match=f"id of {len(key)} digits") as exc:
            connection_from_block(g, bad, options)
        assert len(str(exc.value)) < 100

    # An id named twice, in the block or in one map, is an error, not a
    # silent overwrite by the later entry.
    for key, alias in (("2", "02"), ("0", "-0")):
        bad = json.loads(json.dumps(doc["connection"]))
        bad[alias] = bad[key]
        with pytest.raises(GraphSemanticError, match="repeated"):
            connection_from_block(g, bad, options)
    for side in ("forward", "backward"):
        bad = json.loads(json.dumps(doc["connection"]))
        fmap = {str(k): int(v) for k, v in bad["0"]["forward"].items()}
        if side == "backward":
            fmap = {str(v): int(k) for k, v in fmap.items()}
        src = next(iter(fmap))
        fmap["0" + src] = fmap[src]
        bad["0"][side] = fmap
        with pytest.raises(GraphSemanticError, match="twice"):
            connection_from_block(g, bad, options)


def test_connection_block_incompatible_transport(cube):
    # Start from the unique compatible connection and swap two transport
    # targets on one edge: still a bijection, no longer compatible.
    conn = enumerate_connections(cube)[0]
    block = {}
    for eid in range(len(cube.edges)):
        fwd = conn.maps[(eid, True)]
        block[str(eid)] = {"forward": {str(a): b for a, b in fwd.items()}}
    fwd0 = block["0"]["forward"]
    others = [k for k in fwd0 if k != "0"]
    fwd0[others[0]], fwd0[others[1]] = fwd0[others[1]], fwd0[others[0]]
    with pytest.raises(GraphSemanticError, match="incompatibly"):
        connection_from_block(cube, block, enumerate_connections(cube).options)


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


@pytest.mark.parametrize("n", range(1, 6))
def test_perm_sign_matches_sympy(n):
    for sigma in itertools.permutations(range(n)):
        assert _perm_sign(sigma) == Permutation(list(sigma)).signature(), sigma


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


def test_theta_face_lengths_follow_the_swaps(theta):
    """Theta's three edges all run u -> w, and the transport along an edge
    fixes it and either fixes or swaps the other two.  A path that runs
    along e_i and then e_j continues along the transport of e_i along e_j,
    so it closes after two steps exactly when neither e_i nor e_j swaps:
    the digon {e_i, e_j} is a face exactly when both edges fix.  The two
    vertices alternate along every path, so every face has even length, and
    the faces take the 2 * 3 * 2 (vertex, incoming, outgoing) steps, each
    face once per orientation, so their lengths sum to 6.  Hence with no
    swapping edge the faces are the three digons, with one a digon and a
    square, and with two or three no digon is left, so one hexagon."""
    expected = {0: [2, 2, 2], 1: [2, 4], 2: [6], 3: [6]}
    seen = set()
    for conn in enumerate_connections(theta):
        swaps = sum(
            any(a != b for a, b in conn.maps[(eid, True)].items()) for eid in range(3)
        )
        seen.add(swaps)
        lengths = sorted(len(p) for p in connection_paths(theta, conn))
        assert lengths == expected[swaps], swaps
    assert seen == {0, 1, 2, 3}


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


@pytest.mark.parametrize(
    "name, count",
    [("theta", 8), ("nonorientable", 64), ("flag", 512), ("cube", 1),
     ("cp3", None), ("prism4", 4096)],
)
def test_paths_match_two_orientation_walk(name, count):
    """One walk per face lists the faces that walking both orientations and
    deduplicating lists, on every connection (200 seeded ones of prism4)."""
    g = corpus_graph(name)
    conns, _ = available_connections(g)
    assert count is None or len(conns) == count
    indices = range(len(conns))
    if name == "prism4":
        indices = sorted(random.Random(0).sample(indices, 200))
    for i in indices:
        assert connection_paths(g, conns[i]) == (
            oracles.two_orientation_paths(g, conns[i])
        ), i


def _paths_match_the_oracle(doc):
    g = parse_graph(json.dumps(doc))
    conns, _ = available_connections(g)
    for i in range(min(conns.count, 8)):
        assert connection_paths(g, conns[i]) == (
            oracles.two_orientation_paths(g, conns[i])
        ), i


@given(small_graph_docs())
@settings(max_examples=40, deadline=None)
def test_paths_match_two_orientation_walk_random(doc):
    _paths_match_the_oracle(doc)


@given(coloured_graph_docs())
@settings(max_examples=40, deadline=None)
def test_paths_match_two_orientation_walk_coloured(doc):
    _paths_match_the_oracle(doc)


def _walk_errors(g, conn):
    """(type, message) of the error of the face walk and of the oracle's
    walk, which steps with Connection.apply and GkmGraph.directed."""
    out = []
    for walk in (connection_paths, oracles.two_orientation_paths):
        with pytest.raises(Exception) as info:
            walk(g, conn)
        out.append((info.type, str(info.value)))
    return out


def test_paths_raise_what_apply_and_directed_raise(theta, cube):
    """A map that lacks the predecessor raises Connection.apply's KeyError,
    and a map onto an edge away from the target raises GkmGraph.directed's
    ValueError, each with its message."""
    lacking = Connection.from_forward_maps(
        {0: {0: 0, 1: 1, 2: 2}, 1: {1: 1, 2: 2}, 2: {0: 0, 1: 1, 2: 2}})
    walk, oracle = _walk_errors(theta, lacking)
    assert walk == oracle == (KeyError, repr(
        "edge 0 is not incident to the source of "
        "DirectedEdge(edge_id=1, forward=True)"))

    # The first seed's edge sends its predecessor to an edge away from its
    # target; the map back stays whole.
    maps = dict(enumerate_connections(cube)[0].maps)
    prev, cur = cube.incident[cube.vertices[0]][:2]
    d = cube.directed(cur, cube.vertices[0])
    w = cube.target(d)
    away = next(x for x in range(len(cube.edges)) if x not in cube.incident[w])
    maps[d] = {**maps[d], prev: away}
    walk, oracle = _walk_errors(cube, Connection(maps))
    assert walk == oracle == (
        ValueError, f"vertex {w!r} is not an endpoint of edge {away}")


def test_loop_holonomy_identity_on_cube(cube):
    conn = enumerate_connections(cube)[0]
    for path in connection_paths(cube, conn):
        h = loop_holonomy(cube, conn, path)
        assert all(
            h[i][j] == (1 if i == j else 0) for i in range(3) for j in range(3)
        )


IDENTITY = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def _relifted_prism4():
    """prism4 with a seeded half of its labels negated (the same labels)."""
    doc = corpus_json("prism4")
    rng = random.Random(4)
    for e in doc["edges"]:
        if rng.random() < 0.5:
            e["weight"] = [-x for x in e["weight"]]
    return parse_graph(json.dumps(doc))


@pytest.mark.parametrize(
    "name, nontrivial",
    [("theta", False), ("flag", False), ("nonorientable", True),
     ("relifted prism4", False)],
)
def test_transitions_and_holonomy_match_listed_oracles(name, nontrivial):
    """The 3 x 3 tuple transition data and holonomy products equal the
    list-built oracles on every directed edge and every face of every
    connection (256 seeded ones of the relifted prism4's 4096);
    nonorientable has faces of both holonomy outcomes."""
    g = _relifted_prism4() if name == "relifted prism4" else corpus_graph(name)
    conns, _ = available_connections(g)
    indices = range(len(conns))
    if name == "relifted prism4":
        indices = sorted(random.Random(0).sample(indices, 256))
    outcomes = set()
    for conn in (conns[i] for i in indices):
        for eid in range(len(g.edges)):
            for forward in (True, False):
                e = DirectedEdge(eid, forward)
                data = transition(g, conn, e)
                assert (data.sigma, data.eps, data.k, data.phi) == (
                    oracles.listed_transition(g, conn, e)
                )
        for path in connection_paths(g, conn):
            h = loop_holonomy(g, conn, path)
            assert h == oracles.listed_holonomy(g, conn, path)
            outcomes.add(h == IDENTITY)
    assert outcomes == ({True, False} if nontrivial else {True})


def _check_solved_oracle(g, conn) -> bool:
    """loop_holonomy equals solved_holonomy on every face of conn, and each
    edge's two transition matrices are mutually inverse; True when some
    face's holonomy is nontrivial."""
    nontrivial = False
    for path in connection_paths(g, conn):
        h = loop_holonomy(g, conn, path)
        assert h == oracles.solved_holonomy(g, conn, path), path
        nontrivial |= h != IDENTITY
    for eid in range(len(g.edges)):
        forward, back = (sympy.Matrix(transition(g, conn, DirectedEdge(eid, d)).phi)
                         for d in (True, False))
        assert back * forward == sympy.eye(3), eid
    return nontrivial


@pytest.mark.parametrize("name", ["theta", "nonorientable", "cp3", "cube", "flag"])
def test_holonomy_matches_the_solved_oracle(name):
    """On every connection, the holonomy of every face equals the product of
    sympy-solved transition matrices, and reversing a step inverts it; 23 of
    nonorientable's 64 connections, its connection 12 among them, have a
    face of nontrivial holonomy, and no other graph has one."""
    g = corpus_graph(name)
    conns, _ = available_connections(g)
    nontrivial = [i for i, conn in enumerate(conns) if _check_solved_oracle(g, conn)]
    if name == "nonorientable":
        assert 12 in nontrivial and len(nontrivial) == 23
    else:
        assert nontrivial == []


@given(st.one_of(small_graph_docs(), coloured_graph_docs()), st.data())
@settings(max_examples=60, deadline=None)
def test_holonomy_matches_the_solved_oracle_random(doc, data):
    g = parse_graph(json.dumps(doc))
    conns, _ = available_connections(g)
    if conns.count:
        i = data.draw(st.integers(0, conns.count - 1), label="connection")
        _check_solved_oracle(g, conns[i])


def test_transition_keeps_its_checks(monkeypatch):
    """Each invariant check of the transition kernel raises through
    transition, loop_holonomy and the verdict: an incompatible transport, a
    failing weight-transport identity (a solver returning a wrong k) and
    det phi /= +-1 (a determinant of 2).  A valence other than 3 is a
    ValueError of transition and loop_holonomy; the verdict refuses such a
    graph at validation, before any transition matrix is formed."""
    g = parse_graph(json.dumps({
        "vertices": ["u", "w"],
        "edges": [{"from": "u", "to": "w", "weight": w}
                  for w in ([1, 0], [0, 1], [1, 2])],
    }))
    swap = Connection.from_forward_maps(
        {0: {0: 0, 1: 2, 2: 1}, 1: {0: 0, 1: 1, 2: 2}, 2: {0: 0, 1: 1, 2: 2}}
    )
    e = DirectedEdge(0, True)
    with pytest.raises(connection.ConnectionInconsistency, match="incompatible"):
        transition(g, swap, e)
    face = next(p for p in connection_paths(g, swap) if 0 in {s[0] for s in p.steps})
    with pytest.raises(connection.ConnectionInconsistency, match="incompatible"):
        loop_holonomy(g, swap, face)

    fixed = enumerate_connections(g)[0]
    faces = connection_paths(g, fixed)
    # The first verdict keeps the per-graph edge options and Thom classes,
    # so under a fault only the transition kernel reads the solver.
    report = realizability_report(g)
    real = connection.transport_coefficients

    def off_by_one(wf, wfp, we):
        eps, k = real(wf, wfp, we)
        return eps, k + 1

    for name, fault, match in (
        ("transport_coefficients", lambda wf, wfp, we: None, "incompatible"),
        ("transport_coefficients", off_by_one, "identity"),
        ("_det3", lambda p: 2, "det phi"),
    ):
        with monkeypatch.context() as mp:
            mp.setattr(connection, name, fault)
            with pytest.raises(connection.ConnectionInconsistency, match=match):
                transition(g, fixed, e)
            for face in faces:
                with pytest.raises(connection.ConnectionInconsistency, match=match):
                    loop_holonomy(g, fixed, face)
            with pytest.raises(connection.ConnectionInconsistency, match=match):
                realizability_report(g)
    # A wrong k in one transport at a time, at every step, so each row of
    # the weight-transport identity is checked somewhere.
    for step in (DirectedEdge(eid, d) for eid in range(3) for d in (True, False)):
        for wrong in (0, 1):
            calls = []

            def one_off(wf, wfp, we):
                eps, k = real(wf, wfp, we)
                calls.append(k)
                return eps, k + (len(calls) == wrong + 1)

            with monkeypatch.context() as mp:
                mp.setattr(connection, "transport_coefficients", one_off)
                with pytest.raises(connection.ConnectionInconsistency, match="identity"):
                    transition(g, fixed, step)
    assert transition(g, fixed, e).det_phi in (1, -1)
    assert realizability_report(g) == report

    digon = parse_graph(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"from": "a", "to": "b", "weight": w} for w in ([1, 0], [0, 1])],
    }))
    conn = enumerate_connections(digon)[0]
    with pytest.raises(ValueError, match="3-valent"):
        transition(digon, conn, e)
    with pytest.raises(ValueError, match="3-valent"):
        loop_holonomy(digon, conn, ConnectionPath((e, DirectedEdge(1, False))))
    refused = realizability_report(digon)
    assert refused["tier"] == "invalid" and refused["surface"] is None
    assert {f["kind"] for f in refused["validity"]["failures"]} >= {"valence"}


def test_transition_reads_a_partial_map_as_before(theta):
    """A map that lacks a source edge is a KeyError of transition and of
    loop_holonomy, whatever its size, and an extra source that is not
    incident is ignored, as when the transition data read the map as a
    dict."""
    conn = enumerate_connections(theta)[0]
    e = DirectedEdge(0, True)
    face = ConnectionPath((e,))
    lacking = Connection(
        {**conn.maps, e: {a: b for a, b in conn.maps[e].items() if a != 1}})
    with pytest.raises(KeyError):
        transition(theta, lacking, e)
    with pytest.raises(KeyError):
        loop_holonomy(theta, lacking, face)
    extra = Connection({**conn.maps, e: {**conn.maps[e], 99: 99}})
    assert transition(theta, extra, e) == transition(theta, conn, e)
    assert loop_holonomy(theta, extra, face) == loop_holonomy(theta, conn, face)
    # Source 1 traded for 99: still three entries, and source 1 is missing.
    traded = Connection({**conn.maps, e: {**lacking.maps[e], 99: 99}})
    assert len(traded.maps[e]) == 3
    with pytest.raises(KeyError):
        transition(theta, traded, e)
    with pytest.raises(KeyError):
        loop_holonomy(theta, traded, face)


@pytest.mark.parametrize("name", ["flag", "cube"])
def test_editing_a_connection_map_leaves_the_options(name):
    """A connection copies its forward maps, so editing one, whether the
    connection came from the file's block (flag) or from the product of
    options (cube), changes neither edge_options nor a fresh connection."""
    g = corpus_graph(name)
    assert (g.connection_block is not None) == (name == "flag")
    options = connection.edge_options(g)
    before = [[dict(m) for m in opts] for opts in options]
    fresh = [dict(m) for m in available_connections(g)[0][0].maps.values()]
    available_connections(g)[0][0].maps[(0, True)][0] = 99
    assert options == before and connection.edge_options(g) == before
    assert [dict(m) for m in available_connections(g)[0][0].maps.values()] == fresh


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
    plain = GkmGraph(g.vertices, g.edges, g.name, None, g.warnings)
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
        str(eid): {"forward": {str(a): b for a, b in conn.maps[(eid, True)].items()}}
        for eid in range(len(g.edges))
    }


@given(st.sampled_from(["cube", "flag", "theta", "nonorientable", "cp3"]),
       st.data())
@settings(max_examples=300, deadline=None)
def test_block_acceptance_matches_pairwise_oracle(name, data):
    """A drawn map E_u -> E_v, a bijection or not, fixing the edge or not,
    is accepted exactly when the pair-by-pair oracle finds it compatible,
    and a rejection names the edge."""
    g = corpus_graph(name)
    eid = data.draw(st.integers(0, len(g.edges) - 1), label="edge")
    e = g.edges[eid]
    src, tgt = g.incident[e.u], g.incident[e.v]
    if data.draw(st.booleans(), label="bijective"):
        targets = data.draw(st.permutations(tgt), label="targets")
    else:
        targets = data.draw(
            st.lists(st.sampled_from(tgt), min_size=len(src), max_size=len(src)),
            label="targets",
        )
    fmap = dict(zip(src, targets))
    space = enumerate_connections(g)
    block = _block(g, space[0])
    block[str(eid)] = {"forward": {str(a): b for a, b in fmap.items()}}
    if oracles.block_map_compatible(g, eid, fmap):
        conn = connection_from_block(g, block, space.options)
        assert conn.maps[(eid, True)] == fmap
    else:
        with pytest.raises(GraphSemanticError, match=f"edge {eid} map is not"):
            connection_from_block(g, block, space.options)


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
        assert oracles.brute_force_etas(g) == {tuple(eta_assignment(g).values())}


@pytest.mark.parametrize("name", CORPUS_NAMES + ["prism4"])
def test_orientability_consistency_matches_brute_force(name):
    """The transition data of every compatible connection give the
    label-only eta vector: the verdict's consistent_across_connections."""
    g = prism_graph(4) if name == "prism4" else corpus_graph(name)
    assert oracles.brute_force_etas(g) == {tuple(eta_assignment(g).values())}


def test_available_connections_enumerates_each_edge_once(flag, monkeypatch):
    """A file-supplied block is checked against the space's options, so each
    edge's compatible bijections are listed once."""
    calls = []
    real = connection._compatible_bijections

    def counting(g, eid):
        calls.append(eid)
        return real(g, eid)

    monkeypatch.setattr(connection, "_compatible_bijections", counting)
    conns, explicit = available_connections(flag)
    assert explicit and conns.count == 512
    assert sorted(calls) == list(range(len(flag.edges))) == list(range(9))
