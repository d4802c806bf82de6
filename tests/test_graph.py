import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm3.graph import (
    GraphSemanticError,
    GraphSyntaxError,
    Weight,
    connected_isotropy_check,
    parse_graph,
    serialize_graph,
    signed_forest,
    validate,
)

import oracles
from conftest import corpus_text


def mini(vertices, edges, **extra):
    return json.dumps({"vertices": vertices, "edges": edges, **extra})


def test_weight_canonicalization():
    assert Weight.canonical(-1, 2).vector == (1, -2)
    assert Weight.canonical(0, -3).vector == (0, 3)
    assert Weight.canonical(2, 5).vector == (2, 5)
    with pytest.raises(GraphSemanticError):
        Weight(0, 0)


def test_parse_canonicalizes_lifts():
    g = parse_graph(
        mini(["a", "b"], [{"from": "a", "to": "b", "weight": [-1, 4]}] * 1)
    )
    assert g.edges[0].weight.vector == (1, -4)


def test_parse_syntax_error_has_position():
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph("{\n  bad\n}")
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("opener", ["[", '{"a": '])
def test_deeply_nested_json_is_a_syntax_error(opener):
    # The decoder recurses once per level and runs out of stack.
    with pytest.raises(GraphSyntaxError) as exc:
        parse_graph(opener * 200000)
    assert "nested too deeply" in str(exc.value)


@pytest.mark.parametrize(
    "doc,msg",
    [
        (mini(["a"], [{"from": "a", "to": "zzz", "weight": [1, 0]}]), "unknown vertex"),
        (mini(["a", "b"], [{"from": "a", "to": "b", "weight": [0, 0]}]), "zero weight"),
        (mini(["a", "b"], [{"from": "a", "to": "b", "weight": [1]}]), "pair of integers"),
        (mini(["a", "b"], [{"from": "a", "to": "b", "weight": [True, False]}]), "pair of integers"),
        (mini(["a", "a"], []), "duplicate"),
        (json.dumps([1, 2]), "top-level"),
        (json.dumps({"vertices": "ab", "edges": []}), "vertices"),
    ],
)
def test_parse_semantic_errors(doc, msg):
    with pytest.raises((GraphSemanticError, GraphSyntaxError)) as exc:
        parse_graph(doc)
    assert msg in str(exc.value)


def test_unknown_fields_become_warnings():
    g = parse_graph(
        mini(
            ["a", "b"],
            [{"from": "a", "to": "b", "weight": [1, 0], "color": "red"}],
            flavor="sour",
        )
    )
    assert any("flavor" in w for w in g.warnings)
    assert any("color" in w for w in g.warnings)


def test_serialize_round_trip():
    for name in ("cube", "flag", "nonorientable", "theta"):
        g = parse_graph(corpus_text(name))
        g2 = parse_graph(serialize_graph(g))
        assert g2.vertices == g.vertices
        assert g2.edges == g.edges
        assert g2.name == g.name
        assert g2.connection_block == g.connection_block


def test_validate_ok_on_corpus(any_corpus_graph):
    assert validate(any_corpus_graph).ok


def test_validate_loop():
    g = parse_graph(mini(["a", "b"], [
        {"from": "a", "to": "a", "weight": [1, 0]},
        {"from": "a", "to": "b", "weight": [0, 1]},
    ]))
    kinds = {f["kind"] for f in validate(g).failures}
    assert "loop" in kinds


def test_validate_valence_and_disconnected():
    g = parse_graph(mini(["a", "b", "c", "d"], [
        {"from": "a", "to": "b", "weight": [1, 0]},
        {"from": "c", "to": "d", "weight": [1, 0]},
        {"from": "c", "to": "d", "weight": [0, 1]},
    ]))
    rep = validate(g)
    kinds = {f["kind"] for f in rep.failures}
    assert "valence" in kinds
    assert "disconnected" in kinds
    comp_failure = next(f for f in rep.failures if f["kind"] == "disconnected")
    assert sorted(map(sorted, comp_failure["components"])) == [
        ["a", "b"], ["c", "d"]
    ]


def test_validate_dependence_at_vertex():
    g = parse_graph(mini(["a", "b"], [
        {"from": "a", "to": "b", "weight": [1, 0]},
        {"from": "a", "to": "b", "weight": [2, 0]},
    ]))
    kinds = {f["kind"] for f in validate(g).failures}
    assert "dependence-at-vertex" in kinds


def test_validate_ineffective():
    # All weights in 2Z^2 at each vertex: pairwise independent but the
    # incident characters only generate an index-4 sublattice.
    g = parse_graph(mini(["a", "b"], [
        {"from": "a", "to": "b", "weight": [2, 0]},
        {"from": "a", "to": "b", "weight": [0, 2]},
        {"from": "a", "to": "b", "weight": [2, 2]},
    ]))
    rep = validate(g)
    fails = [f for f in rep.failures if f["kind"] == "ineffective"]
    assert {f["vertex"] for f in fails} == {"a", "b"}
    assert all(f["elementary_divisors"] == [2, 2] for f in fails)


def test_connected_isotropy_on_cube(cube):
    res = connected_isotropy_check(cube)
    assert not res["ok"]
    dets = {abs(f["det"]) for f in res["failing_pairs"] if f["kind"] == "pair"}
    assert dets == {2, 3, 5}
    assert not any(f["kind"] == "imprimitive" for f in res["failing_pairs"])


def test_connected_isotropy_on_flag_and_theta(flag, theta):
    assert connected_isotropy_check(flag)["ok"]
    assert connected_isotropy_check(theta)["ok"]


def test_connected_isotropy_imprimitive():
    g = parse_graph(mini(["a", "b"], [
        {"from": "a", "to": "b", "weight": [2, 0]},
        {"from": "a", "to": "b", "weight": [0, 1]},
    ]))
    res = connected_isotropy_check(g)
    assert any(f["kind"] == "imprimitive" and f["content"] == 2
               for f in res["failing_pairs"])


_NONZERO = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda w: w != (0, 0)
)


@st.composite
def parallel_labels(draw):
    """1 to 4 labels in [-6, 6]^2 for parallel edges a-b; in rank-1 draws
    every label is a multiple of one vector."""
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(st.lists(_NONZERO, min_size=k, max_size=k))
    base = draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
        lambda w: w != (0, 0)))
    ms = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=k, max_size=k))
    return [(m * base[0], m * base[1]) for m in ms]


@given(parallel_labels())
@settings(max_examples=300, deadline=None)
def test_label_table_against_brute_force(labels):
    g = parse_graph(mini(["a", "b"], [
        {"from": "a", "to": "b", "weight": list(w)} for w in labels
    ]))
    ws = [e.weight.vector for e in g.edges]
    pairs = [
        (x, y, ws[x][0] * ws[y][1] - ws[x][1] * ws[y][0])
        for x in range(len(ws)) for y in range(x + 1, len(ws))
    ]
    snf = oracles.snf_divisors([[w[0] for w in ws], [w[1] for w in ws]], len(ws))
    failures = validate(g).failures
    for v in ("a", "b"):
        assert [f["edges"] for f in failures
                if f["kind"] == "dependence-at-vertex" and f["vertex"] == v] == [
            [x, y] for x, y, det in pairs if det == 0
        ]
        assert [f["elementary_divisors"] for f in failures
                if f["kind"] == "ineffective" and f["vertex"] == v] == (
            [] if snf == [1, 1] else [snf]
        )
        assert [(f["edges"], f["det"])
                for f in connected_isotropy_check(g)["failing_pairs"]
                if f["kind"] == "pair" and f["vertex"] == v] == [
            ([x, y], det) for x, y, det in pairs if abs(det) != 1
        ]


def test_incidence_is_input_ordered(cube):
    for v in cube.vertices:
        ids = cube.incident[v]
        assert list(ids) == sorted(ids)
        assert len(ids) == 3


def test_directed_edge_helpers(theta):
    e = theta.directed(0, "u")
    assert theta.source(e) == "u" and theta.target(e) == "w"
    r = e.reversed()
    assert theta.source(r) == "w" and theta.target(r) == "u"
    with pytest.raises(ValueError):
        theta.directed(0, "nope")


@st.composite
def signed_multigraphs(draw):
    """Up to 8 nodes in a random order, and signed edges that may be
    self-loops or parallel, so that graphs often have several components."""
    n = draw(st.integers(1, 8))
    nodes = draw(st.permutations([f"n{i}" for i in range(n)]))
    ends = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(ends, ends, st.sampled_from((1, -1))),
                          max_size=12))
    return nodes, edges


@given(signed_multigraphs())
@settings(max_examples=300, deadline=None)
def test_signed_forest_against_brute_force(graph):
    nodes, edges = graph
    tau, parent = signed_forest(nodes, edges)
    assert set(tau) == set(nodes)
    for v, (p, i) in parent.items():
        a, b, s = edges[i]
        assert {a, b} == {v, p} and tau[v] == tau[p] * s

    def root(v):
        while v in parent:
            v = parent[v][0]
        return v

    # One tree per component, rooted at the component's first node.
    for v in nodes:
        assert nodes.index(root(v)) <= nodes.index(v)
    for a, b, _ in edges:
        assert root(a) == root(b)
    satisfied = all(tau[a] * tau[b] == s for a, b, s in edges)
    assert satisfied == oracles.has_sign_labelling(nodes, edges)
