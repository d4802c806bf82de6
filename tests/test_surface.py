import json
import random

import pytest

from gkm3.connection import available_connections, enumerate_connections
from gkm3.graph import parse_graph, serialize_graph
from gkm3.surface import build_surface, classify_surface

import oracles
from conftest import corpus_graph, corpus_json


def test_cube_surface_is_sphere(cube):
    conn = enumerate_connections(cube)[0]
    s = classify_surface(cube, conn)
    assert s.closed
    assert len(s.faces) == 6
    assert s.face_lengths == (4,) * 6
    assert s.euler_characteristic == 2
    assert s.orientable and s.genus == 0
    assert s.name == "sphere"


def test_flag_surface_is_projective_plane(flag):
    conn = available_connections(flag)[0][0]
    s = classify_surface(flag, conn)
    assert s.closed
    assert sorted(s.face_lengths) == [4, 4, 4, 6]
    assert s.euler_characteristic == 1
    assert not s.orientable
    assert s.crosscaps == 1
    assert s.name == "crosscap-1 surface"


def test_nonorientable_surface(nonorientable):
    conn = available_connections(nonorientable)[0][0]
    s = classify_surface(nonorientable, conn)
    assert s.closed
    assert s.face_lengths == (4, 4, 4)
    assert s.euler_characteristic == 1
    assert s.name == "crosscap-1 surface"


def test_theta_surfaces(theta):
    # Different compatible connections of the theta graph glue different
    # surfaces (the face count varies); each must classify consistently.
    seen = set()
    for conn in enumerate_connections(theta):
        s = classify_surface(theta, conn)
        assert s.closed
        assert s.euler_characteristic == 2 - 3 + len(s.faces)
        if s.orientable:
            assert s.name == ("sphere" if s.genus == 0
                              else f"genus-{s.genus} surface")
        else:
            assert s.name == f"crosscap-{s.crosscaps} surface"
        seen.add(s.name)
    assert "sphere" in seen


def test_every_edge_on_two_face_boundaries(any_corpus_graph):
    g = any_corpus_graph
    conn = available_connections(g)[0][0]
    s = build_surface(g, conn)
    assert s.closed
    counts = {eid: 0 for eid in range(len(g.edges))}
    for path in s.faces:
        for step in path.steps:
            counts[step.edge_id] += 1
    assert all(c == 2 for c in counts.values())


def test_classification_invariant_under_relabeling(any_corpus_graph):
    g = any_corpus_graph
    conn = available_connections(g)[0][0]
    base = classify_surface(g, conn)

    doc = json.loads(serialize_graph(g))
    rng = random.Random(3)
    names = list(doc["vertices"])
    mapping = {v: f"v{idx}" for idx, v in enumerate(rng.sample(names, len(names)))}
    doc["vertices"] = [mapping[v] for v in doc["vertices"]]
    for e in doc["edges"]:
        e["from"], e["to"] = mapping[e["from"]], mapping[e["to"]]
    g2 = parse_graph(json.dumps(doc))
    conn2 = available_connections(g2)[0][0]
    s2 = classify_surface(g2, conn2)
    assert s2.name == base.name
    assert s2.euler_characteristic == base.euler_characteristic


def test_chi_at_most_two(any_corpus_graph):
    g = any_corpus_graph
    conns, _ = available_connections(g)
    for conn in conns[:8]:
        s = classify_surface(g, conn)
        assert s.euler_characteristic <= 2
        if s.euler_characteristic == 2:
            assert s.orientable and s.name == "sphere"


@pytest.mark.parametrize("name", ["theta", "nonorientable", "flag"])
def test_orientable_against_face_flips(name):
    # Every connection: 8 of theta, 64 of nonorientable, 512 of flag.
    g = corpus_graph(name)
    for conn in available_connections(g)[0]:
        s = classify_surface(g, conn)
        assert s.closed
        assert s.orientable == oracles.faces_flip_coherently(s.faces)
