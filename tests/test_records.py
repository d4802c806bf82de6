"""The result and data records are immutable, print as Name(field=value, ...),
and compare and hash by their fields.  All but GkmGraph are NamedTuples, so
they are tuples too; the tests at the end pin what that adds."""

import copy

import pytest

from gkm3 import cohomology
from gkm3.cohomology import betti_numbers, poincare_duality, z_freeness
from gkm3.connection import (
    ConnectionPath,
    available_connections,
    connection_paths,
    transition,
)
from gkm3.graph import DirectedEdge, Edge, GkmGraph, GraphSemanticError, Weight, validate
from gkm3.orientation import is_orientable
from gkm3.surface import classify_surface

from conftest import corpus_graph


def _samples():
    """One record of each kind, from the pipeline on cube and nonorientable."""
    cube = corpus_graph("cube")
    conn = available_connections(cube)[0][0]
    return {
        "Weight": cube.edges[0].weight,
        "Edge": cube.edges[0],
        "DirectedEdge": DirectedEdge(3, False),
        "GkmGraph": cube,
        "ValidationReport": validate(corpus_graph("nonorientable")),
        "Connection": conn,
        "TransitionData": transition(cube, conn, DirectedEdge(0, True)),
        "ConnectionPath": connection_paths(cube, conn)[0],
        "_Quotient": cohomology._quotient(cube, 1),
        "BettiResult": betti_numbers(cube),
        "PoincareResult": poincare_duality(cube),
        "FreenessResult": z_freeness(cube),
        "OrientabilityResult": is_orientable(corpus_graph("nonorientable")),
        "SurfaceResult": classify_surface(cube, conn),
    }


SAMPLES = _samples()


def _fields(record) -> tuple:
    return tuple(getattr(record, f) for f in record._fields)


def _hash(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_refuses_assignment(name):
    record = SAMPLES[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], _fields(record)[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, record._fields[-1])


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_repr_names_its_fields(name):
    record = SAMPLES[name]
    inner = ", ".join(f"{f}={getattr(record, f)!r}" for f in record._fields)
    assert repr(record) == f"{name}({inner})"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_fields_give_equal_records_and_hashes(name):
    record = SAMPLES[name]
    twin = type(record)(*copy.deepcopy(_fields(record)))
    assert twin is not record and twin == record
    # The hash of the tuple of fields, as a frozen dataclass had: equal for
    # equal records, and a TypeError when a field (a dict, a list) is
    # unhashable.
    assert _hash(twin) == _hash(record) == _hash(_fields(record))
    assert not record != twin


def test_directed_edge_hashes_as_its_pair():
    # transition and loop_holonomy look up a step's dict in Connection.maps,
    # keyed by (edge id, forward) pairs, with DirectedEdges: they hash as
    # their pair.
    assert hash(DirectedEdge(3, False)) == hash((3, False))
    assert hash(Weight(1, -2)) == hash((1, -2))


def test_zero_weight_is_refused_however_built():
    with pytest.raises(GraphSemanticError):
        Weight(0, 0)
    with pytest.raises(GraphSemanticError):
        Weight(a=0, b=0)
    assert Weight(b=2, a=1) == Weight(1, 2) and Weight(1, 2).negated() == (-1, -2)


def test_graph_equality_reads_fields_only():
    cube = corpus_graph("cube")
    other = corpus_graph("cube")
    cube.incident  # a filled cache is not a field
    assert cube == other and hash(cube) == hash(other)
    assert cube != GkmGraph(cube.vertices, cube.edges, "renamed")
    assert cube != _fields(cube)  # a plain class, not a tuple
    blocked = GkmGraph((), (), None, {"maps": {}})
    with pytest.raises(TypeError):
        hash(blocked)


# What tuple semantics add to the NamedTuple records.

def test_records_equal_plain_tuples_of_their_fields():
    assert DirectedEdge(3, False) == (3, False)
    assert Edge("u", "v", Weight(1, 2)) == ("u", "v", (1, 2))
    # Connection maps are keyed by (edge id, forward) pairs, and a directed
    # edge, equal and of equal hash, finds the same entry.
    conn = SAMPLES["Connection"]
    assert conn.maps[DirectedEdge(0, True)] == conn.maps[(0, True)]


def test_records_iterate_index_and_order_as_tuples():
    a, b = Weight(2, -1)
    assert (a, b) == (2, -1) and Weight(2, -1)[1] == -1
    # Ordering is by fields in declaration order, the key that picks a
    # connection path's canonical rotation and sorts the paths.
    edges = [DirectedEdge(2, True), DirectedEdge(1, True), DirectedEdge(1, False)]
    assert sorted(edges) == sorted(edges, key=lambda s: (s.edge_id, s.forward))
    paths = connection_paths(SAMPLES["GkmGraph"], SAMPLES["Connection"])
    assert paths == sorted(
        paths, key=lambda p: [(s.edge_id, s.forward) for s in p.steps])


def test_no_field_shadows_a_tuple_method():
    # tuple.count and tuple.index are attributes of every NamedTuple record;
    # a field of either name would hide them.
    for record in SAMPLES.values():
        assert not {"count", "index"} & set(record._fields)


def test_connection_path_len_is_its_step_count():
    path = SAMPLES["ConnectionPath"]
    assert len(path) == len(path.steps) == 4
    assert tuple(path) == (path.steps,)
    # _make and _replace check len() against the one field, so a path is
    # rebuilt through its constructor instead.
    assert ConnectionPath(path.steps) == path
    with pytest.raises(TypeError):
        path._replace(steps=path.steps)
