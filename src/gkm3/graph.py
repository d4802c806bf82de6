"""Data model, parsing and axiom-level validation of rank-2 labelled graphs.

A graph file is a JSON object with fields `vertices` (list of strings),
`edges` (list of `{from, to, weight: [a, b]}` objects), an optional
`connection` block (see :mod:`gkm3.connection`) and an optional `name`.
Edge identity is positional: the stable id of an edge is its index in the
input list, so parallel edges are distinguishable.  Weight lifts are
canonicalized at parse time so that the first nonzero coordinate is
positive; all lift-dependent outputs elsewhere are relative to this
canonical lift.

signed_forest is the one graph walk of the package: a depth-first
spanning forest of a multigraph with ±1 edge signs.  It gives validate its
components, orientation the eta potential and surface the coherent face
flips.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import Any, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "Weight",
    "Edge",
    "DirectedEdge",
    "GkmGraph",
    "ValidationReport",
    "GraphSyntaxError",
    "GraphSemanticError",
    "parse_graph",
    "serialize_graph",
    "validate",
    "connected_isotropy_check",
]


class GraphSyntaxError(ValueError):
    """Raised when a graph file is not well-formed (position-reported)."""


class GraphSemanticError(ValueError):
    """Raised for well-formed input with invalid content (zero weight etc.)."""


class _WeightFields(NamedTuple):
    a: int
    b: int


class Weight(_WeightFields):
    """A character of the 2-torus: a sign lift in Z^2 of a class in Z^2/±1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "Weight":
        if a == 0 and b == 0:
            raise GraphSemanticError("zero weight is not allowed")
        return super().__new__(cls, a, b)

    @staticmethod
    def canonical(a: int, b: int) -> "Weight":
        """The lift whose first nonzero coordinate is positive."""
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        return Weight(a, b)

    @property
    def vector(self) -> Tuple[int, int]:
        return (self.a, self.b)

    def negated(self) -> "Weight":
        return Weight(-self.a, -self.b)

    def is_primitive(self) -> bool:
        return math.gcd(self.a, self.b) == 1

    def content(self) -> int:
        return math.gcd(self.a, self.b)


def det2(w1: Weight, w2: Weight) -> int:
    return w1.a * w2.b - w1.b * w2.a


class Edge(NamedTuple):
    u: str
    v: str
    weight: Weight


class DirectedEdge(NamedTuple):
    """An edge with a direction flag; forward means stored u -> stored v."""

    edge_id: int
    forward: bool = True

    def reversed(self) -> "DirectedEdge":
        return DirectedEdge(self.edge_id, not self.forward)


class GkmGraph:
    """A labelled graph: five fields, set once, by which it compares and
    hashes.  Assignment is refused; the cached properties below write to
    the instance dict directly."""

    _fields = ("vertices", "edges", "name", "connection_block", "warnings")

    def __init__(self, vertices: Tuple[str, ...], edges: Tuple[Edge, ...],
                 name: Optional[str] = None,
                 connection_block: Optional[Mapping[str, Any]] = None,
                 warnings: Tuple[str, ...] = ()):
        self.__dict__.update(vertices=vertices, edges=edges, name=name,
                             connection_block=connection_block,
                             warnings=warnings)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a GkmGraph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a GkmGraph")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"GkmGraph({fields})"

    @cached_property
    def memo(self) -> dict:
        """Results derived from this graph alone that more than one reader
        takes (evaluation echelons, class lattices, quotients, the
        free-basis certificate with the basis the pairing reads, transition
        data), filled on first use.  Keys are tuples whose first entry
        names the kind of result: ("evaluations", d), ("z", d),
        ("quotient", d), ("free",) and ("transition", edge, map)."""
        return {}

    @cached_property
    def vertex_index(self) -> Mapping[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def incident(self) -> Mapping[str, Tuple[int, ...]]:
        """Incident edge ids per vertex, in input edge order."""
        inc = {v: [] for v in self.vertices}
        for i, e in enumerate(self.edges):
            inc[e.u].append(i)
            if e.v != e.u:
                inc[e.v].append(i)
        return {v: tuple(ids) for v, ids in inc.items()}

    @cached_property
    def label_pairs(self) -> Mapping[str, Tuple[Tuple[int, int, int], ...]]:
        """Per vertex, (edge id, edge id, det2 of their labels) for every
        pair of incident edges, in incidence order.  The labels' dependence,
        effectivity, isotropy and the edge signs eta are all read from these
        determinants."""
        out = {}
        for v, ids in self.incident.items():
            ws = [self.edges[i].weight for i in ids]
            out[v] = tuple(
                (ids[x], ids[y], det2(ws[x], ws[y]))
                for x in range(len(ids)) for y in range(x + 1, len(ids))
            )
        return out

    @property
    def valence(self) -> int:
        if not self.vertices:
            return 0
        return len(self.incident[self.vertices[0]])

    def source(self, e: DirectedEdge) -> str:
        edge = self.edges[e.edge_id]
        return edge.u if e.forward else edge.v

    def target(self, e: DirectedEdge) -> str:
        edge = self.edges[e.edge_id]
        return edge.v if e.forward else edge.u

    def directed(self, edge_id: int, source: str) -> DirectedEdge:
        edge = self.edges[edge_id]
        if source == edge.u:
            return DirectedEdge(edge_id, True)
        if source == edge.v:
            return DirectedEdge(edge_id, False)
        raise ValueError(f"vertex {source!r} is not an endpoint of edge {edge_id}")

    def with_weights(self, weights: Sequence[Weight]) -> "GkmGraph":
        """Copy with replaced weight lifts (used for lift-invariance checks)."""
        edges = tuple(Edge(e.u, e.v, w) for e, w in zip(self.edges, weights))
        return GkmGraph(self.vertices, edges, self.name, self.connection_block)


class ValidationReport(NamedTuple):
    ok: bool
    failures: Tuple[Mapping[str, Any], ...] = ()


_KNOWN_FIELDS = {"vertices", "edges", "weight", "from", "to", "connection", "name"}


def _unique_keys(pairs: list) -> dict:
    """json object hook: a key written twice in one object is an error, not
    a value silently replaced by the later one."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise GraphSyntaxError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def parse_graph(text: str) -> GkmGraph:
    """Parses a graph file, canonicalizing weight lifts.

    Raises GraphSyntaxError for malformed JSON (with position), JSON nested
    too deeply to decode, or a key repeated in one object, and
    GraphSemanticError for unknown vertices, zero weights and the like.
    Unknown fields are recorded as warnings on the returned graph.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except GraphSyntaxError:
        raise  # a repeated key; the ValueError branch would reword it
    except json.JSONDecodeError as exc:
        raise GraphSyntaxError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past int's digit limit
        raise GraphSyntaxError(str(exc)) from exc
    except RecursionError as exc:  # arrays or objects nested past the stack
        raise GraphSyntaxError("JSON nested too deeply") from exc
    if not isinstance(data, dict):
        raise GraphSyntaxError("top-level value must be an object")

    warnings = [f"unknown field {k!r}" for k in data if k not in _KNOWN_FIELDS]
    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphSemanticError("'vertices' must be a list of strings")
    if len(set(vertices)) != len(vertices):
        raise GraphSemanticError("duplicate vertex names")
    vset = set(vertices)

    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list):
        raise GraphSemanticError("'edges' must be a list")
    edges = []
    for i, rec in enumerate(raw_edges):
        if not isinstance(rec, dict):
            raise GraphSemanticError(f"edge {i}: must be an object")
        warnings += [
            f"edge {i}: unknown field {k!r}" for k in rec if k not in _KNOWN_FIELDS
        ]
        u, v, w = rec.get("from"), rec.get("to"), rec.get("weight")
        for end in (u, v):
            if not isinstance(end, str) or end not in vset:
                raise GraphSemanticError(f"edge {i}: unknown vertex name {end!r}")
        if (
            not isinstance(w, list)
            or len(w) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in w)
        ):
            raise GraphSemanticError(f"edge {i}: weight must be a pair of integers")
        if w == [0, 0]:
            raise GraphSemanticError(f"edge {i}: zero weight")
        edges.append(Edge(u, v, Weight.canonical(w[0], w[1])))

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise GraphSemanticError("'name' must be a string")
    conn = data.get("connection")
    if conn is not None and not isinstance(conn, dict):
        raise GraphSemanticError("'connection' must be an object")

    return GkmGraph(tuple(vertices), tuple(edges), name, conn, tuple(warnings))


def serialize_graph(g: GkmGraph) -> str:
    data: dict = {
        "vertices": list(g.vertices),
        "edges": [
            {"from": e.u, "to": e.v, "weight": [e.weight.a, e.weight.b]}
            for e in g.edges
        ],
    }
    if g.name is not None:
        data["name"] = g.name
    if g.connection_block is not None:
        data["connection"] = g.connection_block
    return json.dumps(data, indent=2)


def signed_forest(
    nodes: Sequence, edges: Sequence[Tuple[Any, Any, int]]
) -> Tuple[dict, dict]:
    """Depth-first spanning forest of a multigraph whose edges (a, b, s)
    carry signs s = ±1, with one root per component at its first node.

    Returns (tau, parent): tau[v] is the product of the signs on the forest
    path from v to its root, in the order the walk reaches the nodes, and
    parent[v] = (previous node, edge index) for every node but the roots.
    The walk pops nodes from a stack and scans each node's edges in index
    order.  tau satisfies tau[a] * tau[b] == s on every edge exactly when
    some ±1 labelling does; a violated edge closes a cycle with sign
    product -1 through the forest.
    """
    incident: dict = {v: [] for v in nodes}
    for i, (a, b, _) in enumerate(edges):
        incident[a].append(i)
        if b != a:
            incident[b].append(i)
    tau: dict = {}
    parent: dict = {}
    for root in nodes:
        if root in tau:
            continue
        tau[root] = 1
        stack = [root]
        while stack:
            v = stack.pop()
            for i in incident[v]:
                a, b, s = edges[i]
                w = b if a == v else a
                if w not in tau:
                    tau[w] = tau[v] * s
                    parent[w] = (v, i)
                    stack.append(w)
    return tau, parent


def _components(g: GkmGraph) -> list:
    tau, parent = signed_forest(g.vertices, [(e.u, e.v, 1) for e in g.edges])
    comps: list = []
    for v in tau:  # a component is reached in one run, from its root on
        if v not in parent:
            comps.append([])
        comps[-1].append(v)
    return comps


def validate(g: GkmGraph) -> ValidationReport:
    """Checks the abstract-graph axioms and effectivity.

    Covered: valence 3 (the paper's scope), loop-freeness, connectivity,
    pairwise linear independence of the weights at every vertex, and
    effectivity (the incident weights at every vertex generate the full
    lattice Z^2, i.e. both elementary divisors of the 2x3 weight matrix are 1).
    The divisors need no Smith form: d_1 is the gcd of the matrix entries
    and d_1 d_2 the gcd of its 2x2 minors, the pair determinants of
    g.label_pairs; when every minor is 0 the rank is 1 and d_1 is the only
    divisor.
    """
    failures = []
    if not g.vertices:
        return ValidationReport(False, ({"kind": "disconnected", "components": []},))

    for i, e in enumerate(g.edges):
        if e.u == e.v:
            failures.append({"kind": "loop", "edge": i})

    for v in g.vertices:
        if len(g.incident[v]) != 3:
            failures.append(
                {"kind": "valence", "vertex": v, "found": len(g.incident[v]),
                 "expected": 3}
            )

    comps = _components(g)
    if len(comps) > 1:
        failures.append(
            {"kind": "disconnected", "components": [sorted(c) for c in comps]}
        )

    for v in g.vertices:
        pairs = g.label_pairs[v]
        failures += [
            {"kind": "dependence-at-vertex", "vertex": v, "edges": [x, y]}
            for x, y, det in pairs if det == 0
        ]
        ids = g.incident[v]
        if ids:
            d1 = math.gcd(*(c for i in ids for c in g.edges[i].weight.vector))
            minors = math.gcd(*(det for _, _, det in pairs))
            divisors = [d1, minors // d1] if minors else [d1]
            if divisors != [1, 1]:
                failures.append(
                    {"kind": "ineffective", "vertex": v,
                     "elementary_divisors": divisors}
                )
    return ValidationReport(not failures, tuple(failures))


def connected_isotropy_check(g: GkmGraph) -> dict:
    """Primitivity of every weight and unit pair determinants at every vertex.

    ok is True iff every weight is primitive and, for every vertex and every
    pair of incident edges, the two weights form a Z-basis (|det| = 1).
    """
    failing = []
    for i, e in enumerate(g.edges):
        if not e.weight.is_primitive():
            failing.append({"kind": "imprimitive", "edge": i,
                            "content": e.weight.content()})
    for v in g.vertices:
        failing += [
            {"kind": "pair", "vertex": v, "edges": [x, y], "det": d}
            for x, y, d in g.label_pairs[v] if abs(d) != 1
        ]
    return {"ok": not failing, "failing_pairs": failing}
