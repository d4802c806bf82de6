"""Compatible connections: enumeration, transition calculus and paths.

A connection assigns to every directed edge e: v -> w a bijection of the
incident edge sets E_v -> E_w fixing e, with reversal acting by inversion.
Compatibility means every transported label satisfies, over the canonical
sign lifts, weight(f') = eps * weight(f) + k * weight(e) with eps = ±1 and
k an integer.  The coefficient solver uses exact determinant formulas

    eps = det(w(f'), w(e)) / det(w(f), w(e))
    k   = det(w(f),  w(f')) / det(w(f), w(e))

and keeps eps in {±1} and integral k.  Both tests stay in the integers:
eps = ±1 exactly when the two determinants agree up to sign, and k is
integral exactly when det(w(f), w(e)) divides det(w(f), w(f')).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .graph import DirectedEdge, GkmGraph, GraphSemanticError, Weight, det2

__all__ = [
    "Connection",
    "ConnectionSpace",
    "TransitionData",
    "ConnectionPath",
    "transport_coefficients",
    "enumerate_connections",
    "connection_from_block",
    "available_connections",
    "transition",
    "connection_paths",
    "loop_holonomy",
]


def transport_coefficients(
    wf: Weight, wfp: Weight, we: Weight
) -> Optional[Tuple[int, int]]:
    """Solves weight(f') = eps*weight(f) + k*weight(e); None if not compatible.

    The pair (wf, we) is assumed linearly independent (a validated graph
    guarantees this for distinct incident edges).
    """
    den = det2(wf, we)
    if den == 0:
        raise ValueError("weights of f and e are linearly dependent")
    num = det2(wfp, we)
    if num not in (den, -den):
        return None
    k, r = divmod(det2(wf, wfp), den)
    if r:
        return None
    return num // den, k


@dataclass(frozen=True)
class Connection:
    """For each directed edge, the incident-edge bijection, by stable ids.

    maps[(edge_id, forward)] is a tuple of pairs (source incident edge id,
    target incident edge id); the two directions are mutually inverse.
    """

    maps: Mapping[Tuple[int, bool], Tuple[Tuple[int, int], ...]]

    def apply(self, e: DirectedEdge, f: int) -> int:
        for a, b in self.maps[(e.edge_id, e.forward)]:
            if a == f:
                return b
        raise KeyError(f"edge {f} is not incident to the source of {e}")

    def as_dict(self, e: DirectedEdge) -> Dict[int, int]:
        return dict(self.maps[(e.edge_id, e.forward)])

    @staticmethod
    def from_forward_maps(forward: Mapping[int, Mapping[int, int]]) -> "Connection":
        maps = {}
        for eid, fmap in forward.items():
            items = tuple(sorted(fmap.items()))
            maps[(eid, True)] = items
            maps[(eid, False)] = tuple(sorted((b, a) for a, b in items))
        return Connection(maps)


def _compatible_bijections(g: GkmGraph, eid: int) -> List[Dict[int, int]]:
    """All compatible E_u -> E_v bijections for the forward direction of eid."""
    e = g.edges[eid]
    we = e.weight
    src = [f for f in g.incident[e.u] if f != eid]
    tgt = [f for f in g.incident[e.v] if f != eid]
    allowed = {
        f: [
            fp
            for fp in tgt
            if transport_coefficients(g.edges[f].weight, g.edges[fp].weight, we)
            is not None
        ]
        for f in src
    }
    out = []
    for perm in itertools.permutations(tgt):
        if all(fp in allowed[f] for f, fp in zip(src, perm)):
            m = dict(zip(src, perm))
            m[eid] = eid
            out.append(m)
    return out


class ConnectionSpace(Sequence[Connection]):
    """The compatible connections of g, a lazy product of per-edge options.

    options[eid] lists the compatible forward maps of edge eid; the choices
    at different edges are independent (the reverse direction is the
    inverse).  Connection j of the product writes j in mixed radix with the
    option counts as digits, the last edge varying fastest, as
    itertools.product orders it.  A file-supplied connection comes first and
    the product skips its own position, so count is always the product of
    the option counts.  It is a plain int, as large as it needs to be: len()
    returns it too, but raises OverflowError above sys.maxsize, so a truth
    test reads count instead.  Connections are built on access, never
    stored.
    """

    def __init__(self, options: Sequence[Sequence[Dict[int, int]]],
                 explicit: Optional[Connection] = None):
        self.options = options
        self.explicit = explicit
        self.count = math.prod(len(opts) for opts in options)
        self._skip = None if explicit is None else self._position(explicit)

    def _position(self, conn: Connection) -> int:
        j = 0
        for eid, opts in enumerate(self.options):
            j = j * len(opts) + opts.index(dict(conn.maps[(eid, True)]))
        return j

    def __len__(self) -> int:
        return self.count

    def __bool__(self) -> bool:
        return self.count > 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.count))]
        i = operator.index(i)
        if i < 0:
            i += self.count
        if not 0 <= i < self.count:
            raise IndexError(f"connection index {i} out of range")
        if self.explicit is not None:
            if i == 0:
                return self.explicit
            i -= 1
            if i >= self._skip:
                i += 1
        choice = []
        for opts in reversed(self.options):
            i, digit = divmod(i, len(opts))
            choice.append(opts[digit])
        return Connection.from_forward_maps(dict(enumerate(reversed(choice))))


def enumerate_connections(g: GkmGraph) -> ConnectionSpace:
    """All compatible connections of g, in a deterministic order.

    An empty sequence is the verdict that g is not a GKM graph.
    """
    return ConnectionSpace(
        [_compatible_bijections(g, eid) for eid in range(len(g.edges))]
    )


def _edge_id(x) -> int:
    """An edge id of a connection block: an int or a string of digits."""
    if type(x) is int or (isinstance(x, str) and re.fullmatch("-?[0-9]+", x)):
        return int(x)
    raise GraphSemanticError(f"connection: edge id {x!r} is not an integer")


def _id_map(eid: int, raw) -> Optional[Dict[int, int]]:
    if raw is not None and not isinstance(raw, dict):
        raise GraphSemanticError(f"connection: edge {eid} map must be an object")
    ids = None if raw is None else {_edge_id(a): _edge_id(b) for a, b in raw.items()}
    if ids is not None and len(ids) != len(raw):
        raise GraphSemanticError(f"connection: edge {eid} maps a source id twice")
    return ids


def connection_from_block(
    g: GkmGraph, block: Mapping, options: Sequence[Sequence[Dict[int, int]]]
) -> Connection:
    """Builds and checks a connection from a graph file `connection` block.

    The block maps stringified edge ids to {"forward": {src id: tgt id},
    "backward": {...}} where backward is optional and checked as the
    inverse.  A forward map is accepted exactly when it is one of the
    edge's compatible bijections in options, the per-edge options of
    enumerate_connections(g); every defect of the block raises
    GraphSemanticError.
    """
    forward: Dict[int, Dict[int, int]] = {}
    backward: Dict[int, Optional[Dict[int, int]]] = {}
    for key, entry in block.items():
        eid = _edge_id(key)
        if eid < 0 or eid >= len(g.edges):
            raise GraphSemanticError(f"connection: edge id {eid} out of range")
        if eid in forward:
            raise GraphSemanticError(f"connection: edge id {eid} is repeated")
        if not isinstance(entry, dict):
            raise GraphSemanticError(f"connection: edge {eid} entry must be an object")
        forward[eid] = _id_map(eid, entry.get("forward")) or {}
        backward[eid] = _id_map(eid, entry.get("backward"))
    if set(forward) != set(range(len(g.edges))):
        raise GraphSemanticError("connection: every edge needs a forward map")

    for eid, fmap in forward.items():
        if fmap not in options[eid]:
            raise GraphSemanticError(
                f"connection: edge {eid} map is not a compatible bijection E_u"
                " -> E_v: it moves the edge, misses E_v or transports a label"
                " incompatibly"
            )
        back = backward[eid]
        if back is not None and back != {b: a for a, b in fmap.items()}:
            raise GraphSemanticError(
                f"connection: edge {eid} backward map is not the inverse"
            )
    return Connection.from_forward_maps(forward)


def available_connections(g: GkmGraph) -> Tuple[ConnectionSpace, bool]:
    """(connections, explicit) with a file-supplied connection first."""
    space = enumerate_connections(g)
    if g.connection_block is None:
        return space, False
    explicit = connection_from_block(g, g.connection_block, space.options)
    return ConnectionSpace(space.options, explicit), True


@dataclass(frozen=True)
class TransitionData:
    """Bookkeeping for one directed edge e: v -> w.

    sigma is the edge-order transport permutation relative to the stored
    incidence orders (sigma[i] = j means the i-th edge at v is carried to
    the j-th edge at w, 0-based).  eps[i], k[i] are the transport
    coefficients, with eps = 1, k = 0 at the index of e itself.  phi is the
    assembled GL(n, Z) matrix carrying the stacked weight rows at v to the
    sigma-permuted weight rows at w.
    """

    edge: DirectedEdge
    sigma: Tuple[int, ...]
    eps: Tuple[int, ...]
    k: Tuple[int, ...]
    phi: Tuple[Tuple[int, ...], ...]

    @property
    def det_phi(self) -> int:
        (a, b, c), (d, e, f), (g, h, i) = self.phi
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    @property
    def sign_sigma(self) -> int:
        return _perm_sign(self.sigma)


def _perm_sign(sigma: Sequence[int]) -> int:
    """(-1) to the number of inversions."""
    inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    return -1 if inversions % 2 else 1


class ConnectionInconsistency(RuntimeError):
    """A validated connection produced inconsistent transition data."""


def transition(g: GkmGraph, conn: Connection, e: DirectedEdge) -> TransitionData:
    """Transition data of a directed edge under a compatible connection.

    The matrix entries follow the bookkeeping recipe: column j /= m carries
    eps_j in row sigma(j); column m carries 1 in row sigma(m) and the
    integers k in the remaining rows.  The weight-transport identity and
    det phi = ±1 are checked (ConnectionInconsistency).

    The data read the connection only through its map at e, so they are
    memoized per graph by (e, that map): every connection that agrees at e
    shares them, as do loop_holonomy and thom_class_edge.
    """
    key = ("transition", e, conn.maps[(e.edge_id, e.forward)])
    if key in g.memo:
        return g.memo[key]
    v, w = g.source(e), g.target(e)
    src_ids, tgt_ids = g.incident[v], g.incident[w]
    n = len(src_ids)
    if n != 3:
        raise ValueError("transition data are defined for 3-valent graphs")
    m = src_ids.index(e.edge_id)
    we = g.edges[e.edge_id].weight

    sigma, eps, k = [0] * n, [0] * n, [0] * n
    for i, f in enumerate(src_ids):
        fp = conn.apply(e, f)
        sigma[i] = tgt_ids.index(fp)
        if f == e.edge_id:
            eps[i], k[i] = 1, 0
            continue
        coeffs = transport_coefficients(g.edges[f].weight, g.edges[fp].weight, we)
        if coeffs is None:
            raise ConnectionInconsistency(
                f"incompatible transport along edge {e.edge_id}"
            )
        eps[i], k[i] = coeffs

    phi = [[0] * n for _ in range(n)]
    for j in range(n):
        phi[sigma[j]][j] = eps[j]
    for i in range(n):
        if i != sigma[m]:
            phi[i][m] = k[sigma.index(i)]

    # Weight-transport identity: phi @ (rows of weights at v) matches the
    # sigma-permuted rows of weights at w.
    for i in range(n):
        row = [
            sum(phi[i][j] * g.edges[src_ids[j]].weight.vector[c] for j in range(n))
            for c in range(2)
        ]
        if tuple(row) != g.edges[tgt_ids[i]].weight.vector:
            raise ConnectionInconsistency(
                f"weight transport identity fails along edge {e.edge_id}"
            )
    data = TransitionData(
        e, tuple(sigma), tuple(eps), tuple(k), tuple(tuple(r) for r in phi)
    )
    if data.det_phi not in (1, -1):
        raise ConnectionInconsistency(f"det phi = {data.det_phi} along {e.edge_id}")
    g.memo[key] = data
    return data


@dataclass(frozen=True)
class ConnectionPath:
    """A cyclic sequence e_1, ..., e_n with e_{i+1} = transport of e_{i-1}.

    steps[i] is the directed edge e_{i+1} leaving its source vertex; the
    stored representative is the canonical one (lexicographically least over
    all rotations of both orientations).
    """

    steps: Tuple[DirectedEdge, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @staticmethod
    def canonical(steps: Sequence[DirectedEdge]) -> "ConnectionPath":
        def rotations(seq):
            return [tuple(seq[i:]) + tuple(seq[:i]) for i in range(len(seq))]

        rev = tuple(s.reversed() for s in reversed(steps))
        key = lambda seq: [(s.edge_id, s.forward) for s in seq]
        best = min(rotations(steps) + rotations(rev), key=key)
        return ConnectionPath(best)


def connection_paths(g: GkmGraph, conn: Connection) -> List[ConnectionPath]:
    """All connection paths, deduplicated up to starting point and orientation.

    Iterates e_{i+1} = transport of e_{i-1} along e_i from each seed state
    (predecessor edge, directed edge) on no face yet until the seed recurs,
    and marks the reverse walk's states too, so each face is walked once.
    For a 3-valent graph the path lengths sum to 2|E|.
    """
    if g.valence != 3:
        raise ValueError("connection paths are defined for 3-valent graphs")
    seen: set = set()
    paths = []
    for v in g.vertices:
        for prev, cur in itertools.permutations(g.incident[v], 2):
            seed = (prev, g.directed(cur, v))
            if seed in seen:
                continue
            steps = []
            state = seed
            while True:
                p, d = state
                seen.add(state)
                steps.append(d)
                nxt = conn.apply(d, p)
                state = (d.edge_id, g.directed(nxt, g.target(d)))
                if state == seed:
                    break
            n = len(steps)
            seen.update((steps[(i + 1) % n].edge_id, steps[i].reversed())
                        for i in range(n))
            paths.append(ConnectionPath.canonical(steps))
    paths.sort(key=lambda p: [(s.edge_id, s.forward) for s in p.steps])
    total = sum(len(p) for p in paths)
    if total != 2 * len(g.edges):
        raise ConnectionInconsistency(
            f"path lengths sum to {total}, expected {2 * len(g.edges)}"
        )
    return paths


def loop_holonomy(
    g: GkmGraph, conn: Connection, path: ConnectionPath
) -> List[List[int]]:
    """Ordered product of the transition matrices around a connection path.

    Transition matrices are expressed in the stored incidence orders, so
    consecutive factors compose directly; the result maps the incident-edge
    coordinates at the starting vertex to themselves.
    """
    n = g.valence
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for step in path.steps:
        phi = transition(g, conn, step).phi
        acc = [[sum(p * a for p, a in zip(row, col)) for col in zip(*acc)]
               for row in phi]
    return acc
