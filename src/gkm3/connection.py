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
integral exactly when det(w(f), w(e)) divides det(w(f), w(f')).  _phi forms
a step's transition matrix, which transition and loop_holonomy both read.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .graph import DirectedEdge, GkmGraph, GraphSemanticError, Weight, per_graph

__all__ = [
    "Connection", "ConnectionSpace", "TransitionData", "ConnectionPath",
    "transport_coefficients", "edge_options", "enumerate_connections",
    "connection_from_block",
    "available_connections", "transition", "connection_paths", "loop_holonomy",
]

_EDGE_ID = re.compile("-?[0-9]+")  # ASCII digits only, unlike int()


def transport_coefficients(
    wf: Weight, wfp: Weight, we: Weight
) -> Optional[Tuple[int, int]]:
    """Solves weight(f') = eps*weight(f) + k*weight(e); None if not compatible.

    The pair (wf, we) is assumed linearly independent (a validated graph
    guarantees this for distinct incident edges).  It is the one statement of
    the rule, which the enumeration and transition both call.
    """
    (a, b), (c, d), (p, q) = wf, wfp, we
    den = a * q - b * p  # det(w(f), w(e))
    if den == 0:
        raise ValueError("weights of f and e are linearly dependent")
    num = c * q - d * p  # det(w(f'), w(e))
    if num != den and num != -den:
        return None
    k, r = divmod(a * d - b * c, den)  # det(w(f), w(f'))
    if r:
        return None
    return num // den, k


class Connection(NamedTuple):
    """For each directed edge, the incident-edge bijection, by stable ids.

    maps[(edge_id, forward)] is a dict from source incident edge id to
    target incident edge id; the two directions are mutually inverse.
    """

    maps: Mapping[Tuple[int, bool], Dict[int, int]]

    def apply(self, e: DirectedEdge, f: int) -> int:
        b = self.maps[(e.edge_id, e.forward)].get(f)
        if b is None:
            raise KeyError(f"edge {f} is not incident to the source of {e}")
        return b

    @staticmethod
    def from_forward_maps(forward: Mapping[int, Mapping[int, int]]) -> "Connection":
        maps = {}
        for eid, fmap in forward.items():
            maps[(eid, True)] = dict(fmap)  # a copy: fmap may be an edge_options entry
            maps[(eid, False)] = {b: a for a, b in fmap.items()}
        return Connection(maps)


def _compatible_bijections(g: GkmGraph, eid: int) -> List[Dict[int, int]]:
    """All compatible E_u -> E_v bijections for the forward direction of eid."""
    edges, e = g.edges, g.edges[eid]
    src = [f for f in g.incident[e.u] if f != eid]
    tgt = [f for f in g.incident[e.v] if f != eid]
    out = []
    for perm in itertools.permutations(tgt):
        for f, fp in zip(src, perm):
            if not transport_coefficients(edges[f].weight, edges[fp].weight, e.weight):
                break
        else:
            out.append(dict(zip(src + [eid], perm + (eid,))))
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
            j = j * len(opts) + opts.index(conn.maps[(eid, True)])
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


@per_graph("options")
def edge_options(g: GkmGraph) -> List[List[Dict[int, int]]]:
    """The compatible forward maps of each edge, listed once per graph: the
    connection space and the Thom-class route (gkm3.thom) both read them.
    Neither reads the file's connection block, nor changes a list."""
    return [_compatible_bijections(g, eid) for eid in range(len(g.edges))]


def enumerate_connections(g: GkmGraph) -> ConnectionSpace:
    """All compatible connections of g, in a deterministic order.

    An empty sequence is the verdict that g is not a GKM graph.
    """
    return ConnectionSpace(edge_options(g))


def _edge_id(x) -> int:
    """An edge id of a connection block: an int or a string of digits."""
    if type(x) is int or (isinstance(x, str) and _EDGE_ID.fullmatch(x)):
        try:
            return int(x)
        except ValueError:  # past int()'s digit limit, so no edge's id
            raise GraphSemanticError(
                f"connection: edge id of {len(x)} digits is out of range") from None
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


class TransitionData(NamedTuple):
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
        return _det3(sum(self.phi, ()))

    @property
    def sign_sigma(self) -> int:
        return _perm_sign(self.sigma)


def _perm_sign(sigma: Sequence[int]) -> int:
    """(-1) to the number of inversions."""
    inversions = sum(a > b for i, a in enumerate(sigma) for b in sigma[i + 1:])
    return -1 if inversions % 2 else 1


def _det3(p: Sequence[int]) -> int:
    """The determinant of the 3 x 3 matrix with row-major entries p."""
    a, b, c, d, e, f, g, h, i = p
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class ConnectionInconsistency(RuntimeError):
    """A validated connection produced inconsistent transition data."""


def _phi(g: GkmGraph, to, eid: int, forward: bool) -> List[int]:
    """phi's nine entries, row by row, for the step (eid, forward) with map
    to: column j /= m holds eps_j in row sigma(j), column m (the edge's)
    1 in row sigma(m) and the k in the others.  A source missing from to is
    a KeyError, other keys are ignored; valence /= 3 is a ValueError; an
    incompatible transport, a failing weight-transport identity and det phi
    /= ±1 raise ConnectionInconsistency."""
    edges, edge = g.edges, g.edges[eid]
    src, tgt = (edge.u, edge.v) if forward else (edge.v, edge.u)
    src_ids, tgt_ids = g.incident[src], g.incident[tgt]
    if len(src_ids) != 3:
        raise ValueError("transition data are defined for 3-valent graphs")
    we, phi, m = edge.weight, [0] * 9, src_ids.index(eid)
    for j, f in enumerate(src_ids):
        s = 3 * tgt_ids.index(fp := to[f])
        if j == m:
            phi[s + j] = 1
            continue
        coeffs = transport_coefficients(edges[f].weight, edges[fp].weight, we)
        if coeffs is None:
            raise ConnectionInconsistency(f"incompatible transport along edge {eid}")
        phi[s + j], phi[s + m] = coeffs
    f0, f1, f2 = src_ids
    (a0, b0), (a1, b1), (a2, b2) = edges[f0].weight, edges[f1].weight, edges[f2].weight
    f0, f1, f2 = tgt_ids
    w0, w1, w2 = edges[f0].weight, edges[f1].weight, edges[f2].weight
    p0, p1, p2, p3, p4, p5, p6, p7, p8 = phi
    if ((p0 * a0 + p1 * a1 + p2 * a2, p0 * b0 + p1 * b1 + p2 * b2) != w0
            or (p3 * a0 + p4 * a1 + p5 * a2, p3 * b0 + p4 * b1 + p5 * b2) != w1
            or (p6 * a0 + p7 * a1 + p8 * a2, p6 * b0 + p7 * b1 + p8 * b2) != w2):
        raise ConnectionInconsistency(
            f"weight transport identity fails along edge {eid}")
    det = _det3(phi)
    if det not in (1, -1):
        raise ConnectionInconsistency(f"det phi = {det} along {eid}")
    return phi


def transition(g: GkmGraph, conn: Connection, e: DirectedEdge) -> TransitionData:
    """Transition data of a directed edge under a compatible connection: the
    record of _phi's matrix and errors for the dict conn.maps[e], unmemoized."""
    to, src_ids = conn.maps[e], g.incident[g.source(e)]
    phi = _phi(g, to, *e)
    sigma = tuple([g.incident[g.target(e)].index(to[f]) for f in src_ids])
    m = src_ids.index(e.edge_id)
    eps = tuple([phi[3 * s + j] for j, s in enumerate(sigma)])
    k = tuple([0 if j == m else phi[3 * s + m] for j, s in enumerate(sigma)])
    rows = tuple(phi[:3]), tuple(phi[3:6]), tuple(phi[6:])
    return TransitionData(e, sigma, eps, k, rows)


class ConnectionPath(NamedTuple):
    """A cyclic sequence e_1, ..., e_n with e_{i+1} = transport of e_{i-1}.

    steps[i] is the directed edge e_{i+1} leaving its source vertex; the
    stored representative is the canonical one (lexicographically least over
    all rotations of both orientations, directed edges ordered as their
    (edge_id, forward) tuples).  len is the number of steps, so the tuple
    helpers _make and _replace, which check len against the one field, do
    not apply.
    """

    steps: Tuple[DirectedEdge, ...]

    def __len__(self) -> int:
        return len(self.steps)

    @staticmethod
    def canonical(steps: Sequence[Tuple[int, bool]]) -> "ConnectionPath":
        """The path through steps, DirectedEdges or (edge id, forward) pairs."""
        rev = [(eid, not forward) for eid, forward in reversed(steps)]
        first = min(min(steps), min(rev))  # the least rotation starts with it
        best = min(tuple(s[i:] + s[:i]) for s in (steps, rev)
                   for i in range(len(s)) if s[i] == first)
        return ConnectionPath(tuple(itertools.starmap(DirectedEdge, best)))


def connection_paths(g: GkmGraph, conn: Connection) -> List[ConnectionPath]:
    """All connection paths, deduplicated up to starting point and orientation.

    Iterates e_{i+1} = transport of e_{i-1} along e_i from each seed state,
    a plain (predecessor edge id, edge id, forward) tuple, on no face yet
    until the seed recurs, and marks the reverse walk's states too, so each
    face is walked once.  A step reads conn.maps as Connection.apply does and
    orients the next edge as GkmGraph.directed does, with their errors; a
    face builds its DirectedEdges once.  The path lengths sum to 2|E|.
    """
    if g.valence != 3:
        raise ValueError("connection paths are defined for 3-valent graphs")
    edges, maps = g.edges, conn.maps
    seen: set = set()
    paths = []
    for v in g.vertices:
        for prev, cur in itertools.permutations(g.incident[v], 2):
            seed = (prev, cur, v == edges[cur].u)
            if seed in seen:
                continue
            steps = []
            state = seed
            while True:
                seen.add(state)
                p, eid, forward = state
                steps.append((eid, forward))
                nxt = maps[(eid, forward)].get(p)
                if nxt is None:
                    raise KeyError(f"edge {p} is not incident to the source of "
                                   f"{DirectedEdge(eid, forward)}")
                edge, out = edges[eid], edges[nxt]
                w = edge.v if forward else edge.u
                if w != out.u and w != out.v:
                    raise ValueError(f"vertex {w!r} is not an endpoint of edge {nxt}")
                state = (eid, nxt, w == out.u)
                if state == seed:
                    break
            n = len(steps)
            seen.update((steps[(i + 1) % n][0], eid, not forward)
                        for i, (eid, forward) in enumerate(steps))
            paths.append(ConnectionPath.canonical(steps))
    paths.sort()
    total = sum(len(p) for p in paths)
    if total != 2 * len(g.edges):
        raise ConnectionInconsistency(
            f"path lengths sum to {total}, expected {2 * len(g.edges)}"
        )
    return paths


def loop_holonomy(
    g: GkmGraph, conn: Connection, path: ConnectionPath
) -> List[List[int]]:
    """Ordered product of _phi's 3 x 3 matrices around a connection path,
    unrolled (other valences raise).  The matrices are expressed in the
    stored incidence orders, so consecutive factors compose directly; the
    result maps the incident-edge coordinates at the starting vertex to
    themselves."""
    (a, b, c), (d, e, f), (p, q, r) = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    for step in path.steps:
        A, B, C, D, E, F, P, Q, R = _phi(g, conn.maps[step], *step)
        a, b, c, d, e, f, p, q, r = (
            A * a + B * d + C * p, A * b + B * e + C * q, A * c + B * f + C * r,
            D * a + E * d + F * p, D * b + E * e + F * q, D * c + E * f + F * r,
            P * a + Q * d + R * p, P * b + Q * e + R * q, P * c + Q * f + R * r,
        )
    return [[a, b, c], [d, e, f], [p, q, r]]
