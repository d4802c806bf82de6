"""The certificate of both realizability conditions (Certificate): n = |V|
classes of H_T whose value determinant makes them a free basis, and the
integer factors of the Poincare pairing.  gkm3.cohomology, which keeps the
class lattice and imports this module, tries the Thom-class route
(free_basis) first, and otherwise reads its closed basis into the same
record (certificate).  This module imports nothing from cohomology.

The classes, each made by one builder (_values).  Besides the constant 1
(degree 0), the edge Thom class (degree 2, thom_class_edge) and the vertex
Thom class tau_p (degree 3, thom_class_vertex), each face of a compatible
connection gives one of degree 1: at each vertex v of the face, s_v times
the label of its normal edge, the edge at v off the face, and 0 elsewhere.
A step of the face over an edge e carries the normal edge n to n' with
alpha_n' = eps alpha_n + k alpha_e (connection.transport_coefficients), so
s_v' = eps s_v makes f_v - f_v' = -eps s_v k alpha_e a multiple of alpha_e;
such signs exist when the product of the eps around the face is +1.

The faces are those of the connection that takes at each edge the
compatible forward map (connection.edge_options) whose two transports have
the least sum of |k|, ties going to the earlier map.  So they depend on
neither the file's connection block nor the connection index of a verdict.

The peel.  The vertices are picked one at a time (_order).  A vertex with
k edges to vertices already picked gets one class, which vanishes on every
vertex not yet picked:
  k = 0  tau_p;
  k = 1  the Thom class of that edge;
  k = 2  the Thom class of the face through those two edges, when the face
         visits each vertex once, its eps product is +1 and it lies in the
         picked set;
  k = 3  the constant 1, as the last vertex only.
The greedy order takes the first vertex, in vertex order, with a face class
available, else the first with k = 1, else the first with k = 0.  With none
the peel stalls and the route declines.  The order is decided before any
class is built: a vertex at k = 2 walks its face once, up to its first
vertex not yet picked, and an edge's map is chosen only as a walk crosses it.

The determinant.  The classes' values at (1, t) (_point), one row per class
in pick order and one column per vertex, are triangular.  The diagonal
entry of a vertex is +- the product of its labels to the vertices picked
after it, so |det| = prod_e |alpha_e(1, t)|, and the degrees sum to |E|,
each edge counted at its later end.  When |det| is _target, steps 1-3 of
cohomology.z_freeness make the classes a free basis of H_T; otherwise the
route declines.  free_basis goes through the picks once: it builds each
class, checks it on the edges at its support (_check_class; a failed check
raises RuntimeError), multiplies its diagonal value into det and forms its
pairing factors.

The pairing.  The localized integral  int f = sum_p tau(p) f(p) / e_p,  with
tau the orientability potential and e_p the product of the labels at p,
reads the reduced H^6 (cohomology.poincare_duality).  So the route runs only
on a graph with a potential (orientation.is_orientable), and the pairing of
its degree-1 and degree-2 classes is int u v, a constant read at (1, t).
Its factors make u's row L int u v, with L the lcm of the e_p(1, t) over
u's vertices, which is exact, integral and of the same rank.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .connection import ConnectionInconsistency, edge_options, transport_coefficients
from .graph import GkmGraph, per_graph
from .orientation import eta, is_orientable

__all__ = ["Certificate", "certificate", "free_basis"]


def poly_mul(p: Sequence, q: Sequence) -> Tuple:
    """Product of homogeneous polynomials (coefficient convolution)."""
    dp, dq = len(p) - 1, len(q) - 1
    out = [0] * (dp + dq + 1)
    for i, pc in enumerate(p):
        for j, qc in enumerate(q):
            out[i + j] += pc * qc
    return tuple(out)


def poly_eval(p: Sequence, x, y):
    """Evaluates sum p_k x^{d-k} y^k at (x, y)."""
    out, yk = 0, 1
    for c in p:  # Horner's rule in x
        out, yk = out * x + c * yk, yk * y
    return out


def _moduli(g: GkmGraph) -> List[Tuple]:
    """(edge, content) of each imprimitive edge, in edge order."""
    return [(e, c) for e in g.edges if (c := e.weight.content()) > 1]


def _point(g: GkmGraph) -> int:
    """t with (1, t) off every line alpha'_e = 0: 1 + max |a'_e|."""
    return 1 + max((abs(e.weight.a // e.weight.content()) for e in g.edges),
                   default=0)


def _target(g: GkmGraph) -> int:
    """N prod |alpha'_e(1, t)|, the |det V| of |V| classes that are a free
    basis of H_T (cohomology.z_freeness).  N is the order of the image of
    f -> (f_u - f_v mod c_e): prod c_e over the index of the incidence rows
    and the c_e unit vectors."""
    t = _point(g)
    moduli = _moduli(g)
    incidence = [[(v == e.u) - (v == e.v) for e, _ in moduli] for v in g.vertices]
    scaled = [[c * (i == j) for j in range(len(moduli))]
              for i, (_, c) in enumerate(moduli)]
    # The product of a full-rank echelon basis's pivots is its lattice's index.
    index = math.prod(c for _, c in moduli) // math.prod(
        next(filter(None, row)) for row in linalg.echelon_basis(incidence + scaled))
    return index * abs(math.prod(
        (e.weight.a + e.weight.b * t) // e.weight.content() for e in g.edges))


def thom_class_vertex(g: GkmGraph, v: str) -> list:
    """Degree-6 class: product of the three incident weights at v, 0 elsewhere,
    checked to be an integral class (_thom_class)."""
    return _thom_class(g, [v], None, f"Thom class of vertex {v!r}")


def thom_class_edge(g: GkmGraph, edge_id: int) -> list:
    """Degree-4 class supported on the endpoints of an edge.

    At the source it is the product of the other two incident weights, at
    the target that product times -eta(e) = eps_2 * eps_3 (the lemma of
    gkm3.orientation); it is checked to be an integral class (_thom_class).
    """
    e = g.edges[edge_id]
    return _thom_class(g, [e.u, e.v], edge_id, f"Thom class of edge {edge_id}")


def _thom_class(g: GkmGraph, ends: Sequence[str], skip: Optional[int],
                what: str) -> list:
    """_values as a vector, checked at its support (_check_class): tau of the
    vertex ends[0], or the class of the edge skip.  ValueError at an end
    whose valence is not g.valence, the block size."""
    for v in ends:
        if len(g.incident[v]) != g.valence:
            raise ValueError(f"{what}: vertex {v!r} has valence "
                             f"{len(g.incident[v])}, not {g.valence}")
    if skip is None:
        values, k = _values(g, ends[0], 3, None), g.valence + 1
    else:
        values, k = _values(g, ends[0], 2, skip, {skip: eta(g, skip)}), g.valence
    vec = [0] * (len(g.vertices) * k)
    for v, f in values.items():
        base = g.vertex_index[v] * k
        for j, c in enumerate(f):
            vec[base + j] += c
    _check_class(g, values, what)
    return vec


def _values(g: GkmGraph, v: str, degree: int, data, eta_map=None) -> dict:
    """The unchecked values (vertex -> coefficients, 0 elsewhere) of the class
    of a pick (v, degree, data) of _order.  Degree 3: tau_v, v's labels'
    product.  2: each end's product but the edge data, times -eta_map[data] at
    e.v.  1: s_w times the label of n_w at each (w, n_w, s_w) of the face
    data.  0: the constant 1.  At any valence 3 and 2 name tau and edges."""
    edges, out = g.edges, {}
    if degree == 1:
        return {w: (s * edges[n].weight.a, s * edges[n].weight.b) for w, n, s in data}
    if degree == 0:
        return dict.fromkeys(g.vertices, (1,))
    ends = [(v, 1)] if data is None else [(edges[data].u, 1),
                                          (edges[data].v, -eta_map[data])]
    for w, scale in ends:
        prod = reduce(poly_mul, (edges[eid].weight.vector
                                 for eid in g.incident[w] if eid != data), (1,))
        old = out.get(w, (0,) * len(prod))
        out[w] = tuple(a + scale * c for a, c in zip(old, prod))
    return out


def _check_class(g: GkmGraph, values: dict, what: str) -> dict:
    """values (vertex -> coefficients, 0 elsewhere), or RuntimeError unless
    at each edge at a listed vertex h = f_u - f_v is divisible by the label
    (cohomology.ht_basis_z's equations); no lattice is formed."""
    zero, get = (0,) * max(map(len, values.values()), default=0), values.get
    for eid in {eid for v in values for eid in g.incident[v]}:
        u, v, (a, b) = g.edges[eid]
        if (fu := get(u, zero)) != (fv := get(v, zero)):
            h, c = [p - q for p, q in zip(fu, fv)], math.gcd(a, b)
            if poly_eval(h, b // c, -a // c) or any(x % c for x in h):
                raise RuntimeError(f"{what} escaped the class lattice")
    return values


class Certificate(NamedTuple):
    """n = |V| classes of H_T, read at (x, y) = (1, t) (_point): their
    degrees, in increasing order; |det V|, V one row of values per class and
    one column per vertex; target, the |det V| of a free basis (_target);
    and the Poincare pairing's factors (cohomology._pairing), per degree-1
    class u a dict vertex -> weight and per degree-2 class v a dict
    vertex -> v(1, t), both empty when det is 0."""

    degrees: Tuple[int, ...]
    det: int
    target: int
    rows: List[dict]
    cols: List[dict]


@per_graph("thom")
def free_basis(g: GkmGraph) -> Optional[Certificate]:
    """The Certificate of the peel's classes, built in one pass over the
    picks, or None where the route declines: a vertex not of valence 3, a
    loop, no potential (eta raises or the graph is not orientable), an edge
    with no compatible map, a stall, or a determinant that is not the
    target.  u's weight at p is tau(p) u(p) L / e_p, L the lcm of the e_p
    over u's vertices, so u's row is L int u v."""
    if not g.vertices or any(len(ids) != 3 for ids in g.incident.values()) or any(
            e.u == e.v for e in g.edges):
        return None
    try:
        orient = is_orientable(g)
    except ConnectionInconsistency:
        return None
    if not orient.orientable:
        return None
    options = edge_options(g)
    order = _order(g, options) if all(options) else None
    if order is None:
        return None
    t, edges, at, tau = _point(g), g.edges, poly_eval, orient.potential
    det, rows, cols = 1, [], []
    for v, degree, data in order:
        f = _check_class(g, _values(g, v, degree, data, orient.eta),
                         f"Thom class of degree {degree} at vertex {v!r}")
        det *= at(f[v], 1, t)
        if degree == 1:
            e = {p: math.prod(at(edges[eid].weight, 1, t) for eid in g.incident[p])
                 for p in f}
            lcm = math.lcm(*e.values())
            rows.append({p: tau[p] * at(c, 1, t) * (lcm // e[p]) for p, c in f.items()})
        elif degree == 2:
            cols.append({p: at(c, 1, t) for p, c in f.items()})
    degrees, det, target = tuple(sorted(d for _, d, _ in order)), abs(det), _target(g)
    if sum(degrees) != len(edges) or det != target:
        return None
    return Certificate(degrees, det, target, rows, cols)


def _order(g: GkmGraph, options) -> Optional[List[Tuple[str, int, object]]]:
    """The greedy peel as (vertex, degree of its class, the face of a face
    class, the edge id of an edge class or None), or None at a stall.
    Three dicts map the vertex indices not yet picked with a face class
    available, with k = 1 and with k = 0 to their classes' data.  A vertex
    w walks its face (_walk) once, when it reaches k = 2, and the walk gives
    no face at a vertex not yet picked.  Such a face cannot become available
    later: the last of its other vertices to be picked, z, would find both
    its face neighbours picked before it, so it would stand at k = 3, or at
    k = 2 with this very face, which holds w, at its corner, and could not
    be picked before w."""
    verts, index, incident = g.vertices, g.vertex_index, g.incident
    n = len(verts)
    ends = [index[e.u] + index[e.v] for e in g.edges]  # less one end, the other
    k, picked = [0] * n, [False] * n
    ready, single, alone = {}, {}, dict.fromkeys(range(n))
    buckets = ((1, ready), (2, single), (3, alone))  # by the degree they give
    chosen: dict = {}  # edge id -> _choose's forward map
    order = []
    for step in range(n):
        for degree, bucket in buckets:
            if bucket:
                p = min(bucket)
                data = bucket.pop(p)
                break
        else:
            if step < n - 1:
                return None
            p, degree, data = picked.index(False), 0, None
        picked[p] = True
        order.append((verts[p], degree, data))
        touched = {}
        for eid in incident[verts[p]]:
            w = ends[eid] - p
            if not picked[w]:
                k[w] += 1
                touched[w] = eid  # once, though parallel edges reach it twice
        for w, eid in touched.items():
            alone.pop(w, None)
            if k[w] == 1:
                single[w] = eid
                continue
            single.pop(w, None)
            if k[w] > 2:
                ready.pop(w, None)
                continue
            e1, e2 = [eid for eid in incident[verts[w]] if picked[ends[eid] - w]]
            face = _walk(g, verts[w], e1, e2, options, chosen, picked)
            if face:
                ready[w] = face
    return order


def _walk(g: GkmGraph, start: str, e1: int, e2: int, options, chosen: dict, picked):
    """The face through the edges e1, e2 at start, as (v, normal edge at v,
    s_v) from start with s_start = 1; or None once it reaches a vertex that
    is neither start nor picked (by vertex index), before choosing the map
    of the edge into it, once it comes back to a vertex, or when its eps
    product is -1.  It steps as connection.connection_paths does: the next
    edge is the transport of the one it came by.  An edge's map is chosen
    on first crossing (_choose)."""
    edges, incident, index = g.edges, g.incident, g.vertex_index
    face, seen = [], set()
    prev, cur, v, s = e1, e2, start, 1
    while True:
        a, b, normal = incident[v]
        if normal == prev or normal == cur:
            normal = a if a != prev and a != cur else b
        face.append((v, normal, s))
        e = edges[cur]
        w = e.v if v == e.u else e.u
        if w in seen or w != start and not picked[index[w]]:
            return None
        seen.add(w)
        to = chosen.get(cur)
        if to is None:
            to = chosen[cur] = _choose(g, cur, options[cur])
        if v != e.u:
            to = {b: a for a, b in to.items()}
        s *= transport_coefficients(edges[normal].weight, edges[to[normal]].weight,
                                    e.weight)[0]
        prev, cur, v = cur, to[prev], w
        if v == start:
            return face if (prev, cur) == (e1, e2) and s == 1 else None


def _choose(g: GkmGraph, eid: int, maps) -> dict:
    """The compatible forward map of edge eid whose transports have the least
    sum of |k|, the earlier one on a tie."""
    if len(maps) == 1:
        return maps[0]
    edges, we, least = g.edges, g.edges[eid].weight, None
    for m in maps:
        cost = 0
        for f, fp in m.items():
            if f != eid:
                cost += abs(transport_coefficients(edges[f].weight,
                                                   edges[fp].weight, we)[1])
        if least is None or cost < least:
            best, least = m, cost
    return best


def certificate(g: GkmGraph, gens: Sequence[Tuple[int, list]],
                target: int) -> Certificate:
    """The Certificate of n (degree, class vector) pairs, the closed basis
    (cohomology._closed_basis).  With V z = s e_top (_functional), u's
    weight at vertex q is u_q(1, t) z_q, so a pairing entry is
    z . (u v)(1, t), s times the image of u v in the reduced H^6
    (cohomology.poincare_duality)."""
    V, det, z = _functional(g, gens)
    rows, cols = [], []
    for (d, _), u in zip(gens, V if det else ()):
        if d == 1:
            rows.append({q: x * w for q, x, w in zip(g.vertices, u, z) if x})
        elif d == 2:
            cols.append({q: x for q, x in zip(g.vertices, u) if x})
    return Certificate(tuple(d for d, _ in gens), det, target, rows, cols)


def _functional(g: GkmGraph, gens: Sequence[Tuple[int, list]]):
    """(V, |det V|, z) for n (degree, class vector) pairs: V one row of
    values per class at (1, t) and one column per vertex, and z solving
    V z = s e_top, with s != 0 and e_top the last class's unit vector, or
    None when V is singular.  The echelon of [V | e_top] gives both: its
    rows are U [V | e_top] = [H | b] with H upper triangular, |det V| is the
    product of its pivots, and z is H z = s b solved from the last row up,
    scaled by the least factor that makes each pivot divide.  A value is a
    block dotted with (1, t, ..., t^d) from a power table per degree, or 0
    for a zero block."""
    t, n = _point(g), len(gens)
    powers = {d: [t ** j for j in range(d + 1)] for d in {d for d, _ in gens}}
    V = []
    for d, f in gens:
        k, pw = d + 1, powers[d]
        blocks = (f[i:i + k] for i in range(0, len(g.vertices) * k, k))
        V.append([sum(map(operator.mul, b, pw)) if any(b) else 0 for b in blocks])
    E = linalg.echelon([row + [int(i == n - 1)] for i, row in enumerate(V)], n)
    det = math.prod(row[i] for i, row in enumerate(E))
    z: Optional[list] = None
    if det:
        z, s = [0] * n, 1
        for i in reversed(range(n)):
            row = E[i]
            r = s * row[n] - sum(x * w for x, w in zip(row[i + 1:n], z[i + 1:]) if w)
            scale = row[i] // math.gcd(row[i], r)
            if scale > 1:
                z, s, r = [scale * w for w in z], scale * s, scale * r
            z[i] = r // row[i]
    return V, det, z
