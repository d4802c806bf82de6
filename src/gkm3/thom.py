"""The Thom-class route: a free basis of H_T from explicit Thom classes, and
the Poincare pairing by localization.

gkm3.cohomology tries this route first (_free_betti, _pairing).  A graph it
does not certify takes cohomology's closed-basis route, unchanged, and the
torsion witness comes only from that module's quotient scan.

The classes.  Besides the constant 1 (degree 0), the edge Thom class
(degree 2, cohomology.thom_class_edge) and the vertex Thom class tau_p
(degree 3, cohomology.thom_class_vertex), each face of a compatible
connection gives one of degree 1 (_face_values): at each vertex v of the
face, s_v times the label of its normal edge, the edge at v off the face,
and 0 elsewhere.  A step of the face over an edge e carries the normal edge
n to n' with alpha_n' = eps alpha_n + k alpha_e
(connection.transport_coefficients), so s_v' = eps s_v makes
f_v - f_v' = -eps s_v k alpha_e a multiple of alpha_e; such signs exist
when the product of the eps around the face is +1.

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

The certificate.  The classes' values at (1, t) (cohomology._point), one
row per class in pick order and one column per vertex, are triangular.  The
diagonal entry of a vertex is +- the product of its labels to the vertices
picked after it, so |det| = prod_e |alpha_e(1, t)|, and the degrees sum to
|E|, each edge counted at its later end.  When |det| is cohomology._target,
steps 1-3 of cohomology.z_freeness make the classes a free basis of H_T;
otherwise the route declines.  Every class is checked on the edges at its
support (cohomology._check_class), and a failed check raises RuntimeError.

The pairing.  The localized integral  int f = sum_p tau(p) f(p) / e_p,  with
tau the orientability potential and e_p the product of the labels at p,
reads the reduced H^6 (cohomology.poincare_duality).  So the route runs only
on a graph with a potential (orientation.is_orientable), and the pairing of
its degree-1 and degree-2 classes is int u v, a constant read at (1, t).
The route hands cohomology._pairing integer factors (pairing): u's row is
L int u v, with L the lcm of the e_p(1, t) over u's vertices, which is
exact, integral and of the same rank.
"""

from __future__ import annotations

import math
from typing import List, Mapping, NamedTuple, Optional, Tuple

from . import cohomology  # which imports this module: read at call time
from .connection import ConnectionInconsistency, edge_options, transport_coefficients
from .graph import GkmGraph, per_graph
from .orientation import is_orientable

__all__ = ["Peel", "free_basis", "pairing"]


class Peel(NamedTuple):
    """A completed peel that the determinant certifies: per class, by degree
    and then in pick order, its degree and its values (vertex ->
    coefficients, 0 at every other vertex).  det and target are read as
    cohomology._Basis's are, and are equal; tau is the potential that the
    pairing reads."""

    degrees: Tuple[int, ...]
    classes: Tuple[dict, ...]
    det: int
    target: int
    tau: Mapping[str, int]


@per_graph("thom")
def free_basis(g: GkmGraph) -> Optional[Peel]:
    """The certified Peel of g, or None where the route declines: a vertex
    not of valence 3, a loop, no potential (eta raises or the graph is not
    orientable), an edge with no compatible map, a stall, or a determinant
    that is not the target."""
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
    if not all(options):
        return None
    order = _order(g, options)
    if order is None:
        return None
    t, edges, thom_values = cohomology._point(g), g.edges, cohomology._thom_values
    degrees, classes, det = [], [], 1
    for v, degree, data in order:
        if degree == 3:
            values = thom_values(g, [(v, 1)], None)
        elif degree == 2:
            e = edges[data]
            values = thom_values(g, [(e.u, 1), (e.v, -orient.eta[data])], data)
        elif degree == 1:
            values = _face_values(g, data)
        else:
            values = {u: (1,) for u in g.vertices}
        what = f"Thom class of degree {degree} at vertex {v!r}"
        classes.append(cohomology._check_class(g, values, what))
        degrees.append(degree)
        det *= cohomology.poly_eval(values[v], 1, t)
    det, target = abs(det), cohomology._target(g)
    if sum(degrees) != len(edges) or det != target:
        return None
    ranked = sorted(zip(degrees, range(len(order))))  # by degree, as _Basis
    return Peel(tuple(d for d, _ in ranked), tuple(classes[i] for _, i in ranked),
                det, target, orient.potential)


def _face_values(g: GkmGraph, face) -> dict:
    """The face class: s_v times the label of the normal edge n_v, at each
    (v, n_v, s_v) of the face."""
    return {v: (s * g.edges[n].weight.a, s * g.edges[n].weight.b)
            for v, n, s in face}


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


def pairing(g: GkmGraph, peel: Peel) -> Tuple[List[dict], List[dict]]:
    """The factors of int u v = sum_p tau(p) u(p) v(p) / e_p at (1, t) that
    cohomology._pairing multiplies: per degree-1 class u of the peel,
    vertex p -> tau(p) u(p) L / e_p, L the lcm of the e_p over u's vertices,
    so u's row is L int u v; per degree-2 class v, vertex p -> v(p)."""
    t, tau, edges, at = cohomology._point(g), peel.tau, g.edges, cohomology.poly_eval
    rows, cols = [], []
    for d, f in zip(peel.degrees, peel.classes):
        if d == 1:
            e = {p: math.prod(at(edges[eid].weight, 1, t) for eid in g.incident[p])
                 for p in f}
            lcm = math.lcm(*e.values())
            rows.append({p: tau[p] * at(c, 1, t) * (lcm // e[p]) for p, c in f.items()})
        elif d == 2:
            cols.append({p: at(c, 1, t) for p, c in f.items()})
    return rows, cols
