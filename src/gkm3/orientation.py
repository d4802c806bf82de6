"""Edge signs and orientability of a 3-valent graph with a connection.

Every directed edge e carries the sign eta(e) = -eps_2 * eps_3, the product
of the two transport signs of the edges other than e itself, negated.  The
sign is direction-independent, and equals -sign(sigma) * det(phi) for the
transition data of e; both formulas are computed and cross-checked.  The
pair (graph, connection) is orientable when the product of eta over every
closed edge path is +1, equivalently when a potential tau: V -> {±1} with
eta(e) = tau(v) * tau(w) exists.

Lemma: eta(e) does not depend on the connection.  Proof: for e: v -> w with
bijection sigma, eps_f = det(w(sigma f), w(e)) / det(w(f), w(e)), so
eps_2 * eps_3 = prod_{f' in E_w - e} det(w(f'), w(e)) /
prod_{f in E_v - e} det(w(f), w(e)), in which sigma does not appear.  Hence
every compatible connection has the same eta vector and the same
orientability; eta_all_connections checks this per edge option instead of
visiting the product of the options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .connection import Connection, ConnectionInconsistency, transition
from .graph import DirectedEdge, GkmGraph

__all__ = [
    "OrientabilityResult",
    "eta",
    "eta_assignment",
    "eta_all_connections",
    "potential_from_eta",
    "is_orientable",
]


def eta(g: GkmGraph, conn: Connection, edge_id: int) -> int:
    """The sign eta of an edge: minus the product of its side transport signs.

    Computed from both directions and from the determinant formula
    eta = -sign(sigma) * det(phi); any disagreement is an inconsistency.
    """
    values = []
    for forward in (True, False):
        data = transition(g, conn, DirectedEdge(edge_id, forward))
        m = g.incident[g.source(data.edge)].index(edge_id)
        prod = 1
        for i, s in enumerate(data.eps):
            if i != m:
                prod *= s
        direct = -prod
        via_det = -data.sign_sigma * data.det_phi
        if direct != via_det:
            raise ConnectionInconsistency(
                f"eta formulas disagree on edge {edge_id}: {direct} vs {via_det}"
            )
        values.append(direct)
    if values[0] != values[1]:
        raise ConnectionInconsistency(
            f"eta is direction-dependent on edge {edge_id}"
        )
    return values[0]


def eta_assignment(g: GkmGraph, conn: Connection) -> Dict[int, int]:
    return {eid: eta(g, conn, eid) for eid in range(len(g.edges))}


def eta_all_connections(
    g: GkmGraph, options: Sequence[Sequence[Mapping[int, int]]]
) -> Dict[int, int]:
    """The eta vector of every connection in the product of the per-edge
    options (ConnectionSpace.options), from one eta per (edge, option).

    eta(e) reads the connection at e alone, so each option is evaluated on
    its own.  Options of one edge that give different signs contradict the
    lemma and raise ConnectionInconsistency.
    """
    out = {}
    for eid, opts in enumerate(options):
        values = {eta(g, Connection.from_forward_maps(g, {eid: m}), eid) for m in opts}
        if len(values) != 1:
            raise ConnectionInconsistency(
                f"eta of edge {eid} depends on the connection: {sorted(values)}"
            )
        out[eid] = values.pop()
    return out


def potential_from_eta(
    g: GkmGraph, eta_map: Mapping[int, int]
) -> Tuple[Optional[Dict[str, int]], Optional[List[int]]]:
    """Spanning-tree search for tau with eta(e) = tau(u) * tau(v).

    Returns (potential, None) on success, or (None, cycle) where cycle is a
    closed edge-id path whose eta-product is -1.
    """
    tau: Dict[str, int] = {}
    parent: Dict[str, Tuple[str, int]] = {}
    root = g.vertices[0]
    tau[root] = 1
    stack = [root]
    order = [root]
    while stack:
        v = stack.pop()
        for eid in g.incident[v]:
            e = g.edges[eid]
            w = e.v if e.u == v else e.u
            if w not in tau:
                tau[w] = tau[v] * eta_map[eid]
                parent[w] = (v, eid)
                stack.append(w)
                order.append(w)
    for eid, e in enumerate(g.edges):
        if tau[e.u] * tau[e.v] != eta_map[eid]:
            # Fundamental cycle: tree paths to the root plus the bad edge.
            def path_to_root(v: str) -> List[Tuple[str, int]]:
                out = []
                while v in parent:
                    p, peid = parent[v]
                    out.append((v, peid))
                    v = p
                return out

            pu, pv = path_to_root(e.u), path_to_root(e.v)
            seen_u = {v for v, _ in pu} | {e.u}
            meet = e.v
            while meet not in seen_u and meet in parent:
                meet = parent[meet][0]
            cycle = [eid]
            v = e.v
            while v != meet:
                cycle.append(parent[v][1])
                v = parent[v][0]
            up = []
            v = e.u
            while v != meet:
                up.append(parent[v][1])
                v = parent[v][0]
            cycle += list(reversed(up))
            prod = 1
            for c in cycle:
                prod *= eta_map[c]
            if prod != -1:
                raise ConnectionInconsistency("violating cycle has eta-product 1")
            return None, cycle
    return tau, None


@dataclass(frozen=True)
class OrientabilityResult:
    orientable: bool
    eta: Mapping[int, int]
    potential: Optional[Mapping[str, int]] = None
    violating_cycle: Optional[Tuple[int, ...]] = None


def is_orientable(g: GkmGraph, conn: Connection) -> OrientabilityResult:
    """Decides orientability, with a potential or a violating cycle witness.

    The closed-path sign product is invariant under re-lifting the weights,
    so deciding it over the canonical lifts decides it for the unsigned
    labelling.
    """
    eta_map = eta_assignment(g, conn)
    tau, cycle = potential_from_eta(g, eta_map)
    if tau is not None:
        return OrientabilityResult(True, eta_map, potential=tau)
    return OrientabilityResult(
        False, eta_map, violating_cycle=tuple(cycle or ())
    )
