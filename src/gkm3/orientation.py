"""Edge signs and orientability of a 3-valent GKM graph.

Every edge e carries the sign eta(e) = -eps_2 * eps_3, the product of the
transport signs of the edges other than e itself, negated.  The graph is
orientable when the product of eta over every closed edge path is +1,
equivalently when a potential tau: V -> {±1} with eta(e) = tau(v) * tau(w)
exists.  potential_from_eta reads tau off the signed spanning forest of
graph.signed_forest (the walk that also finds the graph's components and
orients the glued surface), and an edge that tau violates closes a cycle of
eta-product -1 through the forest.

Lemma: eta(e) does not depend on the connection.  Proof: for e: v -> w with
bijection sigma, eps_f = det(w(sigma f), w(e)) / det(w(f), w(e)), so
eps_2 * eps_3 = prod_{f' in E_w - e} det(w(f'), w(e)) /
prod_{f in E_v - e} det(w(f), w(e)), in which sigma does not appear.

The lemma is the definition here: eta reads the label determinants of
GkmGraph.label_pairs and no connection, so every compatible connection has
the same eta vector, orientability and edge Thom class (whose target sign
is -eta(e) = eps_2 * eps_3).  The transition-data route (both directions,
the eps product against -sign(sigma) * det(phi), and agreement across the
options of each edge) is the test oracle transition_eta in tests/oracles.py.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .connection import ConnectionInconsistency
from .graph import GkmGraph, per_graph, signed_forest

__all__ = [
    "OrientabilityResult",
    "eta",
    "eta_assignment",
    "potential_from_eta",
    "is_orientable",
]


def eta(g: GkmGraph, edge_id: int) -> int:
    """The sign eta of an edge, -sgn(N * D) for the products
    N = prod_{f' in E_w - e} det(w(f'), w(e)) and
    D = prod_{f in E_v - e} det(w(f), w(e)) at its two ends.

    |N| != |D| means that no bijection E_v -> E_w transports every label
    with eps = ±1, so no compatible connection exists:
    ConnectionInconsistency.
    """
    e = g.edges[edge_id]

    def side(v: str) -> int:
        # det(w(f), w(e)) over the pairs (f, e) and (e, f) at v.
        return math.prod(d if y == edge_id else -d
                         for x, y, d in g.label_pairs[v] if edge_id in (x, y))

    num, den = side(e.v), side(e.u)
    if not den or num not in (den, -den):
        raise ConnectionInconsistency(
            f"no compatible transport along edge {edge_id}: the label "
            f"determinants at its ends are {num} and {den}"
        )
    return -1 if num * den > 0 else 1


def eta_assignment(g: GkmGraph) -> Dict[int, int]:
    return {eid: eta(g, eid) for eid in range(len(g.edges))}


def potential_from_eta(
    g: GkmGraph, eta_map: Mapping[int, int]
) -> Tuple[Optional[Dict[str, int]], Optional[List[int]]]:
    """Spanning-forest search (graph.signed_forest) for tau with
    eta(e) = tau(u) * tau(v).

    Returns (potential, None) on success, or (None, cycle) where cycle is a
    closed edge-id path whose eta-product is -1: the first violated edge
    and the forest paths from its ends to where they meet.
    """
    tau, parent = signed_forest(
        g.vertices, [(e.u, e.v, eta_map[eid]) for eid, e in enumerate(g.edges)]
    )
    bad = next((eid for eid, e in enumerate(g.edges)
                if tau[e.u] * tau[e.v] != eta_map[eid]), None)
    if bad is None:
        return tau, None
    e = g.edges[bad]
    above_u, x = {e.u}, e.u
    while x in parent:
        x = parent[x][0]
        above_u.add(x)
    meet = e.v
    while meet not in above_u:
        meet = parent[meet][0]

    def climb(x: str) -> List[int]:
        """Edge ids of the forest path from x up to meet."""
        out = []
        while x != meet:
            x, eid = parent[x]
            out.append(eid)
        return out

    cycle = [bad] + climb(e.v) + climb(e.u)[::-1]
    if math.prod(eta_map[c] for c in cycle) != -1:
        raise ConnectionInconsistency("violating cycle has eta-product 1")
    return None, cycle


class OrientabilityResult(NamedTuple):
    orientable: bool
    eta: Mapping[int, int]
    potential: Optional[Mapping[str, int]] = None
    violating_cycle: Optional[Tuple[int, ...]] = None


@per_graph("orientability")
def is_orientable(g: GkmGraph) -> OrientabilityResult:
    """Decides orientability, with a potential or a violating cycle witness.

    The closed-path sign product is invariant under re-lifting the weights,
    so deciding it over the canonical lifts decides it for the unsigned
    labelling.  Decided once per graph: the verdict's orientability and the
    localized pairing (gkm3.thom) read the same result.
    """
    eta_map = eta_assignment(g)
    tau, cycle = potential_from_eta(g, eta_map)
    if tau is not None:
        return OrientabilityResult(True, eta_map, potential=tau)
    return OrientabilityResult(
        False, eta_map, violating_cycle=tuple(cycle or ())
    )
