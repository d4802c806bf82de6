"""Equivariant graph cohomology over Q and Z, Betti numbers, duality, freeness.

A class of cohomological degree 2d assigns to each vertex a homogeneous
degree-d polynomial in Z[x, y] (coefficients listed in the monomial order
x^d, x^{d-1} y, ..., y^d), subject to one congruence per edge uv with
weight alpha: f_u - f_v must be divisible by alpha.  Classes are stored as
flat coefficient vectors, one block of d + 1 coefficients per vertex in the
graph's vertex order.

Over Q the congruence for alpha = (a, b) is equivalent to the vanishing of
f_u - f_v at the point (b, -a), one scalar condition per edge.  Over Z the
divisibility is encoded exactly: f_u - f_v = alpha * g for an integer
polynomial g, and the class lattice is the projection onto the f-block of
the integer kernel of the combined system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .connection import Connection, DirectedEdge, transition
from .graph import GkmGraph, Weight

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "poly_mul",
    "poly_eval",
    "mult_x",
    "mult_y",
    "ht_basis_q",
    "ht_basis_z",
    "class_product",
    "BettiResult",
    "betti_numbers",
    "cohomology_table",
    "thom_class_vertex",
    "thom_class_edge",
    "PoincareResult",
    "poincare_duality",
    "FreenessResult",
    "z_freeness",
]

DEFAULT_DEGREE_CAP = 20


# ---------------------------------------------------------------------------
# Homogeneous polynomials as coefficient tuples
# ---------------------------------------------------------------------------

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
    d = len(p) - 1
    return sum(c * x ** (d - k) * y ** k for k, c in enumerate(p))


def mult_x(p: Sequence) -> Tuple:
    """x * p: the coefficient list gains a trailing zero."""
    return tuple(p) + (0,)


def mult_y(p: Sequence) -> Tuple:
    """y * p: the coefficient list gains a leading zero."""
    return (0,) + tuple(p)


def _weight_poly(w: Weight) -> Tuple[int, int]:
    return (w.a, w.b)


def _blocks(g: GkmGraph, vec: Sequence, d: int) -> List[Tuple]:
    k = d + 1
    return [tuple(vec[i * k : (i + 1) * k]) for i in range(len(g.vertices))]


# ---------------------------------------------------------------------------
# Bases
# ---------------------------------------------------------------------------

def _basis_cache(g: GkmGraph) -> dict:
    # GkmGraph is a frozen dataclass, but instances still own a __dict__
    # (cached_property relies on it), so memoized bases, and the Betti
    # numbers computed from them, can live there.
    return g.__dict__.setdefault("_cohomology_basis_cache", {})


def ht_basis_q(g: GkmGraph, d: int) -> np.ndarray:
    """RREF-canonical Q-basis (rows) of the degree-2d classes.

    Coordinates are the flat coefficient vectors described in the module
    docstring; the ambient dimension is |V| * (d + 1).
    """
    cache = _basis_cache(g)
    if ("q", d) in cache:
        return cache[("q", d)]
    nv, k = len(g.vertices), d + 1
    if nv == 0:
        return linalg.zeros(0, 0)
    rows = []
    for e in g.edges:
        a, b = e.weight.vector
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        row = [Fraction(0)] * (nv * k)
        for j in range(k):
            c = Fraction(b) ** (d - j) * Fraction(-a) ** j
            row[iu + j] += c
            row[iv + j] -= c
        rows.append(row)
    if not rows:
        basis = linalg.eye(nv * k)
    else:
        basis = linalg.nullspace(linalg.qmat(rows, nv * k))
        if basis.shape[0]:
            basis = linalg.rref(basis)[0]
    cache[("q", d)] = basis
    return basis


def ht_basis_z(g: GkmGraph, d: int) -> np.ndarray:
    """HNF-canonical Z-basis (rows) of the degree-2d class lattice.

    Solves f_u - f_v = alpha * g_e exactly over Z with one auxiliary
    degree-(d-1) polynomial per edge, then projects the integer kernel onto
    the class coordinates.  Imprimitive weights are handled by the same
    system with no special casing.
    """
    cache = _basis_cache(g)
    if ("z", d) in cache:
        return cache[("z", d)]
    nv, k = len(g.vertices), d + 1
    ne = len(g.edges)
    nf = nv * k
    ng = ne * d  # d coefficients per auxiliary polynomial (degree d - 1)
    rows = []
    for ei, e in enumerate(g.edges):
        a, b = e.weight.vector
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        ig = nf + ei * d
        for j in range(k):  # coefficient of x^{d-j} y^j
            row = [0] * (nf + ng)
            row[iu + j] += 1
            row[iv + j] -= 1
            if j < d:
                row[ig + j] -= a
            if j > 0:
                row[ig + j - 1] -= b
            rows.append(row)
    if not rows:
        basis = linalg.eye(nf)
    else:
        kernel = linalg.z_kernel(linalg.zmat(rows, nf + ng))
        if kernel.shape[0] == 0:
            basis = linalg.zeros(0, nf)
        else:
            basis = linalg.hnf(kernel[:, :nf])
    cache[("z", d)] = basis
    return basis


def class_product(g: GkmGraph, u: Sequence, du: int, v: Sequence, dv: int) -> list:
    """Vertexwise product of a degree-2du and a degree-2dv class."""
    out: list = []
    for pu, pv in zip(_blocks(g, u, du), _blocks(g, v, dv)):
        out.extend(poly_mul(pu, pv))
    return out


def _raised(g: GkmGraph, basis: np.ndarray, d: int) -> list:
    """x- and y-multiples of degree-2d basis rows, as degree-2(d+1) vectors."""
    out = []
    for i in range(basis.shape[0]):
        blocks = _blocks(g, basis[i], d)
        out.append([c for b in blocks for c in mult_x(b)])
        out.append([c for b in blocks for c in mult_y(b)])
    return out


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BettiResult:
    """Betti numbers b_0, b_2, ... b_{2d_max} with a stabilization flag.

    stabilized is True when the running total reached |V| and two
    consecutive trailing Betti numbers vanish; the reported list then stops
    at that point regardless of the requested cap.
    """

    betti: Tuple[int, ...]
    stabilized: bool
    total: int


def betti_numbers(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> BettiResult:
    """Combinatorial Betti numbers b_{2d} = dim H^{2d}_T - dim (x, y) H^{2(d-1)}_T."""
    cache = _basis_cache(g)
    if ("betti", degree_cap) in cache:
        return cache[("betti", degree_cap)]
    betti: List[int] = []
    prev_basis = None
    stabilized = False
    for d in range(degree_cap // 2 + 1):
        basis = ht_basis_q(g, d)
        if d == 0:
            b = basis.shape[0]
        else:
            raised = _raised(g, prev_basis, d - 1)
            sub = linalg.q_rank(linalg.qmat(raised, basis.shape[1])) if raised else 0
            b = basis.shape[0] - sub
        betti.append(b)
        prev_basis = basis
        if (
            sum(betti) == len(g.vertices)
            and len(betti) >= 2
            and betti[-1] == 0
            and betti[-2] == 0
        ):
            stabilized = True
            break
    res = BettiResult(tuple(betti), stabilized, sum(betti))
    cache[("betti", degree_cap)] = res
    return res


def cohomology_table(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> List[dict]:
    """Per-degree summary: Q-dimension, Z-rank and Betti number."""
    return _degree_table(g, betti_numbers(g, degree_cap).betti, "both")


def _degree_table(g: GkmGraph, betti: Sequence[int], ring: str) -> List[dict]:
    """cohomology_table's rows; ring "q" or "z" never computes the other's bases."""
    out = []
    for d, b in enumerate(betti):
        row = {"degree": 2 * d, "betti": int(b)}
        if ring != "z":
            row["dim_q"] = int(ht_basis_q(g, d).shape[0])
        if ring != "q":
            row["rank_z"] = int(ht_basis_z(g, d).shape[0])
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Thom classes
# ---------------------------------------------------------------------------

def thom_class_vertex(g: GkmGraph, v: str) -> list:
    """Degree-6 class: product of the three incident weights at v, 0 elsewhere.

    Membership in the integral class lattice is checked.
    """
    d = g.valence
    prod: Tuple = (1,)
    for eid in g.incident[v]:
        prod = poly_mul(prod, _weight_poly(g.edges[eid].weight))
    vec = [0] * (len(g.vertices) * (d + 1))
    base = g.vertex_index[v] * (d + 1)
    for j, c in enumerate(prod):
        vec[base + j] = c
    if linalg.lattice_solve(ht_basis_z(g, d), vec) is None:
        raise RuntimeError(f"Thom class of vertex {v!r} escaped the class lattice")
    return vec


def thom_class_edge(g: GkmGraph, conn: Connection, edge_id: int) -> list:
    """Degree-4 class supported on the endpoints of an edge.

    At the source it is the product of the other two incident weights; at
    the target the same product is scaled by the product of the transport
    signs.  Membership in the integral class lattice is checked.
    """
    d = g.valence - 1
    e = g.edges[edge_id]
    data = transition(g, conn, DirectedEdge(edge_id, True))
    m = g.incident[e.u].index(edge_id)
    sign = 1
    for i, s in enumerate(data.eps):
        if i != m:
            sign *= s

    def side_product(v: str) -> Tuple:
        prod: Tuple = (1,)
        for eid in g.incident[v]:
            if eid != edge_id:
                prod = poly_mul(prod, _weight_poly(g.edges[eid].weight))
        return prod

    vec = [0] * (len(g.vertices) * (d + 1))
    for v, scale in ((e.u, 1), (e.v, sign)):
        base = g.vertex_index[v] * (d + 1)
        for j, c in enumerate(side_product(v)):
            vec[base + j] += scale * c
    if linalg.lattice_solve(ht_basis_z(g, d), vec) is None:
        raise RuntimeError(f"Thom class of edge {edge_id} escaped the class lattice")
    return vec


# ---------------------------------------------------------------------------
# Poincare duality
# ---------------------------------------------------------------------------

def _quotient_projector(
    sub_rows: list, ambient_basis: np.ndarray
) -> Tuple[int, Callable[[Sequence], list]]:
    """Projection onto a complement of a subspace inside a based space.

    Classes are first expressed in coordinates with respect to
    ambient_basis; the quotient coordinates are the non-pivot entries after
    reduction against the RREF of the subspace generators.
    """
    dim = ambient_basis.shape[0]
    coords = []
    for r in sub_rows:
        c = linalg.solve_left(ambient_basis, r)
        if c is None:
            raise RuntimeError("subspace generator outside ambient space")
        coords.append(list(c))
    R, pivots = linalg.rref(linalg.qmat(coords, dim)) if coords else (
        linalg.zeros(0, dim),
        [],
    )
    free = [c for c in range(dim) if c not in pivots]

    def project(vec: Sequence) -> list:
        c = linalg.solve_left(ambient_basis, vec)
        if c is None:
            raise RuntimeError("class outside ambient space")
        c = [Fraction(x) for x in c]
        for r, pc in enumerate(pivots):
            if c[pc] != 0:
                f = c[pc]
                for j in range(dim):
                    c[j] -= f * R[r, j]
        return [c[j] for j in free]

    return len(free), project


@dataclass(frozen=True)
class PoincareResult:
    ok: bool
    betti: Tuple[int, ...]
    pairing_rank: Optional[int] = None
    reasons: Tuple[str, ...] = ()


def poincare_duality(
    g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP
) -> PoincareResult:
    """Poincare duality over Q for the 3-valent (dimension 6) situation.

    Requires b_0 = b_6 = 1, b_2 = b_4, vanishing above degree 6, and a
    nondegenerate product pairing between the reduced degree-2 and degree-4
    parts (reduced means modulo the ideal generated by x and y).
    """
    res = betti_numbers(g, degree_cap)
    betti = res.betti
    reasons = []
    if not res.stabilized:
        reasons.append("betti numbers did not stabilize below the degree cap")
    padded = list(betti) + [0] * max(0, 4 - len(betti))
    if padded[0] != 1:
        reasons.append(f"b_0 = {padded[0]}, expected 1")
    if len(padded) < 4 or padded[3] != 1:
        reasons.append(f"b_6 = {padded[3] if len(padded) > 3 else 0}, expected 1")
    if padded[1] != padded[2]:
        reasons.append(f"b_2 = {padded[1]} differs from b_4 = {padded[2]}")
    if any(b != 0 for b in padded[4:]):
        reasons.append("nonzero betti number above degree 6")
    if reasons:
        return PoincareResult(False, betti, reasons=tuple(reasons))

    bases = [ht_basis_q(g, d) for d in range(4)]
    reduced: List[Tuple[int, Callable]] = []
    for d in (1, 2, 3):
        sub = _raised(g, bases[d - 1], d - 1)
        reduced.append(_quotient_projector(sub, bases[d]))
    (b2, p2), (b4, p4), (b6, p6) = reduced
    if (b2, b4, b6) != (padded[1], padded[2], padded[3]):
        raise RuntimeError("reduced dimensions disagree with the Betti numbers")

    # Representatives of the reduced parts: basis rows whose projections are
    # linearly independent.
    def pick(basis: np.ndarray, proj: Callable, want: int) -> list:
        chosen: list = []
        images: list = []
        for i in range(basis.shape[0]):
            img = proj(basis[i])
            if linalg.q_rank(linalg.qmat(images + [img], want)) > len(images):
                images.append(img)
                chosen.append(list(basis[i]))
            if len(chosen) == want:
                break
        if len(chosen) != want:
            raise RuntimeError("too few independent classes in a reduced part")
        return chosen

    reps2 = pick(bases[1], p2, b2)
    reps4 = pick(bases[2], p4, b4)
    pairing = [
        [p6(class_product(g, u, 1, v, 2))[0] for v in reps4] for u in reps2
    ]
    rank = linalg.q_rank(linalg.qmat(pairing, b4)) if b2 else 0
    if rank != b2:
        return PoincareResult(
            False,
            betti,
            pairing_rank=rank,
            reasons=(f"product pairing has rank {rank}, expected {b2}",),
        )
    return PoincareResult(True, betti, pairing_rank=rank)


# ---------------------------------------------------------------------------
# Integral freeness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FreenessResult:
    """status is "certified" or "not-free"; a torsion witness names a class
    vector and the smallest multiplier that lands it in the product ideal."""

    status: str
    checked_degrees: Tuple[int, ...]
    witness: Optional[dict] = None


def z_freeness(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> FreenessResult:
    """Degreewise torsion test of the integral classes modulo (x, y).

    For each degree the quotient of the class lattice by the x- and
    y-multiples of the previous degree's lattice is computed by Smith
    normal form of the coordinate matrix; any elementary divisor > 1 yields
    a torsion witness and the verdict "not-free".
    """
    dmax = degree_cap // 2
    prev = None
    checked = []
    for d in range(dmax + 1):
        L = ht_basis_z(g, d)
        checked.append(2 * d)
        if d > 0 and L.shape[0] and prev is not None and prev.shape[0]:
            gens = _raised(g, prev, d - 1)
            coords = []
            for r in gens:
                c = linalg.hnf_solve(L, r)
                if c is None:
                    raise RuntimeError("product class escaped the class lattice")
                coords.append(c)
            C = linalg.zmat(coords, L.shape[0])
            D, _, T = linalg.snf_transform(C)
            for i in range(min(C.shape)):
                di = int(D[i, i])
                if di > 1:
                    Vinv = linalg.unimodular_inverse(T)
                    wit_coords = list(Vinv[i])
                    wit = [
                        sum(wit_coords[j] * int(L[j, c]) for j in range(L.shape[0]))
                        for c in range(L.shape[1])
                    ]
                    return FreenessResult(
                        "not-free",
                        tuple(checked),
                        witness={
                            "degree": 2 * d,
                            "order": di,
                            "class": wit,
                        },
                    )
        prev = L
    return FreenessResult("certified", tuple(checked))
