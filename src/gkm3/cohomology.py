"""Equivariant graph cohomology over Q and Z, Betti numbers, duality, freeness.

A class of cohomological degree 2d assigns to each vertex a homogeneous
degree-d polynomial in Z[x, y] (coefficients listed in the monomial order
x^d, x^{d-1} y, ..., y^d), subject to one congruence per edge uv with
weight alpha: f_u - f_v must be divisible by alpha.  Classes are stored as
flat coefficient vectors, one block of d + 1 coefficients per vertex in the
graph's vertex order.

The divisibility is encoded exactly over Z: f_u - f_v = alpha * g for an
integer polynomial g, and the class lattice is the projection onto the
f-block of the integer kernel of the combined system.  The lattice also
spans the rational classes (see ht_basis_q), so one integral quotient per
degree gives the Betti numbers, the duality pairing and the torsion test.
A flow-up basis, when the graph has one (z_freeness), proves freeness and
the Betti numbers in every degree at once, so the quotients above its top
degree are never formed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import linalg
from .connection import Connection, DirectedEdge, transition
from .graph import GkmGraph, Weight, det2

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

def ht_basis_q(g: GkmGraph, d: int) -> linalg.Matrix:
    """A Q-basis (rows) of the degree-2d classes: the Z-basis ht_basis_z.

    The class lattice L spans the rational class space V.  Clearly L lies
    in V.  Conversely, take f in V and an integer N with N f integral.  For
    each edge, N (f_u - f_v) = alpha * h with h rational; write
    alpha = c * alpha' with c the content of alpha and alpha' primitive.  By
    Gauss's lemma the quotient c * h of the integral N (f_u - f_v) by the
    primitive alpha' is integral, so c N (f_u - f_v) = alpha * (c h) meets
    the integral condition.  With C the product of the contents, C N f lies
    in L.  Hence L (x) Q = V, and dim_Q V = rank_Z L.
    """
    return ht_basis_z(g, d)


def ht_basis_z(g: GkmGraph, d: int) -> linalg.Matrix:
    """HNF-canonical Z-basis (rows) of the degree-2d class lattice.

    Solves f_u - f_v = alpha * g_e exactly over Z with one auxiliary
    degree-(d-1) polynomial per edge: one row per unknown, its equation
    coefficients then its class coordinate.  Rows whose equation part
    vanishes under echelon end in the class parts of the integer solutions.
    Imprimitive weights are handled by the same system with no special
    casing.
    """
    cache = g.memo
    if ("z", d) in cache:
        return cache[("z", d)]
    k = d + 1
    nf, neq = len(g.vertices) * k, len(g.edges) * k
    rows = [[0] * neq + r for r in linalg.eye(nf)]
    rows += [[0] * (neq + nf) for _ in range(len(g.edges) * d)]
    for ei, e in enumerate(g.edges):
        a, b = e.weight.vector
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        ig = nf + ei * d  # d coefficients per auxiliary polynomial (degree d - 1)
        for j in range(k):  # coefficient of x^{d-j} y^j
            c = ei * k + j
            rows[iu + j][c] += 1
            rows[iv + j][c] -= 1
            if j < d:
                rows[ig + j][c] -= a
            if j > 0:
                rows[ig + j - 1][c] -= b
    solved = linalg.echelon(rows, neq)
    basis = linalg.hnf([row[neq:] for row in solved if not any(row[:neq])])
    cache[("z", d)] = basis
    return basis


def class_product(g: GkmGraph, u: Sequence, du: int, v: Sequence, dv: int) -> list:
    """Vertexwise product of a degree-2du and a degree-2dv class."""
    out: list = []
    for pu, pv in zip(_blocks(g, u, du), _blocks(g, v, dv)):
        out.extend(poly_mul(pu, pv))
    return out


def _raised(g: GkmGraph, basis: linalg.Matrix, d: int) -> list:
    """x- and y-multiples of degree-2d basis rows, as degree-2(d+1) vectors."""
    out = []
    for row in basis:
        blocks = _blocks(g, row, d)
        out.append([c for b in blocks for c in mult_x(b)])
        out.append([c for b in blocks for c in mult_y(b)])
    return out


@dataclass(frozen=True)
class _Quotient:
    """The degree-2d class lattice L modulo the x- and y-multiples of L_{d-1}.

    With C the coordinates in L of the raised L_{d-1} rows and S C T = D its
    Smith form, the submodule is spanned by d_i times row i of T^-1 (as
    coordinates in L) for i < rank.  So a class with lattice coordinates c
    reduces to (c T)[rank:] in the free part of the quotient, and rows
    rank.. of T^-1 L lift a basis of that free part.
    """

    lattice: linalg.Matrix
    transform: linalg.Matrix
    divisors: Tuple[int, ...]  # the nonzero d_i, in order

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def betti(self) -> int:
        return len(self.lattice) - self.rank

    def lift(self, coords: Sequence[int]) -> list:
        """The class with the given coordinates in the lattice basis."""
        return [sum(c * x for c, x in zip(coords, col)) for col in zip(*self.lattice)]

    def project(self, vec: Sequence) -> list:
        """Image of a class in the free part of the quotient, (c T)[rank:]."""
        c = linalg.hnf_solve(self.lattice, vec)
        if c is None:
            raise RuntimeError("class outside the class lattice")
        cols = list(zip(*self.transform))[self.rank:]
        return [sum(ci * t for ci, t in zip(c, col)) for col in cols]

    def reduced_lifts(self) -> list:
        """Classes lifting a basis of the free part of the quotient."""
        Tinv = linalg.unimodular_inverse(self.transform)
        return [self.lift(row) for row in Tinv[self.rank:]]


def _quotient(g: GkmGraph, d: int) -> _Quotient:
    """The reduced degree-2d part, from one Smith form; memoized per graph."""
    cache = g.memo
    if ("quotient", d) in cache:
        return cache[("quotient", d)]
    L = ht_basis_z(g, d)
    coords = []
    if d > 0:
        for r in _raised(g, ht_basis_z(g, d - 1), d - 1):
            c = linalg.hnf_solve(L, r)
            if c is None:
                raise RuntimeError("product class escaped the class lattice")
            coords.append(c)
    D, _, T = linalg.snf_transform(coords, len(L))
    divisors = tuple(row[i] for i, row in enumerate(D[: len(L)]) if row[i] != 0)
    q = _Quotient(L, T, divisors)
    cache[("quotient", d)] = q
    return q


# ---------------------------------------------------------------------------
# Flow-up basis
# ---------------------------------------------------------------------------

# The most (earlier set, vertex) checks one flow-up search makes; a graph
# whose search needs more gets no certificate and is scanned degree by degree.
FLOW_UP_CHECKS = 2000


class _OutOfChecks(Exception):
    pass


def _other_end(g: GkmGraph, eid: int, v: str) -> str:
    e = g.edges[eid]
    return e.v if e.u == v else e.u


def _flow_up_value(g: GkmGraph, down: Sequence[int]) -> Tuple:
    """D(v) = lcm of the contents times the product of the primitive parts
    of the labels on the edges `down`: a generator of the intersection of
    the ideals (alpha_e), when the labels are pairwise independent."""
    lcm, prod = 1, (1,)
    for eid in down:
        w = g.edges[eid].weight
        c = w.content()
        lcm = math.lcm(lcm, c)
        prod = poly_mul(prod, (w.a // c, w.b // c))
    return tuple(lcm * x for x in prod)


def _flow_up_search(g: GkmGraph) -> Optional[Tuple[str, ...]]:
    """A vertex order whose flow-up classes exist (see z_freeness), or None.

    The order is searched depth first.  v may follow the set S of earlier
    vertices when (0 on S, D(v) at v) lies in the class lattice restricted
    to the coordinates of S and v, the values of the classes there.  A set
    S that has no completion is remembered and never expanded again; as a
    search ends at the first complete order, each S is expanded at most
    once, and each (S, v) is decided at most once.
    """
    for ids in g.incident.values():
        ws = [g.edges[eid].weight for eid in ids]
        if any(det2(a, b) == 0 for i, a in enumerate(ws) for b in ws[i + 1:]):
            return None  # the spanning argument needs independent labels
    checks = 0
    failed: set = set()

    def passing(earlier: frozenset):
        nonlocal checks
        for v in g.vertices:
            if v in earlier or (earlier | {v}) in failed:
                continue
            checks += 1
            if checks > FLOW_UP_CHECKS:
                raise _OutOfChecks
            down = [eid for eid in g.incident[v]
                    if _other_end(g, eid, v) in earlier]
            k = len(down) + 1
            keep = [w for w in g.vertices if w in earlier] + [v]
            cols = [g.vertex_index[w] * k + j for w in keep for j in range(k)]
            image = linalg.hnf([[row[c] for c in cols] for row in ht_basis_z(g, k - 1)])
            target = [0] * (len(cols) - k) + list(_flow_up_value(g, down))
            if linalg.hnf_solve(image, target) is not None:
                yield v

    order: List[str] = []
    earlier = frozenset()
    frames = [passing(earlier)]
    try:
        while len(order) < len(g.vertices):
            v = next(frames[-1], None)
            if v is None:
                failed.add(earlier)
                frames.pop()
                if not frames:
                    return None
                earlier = earlier - {order.pop()}
                continue
            order.append(v)
            earlier = earlier | {v}
            frames.append(passing(earlier))
    except _OutOfChecks:
        return None
    return tuple(order)


def _flow_up_order(g: GkmGraph) -> Optional[Tuple[str, ...]]:
    """The flow-up order of g, or None; searched once per graph."""
    if ("flow_up",) not in g.memo:
        g.memo[("flow_up",)] = _flow_up_search(g)
    return g.memo[("flow_up",)]


def _down_counts(g: GkmGraph, order: Sequence[str]) -> List[int]:
    """|down(v)| for each vertex v of a flow-up order, in that order."""
    pos = {v: i for i, v in enumerate(order)}
    return [
        sum(1 for eid in g.incident[v] if pos[_other_end(g, eid, v)] < pos[v])
        for v in order
    ]


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
    """Combinatorial Betti numbers b_{2d} = rank H^{2d}_T - rank (x, y) H^{2(d-1)}_T.

    b_{2d} is the Betti number of the degree-2d quotient (_quotient).  With a
    flow-up basis (z_freeness), the reduced module H_T / (x, y) H_T has one
    generator per basis class, so b_{2d} = #{v : |down(v)| = d}.  The
    quotients up to the largest |down(v)| are still formed, as the duality
    pairing reads them; each must agree with the count, or RuntimeError is
    raised.  Above that degree every b_{2d} is 0 and no quotient is formed.
    """
    cache = g.memo
    if ("betti", degree_cap) in cache:
        return cache[("betti", degree_cap)]
    order = _flow_up_order(g)
    counts = None if order is None else Counter(_down_counts(g, order))
    top = None if counts is None else max(counts, default=-1)
    betti: List[int] = []
    stabilized = False
    for d in range(degree_cap // 2 + 1):
        if counts is None or d <= top:
            b = _quotient(g, d).betti
            if counts is not None and b != counts[d]:
                raise RuntimeError(
                    f"flow-up basis has {counts[d]} classes of degree {2 * d}, "
                    f"but b_{2 * d} = {b}"
                )
        else:
            b = 0
        betti.append(b)
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
    """cohomology_table's rows.  dim_q = rank_z (see ht_basis_q), so both
    columns read one rank and ring "q", "z" or "both" only picks them.
    With a flow-up basis (z_freeness) the degree-2d classes are the sums
    h_v c_v with h_v of degree d - |down(v)|, so the rank is counted, not
    read from a basis."""
    order = _flow_up_order(g)
    down = None if order is None else _down_counts(g, order)
    out = []
    for d, b in enumerate(betti):
        row = {"degree": 2 * d, "betti": b}
        if down is None:
            rank = len(ht_basis_z(g, d))
        else:
            rank = sum(d - k + 1 for k in down if k <= d)
        if ring != "z":
            row["dim_q"] = rank
        if ring != "q":
            row["rank_z"] = rank
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
    if linalg.hnf_solve(ht_basis_z(g, d), vec) is None:
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
    if linalg.hnf_solve(ht_basis_z(g, d), vec) is None:
        raise RuntimeError(f"Thom class of edge {edge_id} escaped the class lattice")
    return vec


# ---------------------------------------------------------------------------
# Poincare duality
# ---------------------------------------------------------------------------

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

    # Classes lifting a basis of the reduced H^2 and H^4, paired into the
    # reduced H^6, which has rank 1.
    reps2, reps4 = (_quotient(g, d).reduced_lifts() for d in (1, 2))
    h6 = _quotient(g, 3)
    pairing = [
        [h6.project(class_product(g, u, 1, v, 2))[0] for v in reps4]
        for u in reps2
    ]
    b2 = len(reps2)
    rank = linalg.q_rank(pairing)
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
    vector and the smallest multiplier that lands it in the product ideal.
    order is the flow-up order behind a certificate, if one was found; the
    reports leave it out."""

    status: str
    checked_degrees: Tuple[int, ...]
    witness: Optional[dict] = None
    order: Optional[Tuple[str, ...]] = None


def z_freeness(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> FreenessResult:
    """Whether the integral classes H_T form a free Z[x, y]-module.

    First, a flow-up basis.  Fix an order of the vertices, and let down(v)
    be the edges from v to earlier vertices.  Write each label as
    alpha_e = c_e alpha'_e with c_e its content and alpha'_e primitive, and
    let D(v) = lcm(c_e) * prod alpha'_e over e in down(v).  If each v has a
    class c_v of degree 2 |down(v)| that vanishes at every earlier vertex
    and equals D(v) at v, and the labels at every vertex are pairwise
    independent, then {c_v} is a free Z[x, y]-basis of H_T:

    - independent: a relation sum h_v c_v = 0 with some h_v != 0, read at
      the first such v, gives h_v D(v) = 0 (the later c_u vanish there), so
      h_v = 0 in the domain Z[x, y];
    - spanning: take f != 0 in H_T and the first vertex v with f(v) != 0.
      For each e in down(v) the other end w has f(w) = 0, so alpha_e
      divides f(v).  The alpha'_e are linear and primitive, so prime, and
      pairwise non-associate because the labels at v are independent; by
      Gauss's lemma f(v) is divisible by their product times the lcm of
      the contents, which is D(v).  So f(v) = h D(v), and f - h c_v
      vanishes at v and at every earlier vertex.  Repeat.

    The lcm is needed: with two labels of content 2 at v, 2 alpha'_1
    alpha'_2 is divisible by both labels but not by their product, so a
    basis built on the product would not span.  Such a basis proves every
    degree at once: the result is "certified", with every even degree up to
    the cap in checked_degrees and the order in `order`.  The search for
    the order is bounded (_flow_up_search, FLOW_UP_CHECKS).

    Otherwise, degree by degree up to the cap: the quotient of the class
    lattice by the x- and y-multiples of the previous degree's lattice is
    read from its Smith normal form (_quotient); any elementary divisor > 1
    yields a torsion witness and the verdict "not-free", and checked_degrees
    lists the degrees scanned.
    """
    order = _flow_up_order(g)
    if order is not None:
        degrees = tuple(2 * d for d in range(degree_cap // 2 + 1))
        return FreenessResult("certified", degrees, order=order)
    checked = []
    for d in range(degree_cap // 2 + 1):
        checked.append(2 * d)
        q = _quotient(g, d)
        for i, di in enumerate(q.divisors):
            if di > 1:
                wit = q.lift(linalg.unimodular_inverse(q.transform)[i])
                return FreenessResult(
                    "not-free",
                    tuple(checked),
                    witness={"degree": 2 * d, "order": di, "class": wit},
                )
    return FreenessResult("certified", tuple(checked))
