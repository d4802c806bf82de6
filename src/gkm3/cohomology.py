"""Equivariant graph cohomology over Q and Z, Betti numbers, duality, freeness.

A class of cohomological degree 2d assigns to each vertex a homogeneous
degree-d polynomial in Z[x, y] (coefficients listed in the monomial order
x^d, x^{d-1} y, ..., y^d), subject to one congruence per edge uv with
weight alpha: f_u - f_v must be divisible by alpha.  Classes are stored as
flat coefficient vectors, one block of d + 1 coefficients per vertex in the
graph's vertex order.

The divisibility is decided exactly over Z from one evaluation per edge:
f_u - f_v must vanish at the root of the primitive part of alpha, and the
content of alpha must divide each of its coefficients.  The integer
solutions are the class lattice (ht_basis_z): in degree 0 the functions
constant on each component, in each other degree lifted from one echelon
of the evaluations by back-substitution.  It spans the rational classes
(ht_basis_q), a free Q[x, y]-module (Auslander and Buchsbaum: the kernel
of Q[x, y]^V -> (+)_e Q[x, y] / (alpha_e), a target of depth 1, has depth
2), so every Betti number is a second difference of the lattice ranks
(betti_numbers).  Integral quotients per degree give the torsion test; one
whose relations reduce with unit pivots is free, and only the others take
a Smith form.

Both realizability conditions are read from one basis per graph.  First
the Thom-class route (gkm3.thom), on a graph with an orientability
potential: Thom classes of vertices, edges and faces in a greedy peel,
whose values are triangular (z_freeness), paired by the localized integral
(poincare_duality).  Otherwise the closed basis (_closed_basis): the lifts
of the quotients' bases below the valence, closed by a vertex Thom class
or the top quotient's lifts, paired by one solve against its values.  A
certified basis gives freeness and every Betti number, so no quotient above
it is formed.  A Thom class is checked on the edges at its support
(_check_class), forming no lattice; an edge's target sign is -eta
(gkm3.orientation), and only gkm3.thom reads a connection.
"""

from __future__ import annotations

import math
import operator
from functools import reduce
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import linalg, thom
from .graph import GkmGraph, per_graph
from .orientation import eta

__all__ = [
    "DEFAULT_DEGREE_CAP", "poly_mul", "poly_eval",
    "ht_basis_q", "ht_basis_z", "BettiResult",
    "betti_numbers", "cohomology_table", "thom_class_vertex",
    "thom_class_edge", "PoincareResult", "poincare_duality",
    "FreenessResult", "z_freeness",
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
    out, yk = 0, 1
    for c in p:  # Horner's rule in x
        out, yk = out * x + c * yk, yk * y
    return out


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


@per_graph("z")
def ht_basis_z(g: GkmGraph, d: int) -> linalg.Matrix:
    """HNF-canonical Z-basis (rows) of the degree-2d class lattice L.

    The equations.  Write an edge label as alpha = c * alpha' with c its
    content and alpha' = a' x + b' y primitive.  Then alpha divides
    h = f_u - f_v in Z[x, y] exactly when h(b', -a') = 0 and c divides
    every coefficient of h: the root makes alpha' divide h over Q, and by
    Gauss's lemma the quotient h / alpha' is integral with the same content
    as h.  So each edge gives one evaluation equation, coefficient j of h
    weighted by b'^(d-j) (-a')^j, and an imprimitive edge also gives d + 1
    congruences c | h_j.

    Degree 0.  A label divides the constant h only when h = 0, so L is
    spanned by the indicator vectors of the components (GkmGraph.components),
    whose disjoint 0/1 rows, ordered by first vertex, are its Hermite form.

    The Hermite form.  Eliminating the equations gives integer solutions
    whose entries swell (hundreds of bits where L's basis has ten), so L is
    not reduced from them directly.  A class coordinate is fixed when some
    combination of the edge evaluations has its last nonzero entry there:
    on L it is then a rational combination of the coordinates before it.
    The one echelon of the evaluations over the class coordinates in
    reverse order (_evaluation_echelon) has one row per fixed coordinate,
    which it pivots on.  So the other, free coordinates F are the pivot
    columns of L's Hermite form, and L maps one to one onto its part Y on
    F.  A vector y on F lifts to L when back-substitution through that
    echelon, from the lowest fixed coordinate up, divides exactly at every
    pivot and the lifted class meets the congruences (_lifts).  The lifts
    of the rows of Y's Hermite form are L's Hermite form.  Y is often all
    of Z^F: every unit vector lifts, and the lifts are the basis.
    Otherwise Y still holds the unit vectors that lift, so it is their span
    plus its part on the others, B, and its Hermite form is those unit
    vectors and the Hermite form of that part.  One pass over the
    constraints that define Y, in back-substitution order, narrows the unit
    vectors on B to a basis of that part whose rows are upper triangular on
    B with a positive diagonal (_lattice_rows).  That is an echelon basis,
    so its Hermite form needs no elimination, only the reduction above its
    pivots (linalg.reduced), and the rows of that form are lifted.
    """
    if d == 0:  # the components' indicator vectors (see above)
        return [[int(v in c) for v in g.vertices] for c in map(set, g.components)]
    nf = len(g.vertices) * (d + 1)
    steps = []  # per fixed coordinate, lowest first: (it, pivot, terms)
    for row in reversed(_evaluation_echelon(g, d)):
        p = _pivot(row)
        terms = [(nf - 1 - j, row[j]) for j in range(p + 1, nf) if row[j]]
        steps.append((nf - 1 - p, row[p], terms))
    free = sorted(set(range(nf)) - {i for i, _, _ in steps})
    basis = _lifts(g, d, steps, free, [[(t, 1)] for t in range(len(free))])
    bad = [t for t, f in enumerate(basis) if f is None]
    if bad:  # Y is not all of Z^F, but holds the other unit vectors
        B = [free[t] for t in bad]
        rows = _lattice_rows(g, d, steps, B)
        H = linalg.reduced([[row[f] for f in B] for row in rows], len(B))
        lifted = _lifts(g, d, steps, free,
                        [[(bad[j], v) for j, v in enumerate(h) if v] for h in H])
        if None in lifted:
            raise RuntimeError("class lattice row does not lift")
        for t, f in zip(bad, lifted):
            basis[t] = f
    return basis


def _lifts(g: GkmGraph, d: int, steps: list, free: Sequence[int],
           ys: Sequence[Sequence[Tuple[int, int]]]) -> List[Optional[list]]:
    """The classes whose parts on the free coordinates F have the nonzero
    entries ys, as (position in F, value) pairs; None where that part is not
    in Y (ht_basis_z).  Each coordinate holds its nonzero values over the
    ys, so one back-substitution through the steps lifts them all: a class
    whose sum a pivot does not divide has no integral lift, and one that
    breaks a congruence is not in L."""
    k = d + 1
    values: List[dict] = [{} for _ in range(len(g.vertices) * k)]
    for t, y in enumerate(ys):  # coordinate -> {t: nonzero value}
        for j, v in y:
            values[free[j]][t] = v
    bad = set()
    for i, piv, terms in steps:
        acc: dict = {}
        get = acc.get
        for j, w in terms:
            for t, v in values[j].items():
                acc[t] = get(t, 0) - w * v
        col = values[i]
        for t, v in acc.items():
            q, r = divmod(v, piv)
            if r:
                bad.add(t)
            elif q:
                col[t] = q
    for e, c in _moduli(g):
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        for hu, hv in zip(values[iu:iu + k], values[iv:iv + k]):
            bad.update(t for t in hu.keys() | hv.keys()
                       if (hu.get(t, 0) - hv.get(t, 0)) % c)
    out = [[0] * len(values) for _ in ys]
    for i, col in enumerate(values):
        for t, v in col.items():
            out[t][i] = v
    return [None if t in bad else f for t, f in enumerate(out)]


def _lattice_rows(g: GkmGraph, d: int, steps: list,
                  start: Sequence[int]) -> linalg.Matrix:
    """For B the free coordinates start, classes of L whose parts on B are
    a triangular basis of Y on B (its vectors that vanish off B), as full
    class rows (ht_basis_z), from one pass over the constraints that define
    Y, in back-substitution order.  The rows start as the unit vectors on
    B.  Each pivot's values are the rows' numerators there, each congruence
    c | h_j's the rows' h_j.  A constraint mod m (the pivot or c) visits
    the rows from the last up, with G = m and a carry, a combination of the
    rows below it of value G mod m.  A row of value v becomes
    a row - q carry, a = G / gcd(v, G) and q = v / gcd(v, G) mod m / G,
    whose value is 0 mod m and whose pivot is a times its old one; the
    carry then takes the old row in by exgcd, down to value gcd(v, G).
    So each row's part on B stays upper triangular with a positive
    diagonal.  A pivot then fixes each row's coordinate."""
    k = d + 1
    rows = [[int(i == f) for i in range(len(g.vertices) * k)] for f in start]

    def constrain(values: List[int], m: int) -> None:
        G, carry, cv = m, [0] * len(rows[0]), 0  # cv = G mod m
        for t in reversed(range(len(rows))):
            v, row = values[t], rows[t]
            if v % m == 0:
                continue
            gcd = math.gcd(v, G)
            a, q = G // gcd, v // gcd % (m // G)  # q = 0 while G = m
            if q:
                rows[t] = [a * s - q * u for s, u in zip(row, carry)]
            elif a > 1:
                rows[t] = [a * s for s in row]
            values[t] = a * v - q * cv
            if gcd < G:  # the carry takes this row in, and its value is gcd
                _, x, y = linalg.exgcd(v, G)
                carry = [x * s + y * u for s, u in zip(row, carry)]
                G, cv = gcd, x * v + y * cv

    for i, piv, terms in steps:
        values = [-sum(w * row[j] for j, w in terms) for row in rows]
        constrain(values, piv)
        for row, v in zip(rows, values):
            row[i] = v // piv
    for e, c in _moduli(g):
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        for j in range(k):
            constrain([row[iu + j] - row[iv + j] for row in rows], c)
    return rows


@per_graph("evaluations")
def _evaluation_echelon(g: GkmGraph, d: int) -> linalg.Matrix:
    """The echelon basis of _evaluations in degree d >= 1: ht_basis_z
    back-substitutes through it and _lattice_rank reads its rank, so each
    degree's equations are eliminated once."""
    return linalg.echelon_basis(_evaluations(g, d))


def _lattice_rank(g: GkmGraph, d: int) -> int:
    """r_d = rank L_d = dim_Q of the degree-2d classes (ht_basis_q): the
    class coordinates less the rank of the evaluations, which alone cut out
    the rational classes; r_0 is the number of components (ht_basis_z)."""
    if d == 0:
        return len(g.components)
    return len(g.vertices) * (d + 1) - len(_evaluation_echelon(g, d))


def _evaluations(g: GkmGraph, d: int) -> linalg.Matrix:
    """ht_basis_z's evaluation equations, one row per edge over the class
    coordinates in reverse order: h = f_u - f_v at the root of the label's
    primitive part, coefficient j of h weighted by b'^(d-j) (-a')^j."""
    k = d + 1
    last = len(g.vertices) * k - 1
    rows = []
    for e in g.edges:
        c = e.weight.content()
        a, b = e.weight.a // c, e.weight.b // c
        iu, iv = last - g.vertex_index[e.u] * k, last - g.vertex_index[e.v] * k
        row = [0] * (last + 1)
        for j in range(k):  # coefficient of x^{d-j} y^j
            root = b ** (d - j) * (-a) ** j
            row[iu - j] += root
            row[iv - j] -= root
        rows.append(row)
    return rows


def _moduli(g: GkmGraph) -> List[Tuple]:
    """(edge, content) of each imprimitive edge, in edge order."""
    return [(e, c) for e in g.edges if (c := e.weight.content()) > 1]


def _pivot(row: Sequence[int]) -> int:
    """Column of the first nonzero entry."""
    return next(j for j, x in enumerate(row) if x)


def _raised(g: GkmGraph, basis: linalg.Matrix, d: int) -> list:
    """x- and y-multiples of degree-2d basis rows, as degree-2(d+1) vectors."""
    k = d + 1
    out = []
    for row in basis:
        x: list = []
        for i in range(0, len(g.vertices) * k, k):
            x += row[i:i + k]
            x.append(0)
        out += (x, [0] + x[:-1])  # y * f is x * f moved one place right
    return out


def _combination(L: linalg.Matrix, coords: Sequence[int]) -> list:
    """sum_i coords_i L_i."""
    out = [0] * (len(L[0]) if L else 0)
    for c, row in zip(coords, L):
        if c:
            out = [s + c * x for s, x in zip(out, row)]
    return out


class _Quotient(NamedTuple):
    """The degree-2d class lattice L modulo the x- and y-multiples of L_{d-1}.

    C holds the coordinates in L of the raised L_{d-1} rows.  Mostly C
    reduces with unit pivots alone (linalg.unit_reduce) to rows E_p, 1 at
    pivot p and 0 at the other pivots.  Their span is then saturated: the
    quotient is free, every divisor is 1, and L's rows at the non-pivot
    columns lift a basis of it.  Otherwise S C T = D is the Smith form
    (linalg.snf_transform), of which T^-1 is kept for the torsion
    witnesses: the submodule is spanned by d_i times row i of T^-1 for
    i < rank, and rows rank.. of T^-1 L lift a basis of the free part.
    """

    lattice: linalg.Matrix
    divisors: Tuple[int, ...]  # the nonzero d_i, in order
    reduced_lifts: List[list]  # classes lifting a basis of the free part
    inverse: Optional[linalg.Matrix] = None  # T^-1, Smith form only


@per_graph("quotient")
def _quotient(g: GkmGraph, d: int) -> _Quotient:
    """The reduced degree-2d part, from unit pivots when C has them and
    from a Smith form otherwise (_Quotient)."""
    L = ht_basis_z(g, d)
    coords = []
    if d:
        solve = linalg.hnf_solver(L)
        coords = [solve(r) for r in _raised(g, ht_basis_z(g, d - 1), d - 1)]
        if None in coords:
            raise RuntimeError("product class escaped the class lattice")
    E = linalg.unit_reduce(coords)
    if E is not None:
        return _Quotient(L, (1,) * len(E), [L[j] for j in range(len(L)) if j not in E])
    D, Tinv = linalg.snf_transform(coords)
    divisors = tuple(row[i] for i, row in enumerate(D[: len(L)]) if row[i] != 0)
    return _Quotient(L, divisors, [_combination(L, c) for c in Tinv[len(divisors):]],
                     Tinv)


# ---------------------------------------------------------------------------
# Free basis certificate
# ---------------------------------------------------------------------------

class _Basis(NamedTuple):
    """n = |V| classes of H_T, read at (x, y) = (1, t) (_point): their
    degrees, and V, one row of values per class and one column per vertex.
    z solves V z = s e_top, with s != 0 and e_top the last class's unit
    vector, from the echelon of [V | e_top] that also gives |det V|, the
    product of its pivots (0 and no z when V is singular).  target is the
    |det V| of a free basis (_target)."""

    degrees: Tuple[int, ...]
    values: linalg.Matrix
    det: int
    z: Optional[list]
    target: int


def _point(g: GkmGraph) -> int:
    """t with (1, t) off every line alpha'_e = 0: 1 + max |a'_e|."""
    return 1 + max((abs(e.weight.a // e.weight.content()) for e in g.edges),
                   default=0)


def _target(g: GkmGraph) -> int:
    """N prod |alpha'_e(1, t)|, the |det V| of |V| classes that are a free
    basis of H_T (z_freeness).  N is the order of the image of
    f -> (f_u - f_v mod c_e): prod c_e over the index of the incidence rows
    and the c_e unit vectors."""
    t = _point(g)
    moduli = _moduli(g)
    incidence = [[(v == e.u) - (v == e.v) for e, _ in moduli] for v in g.vertices]
    scaled = [[c * (i == j) for j in range(len(moduli))]
              for i, (_, c) in enumerate(moduli)]
    # The product of a full-rank echelon basis's pivots is its lattice's index.
    index = math.prod(c for _, c in moduli) // math.prod(
        row[_pivot(row)] for row in linalg.echelon_basis(incidence + scaled))
    return index * abs(math.prod(
        (e.weight.a + e.weight.b * t) // e.weight.content() for e in g.edges))


def _basis(g: GkmGraph, gens: Sequence[Tuple[int, list]], target: int) -> _Basis:
    """The _Basis of n (degree, class) pairs.  The echelon's rows are
    U [V | e_top] = [H | b] with H upper triangular, so z is H z = s b
    solved from the last row up, scaled by the least factor that makes each
    pivot divide.  A value is a block dotted with (1, t, ..., t^d) from a
    power table per degree, or 0 for a zero block."""
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
    return _Basis(tuple(d for d, _ in gens), V, det, z, target)


def _vertex_thom(g: GkmGraph) -> list:
    """The Thom class tau_p of the first vertex p, of degree 2 valence: the
    product of the labels at p, placed at p (thom_class_vertex)."""
    return thom_class_vertex(g, g.vertices[0])


@per_graph("basis")
def _closed_basis(g: GkmGraph) -> Optional[_Basis]:
    """The _Basis of the reduced lifts of the quotients (_quotient) of
    degree 0, 2, ..., taken until there are n = |V| of them or the valence
    is reached; None when they are not n.  When the quotients below the
    valence leave one class to find, tau_p (_vertex_thom) closes them if
    |det V| is then the target, and the top quotient's lift does otherwise.
    _free_betti certifies this basis, and _pairing reads the pairing from
    it."""
    n, target = len(g.vertices), _target(g)
    gens: list = []  # (degree, class)
    for d in range(g.valence + 1):
        if d == g.valence and len(gens) == n - 1:
            closed = _basis(g, gens + [(d, _vertex_thom(g))], target)
            if closed.det == target:
                return closed
        gens += [(d, f) for f in _quotient(g, d).reduced_lifts]
        if len(gens) >= n:
            break
    return _basis(g, gens, target) if len(gens) == n else None


def _free_betti(g: GkmGraph) -> Optional[Tuple[int, ...]]:
    """(b_0, ..., b_top), the classes counted per degree of the Thom-class
    peel (gkm3.thom) or else the closed basis (_closed_basis), when it is a
    free basis of H_T: its degrees sum to |E| and |det V| is the target
    (z_freeness); else None."""
    # The index argument needs no loop and independent labels.
    if any(e.u == e.v for e in g.edges) or any(
        det == 0 for pairs in g.label_pairs.values() for _, _, det in pairs
    ):
        return None
    basis = thom.free_basis(g) or _closed_basis(g)
    if (basis is None or sum(basis.degrees) != len(g.edges)
            or basis.det != basis.target):
        return None
    top = basis.degrees[-1] if basis.degrees else -1
    return tuple(map(basis.degrees.count, range(top + 1)))


# ---------------------------------------------------------------------------
# Betti numbers
# ---------------------------------------------------------------------------

class BettiResult(NamedTuple):
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

    Over Q the classes are a free module (see the module docstring), with
    b_{2k} generators in degree 2k, so the lattice ranks are
    r_d = sum_k b_{2k} (d - k + 1), and b_{2d} = r_d - 2 r_{d-1} + r_{d-2}
    is read from the ranks of one echelon per degree (_lattice_rank): no
    quotient and no basis is formed for it.  When the lifts of the
    quotients' bases up to some degree 2 top are certified a free basis of
    H_T (z_freeness), the certificate gives the Betti numbers, and
    b_{2d} = 0 above 2 top.
    """
    free = _free_betti(g)
    betti: List[int] = []
    ranks = [0, 0]  # r_{-2}, r_{-1}, then r_0, r_1, ...
    stabilized = False
    for d in range(degree_cap // 2 + 1):
        if free is None:
            ranks.append(_lattice_rank(g, d))
            betti.append(ranks[-1] - 2 * ranks[-2] + ranks[-3])
        else:
            betti.append(free[d] if d < len(free) else 0)
        if (
            sum(betti) == len(g.vertices)
            and len(betti) >= 2
            and betti[-1] == 0
            and betti[-2] == 0
        ):
            stabilized = True
            break
    return BettiResult(tuple(betti), stabilized, sum(betti))


def cohomology_table(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> List[dict]:
    """Per-degree summary: Q-dimension, Z-rank and Betti number.

    dim_q = rank_z (see ht_basis_q), so both columns read one rank, and it
    is read from the Betti numbers: r_d = sum_k b_{2k} (d - k + 1), as b is
    the second difference of r (betti_numbers), with no basis formed.
    """
    betti = betti_numbers(g, degree_cap).betti
    out = []
    for d, b in enumerate(betti):
        rank = sum(bk * (d - k + 1) for k, bk in enumerate(betti[: d + 1]))
        out.append({"degree": 2 * d, "betti": b, "dim_q": rank, "rank_z": rank})
    return out


# ---------------------------------------------------------------------------
# Thom classes
# ---------------------------------------------------------------------------

def thom_class_vertex(g: GkmGraph, v: str) -> list:
    """Degree-6 class: product of the three incident weights at v, 0 elsewhere.

    It is checked to be an integral class (_thom_class).
    """
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
    """_thom_values as a vector, checked at its support (_check_class): of
    the vertex ends[0], or of the edge skip, signed -eta(skip) at ends[1].
    ValueError at an end whose valence is not g.valence, the block size."""
    for v in ends:
        if len(g.incident[v]) != g.valence:
            raise ValueError(f"{what}: vertex {v!r} has valence "
                             f"{len(g.incident[v])}, not {g.valence}")
    k = g.valence - (skip is not None) + 1
    signs = (1,) if skip is None else (1, -eta(g, skip))
    values = _thom_values(g, list(zip(ends, signs)), skip)
    vec = [0] * (len(g.vertices) * k)
    for v, f in values.items():
        base = g.vertex_index[v] * k
        for j, c in enumerate(f):
            vec[base + j] += c
    _check_class(g, values, what)
    return vec


def _thom_values(g: GkmGraph, ends: Sequence[Tuple[str, int]],
                 skip: Optional[int]) -> dict:
    """v -> the sum over (v, s) in ends of s times v's labels' product but skip's."""
    out: dict = {}
    for v, scale in ends:
        prod = reduce(poly_mul, (g.edges[eid].weight.vector
                                 for eid in g.incident[v] if eid != skip), (1,))
        old = out.get(v, (0,) * len(prod))
        out[v] = tuple(a + scale * c for a, c in zip(old, prod))
    return out


def _check_class(g: GkmGraph, values: dict, what: str) -> dict:
    """values (vertex -> coefficients, 0 elsewhere), or RuntimeError unless
    at each edge at a listed vertex h = f_u - f_v is divisible by the label
    (ht_basis_z's equations); no lattice is formed."""
    zero, get = (0,) * max(map(len, values.values()), default=0), values.get
    for eid in {eid for v in values for eid in g.incident[v]}:
        u, v, (a, b) = g.edges[eid]
        if (fu := get(u, zero)) != (fv := get(v, zero)):
            h, c = [p - q for p, q in zip(fu, fv)], math.gcd(a, b)
            if poly_eval(h, b // c, -a // c) or any(x % c for x in h):
                raise RuntimeError(f"{what} escaped the class lattice")
    return values


# ---------------------------------------------------------------------------
# Poincare duality
# ---------------------------------------------------------------------------

def _pairing(g: GkmGraph) -> linalg.Matrix:
    """The pairing of classes u, v lifting bases of the reduced H^2 and H^4
    (poincare_duality), from integer factors: per u, vertex -> weight, and
    per v, vertex -> value at (1, t); an entry sums weight times value over
    the vertices listed in both.  The Thom-class peel (gkm3.thom.pairing)
    gives rows L int u v; the closed basis (_closed_basis) gives
    z . (u v)(1, t), with weights u_q(1, t) z_q and values v_q(1, t)."""
    if (peeled := thom.free_basis(g)) is not None:
        rows, cols = thom.pairing(g, peeled)
    else:
        basis = _closed_basis(g)
        if basis is None or not basis.det:
            raise RuntimeError("the reduced lifts are not a basis over Q")
        classes = list(zip(basis.degrees, basis.values))
        rows = [{q: x * z for q, (x, z) in enumerate(zip(u, basis.z)) if x}
                for d, u in classes if d == 1]
        cols = [{q: x for q, x in enumerate(v) if x} for d, v in classes if d == 2]
    at: dict = {}  # vertex -> [(row, weight)]
    for i, u in enumerate(rows):
        for q, w in u.items():
            at.setdefault(q, []).append((i, w))
    out = [[0] * len(cols) for _ in rows]
    for j, v in enumerate(cols):
        for q, x in v.items():
            for i, w in at.get(q, ()):
                out[i][j] += w * x
    return out


class PoincareResult(NamedTuple):
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

    Let u_1 .. u_n be a basis of H_T (x) Q over Q[x, y], u_n the one class
    of degree 6; their images in the reduced parts are a basis of each
    (graded Nakayama).  A degree-6 class f is sum_i c_i u_i, c_n its image
    in the reduced H^6.  A functional that kills the classes of degree
    below 6 but not u_n reads c_n up to a factor, so the pairing u v up to
    it: a product of classes is a class (f g)_u - (f g)_v =
    f_u (g_u - g_v) + g_v (f_u - f_v).

    The localized integral is one (Atiyah-Bott, Topology 23, 1984;
    Berline-Vergne, C. R. Acad. Sci. Paris 295, 1982; Goresky-Kottwitz-
    MacPherson, Invent. Math. 131, 1998; Guillemin-Zara, Duke Math. J. 107,
    2001): with tau a potential and e_p the product of the labels at p,
    int f = sum_p tau(p) f(p) / e_p is a polynomial of degree deg f - 3.
    Its poles could only be primitive labels alpha'; the edges labelled by
    multiples of one alpha' form a matching, and at such an edge uv with
    e_u = alpha_e A_u, e_v = alpha_e A_v, on the line alpha' = 0 f(u) = f(v)
    and A_v / A_u = -eta(e) (gkm3.orientation), so the residues cancel as
    tau(u) tau(v) = eta(e).  So int kills the classes of degree below 6,
    and int tau_p = tau(p) = +-1.  The Thom-class route pairs by L int u v at
    (1, t), one integer L > 0 per u (gkm3.thom.pairing).  The closed basis
    solves V z = s e_n, V its values at (1, t) off every line alpha'_e = 0
    (invertible: their determinant has no other prime factor), so
    z . f(1, t) = s c_n and z is proportional to tau(p) / e_p(1, t) where a
    potential exists.
    """
    res = betti_numbers(g, degree_cap)
    betti = res.betti
    reasons = []
    if not res.stabilized:
        reasons.append("betti numbers did not stabilize below the degree cap")
    padded = list(betti) + [0] * max(0, 4 - len(betti))
    if padded[0] != 1:
        reasons.append(f"b_0 = {padded[0]}, expected 1")
    if padded[3] != 1:
        reasons.append(f"b_6 = {padded[3]}, expected 1")
    if padded[1] != padded[2]:
        reasons.append(f"b_2 = {padded[1]} differs from b_4 = {padded[2]}")
    if any(b != 0 for b in padded[4:]):
        reasons.append("nonzero betti number above degree 6")
    if reasons:
        return PoincareResult(False, betti, reasons=tuple(reasons))

    rank = linalg.q_rank(_pairing(g))
    if rank != padded[1]:
        reasons.append(f"product pairing has rank {rank}, expected {padded[1]}")
    return PoincareResult(not reasons, betti, rank, tuple(reasons))


# ---------------------------------------------------------------------------
# Integral freeness
# ---------------------------------------------------------------------------

class FreenessResult(NamedTuple):
    """status is "certified" or "not-free"; a torsion witness names a class
    vector and the smallest multiplier that lands it in the product ideal."""

    status: str
    checked_degrees: range  # the even degrees 0, 2, ... scanned
    witness: Optional[dict] = None


def z_freeness(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> FreenessResult:
    """Whether the integral classes H_T form a free Z[x, y]-module.

    First, one determinant, of |V| classes F: the Thom-class peel
    (gkm3.thom), else the closed basis (_closed_basis), the lifts of the
    quotients' (_quotient) bases of degree 0, 2, ... up to |V| of them and
    the valence, closed by the Thom class tau_p of the first vertex
    (_vertex_thom) or, when the test fails for it, the top quotient's lifts.
    Write alpha_e = c_e alpha'_e, c_e the content of the label, and
    N = [Z^V : {f : c_e | f_u - f_v}].  F is tested when there is no loop,
    the labels at every vertex are pairwise independent (so the edges whose
    labels are multiples of one alpha' form a matching), and the degrees of
    F sum to |E|.  Then G, the |V| x |V| matrix of their values, has
    det G = +-N prod_e alpha'_e exactly when F = H_T:

    1. At a height-one prime P of Z[x, y], (H_T)_P is free over the
       discrete valuation ring Z[x, y]_P, and its index in Z[x, y]_P^V is
       alpha'^m at P = (alpha'), m the number of labels that are multiples
       of alpha' (one congruence per edge of the matching); p^{v_p(N)} at
       P = (p), where the primitive alpha'_e are units; and 1 at every
       other P.  As F lies in H_T, N prod alpha'_e divides det G.
    2. det G is homogeneous of degree sum(deg) = |E|, so
       det G = c N prod alpha'_e with c in Z, and one evaluation off every
       line alpha'_e = 0, at (x, y) = (1, 1 + max |a'_e|), reads |c|.
    3. If |c| = 1, then F_P = (H_T)_P at every height-one P.  A free module
       is the intersection of these localizations, so H_T lies in F; hence
       H_T = F is free, no quotient has torsion, and b_{2d} = 0 above the
       top generator degree.  The result is "certified", with every even
       degree up to the cap in checked_degrees.
    4. Conversely, if H_T is free with generators of degree at most the
       valence, graded Nakayama makes the quotients' lifts a basis, and the
       test passes, with tau_p or the top quotient's lifts.

    Steps 1-3 hold for any |V| classes of H_T whose degrees sum to |E|:
    for the peel's Thom classes, each checked to be a class, of degree 3 - k
    at a vertex with k edges back, G is triangular in pick order with
    det G = +-prod_e alpha_e, which passes when N = prod c_e.  Only step 4
    needs the quotients' lifts, so no quotient is checked for torsion first.

    N is prod c_e over the index of the lattice spanned by the imprimitive
    edges' signed incidence rows and c_e times their unit vectors, and both
    determinants are products of echelon pivots (linalg.echelon_basis).

    Otherwise, degree by degree up to the cap: the quotient of the class
    lattice by the x- and y-multiples of the previous degree's lattice
    (_quotient) is free when its relations reduce with unit pivots, and
    otherwise read from its Smith form; an elementary divisor > 1 yields a
    torsion witness and "not-free".  checked_degrees, the degrees scanned,
    is the range 0, 2, ... up to the witness or the cap.
    """
    if _free_betti(g) is None:
        for d in range(degree_cap // 2 + 1):
            q = _quotient(g, d)
            for i, di in enumerate(q.divisors):
                if di > 1:
                    wit = _combination(q.lattice, q.inverse[i])
                    return FreenessResult(
                        "not-free",
                        range(0, 2 * d + 1, 2),
                        witness={"degree": 2 * d, "order": di, "class": wit},
                    )
    return FreenessResult("certified", range(0, degree_cap + 1, 2))
