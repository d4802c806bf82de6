"""Equivariant graph cohomology over Q and Z, Betti numbers, duality, freeness.

A class of cohomological degree 2d assigns to each vertex a homogeneous
degree-d polynomial in Z[x, y] (coefficients listed in the monomial order
x^d, x^{d-1} y, ..., y^d), subject to one congruence per edge uv with
weight alpha: f_u - f_v must be divisible by alpha.  Classes are stored as
flat coefficient vectors, one block of d + 1 coefficients per vertex in the
graph's vertex order.

The divisibility is decided exactly over Z from one evaluation per edge:
f_u - f_v must vanish at the root of the primitive part of alpha, and the
content of alpha must divide each of its coefficients (ht_basis_z).  The
class lattice is the integer solution set of those equations and
congruences.  One echelon of the evaluations per degree gives both its
rank and its Hermite basis, each class lifted from its free coordinates by
back-substitution; only a lattice that is not all of Z on those
coordinates eliminates again, for its index.  The lattice also spans the
rational classes (see ht_basis_q), and over Q the classes are a free
module: they are the kernel of Q[x, y]^V -> (+)_e Q[x, y] / (alpha_e), a
target of depth 1, so the kernel has depth 2 and is free (Auslander and
Buchsbaum).  So every Betti number is a second difference of the lattice
ranks (betti_numbers), and no quotient is needed for it.  Integral
quotients per degree give the torsion test, and one functional of the
degree-6 quotient reads the whole duality pairing.  When the lifts of the
quotients' bases up to the valence are a free basis of all classes, one
determinant proves it (z_freeness), and with it freeness and the Betti
numbers in every degree, so the quotients above are never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from . import linalg
from .connection import Connection, DirectedEdge, transition
from .graph import GkmGraph

__all__ = [
    "DEFAULT_DEGREE_CAP", "poly_mul", "poly_eval", "mult_x", "mult_y",
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
    d = len(p) - 1
    return sum(c * x ** (d - k) * y ** k for k, c in enumerate(p))


def mult_x(p: Sequence) -> Tuple:
    """x * p: the coefficient list gains a trailing zero."""
    return tuple(p) + (0,)


def mult_y(p: Sequence) -> Tuple:
    """y * p: the coefficient list gains a leading zero."""
    return (0,) + tuple(p)


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
    """HNF-canonical Z-basis (rows) of the degree-2d class lattice L.

    The equations.  Write an edge label as alpha = c * alpha' with c its
    content and alpha' = a' x + b' y primitive.  Then alpha divides
    h = f_u - f_v in Z[x, y] exactly when h(b', -a') = 0 and c divides
    every coefficient of h: the root makes alpha' divide h over Q, and by
    Gauss's lemma the quotient h / alpha' is integral with the same content
    as h.  So each edge gives one evaluation equation, coefficient j of h
    weighted by b'^(d-j) (-a')^j, and an imprimitive edge also gives d + 1
    congruences c | h_j.

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
    Otherwise, with Q the fixed coordinates and the auxiliary unknowns t_j
    of the congruences h_j + c t_j = 0, Z^F / Y is the quotient of the
    lattice spanned by the equation rows of all unknowns by the one spanned
    by those of Q, so its order divides det Q, the product of the pivots
    of an echelon basis of Q's rows; Y's Hermite form is taken mod det Q
    (linalg.hnf_mod) from the class parts of the solutions on F.
    """
    cache = g.memo
    if ("z", d) in cache:
        return cache[("z", d)]
    nf = len(g.vertices) * (d + 1)
    steps = []  # per fixed coordinate, lowest first: (it, pivot, terms)
    for row in reversed(_evaluation_echelon(g, d)):
        p = _pivot(row)
        terms = [(nf - 1 - j, row[j]) for j in range(p + 1, nf) if row[j]]
        steps.append((nf - 1 - p, row[p], terms))
    fixed = [i for i, _, _ in steps]
    free = sorted(set(range(nf)) - set(fixed))
    basis = _lifts(g, d, steps, free, [[(t, 1)] for t in range(len(free))])
    if None in basis:  # Y is not all of Z^F
        eqs, naux = _divisibility_equations(g, d)
        neq = naux + len(g.edges)
        solved = linalg.echelon(
            [row + [int(i == f) for f in free] for i, row in enumerate(eqs)], neq
        )
        tails = [row[neq:] for row in solved if not any(row[:neq])]
        det_q = _pivot_product(linalg.echelon_basis(
            [eqs[i] for i in fixed + list(range(nf, nf + naux))]))
        ys = [[(t, v) for t, v in enumerate(row) if v]
              for row in linalg.hnf_mod(tails, len(free), det_q)]
        basis = _lifts(g, d, steps, free, ys)
        if None in basis:
            raise RuntimeError("class lattice row does not lift")
    cache[("z", d)] = basis
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


def _evaluation_echelon(g: GkmGraph, d: int) -> linalg.Matrix:
    """The echelon basis of _evaluations, memoized per graph and degree:
    ht_basis_z back-substitutes through it and _lattice_rank reads its
    rank, so each degree's equations are eliminated once."""
    key = ("evaluations", d)
    if key not in g.memo:
        g.memo[key] = linalg.echelon_basis(_evaluations(g, d))
    return g.memo[key]


def _lattice_rank(g: GkmGraph, d: int) -> int:
    """r_d = rank L_d = dim_Q of the degree-2d classes (ht_basis_q): the
    class coordinates less the rank of the evaluations, which alone cut out
    the rational classes."""
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


def _divisibility_equations(g: GkmGraph, d: int) -> Tuple[linalg.Matrix, int]:
    """The equations of ht_basis_z, one row per unknown (the class
    coordinates, then the t_j): its coefficients in the congruences
    h_j + c t_j = 0, then in the evaluations; and the number of t_j."""
    k = d + 1
    nf = len(g.vertices) * k
    moduli = _moduli(g)
    naux = k * len(moduli)
    evals = _evaluations(g, d)
    eqs = [[0] * naux + [row[nf - 1 - i] for row in evals] for i in range(nf)]
    eqs += [[0] * (naux + len(evals)) for _ in range(naux)]
    for m, (e, c) in enumerate(moduli):
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        for j in range(k):
            aux = m * k + j  # the congruence's column and auxiliary row
            eqs[iu + j][aux] += 1
            eqs[iv + j][aux] -= 1
            eqs[nf + aux][aux] = c
    return eqs, naux


def _pivot(row: Sequence[int]) -> int:
    """Column of the first nonzero entry."""
    return next(j for j, x in enumerate(row) if x)


def _solver(g: GkmGraph, d: int) -> Callable[[Sequence[int]], Optional[list]]:
    """The back-substitution against ht_basis_z(g, d) (linalg.hnf_solver),
    built once per graph and degree."""
    key = ("solve", d)
    if key not in g.memo:
        g.memo[key] = linalg.hnf_solver(ht_basis_z(g, d))
    return g.memo[key]


def _located(solve: Callable[[Sequence[int]], Optional[list]],
             vec: Sequence, what: str) -> list:
    """Coordinates of vec by a lattice's solver; RuntimeError if outside."""
    c = solve(vec)
    if c is None:
        raise RuntimeError(f"{what} escaped the class lattice")
    return c


def _pivot_product(H: linalg.Matrix) -> int:
    """The product of an echelon basis's pivots: the index of its lattice
    when it has full rank, the absolute determinant when it is square."""
    return math.prod(row[_pivot(row)] for row in H)


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
    coordinates in L) for i < rank.  So a class c L reduces to (c T)[rank:]
    in the free part of the quotient (functional reads its first entry
    without c), and rows rank.. of T^-1 L lift a basis of that free part.
    T and T^-1 both come from the one Smith elimination (linalg.snf_transform).
    """

    lattice: linalg.Matrix
    transform: linalg.Matrix
    inverse: linalg.Matrix  # T^-1: its rows are the adapted basis's coordinates
    divisors: Tuple[int, ...]  # the nonzero d_i, in order

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def betti(self) -> int:
        return len(self.lattice) - self.rank

    def lift(self, coords: Sequence[int]) -> list:
        """The class with the given coordinates in the lattice basis."""
        out = [0] * (len(self.lattice[0]) if self.lattice else 0)
        for c, row in zip(coords, self.lattice):
            if c:
                out = [s + c * x for s, x in zip(out, row)]
        return out

    @cached_property
    def reduced_lifts(self) -> list:
        """Classes lifting a basis of the free part of the quotient."""
        return [self.lift(row) for row in self.inverse[self.rank:]]

    def functional(self) -> Tuple[list, int]:
        """(mu, s), s > 0, with mu . f = s (c T)[rank] for each class f = c L:
        mu is 0 off L's pivot columns P and solves the upper triangular
        L[:, P] mu_P = s (column rank of T) from the last row up, scaled by
        the least factor that makes each pivot divide (s = 2 on cp3)."""
        mu, s = [0] * len(self.lattice[0]), 1
        for row, t in zip(reversed(self.lattice), reversed(self.transform)):
            p = _pivot(row)
            r = s * t[self.rank] - sum(x * m for x, m in zip(row, mu) if m)
            scale = row[p] // math.gcd(row[p], r)
            if scale > 1:
                mu, s, r = [scale * m for m in mu], scale * s, scale * r
            mu[p] = r // row[p]
        return mu, s


def _quotient(g: GkmGraph, d: int) -> _Quotient:
    """The reduced degree-2d part, from one Smith form; memoized per graph."""
    cache = g.memo
    if ("quotient", d) in cache:
        return cache[("quotient", d)]
    L, solve = ht_basis_z(g, d), _solver(g, d)
    coords = [] if d == 0 else [
        _located(solve, r, "product class")
        for r in _raised(g, ht_basis_z(g, d - 1), d - 1)
    ]
    D, T, Tinv = linalg.snf_transform(coords, len(L))
    divisors = tuple(row[i] for i, row in enumerate(D[: len(L)]) if row[i] != 0)
    q = _Quotient(L, T, Tinv, divisors)
    cache[("quotient", d)] = q
    return q


# ---------------------------------------------------------------------------
# Free basis certificate
# ---------------------------------------------------------------------------

def _free_betti(g: GkmGraph) -> Optional[Tuple[int, ...]]:
    """(b_0, ..., b_top) when the reduced lifts of the quotients up to
    degree 2 top are a free basis of H_T (see z_freeness), else None;
    decided once per graph."""
    if ("free",) not in g.memo:
        g.memo[("free",)] = _certify_free(g)
    return g.memo[("free",)]


def _certify_free(g: GkmGraph) -> Optional[Tuple[int, ...]]:
    if any(e.u == e.v for e in g.edges):
        return None
    if any(det == 0 for pairs in g.label_pairs.values() for _, _, det in pairs):
        return None  # the index argument needs independent labels
    n = len(g.vertices)
    gens: list = []  # (degree, class)
    betti: List[int] = []
    for d in range(g.valence + 1):
        q = _quotient(g, d)
        if any(di > 1 for di in q.divisors):
            return None
        gens += [(d, f) for f in q.reduced_lifts]
        betti.append(q.betti)
        if len(gens) >= n:
            break
    if len(gens) != n or sum(d for d, _ in gens) != len(g.edges):
        return None
    contents = [e.weight.content() for e in g.edges]
    prims = [(e.weight.a // c, e.weight.b // c) for e, c in zip(g.edges, contents)]
    t = 1 + max((abs(a) for a, _ in prims), default=0)  # off every alpha' = 0
    values = [[poly_eval(p, 1, t) for p in _blocks(g, f, d)] for d, f in gens]
    # N is the order of the image of f -> (f_u - f_v mod c_e): prod c_e
    # over the index of the incidence rows and the c_e unit vectors.
    moduli = [(e, c) for e, c in zip(g.edges, contents) if c > 1]
    incidence = [[(v == e.u) - (v == e.v) for e, _ in moduli] for v in g.vertices]
    scaled = [[c * (i == j) for j in range(len(moduli))]
              for i, (_, c) in enumerate(moduli)]
    index = math.prod(c for _, c in moduli) // _pivot_product(
        linalg.echelon_basis(incidence + scaled)
    )
    H = linalg.echelon_basis(values)
    target = index * abs(math.prod(a + b * t for a, b in prims))
    return tuple(betti) if len(H) == n and _pivot_product(H) == target else None


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

    Over Q the classes are a free module (see the module docstring), with
    b_{2k} generators in degree 2k, so the lattice ranks are
    r_d = sum_k b_{2k} (d - k + 1), and b_{2d} = r_d - 2 r_{d-1} + r_{d-2}
    is read from the ranks of one echelon per degree (_lattice_rank): no
    quotient and no basis is formed for it.  When the lifts of the
    quotients' bases up to some degree 2 top are certified a free basis of
    H_T (z_freeness), the certificate gives the Betti numbers, and
    b_{2d} = 0 above 2 top.
    """
    cache = g.memo
    if ("betti", degree_cap) in cache:
        return cache[("betti", degree_cap)]
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
    res = BettiResult(tuple(betti), stabilized, sum(betti))
    cache[("betti", degree_cap)] = res
    return res


def cohomology_table(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> List[dict]:
    """Per-degree summary: Q-dimension, Z-rank and Betti number.

    dim_q = rank_z (see ht_basis_q), so both columns read one rank: the
    rank of the degree's one echelon (_lattice_rank), with no basis formed.
    With a certified free basis (z_freeness), b_{2k} of whose classes have
    degree 2k, the degree-2d classes are the sums h_c c with h_c of degree
    d - k, so the rank is counted instead.
    """
    free = _free_betti(g)
    out = []
    for d, b in enumerate(betti_numbers(g, degree_cap).betti):
        if free is None:
            rank = _lattice_rank(g, d)
        else:
            rank = sum(bk * (d - k + 1) for k, bk in enumerate(free[: d + 1]))
        out.append({"degree": 2 * d, "betti": b, "dim_q": rank, "rank_z": rank})
    return out


# ---------------------------------------------------------------------------
# Thom classes
# ---------------------------------------------------------------------------

def thom_class_vertex(g: GkmGraph, v: str) -> list:
    """Degree-6 class: product of the three incident weights at v, 0 elsewhere.

    Membership in the integral class lattice is checked.
    """
    return _thom_class(g, [(v, 1)], None, f"Thom class of vertex {v!r}")


def thom_class_edge(g: GkmGraph, conn: Connection, edge_id: int) -> list:
    """Degree-4 class supported on the endpoints of an edge.

    At the source it is the product of the other two incident weights; at
    the target the same product is scaled by the product of the transport
    signs.  Membership in the integral class lattice is checked.
    """
    e = g.edges[edge_id]
    # eps is 1 at the edge itself, so this is the side transport sign.
    sign = math.prod(transition(g, conn, DirectedEdge(edge_id, True)).eps)
    return _thom_class(g, [(e.u, 1), (e.v, sign)], edge_id,
                       f"Thom class of edge {edge_id}")


def _thom_class(g: GkmGraph, ends: Sequence[Tuple[str, int]],
                skip: Optional[int], what: str) -> list:
    """Sum over (v, scale) in ends of scale times the product of the weights
    at v but skip's, placed at v; checked to lie in the class lattice."""
    d = g.valence - (skip is not None)
    vec = [0] * (len(g.vertices) * (d + 1))
    for v, scale in ends:
        prod: Tuple = (1,)
        for eid in g.incident[v]:
            if eid != skip:
                prod = poly_mul(prod, g.edges[eid].weight.vector)
        base = g.vertex_index[v] * (d + 1)
        for j, c in enumerate(prod):
            vec[base + j] += scale * c
    _located(_solver(g, d), vec, what)
    return vec


# ---------------------------------------------------------------------------
# Poincare duality
# ---------------------------------------------------------------------------

def _pairing(g: GkmGraph) -> linalg.Matrix:
    """mu . (u v) = r_u . v, r_u[w, b] = sum_a u_w[a] mu_w[a + b], for the
    classes u, v lifting bases of the reduced H^2 and H^4 (poincare_duality).
    Each v is listed once by its nonzero entries, as the lifts are sparse
    (2.9 % nonzero in degree 4 on the 72-vertex hexagon prism)."""
    reps2 = _quotient(g, 1).reduced_lifts
    reps4 = [[(i, x) for i, x in enumerate(v) if x]
             for v in _quotient(g, 2).reduced_lifts]
    mu = _blocks(g, _quotient(g, 3).functional()[0], 3)
    out = []
    for u in reps2:
        r_u = [sum(a * m[i + b] for i, a in enumerate(ub))
               for ub, m in zip(_blocks(g, u, 1), mu) for b in range(3)]
        out.append([sum(r_u[i] * x for i, x in v) for v in reps4])
    return out


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

    With (mu, s) the degree-6 _Quotient.functional, the pairing is read as
    mu . (u v): s > 0 times the image of u v in the reduced H^6, so of the
    same rank, as a product of classes is a class:
    f_u g_u - f_v g_v = f_u (g_u - g_v) + g_v (f_u - f_v).  No product is
    formed or solved for (_pairing).
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

@dataclass(frozen=True)
class FreenessResult:
    """status is "certified" or "not-free"; a torsion witness names a class
    vector and the smallest multiplier that lands it in the product ideal."""

    status: str
    checked_degrees: Tuple[int, ...]
    witness: Optional[dict] = None


def z_freeness(g: GkmGraph, degree_cap: int = DEFAULT_DEGREE_CAP) -> FreenessResult:
    """Whether the integral classes H_T form a free Z[x, y]-module.

    First, one determinant.  Let F be spanned by the classes lifting the
    bases of the quotients (_quotient) of degree 0, 2, ..., stopping once
    there are |V| of them and at the valence.  Write each label as
    alpha_e = c_e alpha'_e with c_e its content and alpha'_e primitive, and
    let N = [Z^V : {f : c_e | f_u - f_v}].  F is tested when no quotient so
    far has an elementary divisor > 1, there is no loop, the labels at
    every vertex are pairwise independent (so the edges whose labels are
    multiples of one alpha' form a matching), and F has |V| generators whose
    degrees sum to |E|.  Then G, the |V| x |V| matrix of their values, has
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
    4. Conversely, if H_T is free with generators of degree at most twice
       the valence, graded Nakayama makes the lifts a basis, and the test
       passes.

    N is prod c_e over the index of the lattice spanned by the imprimitive
    edges' signed incidence rows and c_e times their unit vectors, and both
    determinants are products of echelon pivots (linalg.echelon_basis).

    Otherwise, degree by degree up to the cap: the quotient of the class
    lattice by the x- and y-multiples of the previous degree's lattice is
    read from its Smith normal form (_quotient); any elementary divisor > 1
    yields a torsion witness and the verdict "not-free", and checked_degrees
    lists the degrees scanned.
    """
    if _free_betti(g) is not None:
        degrees = tuple(2 * d for d in range(degree_cap // 2 + 1))
        return FreenessResult("certified", degrees)
    checked = []
    for d in range(degree_cap // 2 + 1):
        checked.append(2 * d)
        q = _quotient(g, d)
        for i, di in enumerate(q.divisors):
            if di > 1:
                wit = q.lift(q.inverse[i])
                return FreenessResult(
                    "not-free",
                    tuple(checked),
                    witness={"degree": 2 * d, "order": di, "class": wit},
                )
    return FreenessResult("certified", tuple(checked))
