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
congruences, and its Hermite form is reduced modulo its index on the free
coordinates, so that reduction never meets an entry above the index.  The
lattice also spans the rational classes (see ht_basis_q), so one integral
quotient per degree gives the Betti numbers, the duality pairing and the
torsion test.
When the lifts of the quotients' bases up to the valence are a free basis
of all classes, one determinant proves it (z_freeness), and with it
freeness and the Betti numbers in every degree, so the quotients above are
never formed.
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
    congruences h_j + c t_j = 0, each with its own auxiliary unknown t_j.
    L is the class part of the integer solutions, and as the t_j follow
    from the class, no two solutions share it.

    The Hermite form.  Eliminating the equations gives integer solutions
    whose entries swell (hundreds of bits where L's basis has ten), so L is
    not reduced from them directly.  A class coordinate is fixed when some
    combination of the edge evaluations has its last nonzero entry there:
    on L it is then a rational combination of the coordinates before it.  So
    the other, free coordinates F are the pivot columns of L's Hermite
    form, and L maps one to one onto its part Y on F.  A vector y on F
    lifts to L when the equations on Q, the fixed coordinates and the t_j,
    have an integer solution; the lifts of the rows of Y's Hermite form are
    L's Hermite form.  Y is often all of Z^F: every unit vector lifts, and
    the lifts are the basis.  Otherwise Z^F / Y is the quotient of the
    lattice spanned by the equation rows of all unknowns by the one spanned
    by those of Q, so its order divides det Q, the product of Q's Hermite
    pivots, and Y's Hermite form is taken mod det Q (linalg.hnf_mod) from
    the class parts of the solutions on F.
    """
    cache = g.memo
    if ("z", d) in cache:
        return cache[("z", d)]
    eqs, naux = _divisibility_equations(g, d)
    nf, neq = len(eqs) - naux, naux + len(g.edges)
    ends = linalg.hnf([[row[col] for row in reversed(eqs[:nf])]
                       for col in range(naux, neq)])
    fixed = sorted(nf - 1 - _pivot(row) for row in ends)
    free = sorted(set(range(nf)) - set(fixed))
    HQ, UQ = linalg.hnf_transform(
        [eqs[i] for i in fixed + list(range(nf, nf + naux))]
    )
    terms = {i: [(col, w) for col, w in enumerate(eqs[i]) if w] for i in free}
    solve_q = linalg.hnf_solver(HQ)

    def lifted(y: Sequence[int]) -> Optional[list]:
        """The class with part y on F, or None if y is not in Y."""
        f, values = [0] * nf, [0] * neq
        for i, v in zip(free, y):
            if v:
                f[i] = v
                for col, w in terms[i]:
                    values[col] -= v * w
        coords = solve_q(values)
        if coords is None:
            return None
        for c, urow in zip(coords, UQ):
            if c:
                for i, u in zip(fixed, urow):  # the t_j are not kept
                    f[i] += c * u
        return f

    basis = [lifted(y) for y in linalg.eye(len(free))]
    if None in basis:  # Y is not all of Z^F
        solved = linalg.echelon(
            [row + [int(i == f) for f in free] for i, row in enumerate(eqs)], neq
        )
        tails = [row[neq:] for row in solved if not any(row[:neq])]
        det_q = _pivot_product(HQ)
        basis = [lifted(y) for y in linalg.hnf_mod(tails, len(free), det_q)]
        if None in basis:
            raise RuntimeError("class lattice row does not lift")
    cache[("z", d)] = basis
    return basis


def _divisibility_equations(g: GkmGraph, d: int) -> Tuple[linalg.Matrix, int]:
    """The equations of ht_basis_z, one row per unknown (the class
    coordinates, then the t_j): its coefficients in the congruences, then
    in the evaluations; and the number of t_j."""
    k = d + 1
    nf = len(g.vertices) * k
    contents = [e.weight.content() for e in g.edges]
    naux = k * sum(1 for c in contents if c > 1)
    neq = naux + len(g.edges)
    eqs = [[0] * neq for _ in range(nf + naux)]
    aux = 0  # congruences so far: the next one's column and auxiliary row
    for ei, (e, c) in enumerate(zip(g.edges, contents)):
        a, b = e.weight.a // c, e.weight.b // c
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        for j in range(k):  # coefficient of x^{d-j} y^j
            root = b ** (d - j) * (-a) ** j
            eqs[iu + j][naux + ei] += root
            eqs[iv + j][naux + ei] -= root
            if c > 1:
                eqs[iu + j][aux] += 1
                eqs[iv + j][aux] -= 1
                eqs[nf + aux][aux] = c
                aux += 1
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
    """The product of a Hermite form's pivots: the index of its row lattice
    when it has full rank, the absolute determinant when it is square."""
    return math.prod(row[_pivot(row)] for row in H)


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
    rank.. of T^-1 L lift a basis of that free part.  T and T^-1 both come
    from the one Smith elimination (linalg.snf_transform).
    """

    lattice: linalg.Matrix
    transform: linalg.Matrix
    inverse: linalg.Matrix  # T^-1: its rows are the adapted basis's coordinates
    divisors: Tuple[int, ...]  # the nonzero d_i, in order
    solve: Callable[[Sequence[int]], Optional[list]]  # coordinates in lattice

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

    def project(self, vec: Sequence) -> list:
        """Image of a class in the free part of the quotient, (c T)[rank:]."""
        c = _located(self.solve, vec, "class")
        cols = list(zip(*self.transform))[self.rank:]
        return [sum(ci * t for ci, t in zip(c, col)) for col in cols]

    @cached_property
    def reduced_lifts(self) -> list:
        """Classes lifting a basis of the free part of the quotient."""
        return [self.lift(row) for row in self.inverse[self.rank:]]


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
    q = _Quotient(L, T, Tinv, divisors, solve)
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
        linalg.hnf(incidence + scaled)
    )
    H = linalg.hnf(values)
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

    b_{2d} is the Betti number of the degree-2d quotient (_quotient).  When
    the lifts of the quotients' bases up to some degree 2 top are certified
    a free basis of H_T (z_freeness), every later quotient is 0, so
    b_{2d} = 0 above 2 top and no quotient there is formed.
    """
    cache = g.memo
    if ("betti", degree_cap) in cache:
        return cache[("betti", degree_cap)]
    free = _free_betti(g)
    betti: List[int] = []
    stabilized = False
    for d in range(degree_cap // 2 + 1):
        if free is None:
            betti.append(_quotient(g, d).betti)
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

    dim_q = rank_z (see ht_basis_q), so both columns read one rank.  With a
    certified free basis (z_freeness), b_{2k} of whose classes have degree
    2k, the degree-2d classes are the sums h_c c with h_c of degree d - k,
    so the rank is counted, not read from a basis.
    """
    free = _free_betti(g)
    out = []
    for d, b in enumerate(betti_numbers(g, degree_cap).betti):
        if free is None:
            rank = len(ht_basis_z(g, d))
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
    if padded[3] != 1:
        reasons.append(f"b_6 = {padded[3]}, expected 1")
    if padded[1] != padded[2]:
        reasons.append(f"b_2 = {padded[1]} differs from b_4 = {padded[2]}")
    if any(b != 0 for b in padded[4:]):
        reasons.append("nonzero betti number above degree 6")
    if reasons:
        return PoincareResult(False, betti, reasons=tuple(reasons))

    # Classes lifting a basis of the reduced H^2 and H^4, paired into the
    # reduced H^6, which has rank 1.
    reps2, reps4 = (_quotient(g, d).reduced_lifts for d in (1, 2))
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
    determinants are products of Hermite pivots (linalg.hnf).

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
