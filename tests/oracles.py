"""Independent oracles used to freeze expected values in the test suite.

The cohomology oracles go through sympy's symbolic machinery (polynomial
division, symbolic linear algebra, Smith normal form) rather than the
package's own exact-arithmetic routines, so agreement between the two is
meaningful evidence of correctness.  The connection oracles build every
connection as a list with itertools.product, without the package's lazy
connection sequence, and the label-only eta formula uses det2 alone.
"""

import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence

import sympy
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from gkm3.connection import (
    Connection,
    _compatible_bijections,
    connection_from_block,
)
from gkm3.graph import det2
from gkm3.orientation import is_orientable

x, y = sympy.symbols("x y")


def poly_from_coeffs(coeffs: Sequence) -> sympy.Expr:
    """Homogeneous polynomial from the x^d, x^{d-1}y, ..., y^d coefficients."""
    d = len(coeffs) - 1
    return sympy.expand(
        sum(sympy.Rational(c) * x ** (d - k) * y ** k for k, c in enumerate(coeffs))
    )


def blocks(g, vec: Sequence, d: int) -> dict:
    """Vertex -> coefficient tuple for a flat class vector."""
    k = d + 1
    return {
        v: tuple(vec[i * k : (i + 1) * k]) for i, v in enumerate(g.vertices)
    }


def divides(weight, coeffs: Sequence, over_z: bool) -> bool:
    """Whether (a x + b y) divides the polynomial, over Q or over Z."""
    a, b = weight.vector
    f = poly_from_coeffs(coeffs)
    if f == 0:
        return True
    # reduced() fully reduces f modulo the divisor; for a principal ideal the
    # remainder vanishes exactly on the multiples (sympy.div stops early when
    # the leading monomial is not divisible, which is wrong here).
    (q,), r = sympy.reduced(f, [a * x + b * y], x, y)
    if sympy.expand(r) != 0:
        return False
    if not over_z:
        return True
    qp = sympy.Poly(q, x, y)
    return all(c.is_Integer for c in qp.coeffs())


def class_satisfies(g, vec: Sequence, d: int, over_z: bool) -> bool:
    """Whether a flat vector satisfies every edge divisibility condition."""
    blk = blocks(g, vec, d)
    for e in g.edges:
        diff = [Fraction(a) - Fraction(b) for a, b in zip(blk[e.u], blk[e.v])]
        if not divides(e.weight, diff, over_z):
            return False
    return True


def q_dimension(g, d: int) -> int:
    """Brute-force dimension of the degree-2d classes over Q.

    Generic symbolic coefficients, one remainder condition per edge, rank
    of the resulting linear system via sympy.
    """
    k = d + 1
    syms = [
        sympy.Symbol(f"c_{i}_{j}") for i in range(len(g.vertices)) for j in range(k)
    ]
    vertex_polys = {
        v: sum(
            syms[i * k + j] * x ** (d - j) * y ** j for j in range(k)
        )
        for i, v in enumerate(g.vertices)
    }
    equations = []
    for e in g.edges:
        a, b = e.weight.vector
        diff = sympy.expand(vertex_polys[e.u] - vertex_polys[e.v])
        _, r = sympy.reduced(diff, [a * x + b * y], x, y)
        r = sympy.expand(r)
        if r != 0:
            rp = sympy.Poly(r, x, y)
            equations.extend(rp.coeffs())
    if not equations:
        return len(syms)
    system, _ = sympy.linear_eq_to_matrix(equations, syms)
    return len(syms) - system.rank()


def q_rank_rows(rows: List[Sequence]) -> int:
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(c) for c in r] for r in rows]).rank()


def in_row_space(rows: List[Sequence], v: Sequence) -> bool:
    """Rational row-space membership via a rank comparison."""
    if not rows:
        return all(c == 0 for c in v)
    M = sympy.Matrix([[sympy.Rational(c) for c in r] for r in rows])
    Mv = M.col_join(sympy.Matrix([[sympy.Rational(c) for c in v]]))
    return M.rank() == Mv.rank()


def row_lattice_hnf(rows: List[Sequence], ncols: int) -> sympy.Matrix:
    """Canonical form of the lattice generated by the rows, via sympy.

    sympy's hermite_normal_form is column-style, so the rows are passed as
    columns; the result is canonical per lattice.
    """
    if not rows:
        return sympy.zeros(ncols, 0)
    M = sympy.Matrix([[sympy.Integer(c) for c in r] for r in rows]).T
    return hermite_normal_form(M)


def in_lattice(rows: List[Sequence], v: Sequence, ncols: int) -> bool:
    """Membership of v in the row lattice (canonical-form comparison)."""
    return row_lattice_hnf(rows, ncols) == row_lattice_hnf(
        list(rows) + [list(v)], ncols
    )


def lattice_equal(rows_a: List[Sequence], rows_b: List[Sequence]) -> bool:
    """Lattice equality through sympy's canonical Hermite form."""
    ncols = len(rows_a[0]) if rows_a else (len(rows_b[0]) if rows_b else 0)
    return row_lattice_hnf(rows_a, ncols) == row_lattice_hnf(rows_b, ncols)


def snf_divisors(rows: List[Sequence], ncols: int) -> List[int]:
    """Nonzero elementary divisors via sympy's Smith normal form."""
    if not rows:
        return []
    M = sympy.Matrix([[sympy.Integer(c) for c in r] for r in rows])
    D = smith_normal_form(M, domain=sympy.ZZ)
    out = []
    for i in range(min(D.shape)):
        if D[i, i] != 0:
            out.append(abs(int(D[i, i])))
    return out


def hnf_rows(rows: List[Sequence]) -> sympy.Matrix:
    M = sympy.Matrix([[sympy.Integer(c) for c in r] for r in rows])
    return hermite_normal_form(M)


def brute_force_connections(g) -> List[Connection]:
    """Every compatible connection, a file-supplied one first, as a list."""
    per_edge = [_compatible_bijections(g, eid) for eid in range(len(g.edges))]
    conns = [
        Connection.from_forward_maps(g, dict(enumerate(choice)))
        for choice in itertools.product(*per_edge)
    ]
    if g.connection_block is None:
        return conns
    explicit = connection_from_block(g, g.connection_block)
    return [explicit] + [c for c in conns if c.maps != explicit.maps]


def brute_force_consistent(g) -> bool:
    """Whether every compatible connection has the same orientability."""
    conns = brute_force_connections(g)
    return len({is_orientable(g, c).orientable for c in conns}) == 1


def label_eta(g, eid: int) -> Fraction:
    """eta(e) = -eps_2 * eps_3 from the labels alone: for e: v -> w, minus
    prod_{f' in E_w - e} det(w(f'), w(e)) / prod_{f in E_v - e} det(w(f), w(e))."""
    e = g.edges[eid]

    def dets(v):
        return math.prod(
            det2(g.edges[f].weight, e.weight) for f in g.incident[v] if f != eid
        )

    return -Fraction(dets(e.v), dets(e.u))
