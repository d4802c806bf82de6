"""Independent oracles used to freeze expected values in the test suite.

The cohomology oracles go through sympy's symbolic machinery (polynomial
division, symbolic linear algebra, Smith normal form) rather than the
package's own exact-arithmetic routines, so agreement between the two is
meaningful evidence of correctness.  The connection oracles build every
connection as a list with itertools.product, without the package's lazy
connection sequence, test a connection map pair by pair instead of against
the enumerated options, and walk every face from both orientations,
deduplicating the canonical forms.  eta is read in two ways that share
nothing with the package's label-table eta: from det2 alone, and from each
connection's transition data in both directions.  The edge Thom class is
multiplied out by sympy.  The sign oracles try every ±1 labelling of the
nodes and every set of face flips, without a spanning forest.  The exact
kernel's replaced loops stay here as oracles: the elimination that reduced
above each pivot as soon as it found it, the back-substitution that
finds a basis's pivots on every call, the Smith form that scans the whole
remaining submatrix for each pivot, and the lift that sums the transposed
lattice's columns.  So does the Thom classes' replaced check, each class
solved for in the whole class lattice of its degree.  So does the duality
pairing's replaced path: each
product class formed vertex by vertex, solved for in the degree-6 lattice
and projected through a Smith transform of the quotient formed here, its
T the inverse of T^-1 by sympy's domain matrices.  The Thom route's
pairing is the localized integral summed in Fractions over the classes of
the oracle's own greedy peel, each product multiplied out and read at two
points.  So do the class lattice's two
eliminations of the same equations, the second solving each lift
against an echelon basis of the fixed coordinates' and auxiliaries' rows,
with the replaced fallback, an elimination of every unknown whose
Hermite form sympy takes mod det Q; and the Betti loop that reads each
b_2d from a Smith form of the raised lower lattice, with the table's rank
read off a basis.  The lattice ranks are also read from sympy's rank of
the evaluation matrix.  So do the connection's replaced
loops: the transition data assembled as n x n lists from one map lookup
per edge, and the holonomy multiplied as list comprehensions over those.
The transition matrix is also built by its recipe with each (eps, k)
solved by sympy's LU solve, without transport_coefficients, and the
holonomy multiplied as sympy matrices.  The raised rows are formed block
by block with the x- and y-multiples that the package's cohomology once
named.  The cubic form on the degree-2 lattice is the same localized
integral, summed over one common denominator, with nothing of the package
but the lattice rows and the potential it reads; so is p_1 z, with p_1 at
a vertex the sum of its squared labels.  The lift of w_2 to the lattice is
a GF(2) elimination of the lattice rows as bitmasks, with none of the
package's integer kernel.
"""

import functools
import itertools
import math
from fractions import Fraction
from typing import List, Optional, Sequence

import sympy
from sympy.polys.matrices import DomainMatrix
from sympy.matrices.normalforms import (
    hermite_normal_form,
    smith_normal_decomp,
    smith_normal_form,
)

from gkm3.connection import (
    Connection,
    ConnectionInconsistency,
    ConnectionPath,
    _compatible_bijections,
    connection_from_block,
    transition,
    transport_coefficients,
)
from gkm3 import cohomology as coh
from gkm3 import linalg, thom
from gkm3.graph import DirectedEdge, det2
from gkm3.linalg import exgcd
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


def raised(g, basis: Sequence[Sequence], d: int) -> List[list]:
    """The x- and y-multiples of degree-2d rows, vertex block by vertex
    block: x * p gains a trailing zero, y * p a leading one."""
    out = []
    for row in basis:
        per_vertex = blocks(g, row, d).values()
        out.append([c for b in per_vertex for c in b + (0,)])
        out.append([c for b in per_vertex for c in (0,) + b])
    return out


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


def class_lattice(g, d: int) -> List[list]:
    """Generators (rows) of the degree-2d integral class lattice, from the
    auxiliary-polynomial system f_u - f_v = alpha_e * g_e.

    One row per unknown: the class coefficients, then the d coefficients of
    each degree-(d-1) polynomial g_e; one column per coefficient of each
    edge equation.  The integer left kernel of that matrix A is spanned by
    rows rank.. of U in sympy's Smith decomposition D = U A V, and the class
    lattice is their class part.  No evaluation, content or Hermite step of
    the package is involved, so imprimitive labels are checked too.
    """
    k = d + 1
    nf = len(g.vertices) * k
    if not g.edges:
        return [[int(i == j) for j in range(nf)] for i in range(nf)]
    A = sympy.zeros(nf + len(g.edges) * d, len(g.edges) * k)
    for ei, e in enumerate(g.edges):
        a, b = e.weight.vector
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        ig = nf + ei * d
        for j in range(k):  # coefficient of x^{d-j} y^j
            col = ei * k + j
            A[iu + j, col] += 1
            A[iv + j, col] -= 1
            if j < d:
                A[ig + j, col] -= a  # a x * (g_e's x^{d-1-j} y^j term)
            if j > 0:
                A[ig + j - 1, col] -= b  # b y * (g_e's x^{d-j} y^{j-1} term)
    D, U, _ = smith_normal_decomp(A, domain=sympy.ZZ)
    rank = sum(1 for i in range(min(D.shape)) if D[i, i] != 0)
    return [[int(c) for c in U.row(i)[:nf]] for i in range(rank, U.rows)]


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


def content_index(g) -> int:
    """[Z^V : {f : c_e | f_u - f_v}], c_e the content of edge e's label, by
    counting the vectors of (Z/L)^V that satisfy every congruence, L the
    lcm of the contents."""
    contents = [e.weight.content() for e in g.edges]
    L = math.lcm(1, *contents)
    at = {v: i for i, v in enumerate(g.vertices)}
    kept = sum(
        all((f[at[e.u]] - f[at[e.v]]) % c == 0 for e, c in zip(g.edges, contents))
        for f in itertools.product(range(L), repeat=len(g.vertices))
    )
    return L ** len(g.vertices) // kept


def value_determinant(g, classes) -> sympy.Expr:
    """The determinant of the polynomial values of (degree, class vector)
    pairs at the vertices, one row per class."""
    M = sympy.Matrix([
        [poly_from_coeffs(blocks(g, vec, d)[v]) for v in g.vertices]
        for d, vec in classes
    ])
    return sympy.expand(M.det())


def primitive_label_product(g) -> sympy.Expr:
    """The product over the edges of the primitive part a' x + b' y of the
    label."""
    out = sympy.Integer(1)
    for e in g.edges:
        c = e.weight.content()
        out *= e.weight.a // c * x + e.weight.b // c * y
    return sympy.expand(out)


def brute_force_connections(g) -> List[Connection]:
    """Every compatible connection, a file-supplied one first, as a list."""
    per_edge = [_compatible_bijections(g, eid) for eid in range(len(g.edges))]
    conns = [
        Connection.from_forward_maps(dict(enumerate(choice)))
        for choice in itertools.product(*per_edge)
    ]
    if g.connection_block is None:
        return conns
    explicit = connection_from_block(g, g.connection_block, per_edge)
    return [explicit] + [c for c in conns if c.maps != explicit.maps]


def block_map_compatible(g, eid: int, fmap: dict) -> bool:
    """Whether fmap is a bijection E_u -> E_v for edge eid: u -> v that
    fixes eid and transports every other edge with integral coefficients
    (transport_coefficients not None), checked pair by pair."""
    e = g.edges[eid]
    src, tgt = g.incident[e.u], g.incident[e.v]
    if sorted(fmap) != sorted(src) or sorted(fmap.values()) != sorted(tgt):
        return False
    if fmap[eid] != eid:
        return False
    return all(
        transport_coefficients(g.edges[f].weight, g.edges[fp].weight, e.weight)
        is not None
        for f, fp in fmap.items()
        if f != eid
    )


def two_orientation_paths(g, conn) -> List[ConnectionPath]:
    """Every connection path: a walk from every seed state (predecessor
    edge, directed edge), so each face is walked once per orientation, with
    the canonical forms deduplicated in a dict and sorted."""
    seen: set = set()
    out: dict = {}
    for v in g.vertices:
        for prev in g.incident[v]:
            for cur in g.incident[v]:
                if cur == prev:
                    continue
                seed = (prev, g.directed(cur, v))
                if seed in seen:
                    continue
                steps = []
                state = seed
                while True:
                    p, d = state
                    seen.add(state)
                    steps.append(d)
                    nxt = conn.apply(d, p)
                    state = (d.edge_id, g.directed(nxt, g.target(d)))
                    if state == seed:
                        break
                path = ConnectionPath.canonical(steps)
                out.setdefault(tuple((s.edge_id, s.forward) for s in path.steps), path)
    return sorted(out.values(), key=lambda p: [(s.edge_id, s.forward) for s in p.steps])


def edge_thom_class(g, conn, eid: int) -> list:
    """The degree-4 edge Thom class as a flat vector: at the source the
    product of the other two labels, at the target that product times the
    transport signs, multiplied out by sympy."""
    e = g.edges[eid]
    sign = math.prod(transition(g, conn, DirectedEdge(eid, True)).eps)
    vec = [0] * (3 * len(g.vertices))
    for v, scale in ((e.u, 1), (e.v, sign)):
        prod = sympy.Integer(1)
        for f in g.incident[v]:
            if f != eid:
                a, b = g.edges[f].weight.vector
                prod *= a * x + b * y
        poly = sympy.Poly(sympy.expand(prod), x, y)
        base = 3 * g.vertex_index[v]
        for j in range(3):  # coefficient of x^{2-j} y^j
            vec[base + j] += scale * int(poly.coeff_monomial(x ** (2 - j) * y ** j))
    return vec


def transition_eta(g, conn, eid: int) -> int:
    """eta(e) = -eps_2 * eps_3 from the transition data of conn at e, read
    in both directions, each checked against -sign(sigma) * det(phi)."""
    values = set()
    for forward in (True, False):
        data = transition(g, conn, DirectedEdge(eid, forward))
        direct = -math.prod(data.eps)  # eps is 1 at the edge itself
        assert direct == -data.sign_sigma * data.det_phi, (eid, forward)
        values.add(direct)
    assert len(values) == 1, f"eta is direction-dependent on edge {eid}"
    return values.pop()


def brute_force_etas(g) -> set:
    """The set of eta vectors, one per compatible connection, from the
    transition data of each."""
    return {
        tuple(transition_eta(g, c, eid) for eid in range(len(g.edges)))
        for c in brute_force_connections(g)
    }


def label_eta(g, eid: int) -> Fraction:
    """eta(e) = -eps_2 * eps_3 from the labels alone: for e: v -> w, minus
    prod_{f' in E_w - e} det(w(f'), w(e)) / prod_{f in E_v - e} det(w(f), w(e))."""
    e = g.edges[eid]

    def dets(v):
        return math.prod(
            det2(g.edges[f].weight, e.weight) for f in g.incident[v] if f != eid
        )

    return -Fraction(dets(e.v), dets(e.u))


def has_sign_labelling(nodes: Sequence, edges: Sequence) -> bool:
    """Whether some tau: nodes -> {±1} has tau(a) * tau(b) == s on every
    edge (a, b, s), by trying all 2^n labellings."""
    for signs in itertools.product((1, -1), repeat=len(nodes)):
        tau = dict(zip(nodes, signs))
        if all(tau[a] * tau[b] == s for a, b, s in edges):
            return True
    return False


def faces_flip_coherently(faces) -> bool:
    """Whether some choice of face flips makes every edge of the glued
    surface run once in each direction, by trying all 2^#faces flips."""
    for flips in itertools.product((False, True), repeat=len(faces)):
        runs: dict = {}
        for path, flip in zip(faces, flips):
            for step in path.steps:
                runs.setdefault(step.edge_id, []).append(step.forward != flip)
        if all(sorted(r) == [False, True] for r in runs.values()):
            return True
    return False


def reducing_echelon(rows: Sequence[Sequence[int]], n: int) -> List[list]:
    """[H | U B] for rows [A | B], H the row HNF of A, each pivot's column
    reduced in the rows above it as soon as the pivot is found.  The row
    combinations use the package's exgcd, so U is comparable entry by
    entry."""
    H = [list(row) for row in rows]
    m = len(H)
    r = 0
    for c in range(n):
        if r == m:
            break
        for i in range(r + 1, m):
            if H[i][c] == 0:
                continue
            if H[r][c] == 0:
                H[r], H[i] = H[i], H[r]
                continue
            g, s, t = exgcd(H[r][c], H[i][c])
            p, q = H[r][c] // g, H[i][c] // g
            a, b = H[r], H[i]
            H[r] = [s * u + t * v for u, v in zip(a, b)]
            H[i] = [p * v - q * u for u, v in zip(a, b)]
        piv = H[r][c]
        if piv == 0:
            continue
        if piv < 0:
            piv = -piv
            H[r] = [-u for u in H[r]]
        for j in range(r):
            q = H[j][c] // piv
            if q != 0:
                H[j] = [u - q * v for u, v in zip(H[j], H[r])]
        r += 1
    return H


def dense_hnf_solve(H: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[list]:
    """Integer coordinates of v in the row lattice of a row-HNF basis H, or
    None: each row's pivot searched for on every call, and every column
    right of it updated, zeros included."""
    res = list(v)
    n = len(res)
    coords = []
    pj = -1
    for row in H:
        pj = next((j for j in range(pj + 1, n) if row[j] != 0), None)
        if pj is None:
            raise ValueError("HNF basis must have no zero rows")
        q, r = divmod(res[pj], row[pj])
        if r:
            return None
        coords.append(q)
        if q:
            for j in range(pj, n):
                res[j] -= q * row[j]
    if any(res):
        return None
    return coords


def min_scan_snf(A: Sequence[Sequence[int]], ncols: int = 0):
    """(D, T^-1) of the Smith form, each pivot the first smallest-magnitude
    entry of the whole remaining submatrix, found by one full scan."""
    D = [list(row) for row in A]
    m, n = len(D), len(D[0]) if D else ncols
    Tinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(min(m, n)):
        while True:
            pos = min(
                ((i, j) for i in range(k, m) for j in range(k, n) if D[i][j] != 0),
                key=lambda ij: abs(D[ij[0]][ij[1]]),
                default=None,
            )
            if pos is None:
                break
            i, j = pos
            if i != k:
                D[k], D[i] = D[i], D[k]
            if j != k:
                for row in D:
                    row[k], row[j] = row[j], row[k]
                Tinv[k], Tinv[j] = Tinv[j], Tinv[k]
            piv = D[k][k]
            clean = True
            for i in range(k + 1, m):
                q = D[i][k] // piv
                if q:
                    D[i] = [s - q * t for s, t in zip(D[i], D[k])]
                if D[i][k] != 0:
                    clean = False
            for j in range(k + 1, n):
                q = D[k][j] // piv
                if q:
                    for row in D:
                        row[j] -= q * row[k]
                    Tinv[k] = [s + q * t for s, t in zip(Tinv[k], Tinv[j])]
                if D[k][j] != 0:
                    clean = False
            if not clean:
                continue
            if piv in (1, -1):
                break
            bad = next(
                (i for i in range(k + 1, m) for j in range(k + 1, n)
                 if D[i][j] % piv != 0),
                None,
            )
            if bad is None:
                break
            D[k] = [s + t for s, t in zip(D[k], D[bad])]
        if D[k][k] < 0:
            D[k] = [-s for s in D[k]]
    return D, Tinv


def lattice_thom_class(g, ends, skip, what: str) -> list:
    """The replaced Thom-class route: the vector built as gkm3.thom builds
    it (through thom.poly_mul), then solved for in the whole class lattice of
    its degree (linalg.hnf_solve against coh.ht_basis_z); RuntimeError with
    thom's message when there is no solution."""
    d = g.valence - (skip is not None)
    vec = [0] * (len(g.vertices) * (d + 1))
    for v, scale in ends:
        prod = (1,)
        for eid in g.incident[v]:
            if eid != skip:
                prod = thom.poly_mul(prod, g.edges[eid].weight.vector)
        base = g.vertex_index[v] * (d + 1)
        for j, c in enumerate(prod):
            vec[base + j] += scale * c
    if linalg.hnf_solve(coh.ht_basis_z(g, d), vec) is None:
        raise RuntimeError(f"{what} escaped the class lattice")
    return vec


def lattice_thom_class_vertex(g, v: str) -> list:
    """thom.thom_class_vertex by the lattice route."""
    return lattice_thom_class(g, [(v, 1)], None, f"Thom class of vertex {v!r}")


def lattice_thom_class_edge(g, conn, eid: int) -> list:
    """thom.thom_class_edge by the lattice route, its sign read through the
    transition data of conn rather than through eta."""
    e = g.edges[eid]
    sign = math.prod(transition(g, conn, DirectedEdge(eid, True)).eps)
    return lattice_thom_class(g, [(e.u, 1), (e.v, sign)], eid,
                              f"Thom class of edge {eid}")


def inverse(M: Sequence[Sequence[int]]) -> List[list]:
    """The inverse of an invertible integer matrix with integral inverse,
    by sympy's domain-matrix inverse over Q; ValueError when it is not
    integral."""
    if not M:
        return []
    inv = DomainMatrix.from_list_sympy(len(M), len(M), M).convert_to(sympy.QQ).inv()
    rows = inv.to_Matrix().tolist()
    if any(not c.is_integer for row in rows for c in row):
        raise ValueError("the inverse is not integral")
    return [[int(c) for c in row] for row in rows]


def transposed_lift(lattice: Sequence[Sequence[int]], coords: Sequence[int]) -> list:
    """sum_i coords_i lattice_i, one column of the transposed lattice at a
    time."""
    return [sum(c * a for c, a in zip(coords, col)) for col in zip(*lattice)]


def class_product(g, u: Sequence, du: int, v: Sequence, dv: int) -> list:
    """Vertexwise product of a degree-2du and a degree-2dv class."""
    out: list = []
    for pu, pv in zip(blocks(g, u, du).values(), blocks(g, v, dv).values()):
        prod = [0] * (du + dv + 1)
        for i, a in enumerate(pu):
            for j, b in enumerate(pv):
                prod[i + j] += a * b
        out.extend(prod)
    return out


def projector(g, d: int):
    """(betti, reps, project) of the degree-2d quotient of the class lattice
    L by the raised L_{d-1}, read from the Smith form S C T = D of the
    raised rows' coordinates C in L, each solved for (min_scan_snf): its
    free rank, the classes T^-1 L rows rank.. lifting a basis of its free
    part, and project(vec) = (c T)[rank:] for a class vec = c L, solved
    for, with RuntimeError when vec is outside L, T the inverse of T^-1."""
    L = coh.ht_basis_z(g, d)
    C = [] if d == 0 else [dense_hnf_solve(L, r) for r in
                           coh._raised(g, coh.ht_basis_z(g, d - 1), d - 1)]
    D, Tinv = min_scan_snf(C, len(L))
    rank = sum(1 for i, row in enumerate(D[: len(L)]) if row[i])
    cols = list(zip(*inverse(Tinv)))[rank:]

    def project(vec: Sequence[int]) -> list:
        c = dense_hnf_solve(L, vec)
        if c is None:
            raise RuntimeError("class escaped the class lattice")
        return [sum(ci * t for ci, t in zip(c, col)) for col in cols]

    return len(L) - rank, [transposed_lift(L, row) for row in Tinv[rank:]], project


def projected_pairing(g, reps2, reps4, project) -> List[list]:
    """The reduced H^2 x H^4 pairing: each product class formed and
    projected into the degree-6 quotient (projector(g, 3))."""
    return [[project(class_product(g, u, 1, v, 2))[0] for v in reps4]
            for u in reps2]


def localized_pairing(g) -> List[list]:
    """The localized integral int u v = sum_p tau(p) u(p) v(p) / e_p, with
    tau the orientability potential and e_p the product of the labels at p,
    for the degree-1 classes u (rows) and degree-2 classes v (columns) of
    the oracle's greedy peel (greedy_order), in pick order, exact in
    Fractions.  A face class is s_v times the label of the normal edge at
    each (v, normal, s_v) of its face, and an edge class is multiplied out
    by sympy under least_k_connection (edge_thom_class).  Each product
    u(p) v(p) is multiplied out and read at (1, s) for two s off every line
    alpha'_e = 0; int u v is a constant, so the two readings must agree."""
    t = 1 + max(abs(e.weight.a) // math.gcd(*e.weight) for e in g.edges)
    tau, conn = is_orientable(g).potential, least_k_connection(g)
    rows, cols = [], []
    for _, degree, data in greedy_order(g):
        if degree == 1:
            rows.append({p: tuple(s * c for c in g.edges[n].weight.vector)
                         for p, n, s in data})
        elif degree == 2:
            vec = edge_thom_class(g, conn, data)
            cols.append({p: b for p, b in blocks(g, vec, 2).items() if any(b)})

    def integral(u, v, s):
        total = Fraction(0)
        for p in u.keys() & v.keys():
            prod = [0] * (len(u[p]) + len(v[p]) - 1)
            for i, a in enumerate(u[p]):
                for j, b in enumerate(v[p]):
                    prod[i + j] += a * b
            e_p = math.prod(g.edges[eid].weight.a + g.edges[eid].weight.b * s
                            for eid in g.incident[p])
            total += Fraction(tau[p] * sum(c * s ** k for k, c in enumerate(prod)),
                              e_p)
        return total

    out = [[integral(u, v, t) for v in cols] for u in rows]
    if out != [[integral(u, v, t + 1) for v in cols] for u in rows]:
        raise AssertionError("int u v is not a constant")
    return out


def cubic_form(g, t: int, classes: Sequence[Sequence[int]]) -> dict:
    """The cubic form mu(a, b, c) = sum_p tau(p) a(p) b(p) c(p) / e_p, in
    Fractions, over degree-2 class vectors (per vertex the two coefficients
    of a linear form, as in the rows of coh.ht_basis_z(g, 1)) read at
    (1, t), with tau the orientability potential (orientation.is_orientable)
    and e_p the product of the labels at p: {(i, j, k): mu(c_i, c_j, c_k)}
    for i <= j <= k.  On a graph realized by a 6-manifold M it is the
    localized <abc, [M]> (Atiyah-Bott), an integer that does not depend on
    t, and 0 when a class is constant, so it descends to H^2(M).  Summed
    over one common denominator D, the lcm of the e_p."""
    tau = is_orientable(g).potential
    e = [math.prod(g.edges[eid].weight.a + g.edges[eid].weight.b * t
                   for eid in g.incident[v]) for v in g.vertices]
    D = math.lcm(*e)
    weights = [tau[v] * (D // ep) for v, ep in zip(g.vertices, e)]
    values = [[c[2 * q] + c[2 * q + 1] * t for q in range(len(g.vertices))]
              for c in classes]
    return {(i, j, k): Fraction(sum(w * a * b * c for w, a, b, c in zip(
                weights, values[i], values[j], values[k])), D)
            for i, j, k in itertools.combinations_with_replacement(range(len(classes)), 3)}


def p1_pairing(g, t: int, classes: Sequence[Sequence[int]]) -> List[Fraction]:
    """p_1 . z = int p_1 z = sum_p tau(p) p_1(p) z(p) / e_p, in Fractions,
    for each degree-2 class vector z (as in cubic_form) read at (1, t), with
    p_1(p) the sum of alpha^2 over p's three labels: the first Pontryagin
    class of the tangent representation at p, whose weights are the labels.
    On a realized graph it is <p_1 z, [M]>, an integer that does not depend
    on t, 0 on the constant classes.  One common denominator, as in
    cubic_form."""
    tau = is_orientable(g).potential
    labels = [[g.edges[eid].weight.a + g.edges[eid].weight.b * t
               for eid in g.incident[v]] for v in g.vertices]
    e = [math.prod(ls) for ls in labels]
    D = math.lcm(*e)
    weights = [tau[v] * sum(a * a for a in ls) * (D // ep)
               for v, ls, ep in zip(g.vertices, labels, e)]
    return [Fraction(sum(w * (c[2 * q] + c[2 * q + 1] * t)
                         for q, w in enumerate(weights)), D) for c in classes]


def w2_lift(g) -> Optional[list]:
    """A class W of the degree-2 lattice, an integer combination of the rows
    of coh.ht_basis_z(g, 1), that is congruent mod 2 at every vertex, both
    coefficients, to w_2 = the sum of the vertex's labels; None when there
    is none.  The rows mod 2 are bitmasks, eliminated over GF(2) with a
    record of the rows each reduced mask combines."""
    rows = coh.ht_basis_z(g, 1)
    want = 0
    for q, v in enumerate(g.vertices):
        a = sum(g.edges[eid].weight.a for eid in g.incident[v])
        b = sum(g.edges[eid].weight.b for eid in g.incident[v])
        want |= (a % 2) << 2 * q | (b % 2) << 2 * q + 1
    pivots: dict = {}  # leading bit -> (mask, rows combined)
    for i, row in enumerate(rows):
        mask, combo = sum(1 << j for j, c in enumerate(row) if c % 2), 1 << i
        while mask and mask.bit_length() in pivots:
            m, c = pivots[mask.bit_length()]
            mask, combo = mask ^ m, combo ^ c
        if mask:
            pivots[mask.bit_length()] = (mask, combo)
    combo = 0
    while want:
        if want.bit_length() not in pivots:
            return None
        m, c = pivots[want.bit_length()]
        want, combo = want ^ m, combo ^ c
    return [sum(c for i, c in enumerate(col) if combo >> i & 1) for col in zip(*rows)]


def listed_transition(g, conn, e):
    """(sigma, eps, k, phi) of a directed edge, phi assembled as n x n lists
    with conn.apply per incident edge and checked by the generic
    weight-transport product and the Leibniz determinant; nothing is
    memoized."""
    v, w = g.source(e), g.target(e)
    src_ids, tgt_ids = g.incident[v], g.incident[w]
    n = len(src_ids)
    if n != 3:
        raise ValueError("transition data are defined for 3-valent graphs")
    m = src_ids.index(e.edge_id)
    we = g.edges[e.edge_id].weight
    sigma, eps, k = [0] * n, [0] * n, [0] * n
    for i, f in enumerate(src_ids):
        fp = conn.apply(e, f)
        sigma[i] = tgt_ids.index(fp)
        if f == e.edge_id:
            eps[i], k[i] = 1, 0
            continue
        coeffs = transport_coefficients(g.edges[f].weight, g.edges[fp].weight, we)
        if coeffs is None:
            raise ConnectionInconsistency(
                f"incompatible transport along edge {e.edge_id}"
            )
        eps[i], k[i] = coeffs
    phi = [[0] * n for _ in range(n)]
    for j in range(n):
        phi[sigma[j]][j] = eps[j]
    for i in range(n):
        if i != sigma[m]:
            phi[i][m] = k[sigma.index(i)]
    for i in range(n):
        row = [
            sum(phi[i][j] * g.edges[src_ids[j]].weight.vector[c] for j in range(n))
            for c in range(2)
        ]
        if tuple(row) != g.edges[tgt_ids[i]].weight.vector:
            raise ConnectionInconsistency(
                f"weight transport identity fails along edge {e.edge_id}"
            )
    det = sum(
        (-1) ** sum(a > b for i, a in enumerate(p) for b in p[i + 1:])
        * math.prod(phi[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )
    if det not in (1, -1):
        raise ConnectionInconsistency(f"det phi = {det} along {e.edge_id}")
    return tuple(sigma), tuple(eps), tuple(k), tuple(tuple(r) for r in phi)


def listed_holonomy(g, conn, path) -> List[List[int]]:
    """The product of listed_transition's matrices around a path, each step
    a list-comprehension product with the running n x n list."""
    n = g.valence
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for step in path.steps:
        phi = listed_transition(g, conn, step)[3]
        acc = [[sum(p * a for p, a in zip(row, col)) for col in zip(*acc)]
               for row in phi]
    return acc


@functools.lru_cache(maxsize=None)
def _solved_coefficients(wf, wfp, we):
    """(eps, k) with w(f') = eps*w(f) + k*w(e), solved over Q by sympy;
    None unless eps = ±1 and k is an integer."""
    eps, k = sympy.Matrix([[wf[0], we[0]], [wf[1], we[1]]]).LUsolve(sympy.Matrix(wfp))
    if eps not in (1, -1) or not k.is_integer:
        return None
    return int(eps), int(k)


def solved_phi(g, conn, e) -> sympy.Matrix:
    """phi of a directed edge as a sympy matrix, by the transition record's
    recipe: with sigma read from conn.apply and each (eps, k) solved by
    sympy, column j /= m holds eps_j in row sigma(j), and column m, the
    edge's own, holds 1 in row sigma(m) and k_j in row sigma(j).  The
    weight-transport identity and det phi = ±1 are checked as matrix
    equations."""
    src_ids, tgt_ids = g.incident[g.source(e)], g.incident[g.target(e)]
    n, m = len(src_ids), src_ids.index(e.edge_id)
    we = g.edges[e.edge_id].weight.vector
    phi = sympy.zeros(n, n)
    for j, f in enumerate(src_ids):
        fp = conn.apply(e, f)
        s = tgt_ids.index(fp)
        if j == m:
            phi[s, m] = 1
            continue
        coeffs = _solved_coefficients(g.edges[f].weight.vector,
                                      g.edges[fp].weight.vector, we)
        if coeffs is None:
            raise ConnectionInconsistency(
                f"incompatible transport along edge {e.edge_id}")
        phi[s, j], phi[s, m] = coeffs
    rows = [sympy.Matrix([g.edges[f].weight.vector for f in ids])
            for ids in (src_ids, tgt_ids)]
    if phi * rows[0] != rows[1] or phi.det() not in (1, -1):
        raise ConnectionInconsistency(f"phi fails its checks along {e.edge_id}")
    return phi


def solved_holonomy(g, conn, path) -> List[List[int]]:
    """The product of solved_phi's matrices around a path, in sympy."""
    acc = sympy.eye(g.valence)
    for step in path.steps:
        acc = solved_phi(g, conn, step) * acc
    return [[int(x) for x in row] for row in acc.tolist()]


def divisibility_equations(g, d: int):
    """(eqs, naux): one row per unknown, the class coordinates then one
    auxiliary t_j per congruence h_j + c t_j = 0 of an imprimitive edge;
    the congruence columns first, then one evaluation column per edge."""
    k = d + 1
    nf = len(g.vertices) * k
    contents = [e.weight.content() for e in g.edges]
    naux = k * sum(1 for c in contents if c > 1)
    neq = naux + len(g.edges)
    eqs = [[0] * neq for _ in range(nf + naux)]
    aux = 0
    for ei, (e, c) in enumerate(zip(g.edges, contents)):
        a, b = e.weight.a // c, e.weight.b // c
        iu, iv = g.vertex_index[e.u] * k, g.vertex_index[e.v] * k
        for j in range(k):
            root = b ** (d - j) * (-a) ** j
            eqs[iu + j][naux + ei] += root
            eqs[iv + j][naux + ei] -= root
            if c > 1:
                eqs[iu + j][aux] += 1
                eqs[iv + j][aux] -= 1
                eqs[nf + aux][aux] = c
                aux += 1
    return eqs, naux


def _first_nonzero(row: Sequence[int]) -> int:
    return next(j for j, x in enumerate(row) if x)


def two_elimination_basis(g, d: int) -> List[list]:
    """The Hermite basis of the degree-2d class lattice by two eliminations:
    the evaluations' echelon finds the fixed coordinates, and a second
    echelon of the fixed coordinates' and auxiliaries' equation rows, with
    its transform's fixed columns, lifts each vector on the free
    coordinates by an integer solve; when some unit vector does not lift,
    the free parts' Hermite form is taken mod det Q by sympy's modular
    hermite_normal_form, not by the package's kernel.  sympy's form is
    column-style with its pivots at the end, so the rows go in as columns
    with their coordinates reversed, and come out reversed back, last row
    first.  Nothing is memoized."""
    eqs, naux = divisibility_equations(g, d)
    nf, neq = len(eqs) - naux, naux + len(g.edges)
    ends = linalg.echelon_basis([[row[col] for row in reversed(eqs[:nf])]
                                 for col in range(naux, neq)])
    fixed = sorted(nf - 1 - _first_nonzero(row) for row in ends)
    free = sorted(set(range(nf)) - set(fixed))
    solved_q = linalg.echelon([eqs[i] + [int(i == f) for f in fixed]
                               for i in fixed + list(range(nf, nf + naux))], neq)
    HQ, UQ = [row[:neq] for row in solved_q], [row[neq:] for row in solved_q]
    terms = {i: [(col, w) for col, w in enumerate(eqs[i]) if w] for i in free}
    solve_q = linalg.hnf_solver(HQ)

    def lifted(y):
        f, values = [0] * nf, [0] * neq
        for i, v in y:
            f[i] = v
            for col, w in terms[i]:
                values[col] -= v * w
        coords = solve_q(values)
        if coords is None:
            return None
        for c, urow in zip(coords, UQ):
            if c:
                for i, u in zip(fixed, urow):
                    f[i] += c * u
        return f

    basis = [lifted([(i, 1)]) for i in free]
    if None in basis:
        solved = linalg.echelon(
            [row + [int(i == f) for f in free] for i, row in enumerate(eqs)], neq
        )
        tails = [row[neq:] for row in solved if not any(row[:neq])]
        det_q = math.prod(row[_first_nonzero(row)] for row in HQ)
        H = hermite_normal_form(sympy.Matrix([r[::-1] for r in tails]).T,
                                D=det_q)
        basis = [lifted([(i, int(v)) for i, v in zip(free, row[::-1]) if v])
                 for row in H.T.tolist()[::-1]]
        if None in basis:
            raise RuntimeError("class lattice row does not lift")
    return basis


def quotient_betti(g, d: int, bases: dict) -> int:
    """b_2d as the free rank of the oracle lattice L_d modulo the raised
    L_{d-1}: the coordinates of the raised rows, solved for, and the
    nonzero diagonal of their Smith form.  bases caches the lattices."""
    for e in (d - 1, d):
        if e >= 0 and e not in bases:
            bases[e] = two_elimination_basis(g, e)
    L = bases[d]
    coords = []
    if d > 0:
        solve = linalg.hnf_solver(L) if L else None
        for r in coh._raised(g, bases[d - 1], d - 1):
            c = solve(r)
            if c is None:
                raise RuntimeError("product class escaped the class lattice")
            coords.append(c)
    D = linalg.snf_transform(coords)[0]
    return len(L) - sum(1 for i, row in enumerate(D[: len(L)]) if row[i])


def quotient_cohomology(g, degree_cap: int):
    """(BettiResult, table): the Betti loop reading every b_2d from a
    quotient (quotient_betti) unless the certificate gives them, with the
    same stabilization rule, and cohomology_table's rows with every rank
    read off an oracle basis."""
    free = coh._free_betti(g)
    bases: dict = {}
    betti: List[int] = []
    stabilized = False
    for d in range(degree_cap // 2 + 1):
        if free is None:
            betti.append(quotient_betti(g, d, bases))
        else:
            betti.append(free[d] if d < len(free) else 0)
        if (sum(betti) == len(g.vertices) and len(betti) >= 2
                and betti[-1] == 0 and betti[-2] == 0):
            stabilized = True
            break
    table = []
    for d, b in enumerate(betti):
        if d not in bases:
            bases[d] = two_elimination_basis(g, d)
        table.append({"degree": 2 * d, "betti": b, "dim_q": len(bases[d]),
                      "rank_z": len(bases[d])})
    return coh.BettiResult(tuple(betti), stabilized, sum(betti)), table


def evaluation_rank(g, d: int) -> int:
    """sympy's rank of the edge evaluations on the degree-2d cochains: row
    e holds each coordinate's monomial x^(d-j) y^j evaluated at the root
    (b, -a) of the whole label a x + b y, signed +1 at e.u and -1 at e.v."""
    k = d + 1
    rows = []
    for e in g.edges:
        a, b = e.weight.vector
        row = [sympy.Integer(0)] * (len(g.vertices) * k)
        for v, sign in ((e.u, 1), (e.v, -1)):
            for j in range(k):
                mono = x ** (d - j) * y ** j
                row[g.vertex_index[v] * k + j] += sign * mono.subs({x: b, y: -a})
        rows.append(row)
    return sympy.Matrix(rows).rank() if rows else 0


def least_k_connection(g) -> Connection:
    """The connection that takes at each edge the compatible forward map
    whose transports have the least sum of |k|, the earlier on a tie, each
    (eps, k) solved by sympy."""
    def cost(eid, fmap):
        we = g.edges[eid].weight.vector
        return sum(abs(_solved_coefficients(g.edges[f].weight.vector,
                                            g.edges[fp].weight.vector, we)[1])
                   for f, fp in fmap.items() if f != eid)

    return Connection.from_forward_maps(
        {eid: min(_compatible_bijections(g, eid), key=lambda m: cost(eid, m))
         for eid in range(len(g.edges))})


def corner_face(g, conn, v: str, e1: int, e2: int):
    """The whole orbit of the connection-path state (e1, e2 out of v), as
    (steps, sign): per step (vertex, its normal edge, s_vertex, the edge it
    leaves by), s_v = 1 and each next s the last times the eps that carries
    the normal edge over, and sign the product of those eps all the way
    round.  Nothing stops the walk early."""
    seed = state = (e1, g.directed(e2, v))
    steps, s = [], 1
    while True:
        prev, d = state
        u = g.source(d)
        normal = next(f for f in g.incident[u] if f != prev and f != d.edge_id)
        steps.append((u, normal, s, d.edge_id))
        s *= _solved_coefficients(g.edges[normal].weight.vector,
                                  g.edges[conn.apply(d, normal)].weight.vector,
                                  g.edges[d.edge_id].weight.vector)[0]
        state = (d.edge_id, g.directed(conn.apply(d, prev), g.target(d)))
        if state == seed:
            return steps, s


def greedy_picks(g):
    """thom._order's picks recomputed from scratch at every step, up to a
    stall: each vertex not yet picked gets its k, the number of its edges
    to picked vertices, and a vertex at k = 2 gets the face of the corner
    of those two edges (corner_face), usable when it visits each vertex
    once, its eps product is +1 and its other vertices are all picked.  The
    first vertex with a usable face gives a degree-1 class, else the first
    at k = 1 a degree-2 class, else the first at k = 0 a degree-3 one; the
    last vertex may take the constant (degree 0), and any other step with
    none is a stall, where the list ends.  Data is the face as
    (v, normal, s_v), the edge id, or None."""
    conn, picked, order = least_k_connection(g), set(), []

    def far(eid, v):
        e = g.edges[eid]
        return e.v if e.u == v else e.u

    for _ in g.vertices:
        rest = [v for v in g.vertices if v not in picked]
        to_picked = {v: [eid for eid in g.incident[v] if far(eid, v) in picked]
                     for v in rest}
        found = None
        for v in rest:
            if len(to_picked[v]) == 2:
                steps, sign = corner_face(g, conn, v, *to_picked[v])
                face = [step[:3] for step in steps]
                if (sign == 1 and len({u for u, _, _ in face}) == len(face)
                        and {u for u, _, _ in face[1:]} <= picked):
                    found = (v, 1, face)
                    break
        for k, degree in ((1, 2), (0, 3)):
            if found is None:
                found = next(((v, degree, to_picked[v][0] if k else None)
                              for v in rest if len(to_picked[v]) == k), None)
        if found is None:
            if len(rest) > 1:
                break
            found = (rest[0], 0, None)
        order.append(found)
        picked.add(found[0])
    return order


def greedy_order(g):
    """greedy_picks, or None where they stall."""
    picks = greedy_picks(g)
    return picks if len(picks) == len(g.vertices) else None
