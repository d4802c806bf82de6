"""Exact linear algebra over Z, with two rational routines.

A matrix is a list of rows, each a list of Python ints, so every
computation here is exact.  Vectors are rows; a "basis matrix" has one basis
vector per row.  A matrix with no rows has no column count of its own, so
snf_transform, which meets one in the degree-0 quotient, takes it
explicitly.

The integer routines (HNF, rank, Smith form, HNF back-substitution) carry
the package.  echelon is the lattices' one elimination and leaves the
entries above its pivots unreduced, as pivots, ranks and solves read none
of them; hnf and hnf_transform, which return the canonical form, end with
the reduction pass (reduced).  Callers append only the columns they read
(hnf none, hnf_transform an identity).  reduced alone is the Hermite form
of an echelon basis, such as the triangular one of the class lattice's
fallback (cohomology.ht_basis_z), which needs no elimination.  hnf_solver
finds an echelon basis's pivots once and returns the back-substitution
against it, touching only the basis's nonzero entries; each cohomology
quotient builds one to locate its raised rows.  q_rank, which only counts,
eliminates fraction-free and divides each new row by its content, so a
factor common to the entries (thousands of bits in a large duality
pairing) is not multiplied into every step.  unit_reduce, a sparse
Gauss-Jordan elimination on +-1 pivots, shows a span saturated;
snf_transform, the one Smith elimination, takes the cohomology quotients
it does not reduce.  snf_transform carries T^-1 alone, as no caller reads
T, and its pivot is the first unit entry when there is one, else the first
entry of smallest magnitude (the same entry, as a unit is always
smallest).  rref and solve_left are the only Fraction arithmetic left, and
they import Fraction on call, so no CLI call loads fractions (or the
decimal and numbers modules it pulls in).  They, z_kernel and its alias
nullspace, elementary_divisors, unimodular_inverse, lattice_solve and
hnf_solve (one call of hnf_solver) have no caller in the package, which
checks each Thom class on its own edges; they stay because the
benchmark's traced runs (benchmark/spans.py) look them up by name.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Matrix = List[List[int]]


def eye(n: int) -> Matrix:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


# ---------------------------------------------------------------------------
# Rational routines
# ---------------------------------------------------------------------------

def rref(A: Sequence[Sequence]) -> Tuple[List[List[Fraction]], list]:
    """Reduced row echelon form over Q.

    Returns (R, pivot_columns).  A is not modified.
    """
    from fractions import Fraction

    R = [[Fraction(x) for x in row] for row in A]
    m, n = len(R), len(R[0]) if R else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        piv = R[r][c]
        R[r] = [x / piv for x in R[r]]
        for i in range(m):
            f = R[i][c]
            if i != r and f != 0:
                R[i] = [a - f * b for a, b in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def solve_left(B: Sequence[Sequence], b: Sequence) -> Optional[List[Fraction]]:
    """Solves c @ B == b for a row vector c over Q, or returns None if
    inconsistent."""
    from fractions import Fraction

    m = len(B)
    aug = [[B[j][i] for j in range(m)] + [b[i]] for i in range(len(b))]
    R, pivots = rref(aug)
    if m in pivots:
        return None
    c = [Fraction(0)] * m
    for r, pc in enumerate(pivots):
        c[pc] = R[r][m]
    return c


# ---------------------------------------------------------------------------
# Integer routines
# ---------------------------------------------------------------------------

def exgcd(a: int, b: int) -> Tuple[int, int, int]:
    """Returns (g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def echelon(rows: Sequence[Sequence[int]], n: int) -> Matrix:
    """[H | U B] for rows [A | B] with n columns in A: U is unimodular,
    U A = H is a row echelon form (pivots positive, zero rows at the bottom,
    entries above a pivot not reduced), and B is carried along."""
    H = [list(row) for row in rows]
    m = len(H)
    r = 0
    for c in range(n):
        if r == m:
            break
        # Combine rows r..m-1 so that row r holds the column gcd.
        for i in range(r + 1, m):
            if H[i][c] == 0:
                continue
            if H[r][c] == 0:
                H[r], H[i] = H[i], H[r]
                continue
            g, x, y = exgcd(H[r][c], H[i][c])
            p, q = H[r][c] // g, H[i][c] // g
            a, b = H[r], H[i]
            H[r] = [x * s + y * t for s, t in zip(a, b)]
            H[i] = [p * t - q * s for s, t in zip(a, b)]
        piv = H[r][c]
        if piv == 0:
            continue
        if piv < 0:
            H[r] = [-s for s in H[r]]
        r += 1
    return H


def reduced(E: Matrix, n: int) -> Matrix:
    """Reduces an echelon's entries above each pivot of its first n columns
    into [0, pivot), in place, top pivot first: the Hermite form of the
    echelon's row lattice.  Row r's reduction reads row r and writes rows
    above it, which the elimination's later steps never touch, so reducing
    inside the elimination made the same operations."""
    c = -1
    for r, row in enumerate(E):
        c = next((j for j in range(c + 1, n) if row[j] != 0), None)
        if c is None:
            break  # the zero rows are at the bottom
        for j in range(r):
            q = E[j][c] // row[c]
            if q != 0:
                E[j] = [s - q * t for s, t in zip(E[j], row)]
    return E


def hnf_transform(A: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix]:
    """Row Hermite normal form with transform: returns (H, U), U @ A == H,
    read off the reduced echelon of [A | I]."""
    n = len(A[0]) if A else 0
    E = reduced(echelon([list(row) + e for row, e in zip(A, eye(len(A)))], n), n)
    return [row[:n] for row in E], [row[n:] for row in E]


def echelon_basis(A: Sequence[Sequence[int]]) -> Matrix:
    """echelon's nonzero rows: a basis of A's row lattice with hnf's pivots."""
    return [row for row in echelon(A, len(A[0]) if A else 0) if any(row)]


def hnf(A: Sequence[Sequence[int]]) -> Matrix:
    """Row HNF with zero rows dropped: the canonical basis of the row lattice."""
    return reduced(echelon_basis(A), len(A[0]) if A else 0)


def q_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination: each
    column's pivot is its entry of smallest magnitude, the other rows take
    integer combinations with the pivot row, and every row is divided by its
    content, which keeps the rank exact and never multiplies a factor
    common to the entries into them."""
    rows, rank = [_primitive(row) for row in A], 0
    for j in range(len(rows[0]) if rows else 0):
        hits = [i for i, row in enumerate(rows) if row[j]]
        if hits:
            pivot, rank = rows.pop(min(hits, key=lambda i: abs(rows[i][j]))), rank + 1
            rows = [_primitive([pivot[j] * s - row[j] * t for s, t in zip(row, pivot)])
                    if row[j] else row for row in rows]
    return rank


def _primitive(row: Sequence[int]) -> List[int]:
    """row over its content, the gcd of its entries (a zero row as it is)."""
    c = math.gcd(*row)
    return [x // c for x in row] if c > 1 else list(row)


def z_kernel(A: Sequence[Sequence[int]]) -> Matrix:
    """Basis (rows) of the integer right kernel {x in Z^n : A x = 0}.

    A has at least one row.  The result generates the full kernel lattice
    (it is saturated by construction, being an actual kernel), so it is
    also a basis of the rational kernel.
    """
    H, U = hnf_transform(list(zip(*A)))
    return [u for h, u in zip(H, U) if not any(h)]


nullspace = z_kernel


def snf_transform(
    A: Sequence[Sequence[int]], ncols: int = 0
) -> Tuple[Matrix, Matrix]:
    """Smith normal form with the inverse of its column transform: returns
    (D, T^-1).

    S @ A @ T == D for unimodular S and T that no caller reads, so neither
    is kept; each column operation on D is mirrored by its inverse row
    operation on T^-1.  D is diagonal with nonnegative entries satisfying
    d_1 | d_2 | ... .  ncols is the column count when A has no rows.
    """
    D = [list(row) for row in A]
    m, n = len(D), len(D[0]) if D else ncols
    Tinv = eye(n)
    for k in range(min(m, n)):
        while True:
            # Smallest-magnitude pivot keeps the intermediate entries tame;
            # the first such entry in row-major order, so the first unit.
            pos = _first_unit(D, k, m, n) or min(
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
                continue  # leftovers are smaller than the pivot; re-pick
            if piv in (1, -1):
                break  # every entry is a multiple of a unit
            # Divisibility: fold a non-multiple row into the corner row.
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


def unit_reduce(rows: Sequence[Sequence[int]]) -> Optional[Dict[int, Dict[int, int]]]:
    """Sparse Gauss-Jordan elimination of rows that pivots only on +-1.

    Returns {p: E_p}, one row per pivot column p, each E_p held as its
    nonzero entries off p ({column: entry}; its entry at p is 1 and at every
    other pivot 0), spanning the same lattice as rows; or None when a
    nonzero row is left with no +-1 entry.  The span is then saturated, as
    the unit vectors off the pivots complete the E_p to a basis of Z^n.  A
    row with no unit entry is retried while other rows add pivots.
    """
    E: Dict[int, Dict[int, int]] = {}
    pending = [{j: x for j, x in enumerate(row) if x} for row in rows]
    while pending:
        stuck, before = [], len(E)
        for row in pending:
            for p in [p for p in row if p in E]:
                _sub_scaled(row, row.pop(p), E[p])  # E[p] holds no pivot
            p = next((j for j, x in row.items() if x == 1 or x == -1), None)
            if p is None:
                if row:
                    stuck.append(row)
                continue
            if row.pop(p) == -1:
                row = {j: -x for j, x in row.items()}
            for tail in E.values():
                if p in tail:
                    _sub_scaled(tail, tail.pop(p), row)
            E[p] = row
        if stuck and len(E) == before:
            return None
        pending = stuck
    return E


def _sub_scaled(row: Dict[int, int], c: int, other: Dict[int, int]) -> None:
    """row -= c * other, sparse, dropping the entries that cancel."""
    for j, x in other.items():
        v = row.get(j, 0) - c * x
        if v:
            row[j] = v
        else:
            del row[j]


def _first_unit(D: Matrix, k: int, m: int, n: int) -> Optional[Tuple[int, int]]:
    """Position of the first +-1 in rows k..m-1, columns k..n-1 of D, in
    row-major order, or None."""
    for i in range(k, m):
        row, end = D[i], n
        for unit in (1, -1):
            try:
                end = row.index(unit, k, end)
            except ValueError:
                pass
        if end < n:
            return i, end
    return None


def elementary_divisors(A: Sequence[Sequence[int]]) -> list:
    """Nonzero diagonal entries of the Smith normal form of A."""
    D = snf_transform(A)[0]
    return [row[i] for i, row in enumerate(D) if i < len(row) and row[i] != 0]


def unimodular_inverse(U: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular integer matrix.

    The HNF of a unimodular matrix is the identity, so its transform is the
    inverse; any other HNF means U is singular or not unimodular.
    """
    H, V = hnf_transform(U)
    if H != eye(len(U)):
        raise ValueError("matrix is not unimodular")
    return V


def lattice_solve(B: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[list]:
    """Integer coordinates of v in the row lattice spanned by B, or None.

    Solves against the HNF of B and maps the coordinates back through the
    transform, so B may have dependent rows.
    """
    H, U = hnf_transform(B)
    r = sum(1 for row in H if any(row))
    c = hnf_solve(H[:r], v)
    if c is None:
        return None
    return [sum(ci * U[i][j] for i, ci in enumerate(c)) for j in range(len(B))]


def hnf_solver(H: Sequence[Sequence[int]]) -> Callable[[Sequence[int]], Optional[list]]:
    """solve(v): the integer coordinates of v in the row lattice of a row
    echelon basis H (reduced or not), or None when v is not in it.

    H's pivot columns are found once, and each row keeps only its nonzero
    entries right of its pivot, so a solve is a back-substitution that
    touches no zero and skips every row whose coordinate is 0.
    """
    n = len(H[0]) if H else 0
    rows = []
    pj = -1
    for row in H:
        # Pivots of a row HNF strictly increase.
        pj = next((j for j in range(pj + 1, n) if row[j] != 0), None)
        if pj is None:
            raise ValueError("HNF basis must have no zero rows")
        rows.append((pj, row[pj], [(j, row[j]) for j in range(pj + 1, n) if row[j]]))

    def solve(v: Sequence[int]) -> Optional[list]:
        res = list(v)
        coords = []
        for pj, piv, tail in rows:
            if res[pj] == 0:
                coords.append(0)
                continue
            q, r = divmod(res[pj], piv)
            if r:
                return None
            coords.append(q)
            res[pj] = 0
            for j, x in tail:
                res[j] -= q * x
        if any(res):
            return None
        return coords

    return solve


def hnf_solve(H: Sequence[Sequence[int]], v: Sequence[int]) -> Optional[list]:
    """Integer coordinates of v in the row lattice of a row-HNF basis H, or
    None when v is not in the lattice: one call of hnf_solver(H).  Callers
    that solve against one basis many times keep the solver instead."""
    return hnf_solver(H)(v)
