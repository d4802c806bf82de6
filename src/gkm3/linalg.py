"""Exact linear algebra over Q and Z.

All matrices are numpy arrays with dtype=object holding Python ints or
fractions.Fraction, so every computation here is exact.  Vectors are rows;
a "basis matrix" has one basis vector per row.

The integer routines (HNF, kernel, Smith form, HNF back-substitution,
unimodular inverse) carry the cohomology.  Fraction arithmetic is left in
the rational routines only: rref behind q_rank, which the package calls
once per Poincare pairing, and nullspace, solve_left and lattice_solve,
which the package no longer calls; they stay because the benchmark's
traced runs (benchmark/spans.py) look them up by name.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np


def qmat(rows: Iterable[Iterable], ncols: Optional[int] = None) -> np.ndarray:
    """Builds an exact rational matrix (dtype=object, Fraction entries)."""
    data = [[Fraction(x) for x in row] for row in rows]
    if not data:
        return np.zeros((0, ncols or 0), dtype=object)
    return np.array(data, dtype=object)


def zmat(rows: Iterable[Iterable], ncols: Optional[int] = None) -> np.ndarray:
    """Builds an exact integer matrix (dtype=object, int entries)."""
    data = [[int(x) for x in row] for row in rows]
    if not data:
        return np.zeros((0, ncols or 0), dtype=object)
    return np.array(data, dtype=object)


def zeros(m: int, n: int) -> np.ndarray:
    return np.zeros((m, n), dtype=object)


def eye(n: int) -> np.ndarray:
    M = zeros(n, n)
    for i in range(n):
        M[i, i] = 1
    return M


# ---------------------------------------------------------------------------
# Rational routines
# ---------------------------------------------------------------------------

def rref(A: np.ndarray) -> Tuple[np.ndarray, list]:
    """Reduced row echelon form over Q.

    Returns (R, pivot_columns).  A is not modified.
    """
    R = qmat(A.tolist(), A.shape[1] if A.ndim == 2 else 0)
    if R.size == 0:
        return R, []
    m, n = R.shape
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if R[i, c] != 0), None)
        if p is None:
            continue
        if p != r:
            R[[r, p]] = R[[p, r]]
        R[r] = R[r] / R[r, c]
        for i in range(m):
            if i != r and R[i, c] != 0:
                R[i] = R[i] - R[i, c] * R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def q_rank(A: np.ndarray) -> int:
    return len(rref(A)[1])


def nullspace(A: np.ndarray) -> np.ndarray:
    """Basis (rows) of the right kernel {x : A x = 0} over Q."""
    if A.shape[0] == 0:
        return eye(A.shape[1]) if A.shape[1] else zeros(0, 0)
    R, pivots = rref(A)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivots]
    basis = zeros(len(free), n)
    for bi, fc in enumerate(free):
        basis[bi, fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[bi, pc] = -R[r, fc]
    return basis


def solve_left(B: np.ndarray, b: Sequence) -> Optional[np.ndarray]:
    """Solves c @ B == b for a row vector c, or returns None if inconsistent."""
    m, n = B.shape
    if m == 0:
        return zeros(1, 0)[0] if all(x == 0 for x in b) else None
    aug = zeros(n, m + 1)
    for i in range(n):
        for j in range(m):
            aug[i, j] = Fraction(B[j, i])
        aug[i, m] = Fraction(b[i])
    R, pivots = rref(aug)
    if m in pivots:
        return None
    c = zeros(1, m)[0]
    for r, pc in enumerate(pivots):
        c[pc] = R[r, m]
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


def hnf_transform(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row Hermite normal form with transform: returns (H, U), U @ A == H.

    U is unimodular, H is in row HNF (pivots positive, entries above a pivot
    reduced into [0, pivot), zero rows at the bottom).
    """
    m, n = A.shape
    H = zmat(A.tolist(), n)
    U = eye(m)
    r = 0
    for c in range(n):
        if r == m:
            break
        # Combine rows r..m-1 so that row r holds the column gcd.
        for i in range(r + 1, m):
            if H[i, c] == 0:
                continue
            if H[r, c] == 0:
                H[[r, i]] = H[[i, r]]
                U[[r, i]] = U[[i, r]]
                continue
            g, x, y = exgcd(int(H[r, c]), int(H[i, c]))
            p, q = H[r, c] // g, H[i, c] // g
            Hr, Hi = x * H[r] + y * H[i], -q * H[r] + p * H[i]
            Ur, Ui = x * U[r] + y * U[i], -q * U[r] + p * U[i]
            H[r], H[i] = Hr, Hi
            U[r], U[i] = Ur, Ui
        if H[r, c] == 0:
            continue
        if H[r, c] < 0:
            H[r] = -H[r]
            U[r] = -U[r]
        for j in range(r):
            q = H[j, c] // H[r, c]
            if q != 0:
                H[j] = H[j] - q * H[r]
                U[j] = U[j] - q * U[r]
        r += 1
    return H, U


def hnf(A: np.ndarray) -> np.ndarray:
    """Row HNF with zero rows dropped: the canonical basis of the row lattice."""
    H, _ = hnf_transform(A)
    keep = [i for i in range(H.shape[0]) if any(x != 0 for x in H[i])]
    return H[keep] if keep else zeros(0, A.shape[1])


def z_kernel(A: np.ndarray) -> np.ndarray:
    """Basis (rows) of the integer right kernel {x in Z^n : A x = 0}.

    The result generates the full kernel lattice (it is saturated by
    construction, being an actual kernel).
    """
    m, n = A.shape
    if m == 0:
        return eye(n)
    H, U = hnf_transform(A.T)
    keep = [i for i in range(n) if all(x == 0 for x in H[i])]
    return U[keep] if keep else zeros(0, n)


def snf_transform(A: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form with transforms: returns (D, S, T), S @ A @ T == D.

    S and T are unimodular; D is diagonal with nonnegative entries satisfying
    d_1 | d_2 | ... .
    """
    m, n = A.shape
    D = zmat(A.tolist(), n)
    S, T = eye(m), eye(n)

    for k in range(min(m, n)):
        while True:
            # Smallest-magnitude pivot keeps the intermediate entries tame.
            pos = min(
                ((i, j) for i in range(k, m) for j in range(k, n) if D[i, j] != 0),
                key=lambda ij: abs(int(D[ij[0], ij[1]])),
                default=None,
            )
            if pos is None:
                break
            i, j = pos
            if i != k:
                D[[k, i]] = D[[i, k]]
                S[[k, i]] = S[[i, k]]
            if j != k:
                D[:, [k, j]] = D[:, [j, k]]
                T[:, [k, j]] = T[:, [j, k]]
            clean = True
            for i in range(k + 1, m):
                q = D[i, k] // D[k, k]
                if q:
                    D[i] = D[i] - q * D[k]
                    S[i] = S[i] - q * S[k]
                if D[i, k] != 0:
                    clean = False
            for j in range(k + 1, n):
                q = D[k, j] // D[k, k]
                if q:
                    D[:, j] = D[:, j] - q * D[:, k]
                    T[:, j] = T[:, j] - q * T[:, k]
                if D[k, j] != 0:
                    clean = False
            if not clean:
                continue  # leftovers are smaller than the pivot; re-pick
            # Divisibility: fold a non-multiple row into the corner row.
            bad = next(
                ((i, j) for i in range(k + 1, m) for j in range(k + 1, n)
                 if D[i, j] % D[k, k] != 0),
                None,
            )
            if bad is None:
                break
            D[k] = D[k] + D[bad[0]]
            S[k] = S[k] + S[bad[0]]
        if D[k, k] < 0:
            D[k] = -D[k]
            S[k] = -S[k]
    return D, S, T


def elementary_divisors(A: np.ndarray) -> list:
    """Nonzero diagonal entries of the Smith normal form of A."""
    D, _, _ = snf_transform(A)
    return [int(D[i, i]) for i in range(min(A.shape)) if D[i, i] != 0]


def unimodular_inverse(U: np.ndarray) -> np.ndarray:
    """Exact inverse of a unimodular integer matrix.

    The HNF of a unimodular matrix is the identity, so its transform is the
    inverse; any other HNF means U is singular or not unimodular.
    """
    H, V = hnf_transform(U)
    if not np.array_equal(H, eye(U.shape[0])):
        raise ValueError("matrix is not unimodular")
    return V


def lattice_solve(B: np.ndarray, v: Sequence) -> Optional[np.ndarray]:
    """Integer coordinates of v in the row lattice spanned by B, or None."""
    c = solve_left(qmat(B.tolist(), B.shape[1]), [Fraction(int(x)) for x in v])
    if c is None:
        return None
    out = zeros(1, len(c))[0]
    for i, x in enumerate(c):
        if Fraction(x).denominator != 1:
            return None
        out[i] = int(x)
    return out


def hnf_solve(H: np.ndarray, v: Sequence) -> Optional[list]:
    """Integer coordinates of v in the row lattice of a row-HNF basis H.

    Back-substitution along the pivot columns; returns None when v is not in
    the lattice.  Much faster than lattice_solve but requires H in HNF.
    """
    m, n = H.shape
    res = [int(x) for x in v]
    coords = [0] * m
    for i in range(m):
        pj = next((j for j in range(n) if H[i, j] != 0), None)
        if pj is None:
            raise ValueError("HNF basis must have no zero rows")
        q, r = divmod(res[pj], int(H[i, pj]))
        if r:
            return None
        coords[i] = q
        if q:
            row = H[i]
            for j in range(pj, n):
                res[j] -= q * int(row[j])
    if any(res):
        return None
    return coords

