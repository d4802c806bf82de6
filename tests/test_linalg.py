import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkm3 import linalg

import oracles


def int_matrices(max_dim=5, lo=-20, hi=20):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
    )


def _sym(A):
    return sympy.Matrix([[int(v) for v in row] for row in A])


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy(rows):
    A = rows
    R, pivots = linalg.rref(A)
    SR, spivots = _sym(A).rref()
    assert list(pivots) == list(spivots)
    assert [[Fraction(str(x)) for x in SR.row(i)] for i in range(SR.rows)] == [
        list(R[i]) for i in range(len(R))
    ]


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_is_right_kernel(rows):
    A = rows
    N = linalg.nullspace(A)
    for i in range(len(N)):
        assert all(v == 0 for v in _sym(A) * sympy.Matrix(N[i]))
    assert len(N) == len(A[0]) - linalg.q_rank(A)
    assert linalg.q_rank(N) == len(N)


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_hnf_transform_contract(rows):
    # hnf_transform is the echelon of [A | I] with the entries above each
    # pivot of A's part reduced: the reduction acts on the whole rows, so
    # it carries the transform along.
    A = rows
    n = len(A[0])
    R = linalg.echelon([row + e for row, e in zip(A, linalg.eye(len(A)))], n)
    # Reduce [H | U] as one matrix, top pivot first; only its first n
    # columns hold pivots.
    for r, row in enumerate(R):
        nz = [j for j in range(n) if row[j]]
        if not nz:
            break
        p = nz[0]
        for i in range(r):
            q = R[i][p] // row[p]
            R[i] = [a - q * b for a, b in zip(R[i], row)]
    H, U = linalg.hnf_transform(A)
    assert (H, U) == ([row[:n] for row in R], [row[n:] for row in R])
    # The same row operations as reducing inside the elimination.
    assert R == oracles.reducing_echelon(
        [row + e for row, e in zip(A, linalg.eye(len(A)))], n
    )
    assert _sym(U) * _sym(A) == _sym(H)
    assert abs(_sym(U).det()) == 1
    # Row-HNF shape: pivots strictly right of the previous, entries above a
    # pivot reduced into [0, pivot).
    prev = -1
    for i in range(len(H)):
        nz = [j for j in range(len(H[0])) if H[i][j] != 0]
        if not nz:
            continue
        p = nz[0]
        assert p > prev
        prev = p
        assert H[i][p] > 0
        for r in range(i):
            assert 0 <= H[r][p] < H[i][p]


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_echelon_has_the_pivots_and_lattice_of_hnf(rows):
    # echelon leaves the entries above its pivots unreduced; its nonzero
    # rows keep hnf's pivot columns and values and span the same lattice.
    E = linalg.echelon_basis(rows)
    assert E == [row for row in linalg.echelon(rows, len(rows[0])) if any(row)]
    H = linalg.hnf(rows)

    def pivots(M):
        return [next((j, x) for j, x in enumerate(row) if x) for row in M]

    assert pivots(E) == pivots(H)
    assert oracles.lattice_equal(E, H)
    assert linalg.q_rank(rows) == len(H)


@given(int_matrices())
@settings(max_examples=40, deadline=None)
def test_hnf_row_lattice_matches_sympy(rows):
    A = rows
    H = linalg.hnf(A)
    assert oracles.lattice_equal(
        [list(r) for r in H], [list(r) for r in A]
    )


@st.composite
def upper_triangular(draw, max_dim=6):
    """A square upper triangular matrix with a positive diagonal."""
    n = draw(st.integers(0, max_dim))
    return [[draw(st.integers(1, 30)) if j == i
             else draw(st.integers(-50, 50)) if j > i else 0
             for j in range(n)] for i in range(n)]


@given(upper_triangular())
@settings(max_examples=80, deadline=None)
def test_reduced_triangular_basis_is_its_hnf(rows):
    # A triangular basis with a positive diagonal is an echelon basis, so
    # its Hermite form is the reduction pass alone.
    H = linalg.reduced([list(r) for r in rows], len(rows))
    assert H == linalg.hnf(rows)
    assert oracles.lattice_equal(H, rows)
    assert all(0 <= H[j][i] < H[i][i] for i in range(len(H)) for j in range(i))


@given(int_matrices())
@settings(max_examples=40, deadline=None)
def test_z_kernel_contract(rows):
    A = rows
    K = linalg.z_kernel(A)
    for i in range(len(K)):
        assert all(v == 0 for v in _sym(A) * sympy.Matrix(K[i]))
    assert len(K) == len(A[0]) - linalg.q_rank(rows)
    if len(K):
        # The kernel lattice is saturated: all elementary divisors are 1.
        assert oracles.snf_divisors([list(r) for r in K], len(K[0])) == [
            1
        ] * len(K)


@given(int_matrices(max_dim=7, lo=-3, hi=3), st.sampled_from([1, -6, 3**200]))
@settings(max_examples=80, deadline=None)
def test_q_rank_matches_sympy(rows, scale):
    """The content-reducing elimination counts sympy's rank, also when one
    large factor is common to every entry, as in a large duality pairing;
    rows with a repeated or zero combination are rank deficient."""
    A = [[scale * a for a in row] for row in rows]
    assert linalg.q_rank(A) == oracles.q_rank_rows(A)
    doubled = A + [[a + 2 * b for a, b in zip(A[0], A[-1])]]
    assert linalg.q_rank(doubled) == oracles.q_rank_rows(doubled)


def _check_snf(A, ncols):
    """(D, T^-1) is a Smith form of A: T, sympy's inverse of T^-1, is
    integral with |det T| = 1, D is diagonal with d_1 | d_2 | ..., and the
    rows of A T span the lattice of D's rows.  With equal row counts that
    last holds exactly when some unimodular S has S A T = D, the S that
    snf_transform does not keep."""
    D, Tinv = linalg.snf_transform(A, ncols)
    T = oracles.inverse(Tinv)
    assert abs(_sym(T).det()) == 1
    assert len(D) == len(A) and all(len(row) == ncols for row in D)
    for i, row in enumerate(D):
        assert all(x == 0 for j, x in enumerate(row) if j != i)
    diag = [row[i] for i, row in enumerate(D) if i < ncols]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0
    AT = [[sum(a * t for a, t in zip(row, col)) for col in zip(*T)] for row in A]
    assert oracles.lattice_equal(AT, D)
    return D


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_snf_matches_sympy(rows):
    A = rows
    _check_snf(A, len(A[0]))
    mine = linalg.elementary_divisors(A)
    assert mine == oracles.snf_divisors(rows, len(rows[0]))


def test_snf_explicit_inputs():
    # 2 and 3 are each their column's gcd, so only the divisibility fold
    # (adding row 1 to row 0) reaches diag(1, 6).
    assert _check_snf([[2, 0], [0, 3]], 2) == [[1, 0], [0, 6]]
    assert linalg.elementary_divisors([[2, 0], [0, 3]]) == [1, 6]
    # The degree-0 quotient: no rows, so the column count is given.
    assert linalg.snf_transform([], 3) == ([], linalg.eye(3))
    assert _check_snf([], 3) == []


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_exgcd(a, b):
    g, xx, yy = linalg.exgcd(a, b)
    assert g == math.gcd(a, b)
    assert xx * a + yy * b == g


@given(int_matrices())
@settings(max_examples=40, deadline=None)
def test_hnf_solve_membership(rows):
    A = rows
    H = linalg.hnf(A)
    if len(H) == 0:
        return
    # An arbitrary integer combination of basis rows must round-trip.
    v = [sum((i + 1) * int(H[i][j]) for i in range(len(H)))
         for j in range(len(H[0]))]
    c = linalg.hnf_solve(H, v)
    assert c == [i + 1 for i in range(len(H))]
    # Solutions found by hnf_solve agree with sympy's verdict on random rows.
    for r in rows:
        mine = linalg.hnf_solve(H, r)
        theirs = oracles.in_lattice([list(q) for q in H], r, len(H[0]))
        assert (mine is not None) == theirs
        if mine is not None:
            assert [
                sum(mine[i] * int(H[i][j]) for i in range(len(H)))
                for j in range(len(H[0]))
            ] == list(r)


@given(int_matrices(max_dim=6, lo=-6, hi=6),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-9, 9), min_size=6, max_size=6))
@settings(max_examples=80, deadline=None)
def test_hnf_solver_matches_dense_oracle(rows, coeffs, noise):
    """The solver built once per basis gives the dense loop's coordinates
    on lattice members and its None on vectors outside the lattice."""
    H = linalg.hnf(rows)
    assume(H)
    n = len(H[0])
    solve = linalg.hnf_solver(H)
    member = [sum(c * h[j] for c, h in zip(coeffs, H)) for j in range(n)]
    assert solve(member) == oracles.dense_hnf_solve(H, member) == coeffs[: len(H)]
    for v in (noise[:n], [m + e for m, e in zip(member, noise)], rows[0]):
        assert solve(v) == oracles.dense_hnf_solve(H, v) == linalg.hnf_solve(H, v)
    assert solve([0] * n) == [0] * len(H)


@given(int_matrices(max_dim=6, lo=-9, hi=9), st.sampled_from([1, 2, 6]))
@settings(max_examples=80, deadline=None)
def test_snf_matches_min_scan_oracle(rows, scale):
    """Taking the first unit as the pivot picks the entry the full
    smallest-magnitude scan picks, so D and T^-1 are the same; scaled
    matrices have no unit and take the scan itself."""
    A = [[scale * a for a in row] for row in rows]
    assert linalg.snf_transform(A) == oracles.min_scan_snf(A)


def test_unimodular_inverse_and_errors():
    U = [[2, 1], [1, 1]]
    inv = linalg.unimodular_inverse(U)
    assert _sym(U) * _sym(inv) == _sym(linalg.eye(2))
    with pytest.raises(ValueError):
        linalg.unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.unimodular_inverse([[1, 1], [1, 1]])


def test_lattice_solve_and_equality():
    B = [[2, 0], [0, 3]]
    assert list(linalg.lattice_solve(B, [4, 3])) == [2, 1]
    assert linalg.lattice_solve(B, [1, 0]) is None
    assert oracles.lattice_equal([[2, 0], [0, 3]], [[2, 3], [0, 3]])
    assert not oracles.lattice_equal([[2, 0], [0, 3]], [[1, 0], [0, 3]])


def test_solve_left():
    B = [[1, 2, 3], [0, 1, 1]]
    c = linalg.solve_left(B, [1, 3, 4])
    assert list(c) == [1, 1]
    assert linalg.solve_left(B, [0, 0, 1]) is None


def _dense(E, n):
    """The rows of unit_reduce's result, as dense rows in pivot order."""
    rows = []
    for p in sorted(E):
        row = [E[p].get(j, 0) for j in range(n)]
        row[p] = 1
        rows.append(row)
    return rows


@given(int_matrices(max_dim=6, lo=-3, hi=3))
@settings(max_examples=200, deadline=None)
def test_unit_reduce_spans_a_saturated_lattice(rows):
    # Each E_p is 1 at p and 0 at the other pivots; together they span the
    # rows' lattice, whose elementary divisors are then all 1.  So a
    # lattice with a divisor above 1 gives None.
    n = len(rows[0])
    E = linalg.unit_reduce(rows)
    if E is None:
        return
    assert all(p not in E[q] for p in E for q in E)
    dense = _dense(E, n)
    assert oracles.lattice_equal(dense, rows) if dense else not any(map(any, rows))
    assert oracles.snf_divisors(rows, n) == [1] * len(E)


def test_unit_reduce_explicit_inputs():
    # A row with no unit is retried once another row adds a pivot.
    assert linalg.unit_reduce([[2, 3], [1, 1]]) == {0: {}, 1: {}}
    assert linalg.unit_reduce([[2, 3]]) is None
    assert linalg.unit_reduce([[2, 0], [0, 1]]) is None  # index 2
    assert linalg.unit_reduce([[0, -1, 2], [0, 2, -4]]) == {1: {2: -2}}
    assert linalg.unit_reduce([]) == {}
