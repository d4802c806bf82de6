import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
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
    # The echelon of [A | I] carries the transform in its identity columns.
    A = rows
    n = len(A[0])
    E = linalg.echelon([row + e for row, e in zip(A, linalg.eye(len(A)))], n)
    H, U = [row[:n] for row in E], [row[n:] for row in E]
    assert (H, U) == linalg.hnf_transform(A)
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
@settings(max_examples=40, deadline=None)
def test_hnf_row_lattice_matches_sympy(rows):
    A = rows
    H = linalg.hnf(A)
    assert oracles.lattice_equal(
        [list(r) for r in H], [list(r) for r in A]
    )


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


@given(int_matrices())
@settings(max_examples=60, deadline=None)
def test_snf_matches_sympy(rows):
    A = rows
    D, S, T = linalg.snf_transform(A)
    assert _sym(S) * _sym(A) * _sym(T) == _sym(D)
    assert abs(_sym(S).det()) == 1
    assert abs(_sym(T).det()) == 1
    for i in range(len(D)):
        for j in range(len(D[0])):
            if i != j:
                assert D[i][j] == 0
    mine = linalg.elementary_divisors(A)
    assert mine == oracles.snf_divisors(rows, len(rows[0]))
    for a, b in zip(mine, mine[1:]):
        assert b % a == 0


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
