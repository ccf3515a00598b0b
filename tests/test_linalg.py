"""Exact linear algebra over the rationals and over the rational-function field."""
import random
from fractions import Fraction

import pytest

from flataffine import RationalFunction
from flataffine.linalg import in_row_space, invert, nullspace, rank, rref, solve
from flataffine.symcore import parse_expr
from helpers import chart_xy, mat_mul


def F(x):
    return Fraction(x)


def random_matrix(rng, rows, cols):
    return [[F(rng.randint(-5, 5)) for _ in range(cols)] for _ in range(rows)]


def test_rref_canonical_and_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert reduced == again and pivots == pivots2
        for i, c in enumerate(pivots):
            assert reduced[i][c] == 1
            assert all(reduced[r][c] == 0 for r in range(len(reduced)) if r != i)


def test_rref_row_space_invariant():
    rng = random.Random(6)
    for _ in range(10):
        m = random_matrix(rng, 4, 4)
        reduced, _ = rref(m)
        shuffled = list(m)
        rng.shuffle(shuffled)
        assert rref(shuffled)[0] == reduced


def test_nullspace_kills_matrix_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        null = nullspace(m, cols)
        assert rank(m) + len(null) == cols
        for v in null:
            for row in m:
                assert sum(a * b for a, b in zip(row, v)) == 0
        # the returned basis is itself in reduced row-echelon form
        if null:
            assert rref(null)[0] == null


def test_solve_consistent_and_inconsistent():
    m = [[F(1), F(2)], [F(2), F(4)]]
    assert solve(m, [[F(3), F(6)]]) == [[F(3), F(0)]]
    assert solve(m, [[F(3), F(7)]]) == [None]


def test_invert_round_trip_and_singular():
    rng = random.Random(9)
    found = 0
    while found < 10:
        m = random_matrix(rng, 3, 3)
        if rank(m) < 3:
            continue
        inv = invert(m)
        prod = mat_mul(m, inv)
        assert prod == [[F(int(i == j)) for j in range(3)] for i in range(3)]
        found += 1
    with pytest.raises(ValueError):
        invert([[F(1), F(2)], [F(2), F(4)]])


def test_in_row_space():
    m = [[F(1), F(0), F(1)], [F(0), F(1), F(1)]]
    assert in_row_space(m, [F(2), F(3), F(5)])
    assert not in_row_space(m, [F(0), F(0), F(1)])


def test_int_and_mixed_rows_give_fraction_results():
    rows_q = [[F(2), F(1), F(0)], [F(4), F(2), F(3)], [F(6), F(3), F(3)]]
    rows_int = [[2, 1, 0], [4, 2, 3], [6, 3, 3]]
    rows_mixed = [[2, F(1), 0], [F(4), 2, F(3)], [6, F(3), 3]]
    assert rref([[2, 1]]) == ([[F(1), Fraction(1, 2)]], [0])
    assert rref([[]]) == rref([[0, 0]]) == ([], [])
    rhs = [[F(1), F(5), F(6)], [F(1), F(0), F(0)]]
    for rows in (rows_int, rows_mixed):
        assert rref(rows) == rref(rows_q)
        assert solve(rows, rhs) == solve(rows_q, rhs) == [[Fraction(1, 2), F(0), F(1)], None]
        assert nullspace(rows, 3) == nullspace(rows_q, 3) == [[F(1), F(-2), F(0)]]
        assert solve(rows, [[1, 5, 6]]) == solve(rows_q, [rhs[0]])
        for result in (rref(rows)[0], solve(rows, rhs)[:1], nullspace(rows, 3)):
            assert all(type(x) is Fraction for row in result for x in row)


def test_over_rational_function_field():
    ch = chart_xy()
    zero = RationalFunction.zero(ch)
    one = RationalFunction.one(ch)
    x = parse_expr("x", ch)
    y = parse_expr("y", ch)
    m = [[x, zero], [y, x]]
    inv = invert(m, zero=zero, one=one)
    assert mat_mul(m, inv, zero=zero) == [[one, zero], [zero, one]]
    assert inv[0][0] == parse_expr("1/x", ch)
    assert inv[1][0] == parse_expr("-y/x^2", ch)
    singular = [[x, x], [y, y]]
    assert rank(singular, zero=zero) == 1
