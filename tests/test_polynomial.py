"""Polynomial arithmetic, canonical form, gcd and exact division."""
import random
from fractions import Fraction

import pytest

from flataffine import Chart, Polynomial, Rational, RationalFunction
from flataffine.symcore import ExactDivisionError, exact_div, poly_gcd, poly_lcm
from flataffine.symcore.polynomial import _coefficients_wrt, _lc_wrt
from helpers import chart_xy, random_polynomial, random_rational_function


def P(source_terms, chart):
    return Polynomial(chart, source_terms)


def test_rational_scalar_invariants():
    # the exact scalar type keeps gcd-reduced form with positive denominator
    r = Rational(6, -4)
    assert r.numerator == -3 and r.denominator == 2
    assert Rational(0, 7) == Rational(0, 1)
    assert Rational("3/9") == Rational(1, 3)


def test_construction_drops_zero_terms():
    ch = chart_xy()
    p = P({(1, 0): Fraction(0), (0, 1): Fraction(2)}, ch)
    assert list(p.terms) == [(0, 1)]
    assert Polynomial.zero(ch).is_zero()
    assert not Polynomial.zero(ch).terms


def test_negative_exponents_rejected():
    ch = chart_xy()
    with pytest.raises(ValueError):
        P({(-1, 0): Fraction(1)}, ch)


def test_graded_lex_printing_canonical():
    ch = chart_xy()
    p = P({(2, 0): 1, (0, 0): 1, (1, 1): -3, (0, 1): 1}, ch)
    # degree 2 terms first (x^2 before x*y lexicographically), then degree 1
    assert str(p) == "x^2 - 3*x*y + y + 1"


def test_arithmetic_identities_random():
    rng = random.Random(1201)
    ch = chart_xy()
    for _ in range(25):
        p = random_polynomial(rng, ch)
        q = random_polynomial(rng, ch)
        r = random_polynomial(rng, ch)
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p
        assert p - p == Polynomial.zero(ch)


def test_evaluation_oracle_for_products():
    rng = random.Random(22)
    ch = chart_xy()
    for _ in range(20):
        p = random_polynomial(rng, ch)
        q = random_polynomial(rng, ch)
        point = {"x": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                 "y": Fraction(rng.randint(-5, 5), rng.randint(1, 4))}
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_diff_basics():
    ch = chart_xy()
    p = P({(2, 0): 1, (0, 2): 1}, ch)   # x^2 + y^2
    assert p.diff("x") == P({(1, 0): 2}, ch)
    assert P({(2, 0): 1}, ch).diff("y").is_zero()


def test_exact_div_round_trip():
    rng = random.Random(7)
    ch = chart_xy()
    for _ in range(20):
        p = random_polynomial(rng, ch)
        q = random_polynomial(rng, ch)
        if q.is_zero():
            continue
        assert exact_div(p * q, q) == p


def test_exact_div_rejects_non_divisor():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    y = Polynomial.variable(ch, "y")
    with pytest.raises(ExactDivisionError):
        exact_div(x * x + y, x)


def test_gcd_canonical_form():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    y = Polynomial.variable(ch, "y")
    g = poly_gcd((x + y) * x * 2, (x + y) * y * 4)
    # canonical: coprime integer coefficients, positive leading coefficient
    assert g == x + y
    assert g.leading_coefficient() > 0
    assert g.content() == 1
    g2 = poly_gcd(-(x + y), (x + y) * y)
    assert g2 == x + y


def test_gcd_units_and_zero():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    zero = Polynomial.zero(ch)
    assert poly_gcd(zero, -x * 3) == x
    assert poly_gcd(x, Polynomial.constant(ch, Fraction(7, 3))) == Polynomial.one(ch)


def test_gcd_divides_and_cofactors_coprime():
    rng = random.Random(99)
    ch = chart_xy()
    checked = 0
    while checked < 20:
        a = random_polynomial(rng, ch, max_degree=2, max_terms=3)
        b = random_polynomial(rng, ch, max_degree=2, max_terms=3)
        g = random_polynomial(rng, ch, max_degree=2, max_terms=2)
        if a.is_zero() or b.is_zero() or g.is_zero():
            continue
        p, q = a * g, b * g
        d = poly_gcd(p, q)
        # d divides both and contains g
        ca = exact_div(p, d)
        cb = exact_div(q, d)
        exact_div(d, poly_gcd(d, g))  # g | d up to the gcd of a, b
        assert poly_gcd(ca, cb).is_constant()
        assert ca * d == p and cb * d == q
        checked += 1


def test_gcd_with_monomials():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    y = Polynomial.variable(ch, "y")
    assert poly_gcd(x ** 3 * y, x * y ** 2) == x * y
    assert poly_gcd(x * x + x * y, x) == x
    assert poly_gcd(x + 1, x) == Polynomial.one(ch)


def test_gcd_four_variables():
    ch = Chart("g", ("a", "b", "c", "d"))
    a = Polynomial.variable(ch, "a")
    b = Polynomial.variable(ch, "b")
    c = Polynomial.variable(ch, "c")
    d = Polynomial.variable(ch, "d")
    det = a * d - b * c
    p = det * (a + b)
    q = det * (c + d) * 2
    assert poly_gcd(p, q) == det


def test_lcm():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    y = Polynomial.variable(ch, "y")
    assert poly_lcm(x * y, x) == x * y
    assert poly_lcm(x, y) == x * y
    assert poly_lcm(x, Polynomial.zero(ch)).is_zero()


def test_pow_and_scalars():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    assert x ** 0 == Polynomial.one(ch)
    assert (x + 1) ** 2 == x * x + 2 * x + 1
    assert 3 * x == x * 3
    assert (x + 1) - 1 == x


# ----- trusted construction ----------------------------------------------------
# Internal results wrap their terms without validation; the validating
# constructor is the oracle that they are canonical.  The type check matters
# because int 1 compares equal to Fraction(1).


def assert_canonical(p):
    assert Polynomial(p.chart, p.terms).terms == p.terms
    for exps, coeff in p.terms.items():
        assert type(coeff) is Fraction
        assert type(exps) is tuple and len(exps) == p.chart.dim


def _charts():
    return [chart_xy(), Chart("abc", ("a", "b", "c"))]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chart", _charts(), ids=["xy", "abc"])
def test_polynomial_results_are_canonical(seed, chart):
    rng = random.Random(seed)
    for _ in range(12):
        p = random_polynomial(rng, chart)
        q = random_polynomial(rng, chart)
        s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        results = [p + q, p - q, p - p, -p, p * s, s * p, p * q, p ** rng.randint(0, 3),
                   poly_gcd(p * q, q * s), poly_lcm(p, q),
                   Polynomial.zero(chart), Polynomial.one(chart)]
        results += [p.diff(v) for v in chart.variables]
        if q:
            results.append(exact_div(p * q, q))
        for axis in range(chart.dim):
            results += _coefficients_wrt(p, axis).values()
            results.append(_lc_wrt(p, axis))
        for r in results:
            assert_canonical(r)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("chart", _charts(), ids=["xy", "abc"])
def test_rational_function_results_are_canonical(seed, chart):
    rng = random.Random(seed)
    for _ in range(8):
        f = random_rational_function(rng, chart, max_degree=2)
        g = random_rational_function(rng, chart, max_degree=2)
        results = [f + g, f * g, f.diff(chart.variables[0]), f.diff(chart.variables[-1])]
        if g:
            results.append(f / g)
        for r in results:
            assert_canonical(r.num)
            assert_canonical(r.den)
        # a coprime pair in any scaling: the gcd-free path equals the normalising one
        s = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3))
        for n, d in [(f.num * s, f.den * s), (g.num, f.den * s),
                     (Polynomial.zero(chart), g.den * s)]:
            if n and not poly_gcd(n, d).is_one():
                continue
            assert RationalFunction(n, d) == RationalFunction._reduced(n, d)
