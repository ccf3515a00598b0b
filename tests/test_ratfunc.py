"""Rational-function normalization, field axioms and differentiation."""
import random
from fractions import Fraction

import pytest

from flataffine import Polynomial, RationalFunction
from flataffine.symcore import ChartMismatchError, parse_expr
from helpers import chart_xy, plane_chart, random_polynomial, random_rational_function


def rf(source):
    return parse_expr(source, chart_xy())


def test_normalization_cancels_gcd_and_content():
    ch = chart_xy()
    x = Polynomial.variable(ch, "x")
    y = Polynomial.variable(ch, "y")
    f = RationalFunction(x * 2, y * 2)
    assert f.num == x and f.den == y
    # sign convention: denominator leading coefficient positive
    g = RationalFunction(x, -y)
    assert g.den == y and g.num == -x
    assert RationalFunction(x * x * y, x) == RationalFunction(x * y)


def test_zero_representation():
    ch = chart_xy()
    f = RationalFunction(Polynomial.zero(ch), Polynomial.variable(ch, "x"))
    assert f.is_zero()
    assert f.den.is_one()


def test_zero_denominator_rejected():
    ch = chart_xy()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial.one(ch), Polynomial.zero(ch))


def test_normalize_idempotent():
    rng = random.Random(31)
    ch = chart_xy()
    for _ in range(25):
        f = random_rational_function(rng, ch)
        again = RationalFunction(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_field_axioms_random():
    rng = random.Random(57)
    ch = chart_xy()
    for _ in range(20):
        a = random_rational_function(rng, ch)
        b = random_rational_function(rng, ch)
        c = random_rational_function(rng, ch)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == RationalFunction.zero(ch)
        if not a.is_zero():
            assert a * a.inverse() == RationalFunction.one(ch)


def test_field_identity_examples():
    assert rf("x/y") * rf("y/x") == rf("1")
    assert rf("x") + rf("-x") == rf("0")
    assert rf("(x+y)*(x-y)") == rf("x^2 - y^2")


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        rf("0").inverse()


def test_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        rf("x") + parse_expr("x", plane_chart())


def test_diff_quotient_rule_examples():
    # hand oracle: d/dx (y^3/x) = (0*x - y^3)/(x^2)
    assert rf("y^3/x").diff("x") == rf("-y^3/x^2")
    assert rf("x^2").diff("y").is_zero()
    assert rf("x^2 + y^2").diff("x") == rf("2*x")


def test_diff_leibniz_on_random_corpus():
    rng = random.Random(83)
    ch = chart_xy()
    corpus = [random_rational_function(rng, ch) for _ in range(22)]
    for f, g in zip(corpus, corpus[1:]):
        for v in ("x", "y"):
            assert (f * g).diff(v) == f * g.diff(v) + g * f.diff(v)


def test_diff_unknown_variable():
    from flataffine import UnknownVariableError
    with pytest.raises(UnknownVariableError):
        rf("x").diff("z")


def test_evaluation_matches_structure():
    rng = random.Random(11)
    ch = chart_xy()
    point = {"x": Fraction(3, 2), "y": Fraction(-1, 3)}
    for _ in range(10):
        f = random_rational_function(rng, ch)
        g = random_rational_function(rng, ch)
        try:
            lhs = (f * g + f).evaluate(point)
            rhs = f.evaluate(point) * g.evaluate(point) + f.evaluate(point)
        except ZeroDivisionError:
            continue
        assert lhs == rhs


def test_powers():
    assert rf("1/x") ** 2 == rf("1/x^2")
    assert rf("x + 1") ** 0 == rf("1")
    assert rf("x") ** -1 == rf("1/x")


# ----- zero operands -----------------------------------------------------------


def slow_sum(a, b):
    """a + b by the general formula, which normalizes the result afresh."""
    return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)


def slow_product(a, b):
    return RationalFunction(a.num * b.num, a.den * b.den)


def assert_canonical_equal(got, expected):
    assert isinstance(got, RationalFunction)
    assert got.chart == expected.chart
    assert got.num == expected.num and got.den == expected.den


ZEROS = [lambda ch: RationalFunction.zero(ch), lambda ch: 0, lambda ch: Fraction(0)]


@pytest.mark.parametrize("make_zero", ZEROS, ids=["rational-function", "int", "fraction"])
def test_zero_operands_give_the_canonical_result(make_zero):
    rng = random.Random(101)
    ch = chart_xy()
    zero_rf = RationalFunction.zero(ch)
    corpus = [rf("y^3/x"), rf("-2*x + 1/3"), rf("7"), zero_rf] + \
        [random_rational_function(rng, ch) for _ in range(8)]
    for x in corpus:
        z = make_zero(ch)
        z_rf = RationalFunction.constant(ch, z) if not isinstance(z, RationalFunction) else z
        for got, expected in ((x + z, slow_sum(x, z_rf)), (z + x, slow_sum(z_rf, x)),
                              (x - z, slow_sum(x, -z_rf)), (z - x, slow_sum(z_rf, -x)),
                              (x * z, slow_product(x, z_rf)), (z * x, slow_product(z_rf, x))):
            assert_canonical_equal(got, expected)
        for product in (x * z, z * x):
            assert product.num.is_zero() and product.den.is_one()
    assert_canonical_equal(zero_rf + zero_rf, zero_rf)
    assert (zero_rf - zero_rf).den.is_one()


def test_zero_on_another_chart_is_refused():
    x = rf("x")
    other = RationalFunction.zero(plane_chart())
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((x, other), (other, x), (RationalFunction.zero(chart_xy()), other)):
            with pytest.raises(ChartMismatchError):
                op(a, b)


@pytest.mark.parametrize("make_zero", ZEROS, ids=["rational-function", "int", "fraction"])
def test_subtracting_zero_negates_nothing(monkeypatch, make_zero):
    ch = chart_xy()
    x = rf("y^3/x")
    negate = RationalFunction.__neg__
    calls = []
    monkeypatch.setattr(RationalFunction, "__neg__",
                        lambda self: calls.append(1) or negate(self))
    assert x - make_zero(ch) is x
    assert calls == []


# ----- operands over 1 --------------------------------------------------------------


def slow_diff(a, variable):
    """The quotient rule, normalized afresh."""
    return RationalFunction(a.num.diff(variable) * a.den - a.num * a.den.diff(variable),
                            a.den * a.den)


def test_polynomial_fast_paths_match_the_general_path():
    rng = random.Random(113)
    ch = chart_xy()
    polynomials = [rf("x"), rf("-2*x + 1/3"), rf("7"), rf("-y^2/4")] + \
        [RationalFunction(random_polynomial(rng, ch)) for _ in range(8)]
    rationals = [rf("y^3/x"), rf("1/x"), rf("x/(x + 1)")] + \
        [random_rational_function(rng, ch) for _ in range(4)]
    assert all(p.den.is_one() for p in polynomials)
    assert not any(r.den.is_one() for r in rationals[:3])
    for a in polynomials + rationals:
        for b in polynomials + rationals:
            assert_canonical_equal(a + b, slow_sum(a, b))
            assert_canonical_equal(a - b, slow_sum(a, -b))
            assert_canonical_equal(a * b, slow_product(a, b))
        for variable in ch.variables:
            assert_canonical_equal(a.diff(variable), slow_diff(a, variable))
    # a true denominator against a polynomial still cancels through the cross-gcd
    assert_canonical_equal(rf("x/(x + 1)") * rf("2*x + 2"), rf("2*x"))
    assert_canonical_equal(rf("(x^2 - y^2)/3") * rf("x/(x + y)"), rf("(x^2 - x*y)/3"))


def test_polynomial_sums_and_products_take_no_gcd(monkeypatch):
    from flataffine.symcore import ratfunc
    a, b = rf("x^2 - 3*y"), rf("2*x*y + 1/2")
    total, product = rf("x^2 + 2*x*y - 3*y + 1/2"), rf("2*x^3*y + x^2/2 - 6*x*y^2 - 3/2*y")
    over, factor, x = rf("x/(x + 1)"), rf("x + 1"), rf("x")
    gcd = ratfunc.poly_gcd
    calls = []
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda p, q: calls.append(1) or gcd(p, q))
    assert_canonical_equal(a + b, total)
    assert_canonical_equal(a * b, product)
    assert calls == []
    assert_canonical_equal(over * factor, x)
    assert calls   # a rational operand still takes the cross-gcd
