"""Dual-route verification of the canonical-operand shortcuts.

`RationalFunction` sums, products, derivatives and canonical scaling, and the
one-term paths of `Polynomial.__mul__`, `exact_div` and `poly_gcd`, skip work
that canonical operands make unnecessary (see the symcore module docstrings).
The oracles below are the kernels as they were before those shortcuts: the
general product for every operand, division by the largest remainder term
found by a scan, the gcd with a monomial through the validating constructor,
a scale by content and sign for every denominator, a sum normalised by a full
gcd, and the quotient rule for every derivative.  The oracles read every
coefficient as a Fraction (`as_fractions`), as it was stored then.  Both
routes must give equal, canonical results, and exact division must refuse
the same inputs.

A power (n/d)^k is n^k/d^k for k > 0; its oracle is the square-and-multiply
loop through the general product it replaced, for k from -3 to 4.

The scalar product, the derivative and evaluation are also checked against
the kernels as they were before the shared constants: a scalar coerced to a
rational function and multiplied by the general product, a derivative that
builds a fresh 0, and evaluation that converts every coordinate.  Each check
is run on hand-made mutants of the new paths as well, and must catch them.
A chart's variables and constants are compared with the validating
constructor, and each variable, and every zero result, a negated 0 among
them, must be the chart's shared value.

A product in which one operand is a constant c/1 and both are over the
chart's shared polynomial 1 takes the scalar path.  Its oracle is the general
route of `__mul__` that the path bypasses, kept verbatim, on c = 1, -1, 3/2
and 0 over the shared 1 and over an equal copy of it, times polynomials and
true fractions, on either side.  The results must agree in value and term
order, be an operand itself exactly where the path promises it, and refuse an
operand from another chart; five mutants of the path must be caught.  The
chart's shared 1 is the unit of every product: x * 1 and 1 * x are x itself,
whatever x's denominator, and the shared 1 of another chart is refused.

`diff` reads one gradient per value, {axis: nonzero partial} over the
variables the value contains, built on the first request.  Its oracle is the
quotient rule without the memo, run afresh on every request; `diff` must give
the same canonical result, the same object on every later request, and no
entry for a variable it refuses.  A constant or a variable over the chart's
shared 1 gets its gradient with no quotient rule: {} for a constant and
{axis: the chart's shared 1} for a variable; a variable or a 1 over an equal
copy of 1, and every other value, holds the axes of the variables it
contains.  After real workloads, every gradient entry still held by a live
rational function must equal the oracle's derivative of its owner, every
axis it lacks must have a zero oracle derivative, and a GL3 pass, every value
of which is over the shared 1, runs no quotient rule.
"""
import gc
import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from flataffine import (
    Chart,
    Polynomial,
    RationalFunction,
    VectorField,
    is_flat_affine,
    is_infinitesimal_affine,
    solve_iat_ansatz,
)
from flataffine import cli
from flataffine.cli import run_document
from flataffine.symcore import ChartMismatchError, ExactDivisionError, \
    UnknownVariableError, exact_div, grlex_key, poly_gcd, require_same_chart
from flataffine.symcore.polynomial import _add_scaled
from helpers import as_fractions, assert_canonical, assert_stored, gln_scene, \
    random_polynomial


# ----- the earlier kernels (test oracles only) ------------------------------------


def oracle_poly_mul(p, q):
    out = {}
    terms = as_fractions(q).terms.items()
    for e1, c1 in as_fractions(p).terms.items():
        _add_scaled(out, e1, c1, terms)
    return Polynomial(p.chart, out)


def oracle_exact_div(p, d):
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    if d.is_constant():
        return as_fractions(p) * (1 / Fraction(d.leading_coefficient()))
    d_exps = d.leading_exponents()
    d_coeff = Fraction(d.terms[d_exps])
    tail = [(e, -c / d_coeff) for e, c in as_fractions(d).terms.items() if e != d_exps]
    rem = dict(as_fractions(p).terms)
    out = {}
    while rem:
        r_exps = max(rem, key=grlex_key)
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ExactDivisionError(f"({p}) is not divisible by ({d})")
        r_coeff = rem.pop(r_exps)
        out[q_exps] = r_coeff / d_coeff
        _add_scaled(rem, q_exps, r_coeff, tail)
    return Polynomial(p.chart, out)


def oracle_gcd(p, q):
    """`poly_gcd` with its earlier monomial branch; the other branches are
    the production ones, checked against a primitive PRS in test_gcd_oracle."""
    if (p.is_zero() or q.is_zero() or p.is_constant() or q.is_constant()
            or p.terms == q.terms or (len(p.terms) > 1 and len(q.terms) > 1)):
        return poly_gcd(p, q)
    mins = None
    for exps in list(p.terms) + list(q.terms):
        mins = list(exps) if mins is None else [min(a, b) for a, b in zip(mins, exps)]
    return Polynomial.monomial(p.chart, mins)


def oracle_scale(num, den):
    if num.is_zero():
        den = Polynomial.one(num.chart)
    elif not den.is_one():
        scale = den.content()
        if den.leading_coefficient() < 0:
            scale = -scale
        if scale != 1:
            num = as_fractions(num) * (1 / Fraction(scale))
            den = as_fractions(den) * (1 / Fraction(scale))
    return num, den


def oracle_reduced(num, den):
    out = RationalFunction.__new__(RationalFunction)
    out.num, out.den = oracle_scale(num, den)
    return out


def oracle_rf(num, den):
    """The constructor: divide by the full gcd, then scale."""
    if not num.is_zero():
        g = oracle_gcd(num, den)
        if not g.is_one():
            num = oracle_exact_div(num, g)
            den = oracle_exact_div(den, g)
    return oracle_reduced(num, den)


def oracle_add(a, b):
    if not b.num.terms:
        return a
    if not a.num.terms:
        return b
    if a.den == b.den:
        if a.den.is_one():
            return oracle_reduced(a.num + b.num, a.den)
        return oracle_rf(a.num + b.num, a.den)
    g = oracle_gcd(a.den, b.den)
    if g.is_one():
        return oracle_rf(oracle_poly_mul(a.num, b.den) + oracle_poly_mul(b.num, a.den),
                         oracle_poly_mul(a.den, b.den))
    d1 = oracle_exact_div(a.den, g)
    d2 = oracle_exact_div(b.den, g)
    return oracle_rf(oracle_poly_mul(a.num, d2) + oracle_poly_mul(b.num, d1),
                     oracle_poly_mul(a.den, d2))


def oracle_neg(a):
    return oracle_reduced(-a.num, a.den)


def oracle_mul(a, b):
    if not a.num.terms:
        return a
    if not b.num.terms:
        return b
    if a.den.is_one() and b.den.is_one():
        return oracle_reduced(oracle_poly_mul(a.num, b.num), a.den)
    g1 = oracle_gcd(a.num, b.den)
    g2 = oracle_gcd(b.num, a.den)
    n1 = a.num if g1.is_one() else oracle_exact_div(a.num, g1)
    d2 = b.den if g1.is_one() else oracle_exact_div(b.den, g1)
    n2 = b.num if g2.is_one() else oracle_exact_div(b.num, g2)
    d1 = a.den if g2.is_one() else oracle_exact_div(a.den, g2)
    return oracle_reduced(oracle_poly_mul(n1, n2), oracle_poly_mul(d1, d2))


def oracle_diff(a, variable):
    dn = a.num.diff(variable)
    if a.den.is_one():
        return oracle_reduced(dn, a.den)
    dd = a.den.diff(variable)
    return oracle_rf(oracle_poly_mul(dn, a.den) - oracle_poly_mul(a.num, dd),
                     oracle_poly_mul(a.den, a.den))


# ----- seeded operands ----------------------------------------------------------------

CHART = Chart("xyz", ("x", "y", "z"))
SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"
X, Y, Z = (Polynomial.variable(CHART, v) for v in CHART.variables)


def _monomial(rng, coeff):
    return Polynomial.monomial(CHART, [rng.randint(0, 2), rng.randint(0, 2), 0], coeff)


def _denominators(rng):
    """Monomials with coefficients +-c, constants, coprime multi-term ones and
    ones sharing a factor; none contains z, so d/dz takes the short path."""
    c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    shared = X + rng.randint(1, 3)
    return [_monomial(rng, c), _monomial(rng, -c), _monomial(rng, 1), X,
            Polynomial.constant(CHART, c), Polynomial.constant(CHART, -c),
            Polynomial.one(CHART),
            X + 1, Y - 2, X * Y + 1, -2 * X + 3 * Y,
            shared * (Y + 1), shared * (X - Y), X * X * shared, X * (X - 1)]


def _operands(rng):
    """Canonical n/d over every denominator, through the oracle constructor,
    then pairs whose sum cancels: a and -a, and n/(g*e1), n/(g*e2) with
    n(e1 + e2) divisible by a factor of g = gcd of the denominators."""
    out = []
    for den in _denominators(rng):
        num = random_polynomial(rng, CHART)
        out.append(oracle_rf(num, den))
    out.append(oracle_neg(out[0]))
    out.append(oracle_neg(out[8]))
    r = rng.randint(1, 4) * Y + rng.randint(1, 4)
    for g in (X, X * X):
        out.append(oracle_rf(r, oracle_poly_mul(g, X + 1)))
        out.append(oracle_rf(r, oracle_poly_mul(g, X - 1)))
    # d/dx of (x*y + 1)/y is y/y: the short path still cancels
    out.append(oracle_rf(X * Y + 1, Y))
    out.append(oracle_reduced(Polynomial.zero(CHART), Polynomial.one(CHART)))
    return out


def _same_rf(got, expected):
    for p in (got.num, got.den, expected.num, expected.den):
        assert_canonical(p)
    assert got.num.terms == expected.num.terms and got.den.terms == expected.den.terms


def _same_poly(got, expected, order=True):
    assert_canonical(got)
    assert got.terms == expected.terms
    if order:
        assert list(got.terms) == list(expected.terms)


def _division_outcome(divide, p, d):
    try:
        return divide(p, d)
    except ExactDivisionError:
        return ExactDivisionError


# ----- rational functions -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_sums_products_and_derivatives_match_the_oracles(seed):
    rng = random.Random(f"ratfunc-{seed}")
    operands = _operands(rng)
    for a in operands:
        for b in operands:
            _same_rf(a + b, oracle_add(a, b))
            _same_rf(a - b, oracle_add(a, oracle_neg(b)))
            _same_rf(a * b, oracle_mul(a, b))
        for variable in CHART.variables:
            _same_rf(a.diff(variable), oracle_diff(a, variable))


def oracle_pow(a, n):
    """`RationalFunction.__pow__` as it was: square-and-multiply through `*`."""
    if n < 0:
        return oracle_pow(a.inverse(), -n)
    out = RationalFunction.one(a.chart)
    base = a
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


@pytest.mark.parametrize("seed", range(3))
def test_powers_match_square_and_multiply(seed):
    rng = random.Random(f"pow-{seed}")
    one, zero = RationalFunction.one(CHART), RationalFunction.zero(CHART)
    operands = _operands(rng) + [RationalFunction(random_polynomial(rng, CHART)),
                                 RationalFunction.variable(CHART, "x"), one, zero]
    over_shared_one = 0
    for a in operands:
        for n in range(-3, 5):
            if n < 0 and not a:
                with pytest.raises(ZeroDivisionError):
                    a ** n
                continue
            got = a ** n
            _same_rf(got, oracle_pow(a, n))
            if n == 0:
                assert got is one
            elif not a:
                assert got is zero
            elif n > 0 and a.den is CHART._one:
                assert got.den is CHART._one
                over_shared_one += 1
    assert over_shared_one


def test_the_operands_reach_every_shortcut():
    operands = _operands(random.Random("ratfunc-0"))
    dens = [a.den for a in operands]
    assert any(len(d.terms) == 1 and not d.is_one() for d in dens)
    assert any(d.is_one() for d in dens)
    # sums that cancel to 0, and a sum whose numerator shares a factor of g
    assert any(not (a + b).num.terms for a in operands for b in operands if a.num.terms)
    r1, r2 = operands[-6], operands[-5]
    assert not poly_gcd(r1.den, r2.den).is_one()
    total = r1 + r2
    assert total.den.terms == oracle_poly_mul(X + 1, X - 1).terms
    # d/dx of (x*y + 1)/y cancels to 1
    assert operands[-2].diff("x") == 1


@pytest.mark.parametrize("seed", range(3))
def test_scaling_a_one_term_denominator_matches_the_oracle(seed):
    rng = random.Random(f"scale-{seed}")
    for _ in range(20):
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 5))
        num = random_polynomial(rng, CHART)
        for den in (_monomial(rng, c), Polynomial.constant(CHART, c)):
            if poly_gcd(num, den).is_one():
                _same_rf(RationalFunction._reduced(num, den), oracle_reduced(num, den))
            _same_rf(RationalFunction(num, den), oracle_rf(num, den))


# ----- one-term polynomial kernels ------------------------------------------------


def _polynomials(rng):
    """Multi-term polynomials and one-term ones: monomials with coefficient 1
    and +-c, constants, 1 and 0."""
    c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return [random_polynomial(rng, CHART), random_polynomial(rng, CHART, max_terms=6),
            _monomial(rng, 1), _monomial(rng, c), _monomial(rng, -c),
            Polynomial.constant(CHART, -c), Polynomial.one(CHART), Polynomial.zero(CHART)]


@pytest.mark.parametrize("seed", range(4))
def test_products_match_the_general_product_in_value_and_order(seed):
    rng = random.Random(f"poly-mul-{seed}")
    polys = _polynomials(rng) + _polynomials(rng)
    for p in polys:
        for q in polys:
            _same_poly(p * q, oracle_poly_mul(p, q))


@pytest.mark.parametrize("seed", range(4))
def test_exact_division_matches_the_oracle_and_refuses_the_same_inputs(seed):
    rng = random.Random(f"poly-div-{seed}")
    polys = _polynomials(rng)
    divisors = [d for d in polys + _polynomials(rng) if d]
    refused = divided = 0
    for d in divisors:
        dividends = [oracle_poly_mul(p, d) for p in polys] + polys
        dividends += [m + polys[0] for m in dividends[:3]]
        for p in dividends:
            got = _division_outcome(exact_div, p, d)
            expected = _division_outcome(oracle_exact_div, p, d)
            if expected is ExactDivisionError:
                refused += 1
                assert got is ExactDivisionError
            else:
                divided += 1
                # one-term divisors keep the dividend's order, not the scan's
                _same_poly(got, expected, order=len(d.terms) > 1)
    assert refused and divided


@pytest.mark.parametrize("seed", range(4))
def test_gcd_with_a_monomial_matches_the_oracle(seed):
    rng = random.Random(f"poly-gcd-{seed}")
    polys = _polynomials(rng) + [X * Y, X * X * Z + X * Y, 3 * Y * Z - Y]
    for p in polys:
        for q in polys:
            _same_poly(poly_gcd(p, q), oracle_gcd(p, q))


# ----- scalar products, derivatives and evaluation before the shared constants -----


def oracle_zero(chart):
    return RationalFunction(Polynomial.zero(chart))


def oracle_scalar_mul(a, c):
    """The `_coerce` route: c as a rational function, then the general product."""
    return oracle_mul(a, RationalFunction(Polynomial.constant(a.chart, c)))


def oracle_parent_diff(a, variable):
    """The derivative before the shared 0, through the general constructor
    (whose division keeps the production term order)."""
    dn = a.num.diff(variable)
    if a.den.is_one():
        return oracle_reduced(dn, a.den)
    dd = a.den.diff(variable)
    if not dd.terms:
        return RationalFunction(dn, a.den)
    return RationalFunction(dn * a.den - a.num * dd, a.den * a.den)


def oracle_poly_evaluate(p, point):
    values = [Fraction(point[v]) for v in p.chart.variables]
    total = Fraction(0)
    for exps, coeff in as_fractions(p).terms.items():
        term = coeff
        for val, e in zip(values, exps):
            if e:
                term *= val ** e
        total += term
    return total


def oracle_rf_evaluate(a, point):
    den = oracle_poly_evaluate(a.den, point)
    if not den:
        raise ZeroDivisionError("denominator vanishes at the evaluation point")
    return oracle_poly_evaluate(a.num, point) / den


SCALARS = (0, 1, -1, 3, -2, Fraction(0), Fraction(1), Fraction(-1), Fraction(4),
           Fraction(2, 3), Fraction(-5, 7))

POINTS = ({"x": 2, "y": -1, "z": 3}, {"x": Fraction(1, 2), "y": Fraction(-3, 4), "z": 0},
          {"x": "2/3", "y": 5, "z": Fraction(7)}, {"x": 0, "y": 2, "z": 1},
          {"x": 1, "y": 2, "z": 1}, {"x": 1, "y": 2}, {"y": 1, "z": 1})


def _same_rf_in_order(got, expected):
    _same_rf(got, expected)
    assert list(got.num.terms) == list(expected.num.terms)
    assert list(got.den.terms) == list(expected.den.terms)


def _check_scalar_products(mul, operands):
    for a in operands:
        for c in SCALARS:
            got = mul(a, c)
            _same_rf_in_order(got, oracle_scalar_mul(a, c))
            if c == 1 or not a.num.terms:
                assert got is a
            elif not c:
                assert got is RationalFunction.zero(a.chart)


def _check_derivatives(diff, operands):
    zero_over_den = 0
    for a in operands:
        for variable in CHART.variables:
            got = diff(a, variable)
            _same_rf_in_order(got, oracle_parent_diff(a, variable))
            if not got.num.terms:
                assert got is RationalFunction.zero(a.chart)
                zero_over_den += not a.den.is_one()
    # a zero derivative over a denominator other than 1 occurs
    assert zero_over_den


def _outcome(evaluate, *args):
    try:
        value = evaluate(*args)
    except (KeyError, ZeroDivisionError) as err:
        return type(err), err.args
    assert type(value) is Fraction
    return value


def _check_evaluation(poly_evaluate, rf_evaluate, operands):
    outcomes = set()
    for a in operands:
        for point in POINTS:
            for p in (a.num, a.den):
                got = _outcome(poly_evaluate, p, point)
                assert got == _outcome(oracle_poly_evaluate, p, point)
            got = _outcome(rf_evaluate, a, point)
            assert got == _outcome(oracle_rf_evaluate, a, point)
            outcomes.add(got if isinstance(got, tuple) else Fraction)
    # values, vanishing denominators and missing coordinates all occur
    assert outcomes == {Fraction, (ZeroDivisionError, ("denominator vanishes at the "
                                                       "evaluation point",)),
                        (KeyError, ("z",)), (KeyError, ("x",))}


def _mul_without_one(a, c):
    if not a.num.terms:
        return a
    if not c:
        return RationalFunction.zero(a.chart)
    return RationalFunction._of(a.num * c, a.den)


def _mul_without_zero(a, c):
    return a if c == 1 or not a.num.terms else RationalFunction._of(a.num * c, a.den)


def _mul_rescaling_den(a, c):
    return a if c == 1 or not a.num.terms else RationalFunction._of(a.num * c, a.den * c)


def _diff_fresh_zero(a, variable):
    if a.den.is_one():
        return RationalFunction(a.num.diff(variable))
    return a.diff(variable)


def _diff_fresh_zero_over_den(a, variable):
    if not a.num.diff(variable).terms and not a.den.diff(variable).terms:
        return RationalFunction(Polynomial.zero(a.chart), Polynomial.one(a.chart))
    return a.diff(variable)


def _diff_unreduced(a, variable):
    if not a.den.diff(variable).terms:
        return RationalFunction._of(a.num.diff(variable), a.den)
    return a.diff(variable)


def _evaluate_used_only(p, point):
    total = Fraction(0)
    for exps, coeff in p.terms.items():
        term = coeff
        for v, e in zip(p.chart.variables, exps):
            if e:
                term *= Fraction(point[v]) ** e
        total += term
    return total


def _evaluate_int_zero(p, point):
    return p.evaluate(point) if p.terms else 0


def _rf_evaluate_skipping_den(a, point):
    return a.num.evaluate(point) / Fraction(1) if len(a.den.terms) == 1 \
        else a.evaluate(point)


@pytest.mark.parametrize("seed", range(3))
def test_scalar_products_match_the_coerce_route(seed):
    operands = _operands(random.Random(f"ratfunc-{seed}"))
    _check_scalar_products(lambda a, c: a * c, operands)
    _check_scalar_products(lambda a, c: c * a, operands)


@pytest.mark.parametrize("mutant", [_mul_without_one, _mul_without_zero,
                                    _mul_rescaling_den])
def test_the_scalar_product_check_catches_mutants(mutant):
    with pytest.raises(AssertionError):
        _check_scalar_products(mutant, _operands(random.Random("ratfunc-0")))


# ----- constant operands over the shared 1, against the general product -------------


def parent_mul(a, b):
    """`RationalFunction.__mul__` on two rational functions before a constant
    operand took the scalar path: the general route, kept verbatim."""
    require_same_chart(a, b)
    if not a.num.terms:
        return a
    if not b.num.terms:
        return b
    if a.den.is_one() and b.den.is_one():
        return RationalFunction._reduced(a.num * b.num, a.den)
    g1 = poly_gcd(a.num, b.den)
    g2 = poly_gcd(b.num, a.den)
    n1 = a.num if g1.is_one() else exact_div(a.num, g1)
    d2 = b.den if g1.is_one() else exact_div(b.den, g1)
    n2 = b.num if g2.is_one() else exact_div(b.num, g2)
    d1 = a.den if g2.is_one() else exact_div(a.den, g2)
    return RationalFunction._reduced(n1 * n2, d1 * d2)


CONSTANTS = (1, -1, Fraction(3, 2), 0)
OTHER = Chart("uvw", ("u", "v", "w"))


def _over_copy_of_one(num):
    """num/1 over a polynomial 1 that equals the chart's shared one but is
    another object."""
    return RationalFunction._of(num, Polynomial._of(num.chart, {num.chart.constant_exps: 1}))


def _constant_operands(rng):
    """c/1 over the shared 1 and over a copy of it, for each c in CONSTANTS,
    then polynomials over the shared 1 (variables and random ones, the
    shared 0 and 1 among them), polynomials over a copy of 1, and true
    fractions such as 1/x."""
    constants = []
    for c in CONSTANTS:
        constants.append(RationalFunction.constant(CHART, c))
        constants.append(_over_copy_of_one(Polynomial.constant(CHART, c)))
    others = [RationalFunction.variable(CHART, v) for v in CHART.variables]
    others += [RationalFunction(random_polynomial(rng, CHART)) for _ in range(6)]
    others += [RationalFunction.zero(CHART), RationalFunction.one(CHART)]
    others += [_over_copy_of_one(random_polynomial(rng, CHART)) for _ in range(2)]
    others += [1 / RationalFunction.variable(CHART, "x"),
               RationalFunction(random_polynomial(rng, CHART), X * Y + 1),
               RationalFunction(X + 1, Polynomial.constant(CHART, 3) * Y)]
    return constants, others


def _promised(a, b):
    """The operand that a * b returns, or None for a fresh value.  A zero
    operand is returned, a first.  The chart's shared 1 is the unit: x * 1
    and 1 * x are x.  Over the shared polynomial 1 the constant is read
    from b first: b = 1 returns a, and a = 1 returns b unless b is a
    constant too (a fresh 1/1 times c for c != 1 is a fresh c/1)."""
    if not a.num.terms:
        return a
    if not b.num.terms:
        return b
    if b is RationalFunction.one(CHART):
        return a
    if a is RationalFunction.one(CHART):
        return b
    one = Polynomial.one(CHART)
    if a.den is one and b.den is one:
        if b.num.is_one():
            return a
        if a.num.is_one() and not b.num.is_constant():
            return b
    return None


def _check_constant_products(mul, rng):
    constants, others = _constant_operands(rng)
    shortcuts = 0
    for c in constants:
        for x in constants + others:
            for a, b in ((c, x), (x, c)):
                got = mul(a, b)
                _same_rf_in_order(got, parent_mul(a, b))
                promised = _promised(a, b)
                if promised is None:
                    assert got is not a and got is not b
                else:
                    assert got is promised
                if got.num.terms and a.den is b.den is Polynomial.one(CHART):
                    assert got.den is Polynomial.one(CHART)
                    shortcuts += 1
    assert shortcuts
    # across charts the product is refused, zero, constant and unit operands
    # too: the shared 1 of one chart is no unit on another
    for foreign in [RationalFunction.constant(OTHER, c) for c in CONSTANTS] + \
            [RationalFunction.one(OTHER)]:
        for x in constants[:2] + others[:1] + others[-1:] + [RationalFunction.one(CHART)]:
            for a, b in ((foreign, x), (x, foreign)):
                assert _refused(mul, a, b)
    # the chart check holds on the scalar path too: a numerator on another
    # chart over this chart's shared 1 is refused
    stray = RationalFunction._of(Polynomial.constant(OTHER, 2), Polynomial.one(CHART))
    for a, b in ((stray, others[0]), (others[0], stray)):
        assert _refused(mul, a, b)


def _refused(mul, a, b):
    try:
        mul(a, b)
    except ChartMismatchError:
        return True
    return False


@pytest.mark.parametrize("seed", range(3))
def test_constant_products_match_the_general_product(seed):
    _check_constant_products(lambda a, b: a * b, random.Random(f"constant-{seed}"))


def test_a_chart_whose_shared_one_is_unset_still_refuses_a_non_value():
    """The unit check compares the operand with the chart's shared 1, which
    is unset (None) until it is first asked for: x * None must still be a
    TypeError there, not x."""
    chart = Chart("unset-one", ("u",))
    u = RationalFunction.variable(chart, "u")
    assert chart._rf_one is None
    for bad in (None, object(), "u"):
        with pytest.raises(TypeError):
            u * bad
        with pytest.raises(TypeError):
            bad * u
    assert chart._rf_one is None


def _shortcut(take):
    """A mutant of the scalar path: `take(x, c)` returns x * c for a constant
    c, or None for the general route; as in `__mul__`, the constant is looked
    for on the right first."""
    def mul(a, b):
        got = take(a, b)
        if got is None:
            got = take(b, a)
        return parent_mul(a, b) if got is None else got
    return mul


def _constant_of(x):
    return x.num.terms.get(CHART.constant_exps) if x.num.is_constant() else None


@_shortcut
def _mul_on_any_one(a, b):
    # the scalar path for any denominator equal to 1, not only the shared one
    if a.num.terms and a.den.is_one() and b.den.is_one() and _constant_of(b):
        c = _constant_of(b)
        return a if c == 1 else RationalFunction._of(a.num * c, a.den)
    return None


@_shortcut
def _mul_returning_the_constant(a, b):
    one = Polynomial.one(CHART)
    if a.num.terms and a.den is one and b.den is one and _constant_of(b) == 1:
        return b
    return None


@_shortcut
def _mul_in_reverse_order(a, b):
    one = Polynomial.one(CHART)
    c = _constant_of(b) if a.den is one and b.den is one else None
    if a.num.terms and c == 1:
        return a
    if a.num.terms and c:
        terms = {e: x * c for e, x in reversed(a.num.terms.items())}
        return RationalFunction._of(Polynomial._of(CHART, terms), one)
    return None


@_shortcut
def _mul_times_zero(a, b):
    one = Polynomial.one(CHART)
    if a.num.terms and a.den is one and b.den is one and b.num.is_constant():
        c = _constant_of(b) or Fraction(0)
        return RationalFunction._of(Polynomial._of(CHART, {e: x * c for e, x in
                                                           a.num.terms.items()}), one)
    return None


def _mul_without_chart_check(a, b):
    one = Polynomial.one(CHART)
    c = _constant_of(b) if a.den is one and b.den is one else None
    if a.num.terms and c:
        return a if c == 1 else RationalFunction._of(a.num * c, one)
    return a * b


@pytest.mark.parametrize("mutant", [_mul_on_any_one, _mul_returning_the_constant,
                                    _mul_in_reverse_order, _mul_times_zero,
                                    _mul_without_chart_check])
def test_the_constant_product_check_catches_mutants(mutant):
    with pytest.raises(AssertionError):
        _check_constant_products(mutant, random.Random("constant-0"))


@pytest.mark.parametrize("seed", range(3))
def test_derivatives_match_the_parent_derivative_in_order(seed):
    _check_derivatives(RationalFunction.diff, _operands(random.Random(f"ratfunc-{seed}")))


@pytest.mark.parametrize("mutant", [_diff_fresh_zero, _diff_fresh_zero_over_den,
                                    _diff_unreduced])
def test_the_derivative_check_catches_mutants(mutant):
    with pytest.raises(AssertionError):
        _check_derivatives(mutant, _operands(random.Random("ratfunc-0")))


@pytest.mark.parametrize("seed", range(3))
def test_evaluation_matches_the_oracle_and_raises_the_same_errors(seed):
    _check_evaluation(Polynomial.evaluate, RationalFunction.evaluate,
                      _operands(random.Random(f"ratfunc-{seed}")))


@pytest.mark.parametrize("poly_evaluate, rf_evaluate", [
    (_evaluate_used_only, RationalFunction.evaluate),
    (_evaluate_int_zero, RationalFunction.evaluate),
    (Polynomial.evaluate, _rf_evaluate_skipping_den),
], ids=["reads-used-variables-only", "int-zero", "skips-one-term-denominators"])
def test_the_evaluation_check_catches_mutants(poly_evaluate, rf_evaluate):
    with pytest.raises(AssertionError):
        _check_evaluation(poly_evaluate, rf_evaluate,
                          _operands(random.Random("ratfunc-0")))


# ----- the shared constants ---------------------------------------------------------


def test_a_negated_zero_is_the_shared_zero():
    """-0 and c - 0 for a zero c, whether or not the 0 is the shared one,
    and x - x through `__rsub__`, are the shared 0; a nonzero value still
    negates to a fresh value equal to the oracle's."""
    zero = RationalFunction.zero(CHART)
    fresh = RationalFunction(Polynomial.zero(CHART))   # a 0 that is not the shared one
    assert fresh is not zero and fresh == zero
    for z in (zero, fresh):
        assert -z is zero
        for c in (0, Fraction(0), Polynomial.zero(CHART)):
            assert c - z is zero
    two = RationalFunction.constant(CHART, 2)
    assert 2 - two is zero and Polynomial.constant(CHART, 2) - two is zero
    for a in _operands(random.Random("ratfunc-0")):
        if a:
            assert -a is not a
            _same_rf(-a, oracle_neg(a))



def test_shared_constants_are_built_once_and_never_changed(monkeypatch):
    assert RationalFunction.zero(CHART) is RationalFunction.zero(CHART)
    assert RationalFunction.one(CHART) is RationalFunction.one(CHART)
    assert Polynomial.one(CHART) is Polynomial.one(CHART)
    assert RationalFunction.zero(CHART) == oracle_zero(CHART)
    charts = []
    chart_init = Chart.__init__

    def recording_init(self, *args):
        chart_init(self, *args)
        charts.append(self)

    monkeypatch.setattr(Chart, "__init__", recording_init)
    code, _ = run_document(json.loads(SHIPPED.read_text()))
    assert code == 0
    gl3_chart = _gl3_pass()[0].chart
    monkeypatch.undo()
    filled = [0, 0, 0]
    for chart in charts + [CHART]:
        one = {chart.constant_exps: Fraction(1)}
        if chart._one is not None:
            filled[0] += 1
            assert chart._one.terms == one
        if chart._rf_zero is not None:
            filled[1] += 1
            assert chart._rf_zero.num.terms == {} and chart._rf_zero.den.terms == one
        if chart._rf_one is not None:
            filled[2] += 1
            assert chart._rf_one.num.terms == one and chart._rf_one.den.terms == one
    assert gl3_chart in charts and gl3_chart._rf_zero is not None
    assert min(filled) >= 2


def _check_variables_and_constants(variable, constant):
    for chart in (CHART, Chart("w", ("w",))):
        for name in chart.variables:
            got = variable(chart, name)
            _same_rf_in_order(got, RationalFunction(Polynomial.variable(chart, name)))
            assert got is variable(chart, name)
            assert got is chart._rf_variables[chart.axis(name)]
        for c in SCALARS + ("2/3",):
            got = constant(chart, c)
            _same_rf_in_order(got, RationalFunction(Polynomial.constant(chart, c)))
            for x in got.num.terms.values():
                assert_stored(x)
            if not Fraction(c):
                assert got is RationalFunction.zero(chart)
        with pytest.raises(UnknownVariableError):
            variable(chart, "v")


def test_variables_and_constants_are_canonical_and_shared():
    _check_variables_and_constants(RationalFunction.variable, RationalFunction.constant)


def _variable_fresh(chart, name):
    return RationalFunction(Polynomial.variable(chart, name))


def _constant_fresh_zero(chart, c):
    return RationalFunction(Polynomial.constant(chart, c))


def _constant_int(chart, c):
    if not Fraction(c):
        return RationalFunction.zero(chart)
    return RationalFunction._of(Polynomial._of(chart, {chart.constant_exps: c}),
                                Polynomial.one(chart))


@pytest.mark.parametrize("variable, constant", [
    (_variable_fresh, RationalFunction.constant),
    (RationalFunction.variable, _constant_fresh_zero),
    (RationalFunction.variable, _constant_int),
], ids=["fresh-variable", "fresh-zero-constant", "unconverted-constant"])
def test_the_variable_and_constant_check_catches_mutants(variable, constant):
    with pytest.raises(AssertionError):
        _check_variables_and_constants(variable, constant)


# ----- the derivative memo ------------------------------------------------------------


def oracle_quotient_rule(a, variable):
    """`diff` without its memo: the quotient rule with the canonical-operand
    shortcuts, taken afresh on every call."""
    dn = a.num.diff(variable)
    if a.den.is_one():
        return RationalFunction._reduced(dn, a.den)
    dd = a.den.diff(variable)
    if not dd.terms:
        if not dn.terms:
            return RationalFunction.zero(a.chart)
        return RationalFunction(dn, a.den)
    return RationalFunction(dn * a.den - a.num * dd, a.den * a.den)


def _memo_operands(rng):
    """Polynomials, the `_operands` over monomial and multi-term denominators,
    and the chart's shared 0, 1 and variables."""
    polynomials = [RationalFunction(random_polynomial(rng, CHART)) for _ in range(6)]
    shared = [RationalFunction.zero(CHART), RationalFunction.one(CHART)]
    shared += [RationalFunction.variable(CHART, v) for v in CHART.variables]
    return polynomials + _operands(rng) + shared


def _check_memo(diff, operands, rng):
    requests = [(a, v) for a in operands for v in CHART.variables] * 3
    rng.shuffle(requests)
    first = {}
    for a, variable in requests:
        got = diff(a, variable)
        _same_rf_in_order(got, oracle_quotient_rule(a, variable))
        assert first.setdefault((id(a), variable), got) is got
    assert len(first) == len(operands) * len(CHART.variables)


def _memo_keyed_by(key):
    """A mutant memo that files each derivative under key(a, variable)."""
    memo = {}

    def diff(a, variable):
        k = key(a, variable)
        if k not in memo:
            memo[k] = oracle_quotient_rule(a, variable)
        return memo[k]
    return diff


@pytest.mark.parametrize("seed", range(3))
def test_the_memo_gives_the_quotient_rule_once_per_variable(seed):
    rng = random.Random(f"memo-{seed}")
    operands = _memo_operands(rng)
    dens = [a.den for a in operands]
    assert any(d.is_one() for d in dens)
    assert any(len(d.terms) == 1 and not d.is_one() for d in dens)
    assert any(len(d.terms) > 1 for d in dens)
    _check_memo(RationalFunction.diff, operands, rng)


@pytest.mark.parametrize("mutant", [oracle_quotient_rule,
                                    _memo_keyed_by(lambda a, variable: id(a)),
                                    _memo_keyed_by(lambda a, variable: variable)],
                         ids=["no-memo", "ignores-the-variable", "ignores-the-owner"])
def test_the_memo_check_catches_mutants(mutant):
    rng = random.Random("memo-0")
    with pytest.raises(AssertionError):
        _check_memo(mutant, _memo_operands(rng), rng)


def test_a_repeated_request_returns_the_same_object():
    a = oracle_rf(X * X * Y + 1, X + Y)
    assert getattr(a, "_partials", None) is None
    dx = a.diff("x")
    assert a.diff("x") is dx and a._partials == {0: dx, 1: a.diff("y")}
    assert a.diff("y") is a.diff("y") is not dx
    z = RationalFunction.variable(CHART, "z")
    assert z.diff("z") is z.diff("z") == 1


def test_an_unknown_variable_raises_and_caches_nothing():
    fresh = oracle_rf(X + 1, Y - 2)
    used = oracle_rf(X * Y + 1, Y)
    dy = used.diff("y")
    for a in (fresh, used, RationalFunction.variable(CHART, "x"), RationalFunction.zero(CHART)):
        before = dict(getattr(a, "_partials", None) or {})
        for _ in range(2):
            with pytest.raises(UnknownVariableError):
                a.diff("w")
        assert (getattr(a, "_partials", None) or {}) == before
    assert used.diff("y") is dy


def _constant_or_variable_over_one(a):
    terms = a.num.terms
    return a.den.is_one() and (a.num.is_constant() or (
        len(terms) == 1 and list(terms.values()) == [1] and a.num.total_degree() == 1))


def _axis_exps(chart, variable):
    exps = [0] * chart.dim
    exps[chart.axis(variable)] = 1
    return tuple(exps)


def test_a_constant_or_variable_over_the_shared_one_fills_its_row_at_once():
    chart = Chart("memo-row", ("x", "y", "z"))
    zero, one = RationalFunction.zero(chart), RationalFunction.one(chart)
    variables = [RationalFunction.variable(chart, v) for v in chart.variables]
    fresh_y = RationalFunction._of(Polynomial.variable(chart, "y"), Polynomial.one(chart))
    constants = [zero, one, RationalFunction.constant(chart, Fraction(-2, 3)),
                 RationalFunction.constant(chart, 5), -zero]
    for a in variables + [fresh_y] + constants:
        assert _constant_or_variable_over_one(a)
        for variable in ("z", "x", "y"):
            got = a.diff(variable)
            _same_rf_in_order(got, oracle_quotient_rule(a, variable))
            assert got is (one if a.num.terms.get(_axis_exps(chart, variable)) else zero)
        # the whole gradient at once: {axis: shared 1} for a variable, {} for a constant
        assert a._partials == {axis: one for axis, v in enumerate(chart.variables)
                               if a.num.terms.get(_axis_exps(chart, v))}
        assert all(d is one for d in a._partials.values())
    # any other value holds the axes of the variables it contains, here x
    equal_one = Polynomial.constant(chart, 1)
    lazy = [RationalFunction._of(Polynomial.variable(chart, "x"), equal_one),
            RationalFunction._of(equal_one, equal_one),
            RationalFunction(Polynomial.variable(chart, "x") * 2),
            RationalFunction(Polynomial.variable(chart, "x") ** 2),
            RationalFunction(Polynomial.variable(chart, "x") + 1),
            one / variables[0]]
    for a, axes in zip(lazy, [[0], [], [0], [0], [0], [0]]):
        _same_rf_in_order(a.diff("y"), oracle_quotient_rule(a, "y"))
        assert a.diff("y") is zero and list(a._partials) == axes


def _gl3_pass():
    """The gl3-iat pass of the benchmark, on the scene's own frame order."""
    scene = gln_scene(3)
    conn = scene.connect()
    assert is_flat_affine(conn)
    _, fields = scene.invariant_fields()
    control = VectorField(scene.chart, ["x11^2"] + ["0"] * 8)
    assert all(is_infinitesimal_affine(conn, f).holds for f in fields)
    assert not is_infinitesimal_affine(conn, control).holds
    solutions = solve_iat_ansatz(conn, list(scene.chart.variables))
    assert len(solutions) == 81
    return conn, fields, control, solutions


def test_a_gl3_pass_takes_each_derivative_at_most_once(monkeypatch):
    built = Counter()
    owners = []   # keeps every owner alive, so that no id is reused
    gradient = RationalFunction._gradient

    def counting_gradient(self):
        requests.append(1)
        if getattr(self, "_partials", None) is None:
            owners.append(self)
            built[id(self)] += 1
        return gradient(self)

    requests = []
    taken = []
    quotient_rule = RationalFunction._quotient_rule
    monkeypatch.setattr(RationalFunction, "_quotient_rule",
                        lambda self, var: taken.append(self) or quotient_rule(self, var))
    monkeypatch.setattr(RationalFunction, "_gradient", counting_gradient)
    _gl3_pass()
    assert built and max(built.values()) == 1
    # most requests are answered from the memo
    assert len(requests) > 2 * len(built)
    # every value of the pass is over the shared 1, so no quotient rule runs
    assert all(a.den is a.chart._one for a in owners)
    assert taken == []


def test_the_shipped_document_gives_the_same_reports_twice_in_one_process():
    doc = SHIPPED.read_text()
    runs = []
    for _ in range(2):
        code, reports = run_document(json.loads(doc))
        assert code == 0
        runs.append([json.dumps({k: v for k, v in r.items() if k != "elapsed_ms"})
                     for r in reports])
    assert len(runs[0]) == 11 and runs[0] == runs[1]


def test_every_live_memo_entry_is_its_owners_derivative(monkeypatch):
    documents = []   # keeps the loaded connections and fields, and their memos
    load_document = cli.load_document
    monkeypatch.setattr(cli, "load_document",
                        lambda doc: documents.append(load_document(doc)) or documents[-1])
    code, _ = run_document(json.loads(SHIPPED.read_text()))
    assert code == 0 and len(documents) == 1
    kept = _gl3_pass()
    monkeypatch.undo()
    entries = Counter()
    for owner in gc.get_objects():
        if type(owner) is not RationalFunction:
            continue
        gradient = getattr(owner, "_partials", None)
        if gradient is None:
            continue
        for axis, variable in enumerate(owner.chart.variables):
            if axis in gradient:
                _same_rf_in_order(gradient[axis], oracle_quotient_rule(owner, variable))
                assert owner.diff(variable) is gradient[axis]
            else:
                assert oracle_quotient_rule(owner, variable).is_zero()
            entries[id(owner.chart)] += 1
    # a GL3 pass leaves the gradient {axis: shared 1} of each chart variable
    # and {} of the shared 1, and the control's x11^2 holds its one partial
    gl3_chart = kept[0].chart
    one = RationalFunction.one(gl3_chart)
    assert one._partials == {}
    for axis, v in enumerate(gl3_chart.variables):
        gradient = RationalFunction.variable(gl3_chart, v)._partials
        assert list(gradient) == [axis] and gradient[axis] is one
    square = kept[2].components[0]
    assert str(square) == "x11^2" and list(square._partials) == [gl3_chart.axis("x11")]
    assert sum(entries[id(chart)] for chart in documents[0].charts.values()) > 50
