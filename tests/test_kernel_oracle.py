"""Dual-route verification of the in-place polynomial kernels.

Sums, differences, products, exact division and the pseudo-remainder update
one dict in place.  The oracles below are the earlier kernels, which built a
fresh polynomial for every step (a negation for each difference, a product
and a difference for each quotient term).  Both routes must give equal,
canonical results, and exact division must refuse exactly the same inputs.
"""
import random
from fractions import Fraction

import pytest

from flataffine import Chart, Polynomial
from flataffine.symcore import ExactDivisionError, exact_div
from flataffine.symcore.polynomial import _coerce_scalar, _lc_wrt, _prem
from helpers import assert_canonical, random_polynomial


# ----- the earlier kernels (test oracles only) ------------------------------------


def _as_polynomial(p, other):
    if isinstance(other, Polynomial):
        return other
    return Polynomial.constant(p.chart, _coerce_scalar(other))


def oracle_add(p, q):
    q = _as_polynomial(p, q)
    out = dict(p.terms)
    for exps, coeff in q.terms.items():
        c = out.get(exps, Fraction(0)) + coeff
        if c:
            out[exps] = c
        else:
            out.pop(exps, None)
    return Polynomial._of(p.chart, out)


def oracle_neg(p):
    return Polynomial._of(p.chart, {e: -c for e, c in p.terms.items()})


def oracle_sub(p, q):
    return oracle_add(p, oracle_neg(_as_polynomial(p, q)))


def oracle_mul(p, q):
    if not isinstance(q, Polynomial):
        s = _coerce_scalar(q)
        if not s:
            return Polynomial.zero(p.chart)
        return Polynomial._of(p.chart, {e: c * s for e, c in p.terms.items()})
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            c = out.get(key, Fraction(0)) + c1 * c2
            if c:
                out[key] = c
            else:
                del out[key]
    return Polynomial._of(p.chart, out)


def oracle_exact_div(p, d):
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    if d.is_constant():
        return oracle_mul(p, 1 / d.leading_coefficient())
    d_exps = d.leading_exponents()
    d_coeff = d.terms[d_exps]
    rem = p
    out = {}
    while not rem.is_zero():
        r_exps = rem.leading_exponents()
        q_exps = tuple(a - b for a, b in zip(r_exps, d_exps))
        if any(e < 0 for e in q_exps):
            raise ExactDivisionError(f"({p}) is not divisible by ({d})")
        q_coeff = rem.terms[r_exps] / d_coeff
        out[q_exps] = q_coeff
        rem = oracle_sub(rem, oracle_mul(Polynomial._of(p.chart, {q_exps: q_coeff}), d))
    return Polynomial._of(p.chart, out)


def _shift(p, axis, k):
    out = {}
    for exps, coeff in p.terms.items():
        new = list(exps)
        new[axis] += k
        out[tuple(new)] = coeff
    return Polynomial._of(p.chart, out)


def oracle_prem(a, b, axis):
    db = b.degree_in(axis)
    lcb = _lc_wrt(b, axis)
    rem = a
    steps = a.degree_in(axis) - db + 1
    while not rem.is_zero() and rem.degree_in(axis) >= db:
        dr = rem.degree_in(axis)
        rem = oracle_sub(oracle_mul(lcb, rem),
                         _shift(oracle_mul(_lc_wrt(rem, axis), b), axis, dr - db))
        steps -= 1
    for _ in range(max(steps, 0)):
        rem = oracle_mul(lcb, rem)
    return rem


# ----- seeded inputs ----------------------------------------------------------------

CHARTS = [Chart("c1", ("x",)), Chart("c2", ("x", "y")), Chart("c3", ("x", "y", "z")),
          Chart("c4", ("a", "b", "c", "d"))]


def _operands(rng, chart):
    """Random polynomials, then ones whose sums and products cancel: p and -p,
    p and its scalar multiples, (u + v) and (u - v); constants, zero and one."""
    p = random_polynomial(rng, chart)
    q = random_polynomial(rng, chart)
    u = random_polynomial(rng, chart, max_degree=2, max_terms=2)
    v = random_polynomial(rng, chart, max_degree=2, max_terms=2)
    s = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return [p, q, oracle_neg(p), oracle_mul(p, s), oracle_add(u, v), oracle_sub(u, v),
            Polynomial.constant(chart, s), Polynomial.constant(chart, -s),
            Polynomial.zero(chart), Polynomial.one(chart)]


def _scalars(rng):
    return [0, 1, -1, rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))]


def _same(got, expected):
    assert_canonical(got)
    assert_canonical(expected)
    assert got.chart is expected.chart
    assert got.terms == expected.terms


def _division_outcome(divide, p, d):
    try:
        return divide(p, d)
    except ExactDivisionError:
        return ExactDivisionError


@pytest.mark.parametrize("chart", CHARTS, ids=[c.name for c in CHARTS])
@pytest.mark.parametrize("seed", range(4))
def test_sums_differences_and_products_match_the_oracles(chart, seed):
    rng = random.Random(f"ring-{chart.name}-{seed}")
    for _ in range(3):
        operands = _operands(rng, chart)
        for p in operands:
            for q in operands:
                _same(p + q, oracle_add(p, q))
                _same(p - q, oracle_sub(p, q))
                _same(p * q, oracle_mul(p, q))
            for s in _scalars(rng):
                _same(p + s, oracle_add(p, s))
                _same(s + p, oracle_add(p, s))
                _same(p - s, oracle_sub(p, s))
                _same(s - p, oracle_add(oracle_neg(p), s))
                _same(p * s, oracle_mul(p, s))
                _same(s * p, oracle_mul(p, s))


def test_cancelling_sums_and_products_leave_no_zero_term():
    chart = CHARTS[1]
    x, y = (Polynomial.variable(chart, v) for v in chart.variables)
    for p in [(x + y) * (x - y), (x + 1) * (x - 1) - x * x, x - x, x + (-x),
              (x * y + 1) - 1, 2 * x - x - x]:
        assert_canonical(p)
    assert (x + y) * (x - y) == x * x - y * y
    assert ((x + 1) * (x - 1) - x * x) == -1
    assert not (2 * x - x - x).terms


@pytest.mark.parametrize("chart", CHARTS, ids=[c.name for c in CHARTS])
@pytest.mark.parametrize("seed", range(4))
def test_exact_division_matches_the_oracle_and_refuses_the_same_inputs(chart, seed):
    rng = random.Random(f"division-{chart.name}-{seed}")
    refused = divided = 0
    for _ in range(2):
        operands = _operands(rng, chart)
        products = [oracle_mul(a, b) for a in operands[:5] for b in operands[1:6]]
        # multiples of a divisor, non-multiples (a product plus a random
        # polynomial), and the operands themselves
        dividends = products + [oracle_add(m, operands[1]) for m in products[:6]] + operands
        for d in operands:
            if d.is_zero():
                with pytest.raises(ZeroDivisionError):
                    exact_div(operands[0], d)
                continue
            for p in dividends:
                got = _division_outcome(exact_div, p, d)
                expected = _division_outcome(oracle_exact_div, p, d)
                if expected is ExactDivisionError:
                    refused += 1
                    assert got is ExactDivisionError
                else:
                    divided += 1
                    _same(got, expected)
                    assert oracle_mul(got, d) == p
    assert refused and divided


@pytest.mark.parametrize("chart", CHARTS, ids=[c.name for c in CHARTS])
@pytest.mark.parametrize("seed", range(4))
def test_pseudo_remainder_matches_the_oracle(chart, seed):
    rng = random.Random(f"prem-{chart.name}-{seed}")
    for _ in range(4):
        operands = [o for o in _operands(rng, chart) if o]
        for a in operands[:6]:
            for b in operands[:6]:
                for axis in range(chart.dim):
                    _same(_prem(a, b, axis), oracle_prem(a, b, axis))
