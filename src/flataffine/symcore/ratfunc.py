"""Rational functions: quotients of polynomials in canonical form.

Normalization: numerator and denominator are divided by their polynomial gcd,
then both are scaled so the denominator has coprime integer coefficients and a
positive graded-lex leading coefficient.  After that, structural equality is
semantic equality.

When every denominator involved is the polynomial 1, the gcd and the scaling
are skipped: a polynomial given without a denominator, and sums, products
and derivatives of polynomials, are built over 1 directly.  That is exact,
not a shortcut: 1 is a unit, so p/1 is in lowest terms, and 1 is already
primitive with a positive leading coefficient, so the general path would
return the same canonical p/1.  A product with one true
denominator still takes the cross-gcd.
"""
from __future__ import annotations

from fractions import Fraction

from .chart import Chart, require_same_chart
from .polynomial import Polynomial, exact_div, poly_gcd


def _coerce(chart: Chart, value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction(Polynomial.constant(chart, value))
    return None


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:   # num/1 is in lowest terms: no gcd
            self._scale(num, Polynomial.one(num.chart))
            return
        require_same_chart(num, den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        if not num.is_zero():
            g = poly_gcd(num, den)
            if not g.is_one():
                num = exact_div(num, g)
                den = exact_div(den, g)
        self._scale(num, den)

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Build from a fraction already in lowest terms (skips the gcd)."""
        self = cls.__new__(cls)
        self._scale(num, den)
        return self

    def _scale(self, num: Polynomial, den: Polynomial) -> None:
        """Store num/den, in lowest terms, in canonical form: zero as 0/1,
        otherwise the denominator primitive with a positive leading coefficient."""
        if num.is_zero():
            den = Polynomial.one(num.chart)
        elif not den.is_one():
            scale = den.content()
            if den.leading_coefficient() < 0:
                scale = -scale
            if scale != 1:
                num = num * (1 / scale)
                den = den * (1 / scale)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, chart: Chart) -> "RationalFunction":
        return cls(Polynomial.zero(chart))

    @classmethod
    def one(cls, chart: Chart) -> "RationalFunction":
        return cls(Polynomial.one(chart))

    @classmethod
    def constant(cls, chart: Chart, value) -> "RationalFunction":
        return cls(Polynomial.constant(chart, value))

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "RationalFunction":
        return cls(Polynomial.variable(chart, name))

    @property
    def chart(self) -> Chart:
        return self.num.chart

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # ----- field arithmetic ------------------------------------------------

    def __add__(self, other):
        other = _coerce(self.chart, other)
        if other is None:
            return NotImplemented
        require_same_chart(self, other)
        # a canonical operand plus zero is already the canonical sum
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den == other.den:
            if self.den.is_one():
                return RationalFunction._reduced(self.num + other.num, self.den)
            return RationalFunction(self.num + other.num, self.den)
        g = poly_gcd(self.den, other.den)
        if g.is_one():
            return RationalFunction(self.num * other.den + other.num * self.den,
                                    self.den * other.den)
        d1 = exact_div(self.den, g)
        d2 = exact_div(other.den, g)
        return RationalFunction(self.num * d2 + other.num * d1, self.den * d2)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = _coerce(self.chart, other)
        if other is None:
            return NotImplemented
        require_same_chart(self, other)
        if not other.num.terms:
            return self
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(self.chart, other)
        if other is None:
            return NotImplemented
        require_same_chart(self, other)
        if not self.num.terms:
            return self
        if not other.num.terms:
            return other
        if self.den.is_one() and other.den.is_one():
            return RationalFunction._reduced(self.num * other.num, self.den)
        # cross-reduce so the product of reduced fractions stays reduced
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        n1 = self.num if g1.is_one() else exact_div(self.num, g1)
        d2 = other.den if g1.is_one() else exact_div(other.den, g1)
        n2 = other.num if g2.is_one() else exact_div(other.num, g2)
        d1 = self.den if g2.is_one() else exact_div(self.den, g2)
        return RationalFunction._reduced(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunction":
        if self.num.is_zero():
            raise ZeroDivisionError("inversion of the zero rational function")
        return RationalFunction._reduced(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(self.chart, other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(self.chart, other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("powers must be integers")
        if n < 0:
            return self.inverse() ** (-n)
        out = RationalFunction.one(self.chart)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalFunction):
            return (self.chart == other.chart
                    and self.num == other.num and self.den == other.den)
        if isinstance(other, (int, Fraction, Polynomial)):
            coerced = _coerce(self.chart, other)
            return self.num == coerced.num and self.den == coerced.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    # ----- calculus ---------------------------------------------------------

    def diff(self, variable: str) -> "RationalFunction":
        """Quotient-rule derivative, normalized."""
        dn = self.num.diff(variable)
        if self.den.is_one():
            # a fraction over 1 is already in lowest terms
            return RationalFunction._reduced(dn, self.den)
        dd = self.den.diff(variable)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point) -> Fraction:
        den = self.den.evaluate(point)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den

    # ----- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<RationalFunction {self} on {self.chart.name!r}>"
