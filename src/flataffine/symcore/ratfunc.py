"""Rational functions: quotients of polynomials in canonical form.

Normalization: numerator and denominator are divided by their polynomial gcd,
then both are scaled so the denominator has coprime integer coefficients and a
positive graded-lex leading coefficient.  After that, structural equality is
semantic equality.  A canonical denominator therefore has int coefficients
(polynomial.py stores an integral coefficient as an int), so only a numerator
can hold a Fraction; the scaling divides through the one exact quotient of
polynomial.py, which stays in ints where the division is exact.

When every denominator involved is the polynomial 1, the gcd and the scaling
are skipped: a polynomial given without a denominator, and sums, products
and derivatives of polynomials, are built over 1 directly.  That is exact,
not a shortcut: 1 is a unit, so p/1 is in lowest terms, and 1 is already
primitive with a positive leading coefficient, so the general path would
return the same canonical p/1.  A product with one true
denominator still takes the cross-gcd.

Canonical operands n1/d1 and n2/d2 are in lowest terms, which makes more work
redundant (one line of proof each):

- over coprime denominators the sum is in lowest terms (Henrici): a prime
  factor of d1 divides n1*d2 + n2*d1 only if it divides n1 or d2;
- otherwise, with g = gcd(d1, d2) = d1/e1 = d2/e2, n = n1*e2 + n2*e1 is coprime
  to e1 and e2 as above, so gcd(n, g*e1*e2) = gcd(n, g), the only gcd taken;
- along a variable d does not contain, d' = 0, so (n'd - nd')/d^2 = n'/d,
  reduced by gcd(n', d);
- a one-term denominator c*x^e has content |c| and leading coefficient c, so
  scaling divides by c alone;
- a product with a scalar c is the operand for c = 1, 0 for c = 0, and
  otherwise (c*n)/d: c is a unit, so c*n/d is in lowest terms and the
  canonical d is kept;
- a product of n/1 with a constant c/1 != 0, both over the chart's shared
  polynomial 1, is the scalar product n/1 * c: n/1 for c = 1 or n = 0, and
  otherwise c*n/1, canonical since c is a unit and the denominator is 1,
  with the terms in the order `_times_term` gives them;
- a product with the chart's shared 1 is the other operand, returned
  before the scalar and the general path: 1 is the unit of Q(x) and the
  operand is canonical already (the shared 1 of one chart times a value on
  another is still refused);
- `zero` and `one` return the chart's shared 0/1 and 1/1, `variable` the
  chart's shared x/1, and every result that is 0 (a vanishing derivative
  over a denominator free of the variable, a sum that cancels, the negation
  of a 0) is the shared 0: no operation changes a rational function after
  it is built;
- a variable x/1 and a constant c/1 are canonical as built: 1 is a unit
  and primitive with a positive leading coefficient;
- evaluation over the denominator 1 is the numerator's value: n/1 = n, and
  1 never vanishes;
- (n/d)^k for k > 0 is n^k/d^k: Q[x] is a UFD, so gcd(n^k, d^k) = 1; by
  Gauss's lemma d^k is primitive, and lc(d^k) = lc(d)^k > 0 in graded lex.

Each value keeps one gradient, built on its first `diff`: {axis: partial}
over the variables that its numerator or denominator contains (the
denominator is not read when it is the chart's shared 1), in ascending axis,
with every zero partial dropped.  That is exact: along a variable that
neither n nor d contains, (n'd - nd')/d^2 = 0, so that partial is never
computed or stored, and `diff` answers it with the chart's shared 0.  Over the
shared 1 a partial is n'/1, canonical as built since 1 is a unit, and the
chart's shared 1 when n' = 1, so a variable's gradient is {axis: shared 1}
and a constant's is {}; any other value takes the quotient rule above along
each of its variables.  The partials along the variables a value contains
are taken together, so a later `diff` and every derivative kernel read the
same objects.  The memo is exact because the value is immutable: `num` and
`den` are set only while it is built, and polynomial terms are never written
after that (an AST test over the package holds every module to both), so the
quotient rule on the same operands would build an equal canonical result.
The memo starts unset, so building a value costs nothing more.
"""
from __future__ import annotations

from fractions import Fraction

from .chart import Chart, require_same_chart
from .polynomial import Polynomial, _divided, _quotient, _rational, exact_div, poly_gcd


def _coerce(chart: Chart, value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(chart, value)
    return None


class RationalFunction:
    __slots__ = ("num", "den", "_partials")

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
    def _of(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Wrap a num/den that is already canonical, without checks."""
        self = cls.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def _reduced(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """Build from a fraction already in lowest terms (skips the gcd)."""
        if not num.terms:
            return cls.zero(num.chart)
        self = cls.__new__(cls)
        self._scale(num, den)
        return self

    def _scale(self, num: Polynomial, den: Polynomial) -> None:
        """Store num/den, in lowest terms, in canonical form: zero as 0/1,
        otherwise the denominator primitive with a positive leading coefficient."""
        if num.is_zero():
            den = Polynomial.one(num.chart)
        elif len(den.terms) == 1:   # c*x^e: num/c over x^e
            ((exps, c),) = den.terms.items()
            if c != 1:
                num = Polynomial._of(num.chart, _divided(num.terms, c))
                den = Polynomial._of(num.chart, {exps: 1})
        else:
            scale = den.content()
            if den.leading_coefficient() < 0:
                scale = -scale
            if scale != 1:
                num = Polynomial._of(num.chart, _divided(num.terms, scale))
                den = Polynomial._of(num.chart, _divided(den.terms, scale))
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, chart: Chart) -> "RationalFunction":
        """The chart's shared 0."""
        zero = chart._rf_zero
        if zero is None:
            zero = chart._rf_zero = cls._of(Polynomial.zero(chart), Polynomial.one(chart))
        return zero

    @classmethod
    def one(cls, chart: Chart) -> "RationalFunction":
        """The chart's shared 1."""
        one = chart._rf_one
        if one is None:
            one = chart._rf_one = cls._of(Polynomial.one(chart), Polynomial.one(chart))
        return one

    @classmethod
    def constant(cls, chart: Chart, value) -> "RationalFunction":
        """c/1, or the chart's shared 0 for c = 0."""
        value = _rational(value)
        if not value:
            return cls.zero(chart)
        return cls._of(Polynomial._of(chart, {chart.constant_exps: value}), Polynomial.one(chart))

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "RationalFunction":
        """The chart's shared x/1; UnknownVariableError for a name not on it."""
        axis = chart.axis(name)
        var = chart._rf_variables[axis]
        if var is None:
            exps = [0] * chart.dim
            exps[axis] = 1
            var = chart._rf_variables[axis] = cls._of(
                Polynomial._of(chart, {tuple(exps): 1}), Polynomial.one(chart))
        return var

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
        return bool(self.num.terms)

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
            return RationalFunction._reduced(self.num * other.den + other.num * self.den,
                                             self.den * other.den)
        e1 = exact_div(self.den, g)
        e2 = exact_div(other.den, g)
        num = self.num * e2 + other.num * e1
        d1 = self.den
        if num.terms:
            h = poly_gcd(num, g)
            if not h.is_one():   # h divides g, hence d1
                num = exact_div(num, h)
                d1 = exact_div(d1, h)
        return RationalFunction._reduced(num, d1 * e2)

    __radd__ = __add__

    def __neg__(self):
        if not self.num.terms:
            return RationalFunction.zero(self.num.chart)
        return RationalFunction._of(-self.num, self.den)

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
        chart = self.num.chart
        if other.__class__ is RationalFunction:
            if other is chart._rf_one:   # x * 1 = x
                return self
            if self is chart._rf_one:   # 1 * x = x
                require_same_chart(self, other)
                return other
            one = chart._one
            if self.den is one and other.den is one:   # a constant c/1 takes the scalar path
                require_same_chart(self, other)
                constant = chart.constant_exps
                if len(b := other.num.terms) == 1 and constant in b:
                    return self * b[constant]
                if len(a := self.num.terms) == 1 and constant in a:
                    return other * a[constant]
        if isinstance(other, (int, Fraction)):
            if other == 1 or not self.num.terms:
                return self
            if not other:
                return RationalFunction.zero(self.chart)
            return RationalFunction._of(self.num * other, self.den)
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
        if n == 0:
            return RationalFunction.one(self.chart)
        if not self.num.terms:
            return RationalFunction.zero(self.chart)
        den = self.den
        return RationalFunction._of(self.num ** n, den if den is self.chart._one else den ** n)

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
        """The partial derivative along `variable`, normalized: its entry in
        `_gradient`, or the chart's shared 0 along a variable the value does
        not contain.  An unknown variable raises before anything is stored."""
        chart = self.num.chart
        axis = chart.axis(variable)
        d = self._gradient().get(axis)
        return RationalFunction.zero(chart) if d is None else d

    def _gradient(self) -> dict:
        """{axis: nonzero partial} over the variables that `num`, or `den`
        unless it is the chart's shared 1, contains, in ascending axis; built
        on first need and kept (see the module docstring)."""
        try:
            return self._partials
        except AttributeError:
            pass
        num, den = self.num, self.den
        chart = num.chart
        shared = den is chart._one
        # the exponent columns of num's terms, and of den's unless it is the
        # shared 1: an axis is a variable of the value iff its column is nonzero
        columns = zip(*num.terms) if shared else zip(*num.terms, *den.terms)
        gradient = {}
        for axis, column in enumerate(columns):
            if not any(column):
                continue
            variable = chart.variables[axis]
            if shared:   # n'/1 is canonical, and n' != 0 along a variable of n
                dn = num.diff(variable)
                gradient[axis] = RationalFunction.one(chart) if dn.is_one() \
                    else RationalFunction._of(dn, den)
            elif d := self._quotient_rule(variable):
                gradient[axis] = d
        self._partials = gradient
        return gradient

    def _quotient_rule(self, variable: str) -> "RationalFunction":
        dn = self.num.diff(variable)
        if self.den.is_one():
            # a fraction over 1 is already in lowest terms
            return RationalFunction._reduced(dn, self.den)
        dd = self.den.diff(variable)
        if not dd.terms:
            if not dn.terms:
                return RationalFunction.zero(self.chart)
            return RationalFunction(dn, self.den)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def evaluate(self, point) -> Fraction:
        if self.den.is_one():
            return self.num.evaluate(point)
        den = self.den.evaluate(point)
        if not den:
            raise ZeroDivisionError("denominator vanishes at the evaluation point")
        return Fraction(_quotient(self.num.evaluate(point), den))

    # ----- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"<RationalFunction {self} on {self.chart.name!r}>"
