"""Multivariate polynomials over exact rationals, in canonical form.

A polynomial is a map from exponent vectors to nonzero Fraction coefficients.
Printing and leading-term selection use descending graded-lexicographic order
in the chart's variable order, which makes the printed form canonical.

The arithmetic kernels update one fresh dict in place: each term costs one
membership test, a key that cancels is dropped at once, and exact division and
the pseudo-remainder keep their remainder in a single dict.  Every stored
coefficient stays a nonzero Fraction.

Shortcuts that return the general path's value (one line of proof each):

- a product with one term c*x^e shifts exponents by e and scales by c: the
  shift is injective, so no keys collide and nothing cancels;
- exact division by c*x^e shifts by -e and divides by c: each term of p must
  be a multiple of x^e on its own, the test the general path makes term by term;
- the gcd with a monomial is x^m, m the least exponent of each variable in
  both: a monomial's divisors are monomials, and x^m divides every term;
- a longer division pops its remainder's leading term from a heap of
  exponents: every key of the remainder has an entry, and entries whose key
  has cancelled are skipped;
- `one` returns the chart's shared 1, built once: no kernel changes a
  polynomial's terms after it is built;
- evaluation converts a coordinate to Fraction only where a term's exponent
  uses it: the other factors are x^0 = 1, which the general product skips too.

The gcd is computed by a fraction-free subresultant remainder sequence on the
last chart variable that actually occurs, recursing on the coefficients; no
floating point enters anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm
from operator import add as _add, neg as _neg, sub as _sub

from .chart import Chart, require_same_chart

# The exact scalar type used across the package: arbitrary-precision,
# gcd-reduced, positive denominator, zero as 0/1.
Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactDivisionError(ArithmeticError):
    """A polynomial division that was expected to be exact left a remainder."""


def grlex_key(exponents):
    """Sort key for graded-lexicographic order (ascending)."""
    return (sum(exponents), exponents)


def _coerce_scalar(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


def _descending(exps):
    """Heap key: ascending order of these keys is descending graded-lex order."""
    return (-sum(exps), tuple(map(_neg, exps)), exps)


def _times_term(terms: dict, exps, coeff: Fraction) -> dict:
    """terms * coeff * x^exps as a fresh dict, in the order of `terms`."""
    if any(exps):
        if coeff == 1:
            return {tuple(map(_add, e, exps)): c for e, c in terms.items()}
        return {tuple(map(_add, e, exps)): c * coeff for e, c in terms.items()}
    if coeff == 1:
        return dict(terms)
    return {e: c * coeff for e, c in terms.items()}


def _add_scaled(out: dict, shift, scale: Fraction, terms) -> None:
    """out += scale * x^shift * terms, in place, for (exponents, coefficient)
    pairs `terms`; a coefficient that cancels leaves no key behind."""
    for exps, c in terms:
        key = tuple(map(_add, shift, exps))
        c = scale * c
        if key in out:
            c += out[key]
            if not c:
                del out[key]
                continue
        out[key] = c


class Polynomial:
    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms=None):
        self.chart = chart
        clean = {}
        if terms:
            width = chart.dim
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if not coeff:
                    continue
                exps = tuple(exps)
                if len(exps) != width:
                    raise ValueError(
                        f"exponent vector {exps} does not match chart dimension {width}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = coeff
        self.terms = clean

    # ----- constructors -------------------------------------------------

    @classmethod
    def _of(cls, chart: Chart, terms: dict) -> "Polynomial":
        """Wrap terms that are already canonical, without validation or copy.

        Every key must be an exponent tuple of the chart's width and every
        value a nonzero Fraction; outside input goes through the constructor.
        """
        self = cls.__new__(cls)
        self.chart = chart
        self.terms = terms
        return self

    @classmethod
    def zero(cls, chart: Chart) -> "Polynomial":
        return cls._of(chart, {})

    @classmethod
    def one(cls, chart: Chart) -> "Polynomial":
        """The chart's shared 1."""
        one = chart._one
        if one is None:
            one = chart._one = cls._of(chart, {chart.constant_exps: _ONE})
        return one

    @classmethod
    def constant(cls, chart: Chart, value) -> "Polynomial":
        return cls(chart, {chart.constant_exps: Fraction(value)})

    @classmethod
    def variable(cls, chart: Chart, name: str) -> "Polynomial":
        exps = [0] * chart.dim
        exps[chart.axis(name)] = 1
        return cls(chart, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, chart: Chart, exps, coeff=1) -> "Polynomial":
        return cls(chart, {tuple(exps): Fraction(coeff)})

    # ----- predicates and views ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or len(terms) == 1 and self.chart.constant_exps in terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(self.chart.constant_exps) == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, axis: int) -> int:
        """Degree in one variable (by axis index); -1 for zero."""
        if not self.terms:
            return -1
        return max(e[axis] for e in self.terms)

    def leading_exponents(self):
        """Exponent vector of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        return self.terms[self.leading_exponents()]

    def sorted_terms(self):
        """Terms in descending graded-lex order (the canonical order)."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    # ----- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return self._plus(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._of(self.chart, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, True)

    def _plus(self, other, subtract: bool):
        """self + other, or self - other, in one copy of self's terms."""
        if not isinstance(other, Polynomial):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            other = Polynomial.constant(self.chart, s)
        require_same_chart(self, other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            if exps in out:
                c = out[exps] - c if subtract else out[exps] + c
                if not c:
                    del out[exps]
                    continue
            elif subtract:
                c = -c
            out[exps] = c
        return Polynomial._of(self.chart, out)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            if not s:
                return Polynomial.zero(self.chart)
            return Polynomial._of(self.chart, {e: c * s for e, c in self.terms.items()})
        require_same_chart(self, other)
        if len(other.terms) == 1:
            ((exps, coeff),) = other.terms.items()
            return Polynomial._of(self.chart, _times_term(self.terms, exps, coeff))
        if len(self.terms) == 1:
            ((exps, coeff),) = self.terms.items()
            return Polynomial._of(self.chart, _times_term(other.terms, exps, coeff))
        out = {}
        terms = other.terms.items()
        for e1, c1 in self.terms.items():
            _add_scaled(out, e1, c1, terms)
        return Polynomial._of(self.chart, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self.chart)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.chart == other.chart and self.terms == other.terms
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        if not s:
            return not self.terms
        return len(self.terms) == 1 and self.terms.get(self.chart.constant_exps) == s

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # ----- calculus -------------------------------------------------------

    def diff(self, variable: str) -> "Polynomial":
        axis = self.chart.axis(variable)
        out = {}
        for exps, coeff in self.terms.items():
            k = exps[axis]
            if k == 0:
                continue
            new = list(exps)
            new[axis] = k - 1
            out[tuple(new)] = coeff * k
        return Polynomial._of(self.chart, out)

    def evaluate(self, point) -> Fraction:
        """Evaluate at a mapping variable -> Fraction (exact).  Every chart
        variable is read; a value is converted only where a term uses it."""
        values = [point[v] for v in self.chart.variables]
        total = _ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for val, e in zip(values, exps):
                if e:
                    term *= Fraction(val) ** e
            total += term
        return total

    # ----- canonical scaling ---------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = _int_gcd(num, abs(c.numerator))
            den = _int_lcm(den, c.denominator)
        return Fraction(num, den)

    def canonical_associate(self) -> "Polynomial":
        """Scale to coprime integer coefficients with positive leading coefficient."""
        if not self.terms:
            return self
        c = self.content()
        if self.leading_coefficient() < 0:
            c = -c
        if c == 1:
            return self
        return self * (1 / c)

    # ----- printing -------------------------------------------------------

    def _term_str(self, exps, coeff_abs: Fraction) -> str:
        vars_part = "*".join(
            v if e == 1 else f"{v}^{e}"
            for v, e in zip(self.chart.variables, exps) if e)
        if not vars_part:
            return str(coeff_abs)
        if coeff_abs == 1:
            return vars_part
        return f"{coeff_abs}*{vars_part}"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            term = self._term_str(exps, abs(coeff))
            if i == 0:
                pieces.append(f"-{term}" if coeff < 0 else term)
            else:
                pieces.append(f"- {term}" if coeff < 0 else f"+ {term}")
        return " ".join(pieces)

    def __repr__(self):
        return f"<Polynomial {self} on {self.chart.name!r}>"


# ----- exact division and gcd ---------------------------------------------


def exact_div(p: Polynomial, d: Polynomial) -> Polynomial:
    """Quotient p/d when d divides p exactly; ExactDivisionError otherwise."""
    require_same_chart(p, d)
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if p.is_zero():
        return p
    if d.is_constant():
        return p * (1 / d.leading_coefficient())
    if len(d.terms) == 1:
        ((d_exps, d_coeff),) = d.terms.items()
        out = {}
        for exps, c in p.terms.items():
            q_exps = tuple(map(_sub, exps, d_exps))
            if min(q_exps) < 0:
                raise ExactDivisionError(f"({p}) is not divisible by ({d})")
            out[q_exps] = c if d_coeff == 1 else c / d_coeff
        return Polynomial._of(p.chart, out)
    d_exps = d.leading_exponents()
    d_coeff = d.terms[d_exps]
    # q * lt(d) cancels the remainder's leading term exactly, so each step pops
    # that term and adds r * (-tail / lc(d)), where r is the popped coefficient
    tail = [(e, -c / d_coeff) for e, c in d.terms.items() if e != d_exps]
    from heapq import heapify, heappop, heappush   # loaded by long divisions only
    rem = dict(p.terms)
    heap = [_descending(e) for e in rem]
    heapify(heap)
    out = {}
    while rem:
        r_exps = heappop(heap)[2]
        if r_exps not in rem:   # cancelled since it was pushed
            continue
        q_exps = tuple(map(_sub, r_exps, d_exps))
        if min(q_exps) < 0:
            raise ExactDivisionError(f"({p}) is not divisible by ({d})")
        r_coeff = rem.pop(r_exps)
        out[q_exps] = r_coeff / d_coeff
        for exps, c in tail:
            key = tuple(map(_add, q_exps, exps))
            c = r_coeff * c
            if key in rem:
                c += rem[key]
                if not c:
                    del rem[key]
                    continue
            else:
                heappush(heap, _descending(key))
            rem[key] = c
    return Polynomial._of(p.chart, out)


def _coefficients_wrt(p: Polynomial, axis: int):
    """View p as univariate in one variable: {degree: coefficient polynomial}."""
    coeffs = {}
    for exps, coeff in p.terms.items():
        k = exps[axis]
        stripped = list(exps)
        stripped[axis] = 0
        bucket = coeffs.setdefault(k, {})
        bucket[tuple(stripped)] = coeff
    return {k: Polynomial._of(p.chart, t) for k, t in coeffs.items()}


def _lc_wrt(p: Polynomial, axis: int) -> Polynomial:
    d = p.degree_in(axis)
    terms = {}
    for exps, coeff in p.terms.items():
        if exps[axis] == d:
            stripped = list(exps)
            stripped[axis] = 0
            terms[tuple(stripped)] = coeff
    return Polynomial._of(p.chart, terms)


def _content_and_primitive_wrt(p: Polynomial, axis: int):
    """Split p = content * primitive with respect to one variable.

    The content is the (canonical) gcd of the coefficient polynomials, so the
    primitive part has no nonconstant factor free of the variable.
    """
    coeffs = list(_coefficients_wrt(p, axis).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = poly_gcd(content, c)
        if content.is_one():
            break
    content = content.canonical_associate()
    if content.is_one():
        return content, p
    return content, exact_div(p, content)


def _prem(a: Polynomial, b: Polynomial, axis: int) -> Polynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a  mod  b, in one variable."""
    db = b.degree_in(axis)
    lcb = _lc_wrt(b, axis)
    # each step is rem <- lcb * rem - lc(rem) x^(dr - db) * b, whose degree-dr
    # parts cancel exactly, so only the lower parts are multiplied
    lcb_terms = lcb.terms.items()
    b_low = [(e, -c) for e, c in b.terms.items() if e[axis] < db]
    rem = a.terms
    steps = a.degree_in(axis) - db + 1
    while rem:
        dr = max(e[axis] for e in rem)
        if dr < db:
            break
        out = {}
        low = [(e, c) for e, c in rem.items() if e[axis] < dr]
        for e, c in lcb_terms:
            _add_scaled(out, e, c, low)
        for e, c in rem.items():
            if e[axis] == dr:
                shift = list(e)
                shift[axis] -= db
                _add_scaled(out, shift, c, b_low)
        rem = out
        steps -= 1
    rem = Polynomial._of(a.chart, rem)
    if steps > 0:
        rem = (lcb ** steps) * rem
    return rem


def _subresultant_gcd(a: Polynomial, b: Polynomial, axis: int) -> Polynomial:
    """Gcd of two polynomials primitive in `axis`, via the subresultant PRS."""
    if a.degree_in(axis) < b.degree_in(axis):
        a, b = b, a
    if b.degree_in(axis) == 0:
        # a nonconstant-in-axis primitive polynomial shares no factor with
        # an axis-free one
        return Polynomial.one(a.chart)
    g = Polynomial.one(a.chart)
    h = Polynomial.one(a.chart)
    while True:
        delta = a.degree_in(axis) - b.degree_in(axis)
        rem = _prem(a, b, axis)
        if rem.is_zero():
            break
        if rem.degree_in(axis) == 0:
            return Polynomial.one(a.chart)
        a, b = b, exact_div(rem, g * h ** delta)
        g = _lc_wrt(a, axis)
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g ** delta, h ** (delta - 1))
    _, primitive = _content_and_primitive_wrt(b, axis)
    return primitive.canonical_associate()


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Canonical polynomial gcd: coprime integer coefficients, positive leading term.

    gcd(0, q) = canonical q; gcd with a nonzero constant is 1 (constants are
    units over the rationals).
    """
    require_same_chart(p, q)
    if p.is_zero():
        return q.canonical_associate()
    if q.is_zero():
        return p.canonical_associate()
    if p.is_constant() or q.is_constant():
        return Polynomial.one(p.chart)
    if p.terms == q.terms:
        return p.canonical_associate()
    # monomial fast path: the per-variable minimum over the terms of both
    # (p.terms != q.terms, so min gets at least two exponent vectors)
    if len(p.terms) == 1 or len(q.terms) == 1:
        return Polynomial._of(p.chart, {tuple(map(min, *p.terms, *q.terms)): _ONE})
    axis = max(ax for ax in range(p.chart.dim)
               if p.degree_in(ax) > 0 or q.degree_in(ax) > 0)
    cp, pp = _content_and_primitive_wrt(p, axis)
    cq, qq = _content_and_primitive_wrt(q, axis)
    c = poly_gcd(cp, cq)
    g = _subresultant_gcd(pp, qq, axis)
    return (c * g).canonical_associate()


def poly_lcm(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.is_zero() or q.is_zero():
        return Polynomial.zero(p.chart)
    return exact_div(p * q, poly_gcd(p, q)).canonical_associate()
