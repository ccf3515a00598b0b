"""Expression front-end for rational functions.

Grammar (whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' nonneg-integer)?
    base   := integer-literal | variable | '(' expr ')' | '-' factor

Implicit multiplication is not allowed: "2x" is a syntax error, which keeps
multi-character variables like x11 unambiguous.  Integer literals are the
rational literals of the grammar; general rationals are spelled with the
division operator ("3/4").  All reported offsets are byte offsets into the
source text.  Parentheses nest at most 200 deep, and a run of unary minus
signs is read without recursion, so no input can exhaust the stack.  A power
f^n is refused when n times the degree of f exceeds 64 or n times the bit
length of f's longest coefficient exceeds 4096, and integer literals are
refused past Python's digit limit for int(), so no short input can take
unbounded time either.
"""
from __future__ import annotations

from .chart import Chart
from .ratfunc import RationalFunction


class ExpressionError(ValueError):
    """Base class for parse-time errors; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ExprSyntaxError(ExpressionError):
    pass


class ZeroDenominatorError(ExpressionError, ZeroDivisionError):
    """Division by a rational function that normalizes to zero."""


_OPERATORS = set("+-*/^()")

# four stack frames per level (expr, term, factor, base), well inside the
# interpreter's default recursion limit of 1000
_MAX_DEPTH = 200

# power caps (see the module docstring), far above the ^2 and ^3 of the
# shipped task files; constants have degree 0, so only the bit cap stops a
# tower such as (((9^64)^64)^64)^64
_MAX_DEGREE = 64
_MAX_BITS = 4096


def _height(f: RationalFunction) -> int:
    """Largest bit length of a numerator or denominator of f's coefficients."""
    return max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for p in (f.num, f.den) for c in p.terms.values())


def tokenize(source: str):
    """Yield (kind, text, offset) triples; kinds: 'num', 'name', 'op', 'end'."""
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("num", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        if ch in _OPERATORS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _integer(text: str, offset: int) -> int:
    # int() refuses more digits than sys.get_int_max_str_digits() with a
    # plain ValueError
    try:
        return int(text)
    except ValueError:
        raise ExprSyntaxError(f"integer literal of {len(text)} digits is too long",
                              offset) from None


class _Parser:
    def __init__(self, source: str, chart: Chart):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0
        self.chart = chart

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> RationalFunction:
        value = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {text!r} after expression", offset)
        return value

    def expr(self) -> RationalFunction:
        value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> RationalFunction:
        value = self.factor()
        while True:
            kind, text, offset = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                if text == "*":
                    value = value * rhs
                else:
                    if rhs.is_zero():
                        raise ZeroDenominatorError("division by zero", offset)
                    value = value / rhs
            else:
                return value

    def at_op(self, symbol: str) -> bool:
        return self.peek()[:2] == ("op", symbol)

    def factor(self) -> RationalFunction:
        # the grammar's nested '-' factor, read in a loop: the base takes its
        # power, then the innermost signs negate and each takes the next
        # power (--x^2^3 = -((-(x^2))^3)); the signs left over negate once
        # if their count is odd
        signs = 0
        while self.at_op("-"):
            self.advance()
            signs += 1
        value = self.power(self.base())
        while signs and self.at_op("^"):
            value = self.power(-value)
            signs -= 1
        return -value if signs % 2 else value

    def power(self, value: RationalFunction) -> RationalFunction:
        if self.at_op("^"):
            self.advance()
            kind, text, offset = self.peek()
            if kind != "num":
                raise ExprSyntaxError("exponent must be a non-negative integer", offset)
            self.advance()
            n = _integer(text, offset)
            degree = max(value.num.total_degree(), value.den.total_degree())
            if degree * n > _MAX_DEGREE:
                raise ExprSyntaxError(
                    f"power would exceed degree {_MAX_DEGREE}", offset)
            if _height(value) * n > _MAX_BITS:
                raise ExprSyntaxError(
                    f"power would exceed {_MAX_BITS}-bit coefficients", offset)
            value = value ** n
        return value

    def base(self) -> RationalFunction:
        kind, text, offset = self.advance()
        if kind == "num":
            return RationalFunction.constant(self.chart, _integer(text, offset))
        if kind == "name":
            return RationalFunction.variable(self.chart, text)
        if kind == "op" and text == "(":
            if self.depth == _MAX_DEPTH:
                raise ExprSyntaxError(
                    f"parentheses nested more than {_MAX_DEPTH} deep", offset)
            self.depth += 1
            value = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return value
        raise ExprSyntaxError(
            f"expected a number, variable, '(' or '-', got {text!r}"
            if text else "unexpected end of input", offset)


def parse_expr(source: str, chart: Chart) -> RationalFunction:
    """Parse an expression into a normalized rational function.

    parse_expr(str(f), chart) == f for every RationalFunction f.
    """
    return _Parser(source, chart).parse()
