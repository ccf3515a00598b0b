"""Exact scalar, polynomial and rational-function arithmetic with a parser.

Everything is immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""
from .chart import Chart, ChartMismatchError, UnknownVariableError, require_same_chart
from .parser import (
    ExpressionError,
    ExprSyntaxError,
    ZeroDenominatorError,
    parse_expr,
    tokenize,
)
from .polynomial import (
    ExactDivisionError,
    Polynomial,
    Rational,
    exact_div,
    grlex_key,
    poly_gcd,
    poly_lcm,
)
from .ratfunc import RationalFunction


__all__ = [
    "Chart",
    "ChartMismatchError",
    "ExactDivisionError",
    "ExpressionError",
    "ExprSyntaxError",
    "Polynomial",
    "Rational",
    "RationalFunction",
    "UnknownVariableError",
    "ZeroDenominatorError",
    "exact_div",
    "grlex_key",
    "parse_expr",
    "poly_gcd",
    "poly_lcm",
    "require_same_chart",
    "tokenize",
]
