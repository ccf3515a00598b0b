"""Coordinate charts: a named, ordered tuple of variable identifiers.

The variable order is fixed for the chart's lifetime; it determines the
graded-lexicographic monomial order used everywhere else.  A chart stores its
dimension and the exponent tuple of the constant monomial, (0,) * dim, once,
so the polynomial kernels read them instead of rebuilding them.  For the same
reason it holds the canonical polynomial 1, the rational functions 0 and 1
and one rational function per variable, built on first use by
`Polynomial.one`, `RationalFunction.zero`, `RationalFunction.one` and
`RationalFunction.variable`; values are never changed in place, so all
callers share them.
"""
from __future__ import annotations


class UnknownVariableError(ValueError):
    """A variable name that does not belong to the chart."""

    def __init__(self, name: str, chart: "Chart"):
        super().__init__(f"unknown variable {name!r} on chart {chart.name!r} "
                         f"(variables: {', '.join(chart.variables)})")
        self.variable = name


class ChartMismatchError(ValueError):
    """Two values from different charts were combined."""


class Chart:
    __slots__ = ("name", "variables", "_index", "dim", "constant_exps",
                 "_one", "_rf_zero", "_rf_one", "_rf_variables")

    def __init__(self, name: str, variables):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a chart needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"chart variables must be unique, got {variables}")
        self.name = name
        self.variables = variables
        self._index = {v: i for i, v in enumerate(variables)}
        self.dim = len(variables)
        self.constant_exps = (0,) * self.dim
        self._one = self._rf_zero = self._rf_one = None
        self._rf_variables = [None] * self.dim

    def axis(self, variable: str) -> int:
        """0-based position of a variable; raises UnknownVariableError."""
        try:
            return self._index[variable]
        except KeyError:
            raise UnknownVariableError(variable, self) from None

    def __contains__(self, variable: str) -> bool:
        return variable in self._index

    def __eq__(self, other) -> bool:
        return (isinstance(other, Chart)
                and self.name == other.name
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.name, self.variables))

    def __repr__(self):
        return f"Chart({self.name!r}, {self.variables!r})"


def require_same_chart(a, b) -> None:
    """Raise ChartMismatchError unless both values live on the same chart."""
    if a.chart is not b.chart and a.chart != b.chart:
        raise ChartMismatchError(
            f"charts differ: {a.chart.name!r} vs {b.chart.name!r}")
