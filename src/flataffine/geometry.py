"""Symbolic differential geometry on a coordinate chart, over exact rationals.

Conventions:
  * a connection's Christoffel symbols are gamma[i][j][k], meaning
    nabla_{d_i} d_j = sum_k gamma[i][j][k] d_k (0-based internally); their
    one stored form is the sparse rows, the nonzero (k, gamma[i][j][k]) of
    each (i, j), beside the torsion, curvature and product-table memos;
  * all indices in reports, witnesses and tensor component names are 1-based;
  * a vector field stores its nonzero components as a sparse vector
    {k: value}, the form every kernel reads and returns; the dense
    coefficient list is a view derived on demand.

Everything is a pure function of immutable values; the flatness tensors are
memoized on the connection since they are queried by every higher-level check,
and so are the product tables it has built.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from types import MappingProxyType

from . import linalg
from .algebra import CheckReport, SCAlgebra
from .symcore import (
    Chart,
    ExactDivisionError,
    Polynomial,
    RationalFunction,
    exact_div,
    parse_expr,
    poly_lcm,
    require_same_chart,
)
from .symcore.polynomial import _quotient
from .symcore.ratfunc import _coerce


class NotFlatError(ValueError):
    """An operation that is only meaningful for flat affine connections.

    The class attributes are the messages of the operations that need one.
    """

    IAT = ("the infinitesimal-affine criterion on coordinate pairs is only "
           "equivalent to the general one for flat affine connections")
    ANSATZ = "the ansatz solver requires a flat affine connection"
    PRODUCT = "the induced product is only associative for flat affine connections"


class NotInSpanError(ValueError):
    """A field is not a constant-coefficient combination of the given basis."""

    def __init__(self, message: str, pair: tuple | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.pair = pair
        self.index = index


class DependentFieldsError(ValueError):
    """A field, or an ansatz term, is a constant combination of those listed
    before it; `index` is its 0-based position."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class IATViolationError(ValueError):
    """A field that must be an infinitesimal affine transformation is not."""

    def __init__(self, field_name: str, witness: tuple):
        super().__init__(
            f"field {field_name!r} is not an infinitesimal affine "
            f"transformation; first failing coordinate pair: {witness}")
        self.field_name = field_name
        self.witness = witness


class SingularFrameError(ValueError):
    """Frame coefficient matrix is singular over the rational-function field."""


def _as_rf(chart: Chart, value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, str):
        return parse_expr(value, chart)
    if (coerced := _coerce(chart, value)) is None:
        raise TypeError(f"cannot interpret {value!r} as a rational function")
    return coerced


def _symbol(chart: Chart, value) -> RationalFunction:
    """A Christoffel symbol given to a `Connection` constructor; ValueError
    unless it lies on `chart` (or an equal one), as for a field coefficient."""
    g = _as_rf(chart, value)
    if g.num.chart is not chart and g.num.chart != chart:
        raise ValueError("Christoffel symbol chart does not match the connection chart")
    return g


class VectorField:
    """A vector field sum_k X^k d/dx_k stored as its nonzero components:
    `components` maps a 0-based k to X^k and holds no zero value, so equal
    fields have equal dicts; `coeffs` is the dense view, derived on demand."""

    __slots__ = ("chart", "components")

    def __init__(self, chart: Chart, coeffs):
        # one pass; every coefficient is coerced before the length is checked,
        # and the length before the charts; the chart's own shared 0 is
        # skipped at once
        zero = RationalFunction.zero(chart)
        components = {}
        foreign = False
        k = -1
        for k, c in enumerate(coeffs):
            if c is zero:
                continue
            if c.__class__ is not RationalFunction:
                c = _as_rf(chart, c)
            num = c.num
            if num.chart is not chart and num.chart != chart:
                foreign = True
            if num.terms:
                components[k] = c
        if k + 1 != chart.dim:
            raise ValueError(f"expected {chart.dim} coefficients, got {k + 1}")
        if foreign:
            raise ValueError("coefficient chart does not match the field chart")
        self.chart = chart
        self.components = components

    @classmethod
    def _of(cls, chart: Chart, components: dict) -> "VectorField":
        """Wrap a sparse vector {k: value} that a kernel has just built, without
        coercion or checks: 0-based k, nonzero RationalFunctions on `chart`;
        outside input goes through the constructor."""
        self = cls.__new__(cls)
        self.chart = chart
        self.components = components
        return self

    @property
    def coeffs(self) -> tuple:
        zero = RationalFunction.zero(self.chart)
        return tuple(self.components.get(k, zero) for k in range(self.chart.dim))

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls._of(chart, {})

    @classmethod
    def coordinate(cls, chart: Chart, axis: int) -> "VectorField":
        """The coordinate field d/dx_axis (0-based axis)."""
        if type(axis) is not int or not 0 <= axis < chart.dim:
            raise ValueError(f"axis {axis!r} is not between 0 and {chart.dim - 1}")
        return cls(chart, [1 if i == axis else 0 for i in range(chart.dim)])

    def is_zero(self) -> bool:
        return not self.components

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        out = dict(self.components)
        for k, c in other.components.items():
            _add_at(out, k, c)
        return VectorField._of(self.chart, out)

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return VectorField._of(self.chart, {k: -c for k, c in self.components.items()})

    def scaled(self, factor) -> "VectorField":
        """Multiply by a scalar or rational function."""
        f = _as_rf(self.chart, factor)
        return VectorField._of(self.chart,
                               {k: f * c for k, c in self.components.items()} if f else {})

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField)
                and self.chart == other.chart and self.components == other.components)

    def __hash__(self):
        return hash((self.chart, self.coeffs))

    def __str__(self) -> str:
        parts = [f"({self.components[k]})*d/d{self.chart.variables[k]}"
                 for k in sorted(self.components)]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<VectorField {self}>"


class Connection:
    """A linear connection given by Christoffel symbols (no symmetry assumed).

    Its stored form is `_rows`: `_rows[i][m]` lists the nonzero
    (k, gamma[i][m][k]) in ascending k, the sparse components of
    nabla_{d_i} d_m, which are the symbols every kernel contracts.  The
    constructor takes the dense array gamma[i][j][k] and `from_sparse` the
    nonzero entries, each symbol on the chart (`_symbol`); kernels such as
    `connection_from_frame` build the rows directly.  Three memos: `_torsion`
    and `_curvature` (`torsion`, `curvature`) and `_tables`, the product
    tables built on it (`product_table`).
    """

    __slots__ = ("chart", "_rows", "_torsion", "_curvature", "_tables")

    def __init__(self, chart: Chart, gamma):
        n = chart.dim
        if len(gamma) != n or any(len(row) != n for row in gamma) or \
                any(len(vec) != n for row in gamma for vec in row):
            raise ValueError("Christoffel symbols must form an n x n x n array")
        self._wrap(chart, tuple(
            tuple(tuple((k, g) for k, g in enumerate(_symbol(chart, x) for x in vec) if g)
                  for vec in row) for row in gamma))

    @classmethod
    def _of(cls, chart: Chart, rows) -> "Connection":
        """Wrap rows already in the stored form (an n x n tuple of (k, value)
        tuples, ascending k, nonzero RationalFunctions), without checks."""
        self = cls.__new__(cls)
        self._wrap(chart, rows)
        return self

    def _wrap(self, chart: Chart, rows) -> None:
        self.chart = chart
        self._rows = rows
        self._torsion = None
        self._curvature = None
        self._tables = {}

    @classmethod
    def zero(cls, chart: Chart) -> "Connection":
        n = chart.dim
        return cls._of(chart, (((),) * n,) * n)

    @classmethod
    def from_sparse(cls, chart: Chart, entries) -> "Connection":
        """Build from sparse entries (k, i, j, expr) with 1-based `int`
        indices, each (k, i, j) at most once."""
        n = chart.dim
        rows = [[{} for _ in range(n)] for _ in range(n)]
        seen = set()
        for k, i, j, expr in entries:
            if not all(type(t) is int and 1 <= t <= n for t in (k, i, j)):
                raise ValueError(f"Christoffel index out of range: ({k},{i},{j})")
            if (k, i, j) in seen:
                raise ValueError(f"Christoffel symbol ({k},{i},{j}) is given twice")
            seen.add((k, i, j))
            if g := _symbol(chart, expr):
                rows[i - 1][j - 1][k - 1] = g
        return cls._of(chart, _sorted_rows(rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Connection)
                and self.chart == other.chart and self._rows == other._rows)

    def __hash__(self):
        return hash((self.chart, self._rows))

    def __repr__(self):
        return f"<Connection on {self.chart.name!r}>"


def _sorted_rows(vectors) -> tuple:
    """Connection rows from an n x n array of sparse vectors {k: value} that
    hold no zero: each vector as its (k, value) items in ascending k."""
    return tuple(tuple(tuple(sorted(vec.items())) for vec in row) for row in vectors)


@cache
def _primes(count: int) -> tuple:
    """The first `count` primes, computed once per count."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _full_rank_at_primes(chart: Chart, fields) -> bool:
    """Whether the coefficient matrix of n fields has full rank over Q at the
    point with the i-th prime at the i-th chart variable; False, not an
    error, when a denominator vanishes there.  Only the nonzero components
    are evaluated; every other entry is 0.  Each entry is a stored rational,
    an int wherever it is integral: numerator and denominator are evaluated
    by `Polynomial._value_at` and divided by `_quotient`, and a denominator
    that is the chart's shared 1 is not evaluated."""
    primes = _primes(chart.dim)
    one = chart._one
    values = []
    for f in fields:
        row = [0] * chart.dim
        for k, c in f.components.items():
            value = c.num._value_at(primes)
            if c.den is not one:
                den = c.den._value_at(primes)
                if not den:
                    return False
                value = _quotient(value, den)
            row[k] = value
        values.append(row)
    return linalg.rank(values) == len(fields)


class Frame:
    """n vector fields whose coefficient matrix is invertible as rational functions.

    The matrix is proved nonsingular at one fixed integer point, the i-th
    prime at the i-th chart variable: full rank over Q there means a nonzero
    determinant in Q(x).  Only when a denominator vanishes at that point, or
    the rank there is short, is the rank taken over Q(x), so a singular
    matrix raises SingularFrameError.  Nothing is random.
    """

    __slots__ = ("chart", "fields")

    def __init__(self, fields):
        fields = tuple(fields)
        if not fields:
            raise ValueError("a frame needs at least one field")
        chart = fields[0].chart
        if len(fields) != chart.dim:
            raise ValueError(
                f"a frame on a {chart.dim}-dimensional chart needs {chart.dim} fields")
        for f in fields:
            if f.chart != chart:
                raise ValueError("all frame fields must share the chart")
        if not _full_rank_at_primes(chart, fields) and \
                linalg.rank([f.coeffs for f in fields],
                            zero=RationalFunction.zero(chart)) != chart.dim:
            raise SingularFrameError(
                "frame coefficient matrix is singular over the rational functions")
        self.chart = chart
        self.fields = fields


@dataclass(frozen=True)
class TensorReport:
    """The nonzero tensor components on a chart, keyed by 1-based index tuples;
    a component that cancelled to zero is dropped when the report is built.
    `components` is a read-only view, since a connection keeps its report."""
    kind: str
    components: MappingProxyType
    chart: Chart

    def __post_init__(self):
        object.__setattr__(self, "components", MappingProxyType(
            {idx: rf for idx, rf in self.components.items() if rf}))

    @property
    def is_zero(self) -> bool:
        return not self.components

    @property
    def nonzero(self) -> list:
        return sorted(self.components)

    def component(self, *idx) -> RationalFunction:
        return self.components.get(idx) or RationalFunction.zero(self.chart)

    def component_name(self, idx) -> str:
        upper, lower = idx[0], idx[1:]
        letter = "T" if self.kind == "torsion" else "R"
        return f"{letter}^{upper}_{{{','.join(str(i) for i in lower)}}}"


# the infinitesimal-affine verdict: holds, or the first failing coordinate pair
IATReport = CheckReport


# ----- basic operations ------------------------------------------------------


def _add_at(vec: dict, k, x) -> None:
    """vec[k] += x on a sparse vector or tensor {k: value}, which keeps no
    zero entry, for a nonzero x.  Q(x) has no zero divisors, so only a sum
    can vanish and only the sum is tested.  Every caller passes a nonzero x:
    a component, a tested partial, a Christoffel symbol, or a product or
    negation of such values."""
    total = vec.get(k)
    if total is None:
        vec[k] = x
    elif total := total + x:
        vec[k] = total
    else:
        del vec[k]


def _combination(terms) -> dict:
    """sum w * V over (w, V) terms, each V a sparse vector {k: value}, as a
    sparse vector; zero weights are skipped."""
    out = {}
    for w, vector in terms:
        if w:
            for k, v in vector.items():
                _add_at(out, k, v * w)
    return out


def _nabla_coordinate(conn: Connection, axis: int, vec: dict) -> dict:
    """nabla_{d_axis} Y from the sparse components {m: Y^m} of Y, as sparse
    components: d_axis Y^m at m plus Y^m gamma[axis][m][k] at each k.

    Only the nonzero components are contracted, and each partial is read off
    the component's gradient (`RationalFunction._gradient`), which holds no
    zero; `_first_derivatives` builds the same vectors for every axis at once.
    """
    rows = conn._rows[axis]
    out = {}
    for m, c in vec.items():
        d = c._gradient().get(axis)
        if d is not None:
            _add_at(out, m, d)
        for k, g in rows[m]:
            _add_at(out, k, g * c)
    return out


def covariant_derivative(conn: Connection, X: VectorField, Y: VectorField) -> VectorField:
    """nabla_X Y = sum_i X^i nabla_{d_i} Y."""
    require_same_chart(conn, X)
    require_same_chart(conn, Y)
    return VectorField._of(conn.chart, _combination(
        (xi, _nabla_coordinate(conn, i, Y.components)) for i, xi in X.components.items()))


def _partials(Y: VectorField) -> dict:
    """The table {a: {k: d_a Y^k}} of Y's nonzero partials only, in ascending
    a and each column in Y's component order, from one sweep over the
    components' gradients (`RationalFunction._gradient`); built per call,
    nothing kept on Y."""
    table = {}
    for k, c in Y.components.items():
        for a, d in c._gradient().items():
            table.setdefault(a, {})[k] = d
    return {a: table[a] for a in sorted(table)}


def _derivative_along(X: VectorField, partials: dict) -> dict:
    """X(Y)^k = sum_a X^a d_a Y^k, the derivative of Y along X, as a sparse
    vector, from Y's `_partials` table: over the nonzero X^a and column a's
    nonzero partials only, in the order of X's and Y's components."""
    out = {}
    for a, xa in X.components.items():
        for k, d in partials.get(a, {}).items():
            _add_at(out, k, xa * d)
    return out


def _bracket(X: VectorField, dX: dict, Y: VectorField, dY: dict) -> VectorField:
    """[X, Y] = X(Y) - Y(X) from the fields and their `_partials` tables."""
    require_same_chart(X, Y)
    out = _derivative_along(X, dY)
    for k, c in _derivative_along(Y, dX).items():
        _add_at(out, k, -c)
    return VectorField._of(X.chart, out)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] = X(Y) - Y(X), from one `_partials` table per field and two
    `_derivative_along`; the one bracket kernel, whose all-pairs callers
    build one table per field and read it at every pair (`_bracket`)."""
    return _bracket(X, _partials(X), Y, _partials(Y))


def torsion(conn: Connection) -> TensorReport:
    """Components T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}.

    Only the nonzero symbols off the diagonal i = j are read: each
    gamma[i][j][k] is added at (k, i, j) and subtracted at (k, j, i), the way
    `curvature` accumulates; every other component is zero.
    """
    if conn._torsion is None:
        comps = {}
        for i, row in enumerate(conn._rows, 1):
            for j, vec in enumerate(row, 1):
                if i != j:
                    for k, g in vec:
                        _add_at(comps, (k + 1, i, j), g)
                        _add_at(comps, (k + 1, j, i), -g)
        conn._torsion = TensorReport("torsion", comps, conn.chart)
    return conn._torsion


def curvature(conn: Connection) -> TensorReport:
    """Components R^l_{ijk} of R(d_i, d_j) d_k.

    Coordinate fields commute and nabla_{d_j} d_k has components gamma[j][k],
    so R(d_i, d_j) d_k = nabla_{d_i} gamma[j][k] - nabla_{d_j} gamma[i][k].
    A zero gamma[j][k] has zero derivatives, so only the nonzero ones are
    differentiated: each nabla_{d_i} gamma[j][k] is added at (l, i, j, k) and
    subtracted at (l, j, i, k), and the pairs i = j cancel.
    """
    if conn._curvature is None:
        n = conn.chart.dim
        comps = {}
        for j, row in enumerate(conn._rows, 1):
            for k, vec in enumerate(row, 1):
                if not vec:
                    continue
                vec = dict(vec)
                for i in range(1, n + 1):
                    if i == j:
                        continue
                    for l, x in _nabla_coordinate(conn, i - 1, vec).items():
                        _add_at(comps, (l + 1, i, j, k), x)
                        _add_at(comps, (l + 1, j, i, k), -x)
        conn._curvature = TensorReport("curvature", comps, conn.chart)
    return conn._curvature


def is_flat_affine(conn: Connection) -> bool:
    """True iff both the torsion and the curvature tensor vanish identically."""
    return torsion(conn).is_zero and curvature(conn).is_zero


# ----- infinitesimal affine transformations ----------------------------------


def _first_derivatives(conn: Connection, X: VectorField) -> list:
    """The table first[a] = nabla_{d_a} X, one sparse vector per axis, built
    in one sweep over X's components: each component's gradient entries, then
    its Christoffel terms.  Each axis gets the values, and the insertion
    order, of `_nabla_coordinate(conn, a, X.components)`: the same additions
    in the same order, since the axes' vectors are separate dicts."""
    rows = conn._rows
    first = [{} for _ in rows]
    for m, c in X.components.items():
        for a, d in c._gradient().items():
            _add_at(first[a], m, d)
        for a, row in enumerate(rows):
            for k, g in row[m]:
                _add_at(first[a], k, g * c)
    return first


def _iat_residuals(conn: Connection, first):
    """Residuals nabla_{d_i} Y[j] - sum_l gamma[i][j][l] Y[l] over a table
    Y = first of sparse vectors {k: value}, one per axis, as ((i, j),
    components) pairs, one per coordinate pair with i <= j (1-based), in
    row-major order and each computed as it is read; the components are
    sparse {k: value}, empty when the residual vanishes.

    On Y = _first_derivatives(conn, X) they are the flat-case criterion's
    residual(i, j) = nabla_{d_i} nabla_{d_j} X - nabla_{(nabla_{d_i} d_j)} X;
    X is infinitesimal affine iff all residuals vanish (sufficient on
    coordinate pairs by function-linearity of both sides).  Every caller
    requires a flat connection, on which residual(i, j) - residual(j, i) =
    R(d_i, d_j) X - nabla_{T(d_i, d_j)} X = 0, so the pairs i > j repeat
    earlier ones; the first failing pair in row-major order has i <= j.
    Only nonzero components and symbols are visited.
    """
    n = conn.chart.dim
    for i in range(n):
        for j in range(i, n):
            res = _nabla_coordinate(conn, i, first[j])
            # minus nabla_{(nabla_{d_i} d_j)} X = sum_l gamma[i][j][l] first[l]
            for l, g in conn._rows[i][j]:
                for k, v in first[l].items():
                    _add_at(res, k, -(g * v))
            yield (i + 1, j + 1), res


def _iat_witness(conn: Connection, first):
    """The first pair of `_iat_residuals` with a nonzero residual, or None."""
    return next((pair for pair, res in _iat_residuals(conn, first) if res), None)


def _affine_certificate(conn: Connection, X: VectorField) -> bool:
    """True when the chart is affine for `conn` (no Christoffel symbol) and
    every component of X is a polynomial of total degree at most 1: every
    residual of `_iat_residuals` is then d_i d_j X = 0, so X is infinitesimal
    affine with no witness.  False says nothing; the residuals decide."""
    if any(map(any, conn._rows)):
        return False
    return all(c.den.is_one() and all(sum(e) <= 1 for e in c.num.terms)
               for c in X.components.values())


def is_infinitesimal_affine(conn: Connection, X: VectorField) -> IATReport:
    """Flat-case infinitesimal-affine test; requires a flat affine connection.

    An affine field X = Ax + b on a chart with no Christoffel symbol holds at
    once (`_affine_certificate`: each residual is d_i d_j X = 0); every other
    field is decided, and its witness found, by `_iat_residuals`.
    """
    require_same_chart(conn, X)
    if not is_flat_affine(conn):
        raise NotFlatError(NotFlatError.IAT)
    if _affine_certificate(conn, X):
        return IATReport(True, None)
    pair = _iat_witness(conn, _first_derivatives(conn, X))
    return IATReport(pair is None, pair)


# ----- constant-coefficient span machinery ------------------------------------


def _cleared(chart: Chart, vectors):
    """(common, multiplier, numerators) for sparse vectors {k: value}: their
    common polynomial denominator, {d: common / d} (None when common is 1),
    and their numerators over it as sparse vectors {k: numerator}, which
    preserves constant-linear relations.

    The common denominator is the lcm of the distinct denominators of the
    components, and each distinct denominator is divided into it once.
    """
    dens = dict.fromkeys(c.den for vec in vectors for c in vec.values())
    common = Polynomial.one(chart)
    for d in dens:
        common = poly_lcm(common, d)
    if common.is_one():   # every denominator is 1: nothing to clear
        return common, None, [{k: c.num for k, c in vec.items()} for vec in vectors]
    multiplier = {d: exact_div(common, d) for d in dens}
    return common, multiplier, [{k: c.num * multiplier[c.den] for k, c in vec.items()}
                                for vec in vectors]


def _chart_of(fields) -> Chart:
    """The chart of a nonempty list of fields; ValueError unless they share it."""
    chart = fields[0].chart
    if any(f.chart != chart for f in fields):
        raise ValueError("all fields must share one chart")
    return chart


class _FieldSpan:
    """The constant span of fields on one chart, reduced once to an echelon
    basis (`linalg._QSpan`) that names the dependent fields and expresses
    targets in the fields: the one place where fields become integer rows,
    for `independent_fields`, the ansatz probe, `product_table` and
    `express_in_basis`.

    The columns are the (component, monomial) slots of the numerators over the
    fields' common denominator (`_cleared`), numbered as met (no span question
    depends on their order), and field b also carries -1 in a label column of
    its own past every slot, numbered down, so every row records its
    combination of fields.  A field in the span of those before it takes its
    own label column as pivot: `dependent` lists those fields, 0-based.  A
    target in the span has every denominator dividing the fields' common one
    and every monomial at one of their slots; otherwise it reduces to the
    label entries lambda, since t - sum_b lambda_b field_b = 0, and a
    dependent field's entry, at a pivot column, is zero.  On the independent
    fields lambda is unique, so no column order or row scaling changes it.
    Rows are made integral (a label entry scales with its row); a coefficient
    is read out by `linalg._read`: an int when it is integral, a `Fraction`
    otherwise.
    """

    __slots__ = ("dependent", "_common", "_multiplier", "_slots", "_top", "_last", "_span")

    def __init__(self, chart: Chart, fields):
        self._common, self._multiplier, numerators = _cleared(chart, [f.components for f in fields])
        # one row {slot: x} per field, over the nonzero rational coefficients
        # of its numerators
        self._slots = slots = {}
        rows = []
        for polys in numerators:
            row = {}
            for k, p in polys.items():
                for exps, x in p.terms.items():
                    row[slots.setdefault((k, exps), len(slots))] = x
            rows.append(row)
        # slot columns are below top; field b's label column is last - b
        self._top = top = len(slots)
        self._last = top + len(rows) - 1
        self._span = span = linalg._QSpan()
        self.dependent = []
        for b, row in enumerate(rows):
            row, scale = linalg._integral(row)
            row[self._last - b] = -scale
            if min(span.add(row)) >= top:
                self.dependent.append(b)

    def _row(self, components):
        """A target's integer row and its scale over the fields' slots and
        common denominator, or None when a denominator does not divide the
        common one or a monomial is at no slot."""
        multiplier, slots, common = self._multiplier, self._slots, self._common
        row = {}
        for k, c in components.items():
            num = c.num
            if multiplier is None:
                if not c.den.is_one():
                    return None
            else:
                m = multiplier.get(c.den)
                if m is None:
                    try:
                        m = multiplier[c.den] = exact_div(common, c.den)
                    except ExactDivisionError:
                        return None
                num = num * m
            for exps, x in num.terms.items():
                slot = slots.get((k, exps))
                if slot is None:
                    return None
                row[slot] = x
        return linalg._integral(row)

    def coordinates(self, targets) -> list:
        """`express_in_basis` of the targets in the fields.  A zero target lies
        in every span, with all-zero coordinates: it gets the row () at once."""
        solutions = []
        for index, t in enumerate(targets):
            if not t.components:
                solutions.append(())
                continue
            row = self._row(t.components)
            if row is not None:
                residual, scale = self._span.reduce(*row)
                if not residual or min(residual) >= self._top:
                    solutions.append(tuple(sorted(
                        (self._last - m, x) for m, x in linalg._read(residual, scale).items())))
                    continue
            raise NotInSpanError(
                "target is not in the constant span of the basis", index=index)
        return solutions


def express_in_basis(targets, basis) -> list:
    """Constants lambda with target = sum lambda_k basis_k, one row per target
    in `SCAlgebra.rows`' stored form: a tuple of (k, lambda_k) pairs in
    ascending k, one per nonzero lambda_k, an int when it is integral and a
    `Fraction` otherwise.

    The basis is reduced once (`_FieldSpan`), and each target is read off it.
    A basis field that depends on the ones before it gets coefficient zero.
    The rows are integer vectors, and a coefficient leaves them only when it
    is read out (a `Fraction` only where it is not integral); the
    coefficients on independent fields are
    unique, so they are those any exact elimination gives.
    Raises NotInSpanError, with the 0-based `index` of the first target that
    is not a constant combination of the basis.
    """
    targets, basis = list(targets), list(basis)
    if not targets + basis:
        return []
    return _FieldSpan(_chart_of(targets + basis), basis).coordinates(targets)


def independent_fields(fields, names):
    """Sublist of the fields that grow the span, in order (overlap removal).

    A field is kept unless it is a constant combination of the fields before
    it, the fields that `_FieldSpan.dependent` names.
    """
    fields, names = list(fields), list(names)
    if len(fields) != len(names):
        raise ValueError("one name per field is required")
    if not fields:
        return [], []
    dependent = set(_FieldSpan(_chart_of(fields), fields).dependent)
    kept = [k for k in range(len(fields)) if k not in dependent]
    return [names[k] for k in kept], [fields[k] for k in kept]


# ----- the ansatz solver -------------------------------------------------------


def _hessian(gradient: dict, number, curved) -> dict:
    """H_t(i, j) = d_i d_j t - sum_l gamma[i][j][l] d_l t at the pairs i <= j
    where it is nonzero, keyed by pair number, from t's gradient {a: d_a t}
    (`RationalFunction._gradient`): each d_j t's own gradient is walked in
    ascending i up to j; `number` and `curved` are those of
    `solve_iat_ansatz`."""
    out = {}
    for j, dj in gradient.items():
        for i, h in dj._gradient().items():
            if i > j:
                break
            out[number[i][j]] = h
    for p, symbols in curved:
        for l, g in symbols:
            if (dl := gradient.get(l)) is not None:
                _add_at(out, p, -(g * dl))
    return out


def _slot_terms(conn: Connection, s: int, number):
    """(spread, A) for slot s, the parts of a candidate t·d_s's residuals
    that do not depend on t.

    spread[a] lists (p, m, g) with g = gamma[j][s][m]: the middle term
    g d_a t lands at the pair number p of (min(a, j), max(a, j)), component
    m, and twice when a = j, where both middle terms of the residual are
    that term.  A = {p: {k: A_s(i, j)^k}} at the pairs where it is nonzero:
    the residuals of d_s itself, whose table is nabla_{d_j} d_s = gamma[j][s]
    (`_iat_residuals`), so empty when every gamma[j][s] is zero:

        A_s(i, j) = nabla_{d_i} gamma[j][s] - sum_l gamma[i][j][l] gamma[l][s].
    """
    n = conn.chart.dim
    rows = conn._rows
    spread = [[] for _ in range(n)]
    for j in range(n):
        for m, g in rows[j][s]:
            for a in range(n):
                spread[a].append((number[a][j], m, g + g if a == j else g))
    if not any(rows[j][s] for j in range(n)):
        return spread, {}
    residuals = _iat_residuals(conn, [dict(rows[j][s]) for j in range(n)])
    return spread, {p: res for p, (_, res) in enumerate(residuals) if res}


def solve_iat_ansatz(conn: Connection, ansatz) -> list:
    """Basis of infinitesimal affine transformations within an ansatz space.

    The ansatz is one list of rational-function terms applied to every
    coefficient slot, so the unknowns are the coefficients of the candidates
    t·d_s, one per (slot s, term t).  The residuals of the flat-case criterion
    are linear in X, so each candidate's residual is built on its own.  The
    Leibniz rule gives first[j] = (d_j t) d_s + t gamma[j][s] and expands the
    residual nabla_{d_i} first[j] - sum_l gamma[i][j][l] first[l] to

        residual(i, j)^k = delta_ks H_t(i, j) + gamma[j][s][k] d_i t
                           + gamma[i][s][k] d_j t + A_s(i, j)^k t,

    where H_t (`_hessian`) depends on the term alone and is taken once per
    term, from its gradient (`RationalFunction._gradient`), which also gives
    the nonzero d_a t, and A_s (`_slot_terms`), the residual of d_s, on the
    slot and the connection alone, taken once per slot.  The connection is
    flat, so residual(i, j) = residual(j, i) and only the pairs i <= j give
    equations.  Each candidate's residuals are built sparsely, keyed by
    pair: H_t at its nonzero pairs, the middle terms from the nonzero d_a t
    and the nonzero symbols gamma[b][s] (the pair (a, b) lands on
    (min, max), twice when a = b), and A_s t where A_s is nonzero.

    At each pair, clearing polynomial denominators and collecting monomial
    coefficients of the candidates whose residual is nonzero gives exact
    linear equations, sparse dicts {candidate: coefficient} that go, cleared
    of their denominators, into one `linalg._QSpan`.  Its nullspace
    (`linalg._nullspace_rows`, which `linalg.nullspace` also uses) is
    returned, one field per basis vector (coefficient vectors in reduced
    row-echelon form, candidates ordered slot by slot, then by term), each
    summed by `_add_at` over its nonzero weights.  Every residual is a
    canonical `RationalFunction`, whatever the order its parts were summed
    in, so each pair has one common denominator and one set of equations, in
    some order; the reduced echelon form is unique, so the output does not
    depend on that order.  Dependent terms raise DependentFieldsError at the first
    term in the span of those before it, read off one `_FieldSpan` of the
    fields t·d_1.
    """
    if not is_flat_affine(conn):
        raise NotFlatError(NotFlatError.ANSATZ)
    chart = conn.chart
    n = chart.dim
    terms = [_as_rf(chart, t) for t in ansatz]
    probe = _FieldSpan(chart, [VectorField._of(chart, {0: t} if t else {}) for t in terms])
    if probe.dependent:
        raise DependentFieldsError("ansatz terms are linearly dependent", probe.dependent[0])
    # number[a][b] numbers the pair (min(a, b), max(a, b)) in row-major
    # order; curved lists (number, nonzero gamma[i][j]) for the pairs i <= j
    # that have Christoffel symbols
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    number = [[0] * n for _ in range(n)]
    for p, (i, j) in enumerate(pairs):
        number[i][j] = number[j][i] = p
    curved = [(p, conn._rows[i][j]) for p, (i, j) in enumerate(pairs) if conn._rows[i][j]]
    slot_terms = [_slot_terms(conn, s, number) for s in range(n)]
    tables = []
    for t in terms:
        gradient = t._gradient()
        tables.append((t, gradient.items(), _hessian(gradient, number, curved)))
    # residuals[p] lists (c, components) for each candidate c whose residual
    # at pairs[p] is nonzero, in ascending c; components are sparse {k: value}
    residuals = [[] for _ in pairs]
    for c, (s, (t, partials, hessian)) in enumerate(product(range(n), tables)):
        spread, A = slot_terms[s]
        res = {p: {s: h} for p, h in hessian.items()}
        for a, da in partials:
            for p, k, g in spread[a]:
                _add_at(res.setdefault(p, {}), k, g * da)
        for p, vec in A.items():
            at = res.setdefault(p, {})
            for k, x in vec.items():
                _add_at(at, k, x * t)
        for p, vec in res.items():
            if vec:
                residuals[p].append((c, vec))
    # one sparse equation {c: x} per (component, monomial) at each pair
    span = linalg._QSpan()
    for at_pair in filter(None, residuals):   # an empty pair gives no equation
        slots = {}
        numerators = _cleared(chart, [res for _, res in at_pair])[2]
        for (c, _), polys in zip(at_pair, numerators):
            for k, p in polys.items():
                for exps, x in p.terms.items():
                    slots.setdefault((k, exps), {})[c] = x
        for equation in slots.values():
            span.add(linalg._integral(equation)[0])
    # candidate c is t_a·d_s with (s, a) = divmod(c, len(terms)); a solution
    # adds w t_a at s over its nonzero weights w
    size = len(terms)
    solutions = []
    for row in linalg._nullspace_rows(span, n * size):
        vec = {}
        for c, w in row.items():
            s, a = divmod(c, size)
            _add_at(vec, s, terms[a] * w)
        solutions.append(VectorField._of(chart, vec))
    return solutions


# ----- frames, product tables --------------------------------------------------


def connection_from_frame(frame: Frame, constants: SCAlgebra) -> Connection:
    """The connection with nabla_{E_a} E_b = sum_k c[a][b][k] E_k on the frame.

    Extends by function-linearity in the first slot and the Leibniz rule in the
    second.  With A the frame matrix and q[a][b] = E_a E_b - E_a(E_b) the
    Christoffel part of each defining product, E_a(E_b) read off
    `_derivative_along` and one `_partials` table per frame field, gamma[i][j]
    = sum_{a,b} A^-1[i][a] A^-1[j][b] q[a][b], and A^-1 is taken only when
    some q[a][b] is nonzero.  On an affine chart of the connection, one in which its
    Christoffel symbols vanish (GL(n) in matrix coordinates with E_a E_b the
    matrix product), every defining product is the plain derivative E_a(E_b),
    so q and gamma are zero; `Frame` has already proved A nonsingular.

    q[a][b] is built only where E_a(E_b) differs from E_a E_b: where they
    are equal, q[a][b] = E_a E_b - E_a(E_b) = 0, with nothing subtracted.
    Frame fields, products, q and gamma are sparse {k: value} vectors.  The
    result is post-verified against the defining products at every one of
    the n^2 frame pairs, through the connection's own kernel rather than the
    one q was read from: one `_first_derivatives` table per field E_b,
    contracted with each E_a, must give E_a E_b, else AssertionError names
    the first failing pair (a, b) in row-major order.
    """
    chart = frame.chart
    n = chart.dim
    if constants.dim != n:
        raise ValueError("structure constants must match the frame dimension")
    E = [f.components for f in frame.fields]
    # nabla_{E_a} E_b = E_a(E_b) + sum_{i,j} E_a^i E_b^j gamma[i][j], so the
    # Christoffel part of each defining product is expected[a][b] - E_a(E_b)
    expected = [[_combination((x, E[k]) for k, x in constants.rows[a][b])
                 for b in range(n)] for a in range(n)]
    q = [[{} for _ in range(n)] for _ in range(n)]
    tables = [_partials(f) for f in frame.fields]
    for a, b in product(range(n), repeat=2):
        derivative = _derivative_along(frame.fields[a], tables[b])
        if derivative != expected[a][b]:
            vec = q[a][b] = dict(expected[a][b])
            for k, d in derivative.items():
                _add_at(vec, k, -d)
    if any(vec for row in q for vec in row):
        A = [f.coeffs for f in frame.fields]
        try:
            A_inv = linalg.invert(A, zero=RationalFunction.zero(chart))
        except ValueError:
            raise SingularFrameError("frame matrix is singular") from None
        half = [[_combination(zip(A_inv[i], (q[a][b] for a in range(n))))
                 for b in range(n)] for i in range(n)]
        conn = Connection._of(chart, _sorted_rows(
            [[_combination(zip(A_inv[j], half[i])) for j in range(n)] for i in range(n)]))
    else:
        conn = Connection.zero(chart)
    # the round trip through the connection's own kernel, which reads the
    # gradients itself: table[b][i] = nabla_{d_i} E_b, and
    # nabla_{E_a} E_b = sum_i E_a^i table[b][i]
    table = [_first_derivatives(conn, f) for f in frame.fields]
    for a in range(n):
        for b in range(n):
            got = _combination((x, table[b][i]) for i, x in E[a].items())
            if got != expected[a][b]:
                raise AssertionError(
                    f"frame round-trip failed at pair ({a + 1}, {b + 1})")
    return conn


def product_table(conn: Connection, fields, names=None) -> SCAlgebra:
    """Structure constants of the product X·Y = nabla_X Y on the given fields.

    Requires a flat connection, fields that are linearly independent over the
    constants (else DependentFieldsError, with the 0-based `index` of the first
    field in the span of those before it), fields that are infinitesimal
    affine transformations and a product-closed span; fails loudly (naming the
    pair) when a product falls outside the constant span.  A field that
    `_affine_certificate` passes (affine, with no Christoffel symbol) is an
    IAT without its residuals, since each is d_i d_j X = 0; its table
    nabla_{d_a} X is still built, because the products read it.

    A built table is memoized on the connection under the set of its field
    objects, `frozenset(map(id, fields))`; the entry keeps those objects
    alive, so no id is reused while it exists, and a copy of each one's
    `components`: a field written to since is a miss, built again.  A failed
    build stores nothing, and a list that repeats an object skips the memo.
    A hit in another order is the stored table relabelled by sigma, field
    i's stored position: it is exact, since flatness is tested first,
    independence, the IAT property and closure do not depend on the order,
    and coordinates on independent fields are unique (`_FieldSpan`).
    """
    fields = list(fields)
    if names is None:
        names = [f"v{i + 1}" for i in range(len(fields))]
    names = list(names)
    if len(names) != len(fields):
        raise ValueError("one name per field is required")
    if not is_flat_affine(conn):
        raise NotFlatError(NotFlatError.PRODUCT)
    n = len(fields)
    for f in fields:   # the span below needs one chart
        require_same_chart(conn, f)
    key = frozenset(map(id, fields))
    built, rows = conn._tables.get(key, ((), None))
    if built and len(key) == n and all(f.components == c for f, c in built):
        position = {id(f): i for i, (f, _) in enumerate(built)}
        sigma = [position[id(f)] for f in fields]
        if sigma != list(range(n)):   # row (i, j) is row (sigma i, sigma j), relabelled
            inverse = {s: i for i, s in enumerate(sigma)}
            rows = tuple(tuple(tuple(sorted((inverse[k], x) for k, x in rows[s][t]))
                               for t in sigma) for s in sigma)
        return SCAlgebra._of(names, rows)
    # the basis is reduced once, before any IAT test: it tells a dependent
    # field first, and the products are read off it
    basis = _FieldSpan(conn.chart, fields)
    if basis.dependent:
        index = basis.dependent[0]
        raise DependentFieldsError(
            f"field {names[index]!r} is a constant combination of the fields "
            "before it", index)
    # nabla[j][a] = nabla_{d_a} X_j, so nabla_{X_i} X_j = sum_a X_i^a nabla[j][a];
    # the IAT test of X_j reads the same table
    nabla = []
    for name, f in zip(names, fields):
        first = _first_derivatives(conn, f)
        if not _affine_certificate(conn, f):
            pair = _iat_witness(conn, first)
            if pair is not None:
                raise IATViolationError(name, pair)
        nabla.append(first)
    chart = conn.chart
    products = [VectorField._of(chart, _combination((x, nabla[j][a])
                                                    for a, x in f.components.items()))
                for f in fields for j in range(n)]
    try:
        coords = basis.coordinates(products)
    except NotInSpanError as err:
        i, j = divmod(err.index, n)
        raise NotInSpanError(
            f"product {names[i]}·{names[j]} (pair ({i + 1}, {j + 1})) "
            "is not a constant combination of the given fields",
            pair=(i + 1, j + 1)) from None
    rows = tuple(tuple(coords[i * n:(i + 1) * n]) for i in range(n))
    conn._tables[key] = (tuple((f, dict(f.components)) for f in fields), rows)
    return SCAlgebra._of(names, rows)
