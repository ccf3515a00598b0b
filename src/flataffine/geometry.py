"""Symbolic differential geometry on a coordinate chart, over exact rationals.

Conventions:
  * a connection stores Christoffel symbols as gamma[i][j][k], meaning
    nabla_{d_i} d_j = sum_k gamma[i][j][k] d_k (0-based internally);
  * all indices in reports, witnesses and tensor component names are 1-based;
  * vector fields are coefficient lists of rational functions, one per chart
    variable.

Everything is a pure function of immutable values; the flatness tensors are
memoized on the connection since they are queried by every higher-level check.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import SCAlgebra
from .symcore import (
    Chart,
    Polynomial,
    RationalFunction,
    exact_div,
    grlex_key,
    parse_expr,
    poly_lcm,
    require_same_chart,
)


class NotFlatError(ValueError):
    """An operation that is only meaningful for flat affine connections."""


class NotInSpanError(ValueError):
    """A field is not a constant-coefficient combination of the given basis."""

    def __init__(self, message: str, pair: tuple | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.pair = pair
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
    if isinstance(value, Polynomial):
        return RationalFunction(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.constant(chart, value)
    if isinstance(value, str):
        return parse_expr(value, chart)
    raise TypeError(f"cannot interpret {value!r} as a rational function")


class VectorField:
    __slots__ = ("chart", "coeffs")

    def __init__(self, chart: Chart, coeffs):
        coeffs = tuple(_as_rf(chart, c) for c in coeffs)
        if len(coeffs) != chart.dim:
            raise ValueError(
                f"expected {chart.dim} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if c.chart != chart:
                raise ValueError("coefficient chart does not match the field chart")
        self.chart = chart
        self.coeffs = coeffs

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart, [RationalFunction.zero(chart)] * chart.dim)

    @classmethod
    def coordinate(cls, chart: Chart, axis: int) -> "VectorField":
        """The coordinate field d/dx_axis (0-based axis)."""
        return cls(chart, [1 if i == axis else 0 for i in range(chart.dim)])

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: RationalFunction) -> RationalFunction:
        """Directional derivative X(f)."""
        out = RationalFunction.zero(self.chart)
        for var, c in zip(self.chart.variables, self.coeffs):
            if c:
                out = out + c * f.diff(var)
        return out

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        return VectorField(self.chart,
                           [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        require_same_chart(self, other)
        return VectorField(self.chart,
                           [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.coeffs])

    def scaled(self, factor) -> "VectorField":
        """Multiply by a scalar or rational function."""
        f = _as_rf(self.chart, factor)
        return VectorField(self.chart, [f * c for c in self.coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, VectorField)
                and self.chart == other.chart and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.chart, self.coeffs))

    def __str__(self) -> str:
        parts = [f"({c})*d/d{v}" for v, c in zip(self.chart.variables, self.coeffs)
                 if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"<VectorField {self}>"


class Connection:
    """A linear connection given by Christoffel symbols (no symmetry assumed)."""

    __slots__ = ("chart", "gamma", "_torsion", "_curvature")

    def __init__(self, chart: Chart, gamma):
        n = chart.dim
        if len(gamma) != n or any(len(row) != n for row in gamma) or \
                any(len(vec) != n for row in gamma for vec in row):
            raise ValueError("Christoffel symbols must form an n x n x n array")
        self.chart = chart
        self.gamma = tuple(tuple(tuple(_as_rf(chart, g) for g in vec)
                                 for vec in row) for row in gamma)
        self._torsion = None
        self._curvature = None

    @classmethod
    def zero(cls, chart: Chart) -> "Connection":
        n = chart.dim
        return cls(chart, [[[0] * n for _ in range(n)] for _ in range(n)])

    @classmethod
    def from_sparse(cls, chart: Chart, entries) -> "Connection":
        """Build from sparse entries (k, i, j, expr) with 1-based indices."""
        n = chart.dim
        gamma = [[[RationalFunction.zero(chart) for _ in range(n)]
                  for _ in range(n)] for _ in range(n)]
        for k, i, j, expr in entries:
            if not (1 <= k <= n and 1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"Christoffel index out of range: ({k},{i},{j})")
            gamma[i - 1][j - 1][k - 1] = _as_rf(chart, expr)
        return cls(chart, gamma)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Connection)
                and self.chart == other.chart and self.gamma == other.gamma)

    def __hash__(self):
        return hash((self.chart, self.gamma))

    def __repr__(self):
        return f"<Connection on {self.chart.name!r}>"


class Frame:
    """n vector fields whose coefficient matrix is invertible as rational functions."""

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
        matrix = [[f.coeffs[i] for i in range(chart.dim)] for f in fields]
        zero = RationalFunction.zero(chart)
        if linalg.rank(matrix, zero=zero) != chart.dim:
            raise SingularFrameError(
                "frame coefficient matrix is singular over the rational functions")
        self.chart = chart
        self.fields = fields


@dataclass(frozen=True)
class TensorReport:
    """Dense tensor components keyed by 1-based index tuples, plus a zero flag."""
    kind: str
    components: dict

    @property
    def is_zero(self) -> bool:
        return all(rf.is_zero() for rf in self.components.values())

    @property
    def nonzero(self) -> list:
        return sorted(idx for idx, rf in self.components.items() if not rf.is_zero())

    def component(self, *idx) -> RationalFunction:
        return self.components[idx]

    def component_name(self, idx) -> str:
        upper, lower = idx[0], idx[1:]
        letter = "T" if self.kind == "torsion" else "R"
        return f"{letter}^{upper}_{{{','.join(str(i) for i in lower)}}}"


@dataclass(frozen=True)
class IATReport:
    """Eq.-style infinitesimal-affine check: holds, or first failing (i, j)."""
    holds: bool
    witness: tuple | None = None


# ----- basic operations ------------------------------------------------------


def covariant_derivative(conn: Connection, X: VectorField, Y: VectorField) -> VectorField:
    """nabla_X Y with components sum_i X^i d_i Y^k + sum_{i,j} gamma[i][j][k] X^i Y^j."""
    require_same_chart(conn, X)
    require_same_chart(conn, Y)
    chart = conn.chart
    n = chart.dim
    out = [RationalFunction.zero(chart) for _ in range(n)]
    for i, xi in enumerate(X.coeffs):
        if xi.is_zero():
            continue
        var = chart.variables[i]
        for k in range(n):
            dk = Y.coeffs[k].diff(var)
            if dk:
                out[k] = out[k] + xi * dk
        for j, yj in enumerate(Y.coeffs):
            if yj.is_zero():
                continue
            xy = xi * yj
            for k in range(n):
                g = conn.gamma[i][j][k]
                if g:
                    out[k] = out[k] + g * xy
    return VectorField(chart, out)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = sum_i (X^i d_i Y^k - Y^i d_i X^k)."""
    require_same_chart(X, Y)
    chart = X.chart
    n = chart.dim
    out = [RationalFunction.zero(chart) for _ in range(n)]
    for i, var in enumerate(chart.variables):
        xi, yi = X.coeffs[i], Y.coeffs[i]
        for k in range(n):
            if xi:
                d = Y.coeffs[k].diff(var)
                if d:
                    out[k] = out[k] + xi * d
            if yi:
                d = X.coeffs[k].diff(var)
                if d:
                    out[k] = out[k] - yi * d
    return VectorField(chart, out)


def torsion(conn: Connection) -> TensorReport:
    """Components T^k_{ij} = gamma^k_{ij} - gamma^k_{ji}."""
    if conn._torsion is None:
        n = conn.chart.dim
        comps = {}
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    comps[(k + 1, i + 1, j + 1)] = \
                        conn.gamma[i][j][k] - conn.gamma[j][i][k]
        conn._torsion = TensorReport("torsion", comps)
    return conn._torsion


def curvature(conn: Connection) -> TensorReport:
    """Components R^l_{ijk} of R(d_i, d_j) d_k.

    R^l_{ijk} = d_i gamma^l_{jk} - d_j gamma^l_{ik}
                + sum_m (gamma^l_{im} gamma^m_{jk} - gamma^l_{jm} gamma^m_{ik}).
    """
    if conn._curvature is None:
        chart = conn.chart
        n = chart.dim
        comps = {}
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        term = conn.gamma[j][k][l].diff(chart.variables[i]) \
                            - conn.gamma[i][k][l].diff(chart.variables[j])
                        for m in range(n):
                            a = conn.gamma[i][m][l]
                            b = conn.gamma[j][k][m]
                            if a and b:
                                term = term + a * b
                            a = conn.gamma[j][m][l]
                            b = conn.gamma[i][k][m]
                            if a and b:
                                term = term - a * b
                        comps[(l + 1, i + 1, j + 1, k + 1)] = term
        conn._curvature = TensorReport("curvature", comps)
    return conn._curvature


def is_flat_affine(conn: Connection) -> bool:
    """True iff both the torsion and the curvature tensor vanish identically."""
    return torsion(conn).is_zero and curvature(conn).is_zero


# ----- infinitesimal affine transformations ----------------------------------


def _nabla_coordinate(conn: Connection, axis: int, X: VectorField) -> VectorField:
    """nabla_{d_axis} X without building the coordinate field."""
    chart = conn.chart
    var = chart.variables[axis]
    n = chart.dim
    out = []
    for k in range(n):
        total = X.coeffs[k].diff(var)
        for m, xm in enumerate(X.coeffs):
            g = conn.gamma[axis][m][k]
            if g and xm:
                total = total + g * xm
        out.append(total)
    return VectorField(chart, out)


def _iat_residuals(conn: Connection, X: VectorField):
    """Residual fields of the flat-case criterion, one per coordinate pair (i, j).

    residual(i, j) = nabla_{d_i} nabla_{d_j} X - nabla_{(nabla_{d_i} d_j)} X;
    X is infinitesimal affine iff all residuals vanish (sufficient on
    coordinate pairs by function-linearity of both sides).
    """
    chart = conn.chart
    n = chart.dim
    first = [_nabla_coordinate(conn, j, X) for j in range(n)]
    residuals = []
    for i in range(n):
        for j in range(n):
            field = _nabla_coordinate(conn, i, first[j])
            for m in range(n):
                g = conn.gamma[i][j][m]
                if g:
                    field = field - first[m].scaled(g)
            residuals.append(((i + 1, j + 1), field))
    return residuals


def is_infinitesimal_affine(conn: Connection, X: VectorField) -> IATReport:
    """Flat-case infinitesimal-affine test; requires a flat affine connection."""
    require_same_chart(conn, X)
    if not is_flat_affine(conn):
        raise NotFlatError(
            "the infinitesimal-affine criterion on coordinate pairs is only "
            "equivalent to the general one for flat affine connections")
    for pair, field in _iat_residuals(conn, X):
        if not field.is_zero():
            return IATReport(False, pair)
    return IATReport(True)


# ----- constant-coefficient span machinery ------------------------------------


def _coordinate_rows(fields):
    """Exact coordinates of fields over a shared monomial basis.

    All coefficients are brought over one common polynomial denominator (which
    preserves constant-linear relations); the coordinates are the rational
    coefficients of each (component, monomial) slot, ordered deterministically.
    The common denominator is the lcm of the distinct denominators of the
    nonzero coefficients, and each distinct denominator is divided into it
    once; a zero coefficient (always over 1) contributes its zero numerator.
    """
    if not fields:
        return []
    chart = fields[0].chart
    for f in fields:
        if f.chart != chart:
            raise ValueError("all fields must share one chart")
    dens = dict.fromkeys(c.den for f in fields for c in f.coeffs if c.num)
    common = Polynomial.one(chart)
    for d in dens:
        common = poly_lcm(common, d)
    multiplier = {d: exact_div(common, d) for d in dens}
    cleared = []
    axes = set()
    for f in fields:
        polys = []
        for k, c in enumerate(f.coeffs):
            p = c.num * multiplier[c.den] if c.num else c.num
            polys.append(p)
            for exps in p.terms:
                axes.add((k, exps))
        cleared.append(polys)
    axis_list = sorted(axes, key=lambda a: (a[0],) + tuple(grlex_key(a[1])))
    rows = []
    for polys in cleared:
        rows.append([polys[k].terms.get(exps, Fraction(0)) for (k, exps) in axis_list])
    return rows


def express_in_basis(targets, basis) -> list:
    """Constants lambda with target = sum lambda_i basis_i, one list per target.

    Denominators of all targets and basis fields are cleared once and every
    target is matched against the monomial coefficients in one exact solve.
    Raises NotInSpanError, with the 0-based `index` of the first target that
    is not a constant combination of the basis.
    """
    targets, basis = list(targets), list(basis)
    rows = _coordinate_rows(targets + basis)
    columns = [col[len(targets):] for col in zip(*rows)]
    solutions = linalg.solve(columns, rows[:len(targets)])
    for index, sol in enumerate(solutions):
        if sol is None:
            raise NotInSpanError(
                "target is not in the constant span of the basis", index=index)
    return solutions


def field_span_rank(fields) -> int:
    return linalg.rank(_coordinate_rows(list(fields)))


def same_field_span(fields_a, fields_b) -> bool:
    """Equality of the constant-coefficient spans of two field lists."""
    fields_a, fields_b = list(fields_a), list(fields_b)
    rows = _coordinate_rows(fields_a + fields_b)
    ra, _ = linalg.rref(rows[:len(fields_a)])
    rb, _ = linalg.rref(rows[len(fields_a):])
    return ra == rb


def independent_fields(fields, names):
    """Sublist of the fields that grow the span, in order (overlap removal).

    These are the pivot columns of the matrix with one column per field.
    """
    fields, names = list(fields), list(names)
    if len(fields) != len(names):
        raise ValueError("one name per field is required")
    _, pivots = linalg.rref(list(zip(*_coordinate_rows(fields))))
    return [names[p] for p in pivots], [fields[p] for p in pivots]


# ----- the ansatz solver -------------------------------------------------------


def solve_iat_ansatz(conn: Connection, ansatz) -> list:
    """Basis of infinitesimal affine transformations within an ansatz space.

    The ansatz is one list of rational-function terms applied to every
    coefficient slot.  The residuals of the flat-case criterion are linear in
    the unknown coefficients; clearing polynomial denominators and collecting
    monomial coefficients gives an exact linear system whose nullspace is
    returned, one field per nullspace basis vector (coefficient vectors in
    reduced row-echelon form).
    """
    if not is_flat_affine(conn):
        raise NotFlatError("the ansatz solver requires a flat affine connection")
    chart = conn.chart
    n = chart.dim
    terms = [_as_rf(chart, t) for t in ansatz]
    probe = [VectorField(chart, [t] + [0] * (n - 1)) for t in terms]
    if linalg.rank(_coordinate_rows(probe)) != len(terms):
        raise ValueError("ansatz terms are linearly dependent")
    candidates = []
    for slot in range(n):
        for t in terms:
            coeffs = [RationalFunction.zero(chart) for _ in range(n)]
            coeffs[slot] = t
            candidates.append(VectorField(chart, coeffs))
    residuals = [[field for _, field in _iat_residuals(conn, cand)]
                 for cand in candidates]
    equations = []
    for fields_at_pair in zip(*residuals):
        equations.extend(zip(*_coordinate_rows(fields_at_pair)))
    null = linalg.nullspace(equations, ncols=len(candidates))
    solutions = []
    for coeffs_vec in null:
        comps = []
        for slot in range(n):
            total = RationalFunction.zero(chart)
            for t_idx, t in enumerate(terms):
                lam = coeffs_vec[slot * len(terms) + t_idx]
                if lam:
                    total = total + t * lam
            comps.append(total)
        solutions.append(VectorField(chart, comps))
    return solutions


# ----- frames, product tables --------------------------------------------------


def connection_from_frame(frame: Frame, constants: SCAlgebra) -> Connection:
    """The connection with nabla_{E_a} E_b = sum_k c[a][b][k] E_k on the frame.

    Extends by function-linearity in the first slot and the Leibniz rule in the
    second; the result is post-verified against the defining products for every
    frame pair.
    """
    chart = frame.chart
    n = chart.dim
    if constants.dim != n:
        raise ValueError("structure constants must match the frame dimension")
    zero = RationalFunction.zero(chart)
    one = RationalFunction.one(chart)
    A = [[f.coeffs[i] for i in range(n)] for f in frame.fields]
    try:
        A_inv = linalg.invert(A, zero=zero, one=one)
    except ValueError:
        raise SingularFrameError("frame matrix is singular") from None
    A_inv_t = [[A_inv[j][i] for j in range(n)] for i in range(n)]
    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        q = []
        for a in range(n):
            q_row = []
            for b in range(n):
                total = zero
                for m in range(n):
                    cm = constants.c[a][b][m]
                    if cm:
                        total = total + A[m][k] * cm
                for i in range(n):
                    if A[a][i]:
                        d = A[b][k].diff(chart.variables[i])
                        if d:
                            total = total - A[a][i] * d
                q_row.append(total)
            q.append(q_row)
        g_k = linalg.mat_mul(linalg.mat_mul(A_inv, q, zero=zero), A_inv_t, zero=zero)
        for i in range(n):
            for j in range(n):
                gamma[i][j][k] = g_k[i][j]
    conn = Connection(chart, gamma)
    for a in range(n):
        for b in range(n):
            expected = VectorField.zero(chart)
            for m in range(n):
                cm = constants.c[a][b][m]
                if cm:
                    expected = expected + frame.fields[m].scaled(cm)
            got = covariant_derivative(conn, frame.fields[a], frame.fields[b])
            if got != expected:
                raise AssertionError(
                    f"frame round-trip failed at pair ({a + 1}, {b + 1})")
    return conn


def product_table(conn: Connection, fields, names=None, *, check_iat: bool = True) -> SCAlgebra:
    """Structure constants of the product X·Y = nabla_X Y on the given fields.

    Requires a flat connection, fields that are infinitesimal affine
    transformations and a product-closed span; fails loudly (naming the pair)
    when a product falls outside the constant span.
    """
    fields = list(fields)
    if names is None:
        names = [f"v{i + 1}" for i in range(len(fields))]
    names = list(names)
    if len(names) != len(fields):
        raise ValueError("one name per field is required")
    if not is_flat_affine(conn):
        raise NotFlatError("the induced product is only associative for "
                           "flat affine connections")
    if check_iat:
        for name, f in zip(names, fields):
            report = is_infinitesimal_affine(conn, f)
            if not report.holds:
                raise IATViolationError(name, report.witness)
    n = len(fields)
    products = [covariant_derivative(conn, bi, bj) for bi in fields for bj in fields]
    try:
        coords = express_in_basis(products, fields)
    except NotInSpanError as err:
        i, j = divmod(err.index, n)
        raise NotInSpanError(
            f"product {names[i]}·{names[j]} (pair ({i + 1}, {j + 1})) "
            "is not a constant combination of the given fields",
            pair=(i + 1, j + 1)) from None
    return SCAlgebra._of(names, tuple(tuple(tuple(v) for v in coords[i * n:(i + 1) * n])
                                      for i in range(n)))
