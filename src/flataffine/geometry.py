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

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .algebra import SCAlgebra, _row
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

_ZERO = Fraction(0)   # shared by every empty cell of the coordinate rows and equations
_MINUS_ONE = Fraction(-1)


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
    """A linear connection given by Christoffel symbols (no symmetry assumed).

    `_rows[i][k]` lists the nonzero (m, gamma[i][m][k]) in ascending m: the
    symbols that `_nabla_coordinate` contracts, derived once from `gamma`.
    """

    __slots__ = ("chart", "gamma", "_rows", "_torsion", "_curvature")

    def __init__(self, chart: Chart, gamma):
        n = chart.dim
        if len(gamma) != n or any(len(row) != n for row in gamma) or \
                any(len(vec) != n for row in gamma for vec in row):
            raise ValueError("Christoffel symbols must form an n x n x n array")
        self.chart = chart
        self.gamma = tuple(tuple(tuple(_as_rf(chart, g) for g in vec)
                                 for vec in row) for row in gamma)
        self._rows = tuple(tuple(tuple((m, row[m][k]) for m in range(n) if row[m][k])
                                 for k in range(n)) for row in self.gamma)
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
    """Dense tensor components keyed by 1-based index tuples, plus a zero flag
    that is computed once, when the report is built."""
    kind: str
    components: dict
    is_zero: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_zero",
                           all(rf.is_zero() for rf in self.components.values()))

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


def _nabla_coordinate(conn: Connection, axis: int, coeffs) -> list:
    """Components of nabla_{d_axis} Y from those of Y:
    d_axis Y^k + sum_m gamma[axis][m][k] Y^m.

    The one place where Christoffel symbols meet field components; a zero
    component is not differentiated.
    """
    var = conn.chart.variables[axis]
    out = []
    for c, row in zip(coeffs, conn._rows[axis]):
        total = c.diff(var) if c else c
        for m, g in row:
            if coeffs[m]:
                total = total + g * coeffs[m]
        out.append(total)
    return out


def _combination(zero: RationalFunction, terms) -> list:
    """Components of sum w * V over (w, V) terms, V a component list; zero
    weights and zero entries are skipped.  `zero` is the chart's zero."""
    out = [zero] * zero.chart.dim
    for w, vector in terms:
        if w:
            for k, v in enumerate(vector):
                if v:
                    out[k] = out[k] + v * w
    return out


def covariant_derivative(conn: Connection, X: VectorField, Y: VectorField) -> VectorField:
    """nabla_X Y = sum_i X^i nabla_{d_i} Y."""
    require_same_chart(conn, X)
    require_same_chart(conn, Y)
    return VectorField(conn.chart, _combination(
        RationalFunction.zero(conn.chart), ((xi, _nabla_coordinate(conn, i, Y.coeffs))
                                            for i, xi in enumerate(X.coeffs) if xi)))


def _partials(X: VectorField) -> list:
    """The derivative table d[a][k] = d_a X^k, one derivative per axis and
    nonzero component (a zero component is its own derivative)."""
    return [[c.diff(var) if c else c for c in X.coeffs] for var in X.chart.variables]


def _bracket(X: VectorField, dX, Y: VectorField, dY) -> VectorField:
    """[X, Y]^k = sum_a (X^a dY[a][k] - Y^a dX[a][k]), from the derivative
    tables dX = _partials(X) and dY = _partials(Y); the one bracket kernel."""
    require_same_chart(X, Y)
    chart = X.chart
    out = [RationalFunction.zero(chart)] * chart.dim
    for xa, ya, dxa, dya in zip(X.coeffs, Y.coeffs, dX, dY):
        for k in range(chart.dim):
            if xa and dya[k]:
                out[k] = out[k] + xa * dya[k]
            if ya and dxa[k]:
                out[k] = out[k] - ya * dxa[k]
    return VectorField(chart, out)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y]^k = sum_i (X^i d_i Y^k - Y^i d_i X^k).

    Callers that bracket one field with many others build its `_partials`
    table once and call `_bracket` directly.
    """
    return _bracket(X, _partials(X), Y, _partials(Y))


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

    Coordinate fields commute and nabla_{d_j} d_k has components gamma[j][k],
    so R(d_i, d_j) d_k = nabla_{d_i} gamma[j][k] - nabla_{d_j} gamma[i][k].
    """
    if conn._curvature is None:
        n = conn.chart.dim
        nabla = [[[_nabla_coordinate(conn, i, conn.gamma[j][k]) for k in range(n)]
                  for j in range(n)] for i in range(n)]
        comps = {}
        for l in range(n):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        comps[(l + 1, i + 1, j + 1, k + 1)] = \
                            nabla[i][j][k][l] - nabla[j][i][k][l]
        conn._curvature = TensorReport("curvature", comps)
    return conn._curvature


def is_flat_affine(conn: Connection) -> bool:
    """True iff both the torsion and the curvature tensor vanish identically."""
    return torsion(conn).is_zero and curvature(conn).is_zero


# ----- infinitesimal affine transformations ----------------------------------


def _iat_residuals(conn: Connection, X: VectorField):
    """Residuals of the flat-case criterion as ((i, j), components) pairs, one
    per coordinate pair with i <= j (1-based), in row-major order.

    residual(i, j) = nabla_{d_i} nabla_{d_j} X - nabla_{(nabla_{d_i} d_j)} X;
    X is infinitesimal affine iff all residuals vanish (sufficient on
    coordinate pairs by function-linearity of both sides).  Every caller
    requires a flat connection, on which residual(i, j) - residual(j, i) =
    R(d_i, d_j) X - nabla_{T(d_i, d_j)} X = 0, so the pairs i > j repeat
    earlier ones; the first failing pair in row-major order has i <= j.
    """
    n = conn.chart.dim
    zero = RationalFunction.zero(conn.chart)
    first = [_nabla_coordinate(conn, j, X.coeffs) for j in range(n)]
    residuals = []
    for i in range(n):
        for j in range(i, n):
            second = _nabla_coordinate(conn, i, first[j])
            correction = _combination(zero, zip(conn.gamma[i][j], first))
            residuals.append(((i + 1, j + 1),
                              [a - b for a, b in zip(second, correction)]))
    return residuals


def is_infinitesimal_affine(conn: Connection, X: VectorField) -> IATReport:
    """Flat-case infinitesimal-affine test; requires a flat affine connection."""
    require_same_chart(conn, X)
    if not is_flat_affine(conn):
        raise NotFlatError(
            "the infinitesimal-affine criterion on coordinate pairs is only "
            "equivalent to the general one for flat affine connections")
    for pair, residual in _iat_residuals(conn, X):
        if any(residual):
            return IATReport(False, pair)
    return IATReport(True)


# ----- constant-coefficient span machinery ------------------------------------


def _coordinate_rows(fields):
    """Exact coordinates of fields over a shared monomial basis."""
    if not fields:
        return []
    return _component_rows(fields[0].chart, _field_coeffs(fields))


def _field_coeffs(fields):
    """The component lists of fields that share one chart."""
    chart = fields[0].chart
    for f in fields:
        if f.chart != chart:
            raise ValueError("all fields must share one chart")
    return [f.coeffs for f in fields]


def _cleared(chart: Chart, vectors):
    """The numerators of component lists brought over one common polynomial
    denominator, which preserves constant-linear relations.

    The common denominator is the lcm of the distinct denominators of the
    nonzero coefficients, and each distinct denominator is divided into it
    once; a zero coefficient (always over 1) contributes its zero numerator.
    """
    dens = dict.fromkeys(c.den for coeffs in vectors for c in coeffs if c.num)
    common = Polynomial.one(chart)
    for d in dens:
        common = poly_lcm(common, d)
    if common.is_one():   # every denominator is 1: nothing to clear
        return [[c.num for c in coeffs] for coeffs in vectors]
    multiplier = {d: exact_div(common, d) for d in dens}
    return [[c.num * multiplier[c.den] if c.num else c.num for c in coeffs]
            for coeffs in vectors]


def _component_rows(chart: Chart, vectors):
    """`_coordinate_rows` of component lists that are already on `chart`.

    The coordinates are the rational coefficients of each (component,
    monomial) slot of the `_cleared` numerators, ordered deterministically.
    """
    cleared = _cleared(chart, vectors)
    axes = {(k, exps) for polys in cleared for k, p in enumerate(polys) for exps in p.terms}
    axis_list = sorted(axes, key=lambda a: (a[0],) + tuple(grlex_key(a[1])))
    return [[polys[k].terms.get(exps, _ZERO) for (k, exps) in axis_list]
            for polys in cleared]


def _sparse_coordinate_rows(fields):
    """The coordinates of `_coordinate_rows` as dicts {slot: x} over the
    nonzero entries, for `linalg._Echelon`; the (component, monomial) slots
    are numbered in the order they are met, since no span question depends
    on the order of the slots."""
    if not fields:
        return []
    slots = {}
    rows = []
    for polys in _cleared(fields[0].chart, _field_coeffs(fields)):
        row = {}
        for k, p in enumerate(polys):
            for exps, x in p.terms.items():
                row[slots.setdefault((k, exps), len(slots))] = x
        rows.append(row)
    return rows


def express_in_basis(targets, basis) -> list:
    """Constants lambda with target = sum lambda_i basis_i, one list per target.

    Denominators of all targets and basis fields are cleared once.  The basis
    is reduced once to an echelon basis (`linalg._Echelon`), each basis field
    b carrying -1 in a label column of its own past every coordinate slot, so
    every echelon row records its combination of basis fields.  A target t
    reduces to the label entries lambda, since t - sum_b lambda_b basis_b = 0.
    The label columns are numbered down, so a basis field that depends on the
    ones before it takes its own label column as pivot, and its coefficient,
    an entry at a pivot column of the residual, is zero.  Raises
    NotInSpanError, with the 0-based `index` of the first target that is not
    a constant combination of the basis.
    """
    targets, basis = list(targets), list(basis)
    rows = _sparse_coordinate_rows(targets + basis)
    n = len(basis)
    top = sum(map(len, rows))   # no slot number reaches it
    echelon = linalg._Echelon()
    for b, row in enumerate(rows[len(targets):]):
        row[top + n - b] = _MINUS_ONE
        echelon.add(row)
    solutions = []
    for index, row in enumerate(rows[:len(targets)]):
        solution = [_ZERO] * n
        for m, x in echelon.reduce(row).items():
            if m <= top:
                raise NotInSpanError(
                    "target is not in the constant span of the basis", index=index)
            solution[top + n - m] = x
        solutions.append(solution)
    return solutions


def independent_fields(fields, names):
    """Sublist of the fields that grow the span, in order (overlap removal).

    A field is kept when it is not in the echelon span of the fields kept
    before it (the pivot columns of the matrix with one column per field).
    """
    fields, names = list(fields), list(names)
    if len(fields) != len(names):
        raise ValueError("one name per field is required")
    echelon = linalg._Echelon()
    kept = [k for k, row in enumerate(_sparse_coordinate_rows(fields))
            if echelon.add(row) is not None]
    return [names[k] for k in kept], [fields[k] for k in kept]


# ----- the ansatz solver -------------------------------------------------------


def solve_iat_ansatz(conn: Connection, ansatz) -> list:
    """Basis of infinitesimal affine transformations within an ansatz space.

    The ansatz is one list of rational-function terms applied to every
    coefficient slot, so the unknowns are the coefficients of the candidates
    t·d_s, one per (slot s, term t).  The residuals of the flat-case criterion
    are linear in X, so each candidate's residual is built on its own, from
    one derivative table per term (d_j t, and d_i d_j t for i <= j) and the
    nonzero Christoffel symbols, with their first derivatives taken once per
    call:

        first[j]^k = delta_ks d_j t + gamma[j][s][k] t,
        residual(i, j)^k = delta_ks d_i d_j t + (d_i gamma[j][s][k]) t
                           + gamma[j][s][k] d_i t
                           + sum_m gamma[i][m][k] first[j]^m
                           - sum_l gamma[i][j][l] first[l]^k.

    The connection is flat, so residual(i, j) = residual(j, i) and only the
    pairs i <= j give equations.  At each pair, clearing polynomial
    denominators and collecting monomial coefficients of the candidates whose
    residual is nonzero gives exact linear equations (zero in every other
    candidate's column); the nullspace of the system is returned, one field
    per nullspace basis vector (coefficient vectors in reduced row-echelon
    form, candidates ordered slot by slot, then by term).
    """
    if not is_flat_affine(conn):
        raise NotFlatError("the ansatz solver requires a flat affine connection")
    chart = conn.chart
    n = chart.dim
    terms = [_as_rf(chart, t) for t in ansatz]
    probe = [VectorField(chart, [t] + [0] * (n - 1)) for t in terms]
    if linalg.rank(_coordinate_rows(probe)) != len(terms):
        raise ValueError("ansatz terms are linearly dependent")
    zero = RationalFunction.zero(chart)
    variables = chart.variables
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    # gamma_at[j][s] lists the nonzero (k, gamma[j][s][k]); d_gamma holds
    # d_i gamma[j][s][k] for those symbols only
    gamma_at = [[tuple((k, g) for k, g in enumerate(vec) if g) for vec in row]
                for row in conn.gamma]
    d_gamma = {(i, j, s, k): g.diff(var)
               for j in range(n) for s in range(n) for k, g in gamma_at[j][s]
               for i, var in enumerate(variables)}
    tables = []
    for t in terms:
        d1 = [t.diff(var) for var in variables]
        tables.append((t, d1, {(i, j): d1[j].diff(variables[i]) if d1[j] else zero
                               for i, j in pairs}))
    # residuals[p][c]: components of candidate c's residual at pairs[p]
    residuals = [[] for _ in pairs]
    for s in range(n):
        for t, d1, d2 in tables:
            first = []
            for j in range(n):
                comps = [zero] * n
                comps[s] = d1[j]
                for k, g in gamma_at[j][s]:
                    comps[k] = comps[k] + g * t
                first.append(comps)
            for (i, j), at_pair in zip(pairs, residuals):
                res = [zero] * n
                res[s] = d2[i, j]
                for k, g in gamma_at[j][s]:
                    res[k] = res[k] + d_gamma[i, j, s, k] * t + g * d1[i]
                for k, row in enumerate(conn._rows[i]):
                    for m, g in row:
                        if first[j][m]:
                            res[k] = res[k] + g * first[j][m]
                for l, g in gamma_at[i][j]:
                    for k, v in enumerate(first[l]):
                        if v:
                            res[k] = res[k] - g * v
                at_pair.append(res)
    size = len(terms)
    ncols = n * size
    equations = []
    for at_pair in residuals:
        live = [c for c, res in enumerate(at_pair) if any(res)]
        if not live:
            continue
        for coords in zip(*_component_rows(chart, [at_pair[c] for c in live])):
            row = [_ZERO] * ncols
            for c, x in zip(live, coords):
                row[c] = x
            equations.append(row)
    # component s of a solution is sum_a lambda[s, a] t_a
    return [VectorField(chart, [sum((t * w for w, t in zip(vec[s * size:(s + 1) * size], terms)
                                     if w), zero) for s in range(n)])
            for vec in linalg.nullspace(equations, ncols=ncols)]


# ----- frames, product tables --------------------------------------------------


def connection_from_frame(frame: Frame, constants: SCAlgebra) -> Connection:
    """The connection with nabla_{E_a} E_b = sum_k c[a][b][k] E_k on the frame.

    Extends by function-linearity in the first slot and the Leibniz rule in the
    second; the result is post-verified against the defining products for every
    frame pair.  With A the frame matrix and q[a][b] = E_a E_b - E_a(E_b) the
    Christoffel part of each defining product, gamma[i][j] = sum_{a,b}
    A^-1[i][a] A^-1[j][b] q[a][b], and A^-1 is taken only when some q[a][b] is
    nonzero.  On an affine chart of the connection, one in which its
    Christoffel symbols vanish (GL(n) in matrix coordinates with E_a E_b the
    matrix product), every defining product is the plain derivative E_a(E_b),
    so q and gamma are zero; `Frame` has already proved A nonsingular.
    """
    chart = frame.chart
    n = chart.dim
    if constants.dim != n:
        raise ValueError("structure constants must match the frame dimension")
    zero = RationalFunction.zero(chart)
    A = [list(f.coeffs) for f in frame.fields]
    # nabla_{E_a} E_b = E_a(E_b) + sum_{i,j} A[a][i] A[b][j] gamma[i][j], so the
    # Christoffel part of each defining product is expected[a][b] - E_a(E_b)
    expected = [[_combination(zero, ((x, A[k]) for k, x in constants.rows[a][b]))
                 for b in range(n)] for a in range(n)]
    grads = [_partials(f) for f in frame.fields]
    q = [[[e - d for e, d in zip(expected[a][b], _combination(zero, zip(A[a], grads[b])))]
          for b in range(n)] for a in range(n)]
    if any(e for row in q for vec in row for e in vec):
        try:
            A_inv = linalg.invert(A, zero=zero, one=RationalFunction.one(chart))
        except ValueError:
            raise SingularFrameError("frame matrix is singular") from None
        # both contractions skip zero weights and zero entries
        half = [[_combination(zero, zip(A_inv[i], (q[a][b] for a in range(n))))
                 for b in range(n)] for i in range(n)]
        gamma = [[_combination(zero, zip(A_inv[j], half[i])) for j in range(n)]
                 for i in range(n)]
    else:
        gamma = [[[zero] * n for _ in range(n)] for _ in range(n)]
    conn = Connection(chart, gamma)
    for a in range(n):
        for b in range(n):
            got = covariant_derivative(conn, frame.fields[a], frame.fields[b])
            if list(got.coeffs) != expected[a][b]:
                raise AssertionError(
                    f"frame round-trip failed at pair ({a + 1}, {b + 1})")
    return conn


def product_table(conn: Connection, fields, names=None) -> SCAlgebra:
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
    for name, f in zip(names, fields):   # also refuses a field on another chart
        report = is_infinitesimal_affine(conn, f)
        if not report.holds:
            raise IATViolationError(name, report.witness)
    n = len(fields)
    zero = RationalFunction.zero(conn.chart)
    # nabla[j][a] = nabla_{d_a} X_j, so nabla_{X_i} X_j = sum_a X_i^a nabla[j][a]
    nabla = [[_nabla_coordinate(conn, a, f.coeffs) for a in range(conn.chart.dim)]
             for f in fields]
    products = [VectorField(conn.chart, _combination(zero, zip(bi.coeffs, nabla[j])))
                for bi in fields for j in range(n)]
    try:
        coords = express_in_basis(products, fields)
    except NotInSpanError as err:
        i, j = divmod(err.index, n)
        raise NotInSpanError(
            f"product {names[i]}·{names[j]} (pair ({i + 1}, {j + 1})) "
            "is not a constant combination of the given fields",
            pair=(i + 1, j + 1)) from None
    cells = [_row(v) for v in coords]
    return SCAlgebra._of(names, tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n)))
