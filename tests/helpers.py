"""Shared scene builders for the test suite.

The recurring scenes: the half-plane chart with the invariant frame
e1+ = x*d/dx, e2+ = x*d/dy, the six-field ambient basis it supports together
with its multiplication table, a one-parameter family of left-symmetric
products on the same frame, the GL(n) scene of the benchmark
(`gln_scene`) and aff(n) on the zero connection (`aff_scene`).
`full_route_checks` gives an envelope report's checks by the full routes that
`compute_envelope` shortcuts; `dense_constants` and `dense_gamma` build the
dense arrays of an algebra's and a connection's sparse rows; `oracle_diff` is
the per-variable derivative that `RationalFunction`'s gradient replaced.
"""
from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

from flataffine import (
    Chart,
    Connection,
    Frame,
    RationalFunction,
    SCAlgebra,
    VectorField,
    check_associative,
    commutator_algebra,
    connection_from_frame,
    express_in_basis,
    lie_bracket,
    restrict_to_subspace,
)
from flataffine.algebra import _dense
from flataffine.linalg import in_row_space, rank, rref, solve
from flataffine.render import render_table_text
from flataffine.symcore import Polynomial, exact_div, grlex_key, poly_lcm, require_same_chart

_ZERO = Fraction(0)   # shared by the empty cells of the dense oracle rows

BENCH_SCENE = Path(__file__).resolve().parent.parent / "bench" / "scene.py"


def chart_xy() -> Chart:
    return Chart("halfplane", ("x", "y"))


def plane_chart() -> Chart:
    return Chart("plane", ("x", "y"))


def aff_frame(chart: Chart) -> Frame:
    return Frame([VectorField(chart, ["x", "0"]), VectorField(chart, ["0", "x"])])


def aff_line_lsa() -> SCAlgebra:
    """e1e1 = 2e1, e1e2 = e2, e2e1 = 0, e2e2 = e1."""
    return SCAlgebra.from_products(
        ("e1", "e2"),
        {("e1", "e1"): {"e1": 2}, ("e1", "e2"): {"e2": 1}, ("e2", "e2"): {"e1": 1}})


def alpha_family(alpha: int) -> SCAlgebra:
    """e1e1 = alpha*e1, e1e2 = e2, e2e1 = e2e2 = 0."""
    return SCAlgebra.from_products(
        ("e1", "e2"),
        {("e1", "e1"): {"e1": alpha}, ("e1", "e2"): {"e2": 1}})


def aff_line_connection(chart: Chart | None = None) -> Connection:
    chart = chart or chart_xy()
    return connection_from_frame(aff_frame(chart), aff_line_lsa())


def alpha_connection(alpha: int, chart: Chart | None = None) -> Connection:
    chart = chart or chart_xy()
    return connection_from_frame(aff_frame(chart), alpha_family(alpha))


SIX_IAT_FIELDS = (
    ("e1-", ("x", "y")),
    ("e2-", ("0", "1")),
    ("C3", ("1/x", "0")),
    ("C4", ("y/x", "0")),
    ("C5", ("x + y^2/x", "0")),
    ("C6", ("-x*y - y^3/x", "x^2 + y^2")),
)


def six_iat_fields(chart: Chart | None = None):
    chart = chart or chart_xy()
    names = [name for name, _ in SIX_IAT_FIELDS]
    fields = [VectorField(chart, coeffs) for _, coeffs in SIX_IAT_FIELDS]
    return names, fields


# Multiplication table of the six invariant-connection fields on the half
# plane; rows are the left factor, entries as {name: coefficient}.
SIX_FIELD_TABLE = {
    ("e1-", "e1-"): {"e1-": 1, "C5": 1},
    ("e1-", "e2-"): {"C4": 1},
    ("e1-", "C4"): {"C4": 1},
    ("e1-", "C5"): {"C5": 2},
    ("e1-", "C6"): {"C6": 2},
    ("e2-", "e1-"): {"e2-": 1, "C4": 1},
    ("e2-", "e2-"): {"C3": 1},
    ("e2-", "C4"): {"C3": 1},
    ("e2-", "C5"): {"C4": 2},
    ("e2-", "C6"): {"e1-": 2, "C5": -2},
    ("C3", "e1-"): {"C3": 2},
    ("C3", "C5"): {"C3": 2},
    ("C3", "C6"): {"e2-": 2, "C4": -2},
    ("C4", "e1-"): {"C4": 2},
    ("C4", "C5"): {"C4": 2},
    ("C4", "C6"): {"e1-": 2, "C5": -2},
    ("C5", "e1-"): {"C5": 2},
    ("C5", "C5"): {"C5": 2},
    ("C5", "C6"): {"C6": 2},
    ("C6", "e1-"): {"C6": 1},
    ("C6", "e2-"): {"C5": 1},
    ("C6", "C4"): {"C5": 1},
}


def six_field_table_algebra() -> SCAlgebra:
    names = [name for name, _ in SIX_IAT_FIELDS]
    return SCAlgebra.from_products(names, SIX_FIELD_TABLE)


ALPHA2_FIELDS = (
    ("C1", ("1/2*x", "0")),
    ("C2", ("0", "1/2*x^2")),
    ("C3", ("0", "y")),
    ("C4", ("0", "1")),
)

# The 4x4 table of the generic case at alpha = 2; rows are the left factor.
ALPHA2_TABLE = {
    ("C1", "C1"): {"C1": 1},
    ("C1", "C2"): {"C2": 1},
    ("C2", "C3"): {"C2": 1},
    ("C3", "C3"): {"C3": 1},
    ("C4", "C3"): {"C4": 1},
}


def alpha2_fields(chart: Chart | None = None):
    chart = chart or chart_xy()
    names = [name for name, _ in ALPHA2_FIELDS]
    fields = [VectorField(chart, coeffs) for _, coeffs in ALPHA2_FIELDS]
    return names, fields


def alpha2_table_algebra() -> SCAlgebra:
    names = [name for name, _ in ALPHA2_FIELDS]
    return SCAlgebra.from_products(names, ALPHA2_TABLE)


def zero_algebra(basis_names) -> SCAlgebra:
    """The algebra on the given basis whose products are all zero."""
    n = len(tuple(basis_names))
    return SCAlgebra(basis_names, [[[0] * n for _ in range(n)] for _ in range(n)])


def dense_constants(A: SCAlgebra) -> tuple:
    """The dense constants c[i][j][k], the coefficient of basis_k in
    basis_i · basis_j, built from A's sparse rows with 0 where a cell lists
    no k."""
    return tuple(tuple(_dense(A.dim, cell) for cell in row) for row in A.rows)


def dense_gamma(conn: Connection) -> tuple:
    """The dense Christoffel symbols gamma[i][j][k], built from the
    connection's sparse rows with the chart's shared 0 where a symbol is
    absent."""
    zero = RationalFunction.zero(conn.chart)
    n = conn.chart.dim
    return tuple(tuple(_dense(n, vec, zero) for vec in row) for row in conn._rows)


# ----- rational functions ----------------------------------------------------------


def oracle_diff(a: RationalFunction, variable: str) -> RationalFunction:
    """`RationalFunction.diff` before the gradient, without its memo: one
    partial per request, taken only along the variable asked for.  A constant
    c/1 or a variable x/1 over the chart's shared 1 answers from its row of
    the chart's shared 0 and 1 (d x_i/d x_j = delta_ij); any other value takes
    the quotient rule with the canonical-operand shortcuts.  An unknown
    variable raises UnknownVariableError."""
    chart = a.num.chart
    axis = chart.axis(variable)
    terms = a.num.terms
    if a.den is chart._one and len(terms) <= 1:
        exps, c = next(iter(terms.items()), (chart.constant_exps, 0))
        if exps == chart.constant_exps:
            return RationalFunction.zero(chart)
        if c == 1 and sum(exps) == 1:
            return RationalFunction.one(chart) if exps[axis] else RationalFunction.zero(chart)
    dn = a.num.diff(variable)
    if a.den.is_one():
        return RationalFunction._reduced(dn, a.den)
    dd = a.den.diff(variable)
    if not dd.terms:
        if not dn.terms:
            return RationalFunction.zero(chart)
        return RationalFunction(dn, a.den)
    return RationalFunction(dn * a.den - a.num * dd, a.den * a.den)


def is_polynomial(f: RationalFunction) -> bool:
    return f.den.is_one()


def constant_value(f: RationalFunction) -> Fraction:
    """The value of a constant rational function."""
    if not f.is_constant():
        raise ValueError(f"{f} is not a constant")
    return Fraction(f.num.leading_coefficient())


# ----- field spans and tables ------------------------------------------------------


def apply_field(X: VectorField, f: RationalFunction) -> RationalFunction:
    """Directional derivative X(f)."""
    out = RationalFunction.zero(X.chart)
    for var, c in zip(X.chart.variables, X.coeffs):
        if c:
            out = out + c * f.diff(var)
    return out


def oracle_add_at(vec: dict, k, x) -> None:
    """`geometry._add_at` before it required a nonzero x: vec[k] += x on a
    sparse vector {k: value}, testing every result, x itself included, for
    zero; the oracle of the accumulator in value and in insertion order."""
    total = vec[k] + x if k in vec else x
    if total:
        vec[k] = total
    else:
        vec.pop(k, None)


def pairwise_derivative_along(X: VectorField, Y: VectorField) -> dict:
    """X(Y)^k = sum_a X^a d_a Y^k as a sparse vector, with one
    `RationalFunction.diff` and one truth test per pair (a, k) of X's and Y's
    components: the kernel that `geometry._derivative_along` on Y's table
    `geometry._partials(Y)` replaced, kept as its oracle in value and in
    insertion order."""
    variables = X.chart.variables
    out = {}
    for a, xa in X.components.items():
        var = variables[a]
        for k, c in Y.components.items():
            d = c.diff(var)
            if d:
                oracle_add_at(out, k, xa * d)
    return out


def pairwise_lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] = X(Y) - Y(X) from two `pairwise_derivative_along`: `lie_bracket`
    as it was before the per-field tables."""
    require_same_chart(X, Y)
    out = pairwise_derivative_along(X, Y)
    for k, c in pairwise_derivative_along(Y, X).items():
        oracle_add_at(out, k, -c)
    return VectorField._of(X.chart, out)


def dense_coordinate_rows(fields):
    """Exact coordinates of fields over a shared monomial basis.

    The dense coordinate layer that `geometry._FieldSpan` (sparse rows,
    slots numbered as met) replaced; an oracle for it and for the solvers
    built on it."""
    if not fields:
        return []
    return dense_component_rows(fields[0].chart, _field_coeffs(fields))


def dense_express(targets, basis) -> list:
    """`express_in_basis` with its rows made dense: one list of len(basis)
    stored rationals per target, 0 where the rows hold no (k, x) pair.  The
    form the solve oracles return."""
    basis = list(basis)
    solutions = []
    for row in express_in_basis(targets, basis):
        solution = [0] * len(basis)
        for k, x in row:
            solution[k] = x
        solutions.append(solution)
    return solutions


def _field_coeffs(fields):
    """The component lists of fields that share one chart."""
    chart = fields[0].chart
    for f in fields:
        if f.chart != chart:
            raise ValueError("all fields must share one chart")
    return [f.coeffs for f in fields]


def dense_component_rows(chart: Chart, vectors):
    """`dense_coordinate_rows` of component lists that are already on `chart`.

    The coordinates are the rational coefficients of each (component,
    monomial) slot of the numerators over the lcm of all denominators, ordered
    deterministically.  The dense clearing that `geometry._cleared` (sparse
    vectors) replaced, kept here as the oracle's own.
    """
    common = Polynomial.one(chart)
    for den in dict.fromkeys(c.den for coeffs in vectors for c in coeffs if c):
        common = poly_lcm(common, den)
    cleared = [[c.num * exact_div(common, c.den) for c in coeffs] for coeffs in vectors]
    axes = {(k, exps) for polys in cleared for k, p in enumerate(polys) for exps in p.terms}
    axis_list = sorted(axes, key=lambda a: (a[0],) + tuple(grlex_key(a[1])))
    # a coefficient is read as a Fraction, as it was stored when this was the
    # production route
    return [[_ZERO if (x := polys[k].terms.get(exps)) is None else Fraction(x)
             for (k, exps) in axis_list] for polys in cleared]


def field_span_rank(fields) -> int:
    return rank(dense_coordinate_rows(list(fields)))


def same_field_span(fields_a, fields_b) -> bool:
    """Equality of the constant-coefficient spans of two field lists."""
    fields_a, fields_b = list(fields_a), list(fields_b)
    rows = dense_coordinate_rows(fields_a + fields_b)
    ra, _ = rref(rows[:len(fields_a)])
    rb, _ = rref(rows[len(fields_a):])
    return ra == rb


def emit_table(algebra: SCAlgebra, format: str = "text") -> str:
    """Render a multiplication table; rows are the left factor."""
    if format == "text":
        return render_table_text(algebra)
    if format == "json":
        return json.dumps(algebra.to_json_dict(), indent=2)
    raise ValueError(f"unknown format {format!r} (expected 'text' or 'json')")


# ----- matrices and subspaces ---------------------------------------------------


def mat_mul(a, b, *, zero=Fraction(0)):
    """The matrix product a·b over any exact field; zero entries of a are skipped."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            s = zero
            for k, e in enumerate(row):
                if e != zero:
                    s = s + e * b[k][j]
            out_row.append(s)
        out.append(out_row)
    return out


def subspace_contains(space, vector) -> bool:
    """Membership of a vector in a Subspace."""
    return in_row_space([list(r) for r in space.rows], [Fraction(x) for x in vector])


def subspace_coordinates(space, vector):
    """Coordinates of a vector against a Subspace's basis rows, or None."""
    cols = [[row[c] for row in space.rows] for c in range(space.ambient_dim)]
    return solve(cols, [[Fraction(x) for x in vector]])[0]


# ----- GL2 ---------------------------------------------------------------------


class GL2Scene:
    """Chart, invariant frames and the bi-invariant connection on GL2.

    The tests use `gln_scene(2)`.  This class stays only as the independent
    reference that `bench/test_bench.py` compares `GLnScene(2)` with; it goes
    when that test does.
    """

    def __init__(self):
        n = 2
        self.n = n
        self.chart = Chart("gl2", tuple(f"x{i}{j}"
                                        for i in range(1, n + 1) for j in range(1, n + 1)))
        self.pairs = [(r, s) for r in range(1, n + 1) for s in range(1, n + 1)]
        names = [f"E{r}{s}" for (r, s) in self.pairs]
        products = {}
        for (p, q) in self.pairs:
            for (r, s) in self.pairs:
                if q == r:
                    products[(f"E{p}{q}", f"E{r}{s}")] = {f"E{p}{s}": 1}
        self.constants = SCAlgebra.from_products(names, products)
        self.frame = Frame([self.e_plus(r, s) for (r, s) in self.pairs])
        self.connection = connection_from_frame(self.frame, self.constants)
        quads = list(iproduct(range(1, n + 1), repeat=4))
        self.f_names = [f"x{s}{p}d{r}{q}" for (p, q, r, s) in quads]
        self.f_fields = [self.f_field(p, q, r, s) for (p, q, r, s) in quads]
        self.quads = quads

    def _zero_coeffs(self):
        return [RationalFunction.zero(self.chart) for _ in range(self.chart.dim)]

    def _var(self, i, j):
        return RationalFunction.variable(self.chart, f"x{i}{j}")

    def _axis(self, i, j):
        return self.chart.axis(f"x{i}{j}")

    def e_plus(self, r, s) -> VectorField:
        coeffs = self._zero_coeffs()
        for i in range(1, self.n + 1):
            coeffs[self._axis(i, s)] = self._var(i, r)
        return VectorField(self.chart, coeffs)

    def e_minus(self, r, s) -> VectorField:
        coeffs = self._zero_coeffs()
        for i in range(1, self.n + 1):
            coeffs[self._axis(r, i)] = self._var(s, i)
        return VectorField(self.chart, coeffs)

    def f_field(self, p, q, r, s) -> VectorField:
        """x_{sp} * d/dx_{rq}."""
        coeffs = self._zero_coeffs()
        coeffs[self._axis(r, q)] = self._var(s, p)
        return VectorField(self.chart, coeffs)

    def invariant_fields(self):
        names, fields = [], []
        for (r, s) in self.pairs:
            names.append(f"E+{r}{s}")
            fields.append(self.e_plus(r, s))
        for (r, s) in self.pairs:
            names.append(f"E-{r}{s}")
            fields.append(self.e_minus(r, s))
        return names, fields


def gln_scene(n: int, frame_order=None):
    """`GLnScene(n, frame_order)` of bench/scene.py, the GL(n) scene that the
    benchmark's workloads run on."""
    spec = importlib.util.spec_from_file_location("bench_scene", BENCH_SCENE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GLnScene(n, frame_order)


def aff_scene(n: int):
    """aff(n) on the zero connection over u1 ... un: the fields u_a d_b and
    d_b, named "u{a}d{b}" and "d{b}"; returns (connection, fields, names)."""
    chart = Chart("aff", [f"u{a}" for a in range(1, n + 1)])
    u = [RationalFunction.variable(chart, v) for v in chart.variables]
    names, fields = [], []
    for a in range(n):
        for b in range(n):
            names.append(f"u{a + 1}d{b + 1}")
            fields.append(VectorField(chart, [u[a] if k == b else 0 for k in range(n)]))
    for b in range(n):
        names.append(f"d{b + 1}")
        fields.append(VectorField.coordinate(chart, b))
    return Connection.zero(chart), fields, names


def full_route_checks(report, fields) -> dict:
    """The checks of an envelope report, each by its full route: every scan
    run, every commutator built with its Jacobi scan, all n^2 brackets."""
    ambient, envelope = report.ambient, report.envelope
    n = ambient.dim
    brackets = express_in_basis([lie_bracket(X, Y) for X in fields for Y in fields], fields)
    restricted = commutator_algebra(restrict_to_subspace(ambient, report.closure))
    negated = tuple(tuple(tuple((k, -x) for k, x in cell) for cell in row)
                    for row in restricted.rows)
    checks = {"flat_affine": True}
    checks.update((f"iat:{name}", True) for name in ambient.basis_names)
    checks["ambient_associative"] = check_associative(ambient).holds
    checks["ambient_commutator_matches_lie_brackets"] = \
        commutator_algebra(ambient).rows == tuple(tuple(brackets[i * n:(i + 1) * n])
                                                 for i in range(n))
    checks["closure_product_closed"] = True
    checks["envelope_associative"] = check_associative(envelope).holds
    checks["envelope_commutator_is_opposite_of_restricted_brackets"] = \
        commutator_algebra(envelope).rows == negated
    return checks


# ----- randomized instances ------------------------------------------------------


def random_polynomial(rng, chart: Chart, max_degree: int = 3, max_terms: int = 4):
    from flataffine import Polynomial
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = []
        budget = max_degree
        for _ in range(chart.dim):
            e = rng.randint(0, budget)
            exps.append(e)
            budget -= e
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(chart, {e: c for e, c in terms.items() if c})


def oracle_rational(x):
    """The scalar rule as `algebra._rational` spelled it before it moved
    into `symcore/polynomial.py`: x, any value `Fraction()` accepts, as an int
    when it is integral (a bool becomes its int), a `Fraction` otherwise."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def assert_stored(coeff):
    """A coefficient in stored form: a nonzero int when it is integral, a
    Fraction otherwise; never a bool, a float or a Fraction over 1."""
    assert type(coeff) is int or type(coeff) is Fraction, repr(coeff)
    assert coeff, repr(coeff)
    assert (type(coeff) is int) == (coeff.denominator == 1), repr(coeff)


def assert_stored_row(row, n):
    """`row` in `SCAlgebra.rows`' stored form over n basis elements: a tuple
    of (k, x) pairs in ascending k < n, each x `assert_stored`."""
    assert type(row) is tuple, repr(row)
    for pair in row:
        assert type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int, repr(row)
        assert 0 <= pair[0] < n, repr(row)
        assert_stored(pair[1])
    assert all(a[0] < b[0] for a, b in zip(row, row[1:])), repr(row)


def assert_stored_vector(values):
    """`assert_stored` for each entry of a dense vector, whose zeros are the
    int 0: the stored form of every rational of the algebra layer."""
    for x in values:
        if type(x) is int and x == 0:
            continue
        assert_stored(x)


def as_fractions(p):
    """p with every coefficient read as a Fraction, the form the oracles
    compute in: the kernels as they were when every stored coefficient was
    a Fraction.  An oracle hands its result back through the validating
    constructor, which stores it as the kernels do and keeps its term order."""
    from flataffine import Polynomial
    return Polynomial._of(p.chart, {e: Fraction(c) for e, c in p.terms.items()})


def assert_canonical(p):
    """Internal results wrap their terms without validation; the validating
    constructor is the oracle that they are canonical.  The type check matters
    because int 1 compares equal to Fraction(1)."""
    from flataffine import Polynomial
    assert Polynomial(p.chart, p.terms).terms == p.terms
    for exps, coeff in p.terms.items():
        assert_stored(coeff)
        assert type(exps) is tuple and len(exps) == p.chart.dim


def random_rational_function(rng, chart: Chart, max_degree: int = 3):
    num = random_polynomial(rng, chart, max_degree)
    den = random_polynomial(rng, chart, max_degree=2, max_terms=2)
    while den.is_zero():
        den = random_polynomial(rng, chart, max_degree=2, max_terms=2)
    return RationalFunction(num, den)


def random_algebra(rng, dim: int) -> SCAlgebra:
    names = tuple(f"b{i + 1}" for i in range(dim))
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if rng.random() < 0.6:
                k = rng.randrange(dim)
                c[i][j][k] = Fraction(rng.choice((-2, -1, 1, 2)))
    return SCAlgebra(names, c)


def unit_matrix_algebra(size, strict=False):
    """M_size(Q), or its strictly upper triangular part, in the matrix-unit
    basis E_pq E_rs = [q == r] E_ps: associative, with few nonzero cells."""
    units = [(p, q) for p in range(size) for q in range(size) if not strict or p < q]
    index = {u: k for k, u in enumerate(units)}
    n = len(units)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, (p, q) in enumerate(units):
        for b, (r, t) in enumerate(units):
            if q == r:
                c[a][b][index[p, t]] = Fraction(1)
    return SCAlgebra([f"E{p + 1}{q + 1}" for p, q in units], c)


def perturbed(rng, A, fractional=False):
    """A copy of A with one structure constant moved by a nonzero rational
    (a non-integer one when `fractional`)."""
    n = A.dim
    c = [[list(vec) for vec in row] for row in dense_constants(A)]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    delta = rng.choice((-1, 1)) * Fraction(rng.randint(1, 3), rng.randint(1, 2))
    while fractional and delta.denominator == 1:
        delta = rng.choice((-1, 1)) * Fraction(rng.randint(1, 6), rng.randint(2, 7))
    c[i][j][k] += delta
    return SCAlgebra(A.basis_names, c)
