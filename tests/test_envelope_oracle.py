"""The envelope's cross-checks against the all-pairs versions they replaced.

`commutator_matches_brackets` takes the Lie brackets and the constant
differences c[i][j] - c[j][i] for the pairs i < j only, each bracket from one
derivative table per field, `commutator_algebra` subtracts only where c[j][i]
is nonzero, and `product_table` takes one nabla_{d_a} X_j per field and axis
instead of one `covariant_derivative` per pair.  This module keeps the
earlier versions as oracles and compares results, verdicts and errors on the
GL2 scene, the six half-plane fields and seeded frame connections, including
tables with one perturbed entry, and the bracket kernel on GL2, GL3 and
half-plane fields.
"""
import random
from fractions import Fraction

import pytest

from flataffine import (
    Chart,
    LieAlgebraSC,
    NotFlatError,
    RationalFunction,
    SCAlgebra,
    VectorField,
    commutator_algebra,
    connection_from_frame,
    is_flat_affine,
    lie_bracket,
    solve_iat_ansatz,
)
from flataffine import envelope, geometry
from flataffine.algebra import JacobiError
from flataffine.envelope import commutator_matches_brackets
from flataffine.geometry import (
    IATViolationError,
    NotInSpanError,
    covariant_derivative,
    express_in_basis,
    independent_fields,
    is_infinitesimal_affine,
    product_table,
)
from flataffine.symcore import ChartMismatchError, require_same_chart
from helpers import (
    GL2Scene,
    aff_frame,
    aff_line_connection,
    aff_line_lsa,
    alpha_family,
    chart_xy,
    gln_scene,
    random_rational_function,
    six_iat_fields,
)


# ----- oracles -------------------------------------------------------------------------


def oracle_lie_bracket(X, Y):
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


def oracle_commutator_matches_brackets(conn, fields, table):
    """Cross-check that antisymmetrized product-table constants equal the
    structure constants computed independently from Lie brackets of the
    fields."""
    n = table.dim
    brackets = [oracle_lie_bracket(fields[i], fields[j]) for i in range(n) for j in range(n)]
    expected = [[a - b for a, b in zip(table.c[i][j], table.c[j][i])]
                for i in range(n) for j in range(n)]
    return express_in_basis(brackets, fields) == expected


def oracle_commutator_algebra(A):
    """Lie algebra of commutators, f[i][j] = c[i][j] - c[j][i]."""
    n = A.dim
    f = tuple(tuple(tuple(a - b for a, b in zip(A.c[i][j], A.c[j][i])) for j in range(n))
              for i in range(n))
    return LieAlgebraSC(A.basis_names, f)   # checks antisymmetry and Jacobi


def oracle_product_table(conn, fields, names=None, *, check_iat=True):
    """Structure constants of the product X·Y = nabla_X Y on the given fields."""
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
    return SCAlgebra(names, [coords[i * n:(i + 1) * n] for i in range(n)])


# ----- scenes ----------------------------------------------------------------------------


def gl2_scene(seed):
    """The GL2 connection and the 16 fields the envelope keeps, in a seeded order."""
    rng = random.Random(seed)
    scene = GL2Scene()
    inv_names, inv_fields = scene.invariant_fields()
    inv = list(zip(inv_names, inv_fields))
    lin = list(zip(scene.f_names, scene.f_fields))
    rng.shuffle(inv)
    rng.shuffle(lin)
    names, fields = zip(*(inv + lin))
    names, fields = independent_fields(fields, names)
    return scene.connection, fields, names


def frame_scene(seed):
    """A seeded half-plane frame connection and a seeded rational basis of its
    infinitesimal affine transformations (so the constants have denominators)."""
    rng = random.Random(seed)
    algebra = rng.choice([aff_line_lsa(), alpha_family(2), alpha_family(3),
                          alpha_family(-1), alpha_family(1)])
    conn = connection_from_frame(aff_frame(chart_xy()), algebra)
    ansatz = ["1", "x", "y", "x^2", "y^2", "x*y", "1/x", "y/x", "y^2/x", "y^3/x",
              "x^2*y", "1/x^2", "y/x^2"]
    rng.shuffle(ansatz)
    basis = solve_iat_ansatz(conn, ansatz)
    # a unitriangular change of basis with rational entries stays invertible
    fields = []
    for k, f in enumerate(basis):
        field = f.scaled(Fraction(rng.choice((1, -2, 3)), rng.choice((1, 2, 5))))
        for g in basis[k + 1:]:
            if rng.random() < 0.5:
                field = field + g.scaled(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
        fields.append(field)
    rng.shuffle(fields)
    return conn, fields, [f"f{k + 1}" for k in range(len(fields))]


def halfplane_scene():
    names, fields = six_iat_fields(chart_xy())
    return aff_line_connection(chart_xy()), fields, names


SCENES = ([("gl2", seed) for seed in (1, 2, 3)] + [("halfplane", 0)]
          + [("frame", seed) for seed in range(4)])


def make_scene(kind, seed):
    if kind == "gl2":
        return gl2_scene(seed)
    if kind == "frame":
        return frame_scene(seed)
    return halfplane_scene()


def perturbed(table, i, j, k):
    """`table` with c[i][j][k] increased by one."""
    c = [list(row) for row in table.c]
    vec = list(c[i][j])
    vec[k] += 1
    c[i][j] = tuple(vec)
    return SCAlgebra(table.basis_names, c)


def commutator_outcome(compute, table):
    """The commutator algebra, or the witness of its Jacobi failure."""
    try:
        return compute(table)
    except JacobiError as err:
        return ("jacobi", err.witness)


# ----- comparisons ------------------------------------------------------------------------


@pytest.mark.parametrize("kind, seed", SCENES, ids=[f"{k}-{s}" for k, s in SCENES])
def test_envelope_steps_match_oracles(kind, seed):
    conn, fields, names = make_scene(kind, seed)
    table = product_table(conn, fields, names)
    assert table == oracle_product_table(conn, fields, names)
    if kind == "frame":
        assert any(x.denominator > 1 for row in table.c for vec in row for x in vec)
    assert commutator_matches_brackets(conn, fields, table) is True
    assert oracle_commutator_matches_brackets(conn, fields, table) is True
    assert commutator_algebra(table) == oracle_commutator_algebra(table)


@pytest.mark.parametrize("kind, seed", SCENES, ids=[f"{k}-{s}" for k, s in SCENES])
def test_one_entry_perturbations_get_the_oracle_verdicts(kind, seed):
    conn, fields, names = make_scene(kind, seed)
    table = product_table(conn, fields, names)
    rng = random.Random(seed)
    n = table.dim
    i, j = sorted(rng.sample(range(n), 2))
    k = rng.randrange(n)
    # at c[i][j] (i < j), at its mirror c[j][i] and on the diagonal c[i][i]
    for (a, b), caught in (((i, j), True), ((j, i), True), ((i, i), False)):
        bad = perturbed(table, a, b, k)
        verdict = commutator_matches_brackets(conn, fields, bad)
        assert verdict == oracle_commutator_matches_brackets(conn, fields, bad)
        assert verdict is not caught
        assert commutator_outcome(commutator_algebra, bad) == \
            commutator_outcome(oracle_commutator_algebra, bad)


def test_every_cell_perturbation_of_the_six_field_table():
    conn, fields, names = halfplane_scene()
    table = product_table(conn, fields, names)
    n = table.dim
    for a in range(n):
        for b in range(n):
            bad = perturbed(table, a, b, (a + 2 * b) % n)
            verdict = commutator_matches_brackets(conn, fields, bad)
            assert verdict == oracle_commutator_matches_brackets(conn, fields, bad)
            assert verdict is (a == b)
            assert commutator_outcome(commutator_algebra, bad) == \
                commutator_outcome(oracle_commutator_algebra, bad)


def test_product_table_errors_match_oracle():
    conn, fields, names = halfplane_scene()
    # a span that is not product-closed: e1-·e1- = e1- + C5
    subset = [fields[0], fields[5]]
    for table in (product_table, oracle_product_table):
        with pytest.raises(NotInSpanError) as err:
            table(conn, subset, ["e1-", "C6"])
        assert err.value.pair == (1, 1)
        assert str(err.value).startswith("product e1-·e1- (pair (1, 1))")
    # a field on another chart
    foreign = VectorField(Chart("uv", ("u", "v")), ["u", "v"])
    messages = set()
    for table in (product_table, oracle_product_table):
        with pytest.raises(ChartMismatchError) as err:
            table(conn, fields[:3] + [foreign] + fields[3:])
        messages.add(str(err.value))
    assert messages == {"charts differ: 'halfplane' vs 'uv'"}


# ----- the identities the shortcuts rest on -------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_lie_bracket_is_exactly_antisymmetric(seed):
    rng = random.Random(seed)
    chart = rng.choice([chart_xy(), Chart("xyz", ("x", "y", "z"))])
    fields = [VectorField(chart, [random_rational_function(rng, chart, 2)
                                  if rng.random() < 0.7 else 0
                                  for _ in range(chart.dim)])
              for _ in range(4)]
    assert any(not c.den.is_constant() for f in fields for c in f.coeffs)
    for X in fields:
        assert lie_bracket(X, X).is_zero()
        for Y in fields:
            assert lie_bracket(Y, X) == -lie_bracket(X, Y)
            assert lie_bracket(X, Y) == oracle_lie_bracket(X, Y)


def bracket_fields(kind):
    """Fields to bracket: the six half-plane fields (true denominators 1/x and
    y^3/x), the GL2 invariant and linear fields, or a seeded GL3 sample."""
    if kind == "halfplane":
        return halfplane_scene()[1]
    if kind == "gl2":
        scene = GL2Scene()
        return scene.invariant_fields()[1] + scene.f_fields
    scene = gln_scene(3)
    return random.Random(kind).sample(scene.invariant_fields()[1] + scene.f_fields, 12)


@pytest.mark.parametrize("kind", ["halfplane", "gl2", "gl3"])
def test_bracket_kernel_matches_oracle(kind):
    fields = bracket_fields(kind)
    tables = [geometry._partials(f) for f in fields]
    for X, dX in zip(fields, tables):
        for Y, dY in zip(fields, tables):
            expected = oracle_lie_bracket(X, Y)
            assert lie_bracket(X, Y) == expected
            assert geometry._bracket(X, dX, Y, dY) == expected


def test_cross_check_takes_one_bracket_per_pair(monkeypatch):
    conn, fields, names = halfplane_scene()
    table = product_table(conn, fields, names)
    kernel = geometry._bracket
    brackets = []
    monkeypatch.setattr(envelope, "_bracket",
                        lambda *args: brackets.append(1) or kernel(*args))
    diff = RationalFunction.diff
    diffs = []
    monkeypatch.setattr(RationalFunction, "diff",
                        lambda self, var: diffs.append(1) or diff(self, var))
    assert commutator_matches_brackets(conn, fields, table)
    assert len(brackets) == 6 * 5 // 2
    # at most one derivative per (field, axis, nonzero component)
    nonzero = sum(1 for f in fields for c in f.coeffs if c)
    assert 0 < len(diffs) <= nonzero * conn.chart.dim


def test_product_table_takes_one_derivative_per_field_and_axis(monkeypatch):
    conn, fields, names = halfplane_scene()
    assert is_flat_affine(conn)   # the flatness tensors are cached from here on
    # count the table's own derivatives, not those of its IAT tests
    monkeypatch.setattr(geometry, "is_infinitesimal_affine",
                        lambda conn, X: geometry.IATReport(True))
    kernel = geometry._nabla_coordinate
    calls = []
    monkeypatch.setattr(geometry, "_nabla_coordinate",
                        lambda *args: calls.append(1) or kernel(*args))
    product_table(conn, fields, names)
    assert len(calls) == len(fields) * conn.chart.dim


def test_zero_components_share_one_object():
    _, fields, _ = halfplane_scene()
    rows = geometry._coordinate_rows(fields)
    zeros = {id(x) for row in rows for x in row if x == 0}
    assert len(zeros) == 1
    assert all(type(x) is Fraction for row in rows for x in row)
