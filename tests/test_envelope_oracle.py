"""The envelope's cross-checks against the all-pairs versions they replaced.

`commutator_matches_brackets` takes the Lie brackets and the constant
differences c[i][j] - c[j][i] for the pairs i < j only, each bracket
X(Y) - Y(X) from two derivatives along (`geometry._derivative_along`),
`commutator_algebra` subtracts only where c[j][i] is nonzero, and
`product_table` takes one nabla_{d_a} X_j per field and axis instead of one
`covariant_derivative` per pair, the same table that the field's
infinitesimal-affine test reads.  This module keeps the
earlier versions as oracles and compares results, verdicts and errors on the
GL2 scene, the six half-plane fields and seeded frame connections, including
tables with one perturbed entry, and the bracket and derivative-along kernels
on GL2, GL3 and half-plane fields.  `commutator_algebra` subtracts at the
pairs i < j only and negates the mirror; it is compared with the dense oracle
also on seeded tables that are not antisymmetric, most of whose commutators
fail Jacobi.  `verify_bi_invariant_criterion` builds the commutator without a
Jacobi scan once its associativity scan holds; it is compared with the route
through `commutator_algebra`.  `compute_envelope` takes the envelope's
associativity verdict from the ambient scan when the closure is the whole
space, and builds the envelope's commutator without a Jacobi scan when the
envelope is associative; its checks are compared with the full routes
(`helpers.full_route_checks`) on proper, coordinate and non-coordinate
closures and on whole spaces.
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
    check_associative,
    commutator_algebra,
    compute_envelope,
    connection_from_frame,
    is_flat_affine,
    lie_bracket,
    solve_iat_ansatz,
    verify_bi_invariant_criterion,
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
    aff_frame,
    aff_line_connection,
    aff_line_lsa,
    aff_scene,
    alpha_family,
    chart_xy,
    dense_coordinate_rows,
    dense_express,
    full_route_checks,
    gln_scene,
    random_algebra,
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


def oracle_derivative_along(X, Y):
    """X(Y)^k = sum_i X^i d_i Y^k."""
    chart = X.chart
    out = [RationalFunction.zero(chart) for _ in range(chart.dim)]
    for i, var in enumerate(chart.variables):
        for k in range(chart.dim):
            out[k] = out[k] + X.coeffs[i] * Y.coeffs[k].diff(var)
    return VectorField(chart, out)


def oracle_commutator_matches_brackets(fields, table):
    """Cross-check that antisymmetrized product-table constants equal the
    structure constants computed independently from Lie brackets of the
    fields."""
    n = table.dim
    brackets = [oracle_lie_bracket(fields[i], fields[j]) for i in range(n) for j in range(n)]
    expected = [[a - b for a, b in zip(table.c[i][j], table.c[j][i])]
                for i in range(n) for j in range(n)]
    return dense_express(brackets, fields) == expected


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
        coords = dense_express(products, fields)
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
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    inv = list(zip(inv_names, inv_fields))
    lin = list(zip(scene.f_names, scene.f_fields))
    rng.shuffle(inv)
    rng.shuffle(lin)
    names, fields = zip(*(inv + lin))
    names, fields = independent_fields(fields, names)
    return scene.connect(), fields, names


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
    assert commutator_matches_brackets(fields, table) is True
    assert oracle_commutator_matches_brackets(fields, table) is True
    assert commutator_algebra(table) == oracle_commutator_algebra(table)


@pytest.mark.parametrize("kind, seed", SCENES, ids=[f"{k}-{s}" for k, s in SCENES])
def test_product_table_rows_are_the_express_in_basis_rows(kind, seed):
    conn, fields, names = make_scene(kind, seed)
    table = product_table(conn, fields, names)
    products = [covariant_derivative(conn, bi, bj) for bi in fields for bj in fields]
    rows = express_in_basis(products, fields)
    n = len(fields)
    assert table.rows == tuple(tuple(rows[i * n:(i + 1) * n]) for i in range(n))


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
        verdict = commutator_matches_brackets(fields, bad)
        assert verdict == oracle_commutator_matches_brackets(fields, bad)
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
            verdict = commutator_matches_brackets(fields, bad)
            assert verdict == oracle_commutator_matches_brackets(fields, bad)
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


def seeded_table(seed):
    """A seeded table of dimension 2 to 5 with integer or rational constants;
    in general neither antisymmetric nor Lie-admissible."""
    rng = random.Random(f"table-{seed}")
    table = random_algebra(rng, rng.randint(2, 5))
    if seed % 2:
        c = [[[x / rng.randint(1, 4) for x in vec] for vec in row] for row in table.c]
        table = SCAlgebra(table.basis_names, c)
    return table


def test_commutator_of_seeded_tables_matches_oracle():
    outcomes = []
    for seed in range(40):
        table = seeded_table(seed)
        assert any(table.rows[i][j] != tuple((k, -x) for k, x in table.rows[j][i])
                   for i in range(table.dim) for j in range(table.dim))
        got = commutator_outcome(commutator_algebra, table)
        assert got == commutator_outcome(oracle_commutator_algebra, table)
        outcomes.append(isinstance(got, tuple))
    # both routes ran: the rows compared, and the first Jacobi witness
    assert 0 < sum(outcomes) < len(outcomes)


def old_bi_invariant_route(lie, algebra):
    """The criterion with the commutator built through its Jacobi scan."""
    return check_associative(algebra).holds and commutator_algebra(algebra).rows == lie.rows


def test_bi_invariant_criterion_matches_the_old_route():
    cases = []
    for kind, seed in SCENES:
        conn, fields, names = make_scene(kind, seed)
        table = product_table(conn, fields, names)   # associative
        cases += [table, perturbed(table, 0, 1, seed % table.dim)]
    rng = random.Random("bi-invariant")
    found = 0
    while found < 4:   # seeded associative tables among random ones
        table = random_algebra(rng, rng.randint(2, 3))
        found += check_associative(table).holds
        cases.append(table)
    verdicts = []
    for algebra in cases:
        own = commutator_outcome(oracle_commutator_algebra, algebra)
        zero = LieAlgebraSC(algebra.basis_names, [[[0] * algebra.dim] * algebra.dim]
                            * algebra.dim)
        for lie in ([zero] if isinstance(own, tuple) else [own, zero]):
            verdict = verify_bi_invariant_criterion(lie, algebra)
            assert verdict == old_bi_invariant_route(lie, algebra)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts
    assert not all(check_associative(A).holds for A in cases)


def envelope_scene(kind):
    """(connection, fields, names, generators) of an envelope: the half-plane
    rank 5 and its whole space, GL2, aff(2), aff(3), and a seeded frame scene
    whose closure of f2 and f4 has rank 4 and is not a coordinate span."""
    if kind == "halfplane":
        return (*halfplane_scene(), ["e1-", "e2-"])
    if kind == "halfplane-whole":
        conn, fields, names = halfplane_scene()
        return conn, fields, names, names
    if kind == "gl2":
        conn, fields, names = gl2_scene(1)
        return conn, fields, names, [n for n in names if n.startswith("E")]
    if kind == "frame":
        return (*frame_scene(0), ["f2", "f4"])
    conn, fields, names = aff_scene({"aff2": 2, "aff3": 3}[kind])
    return conn, fields, names, names


@pytest.mark.parametrize("kind", ["halfplane", "halfplane-whole", "gl2", "aff2", "aff3",
                                  "frame"])
def test_envelope_checks_match_the_full_routes(kind):
    conn, fields, names, generators = envelope_scene(kind)
    report = compute_envelope(conn, fields, names, generators)
    assert report.checks == full_route_checks(report, fields)
    assert all(report.checks.values())
    assert report.commutator == commutator_algebra(report.envelope)
    whole = report.closure.rank == len(names)
    assert whole is (kind not in ("halfplane", "frame"))
    if kind == "frame":
        assert report.closure.named_basis(names) is None


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
        scene = gln_scene(2)
        return scene.invariant_fields()[1] + scene.f_fields
    scene = gln_scene(3)
    return random.Random(kind).sample(scene.invariant_fields()[1] + scene.f_fields, 12)


@pytest.mark.parametrize("kind", ["halfplane", "gl2", "gl3"])
def test_bracket_kernel_matches_oracle(kind):
    fields = bracket_fields(kind)
    for X in fields:
        for Y in fields:
            assert lie_bracket(X, Y) == oracle_lie_bracket(X, Y)
            along = geometry._derivative_along(X, Y)
            assert VectorField._of(X.chart, along) == oracle_derivative_along(X, Y)


def test_cross_check_takes_one_bracket_per_pair(monkeypatch):
    conn, fields, names = halfplane_scene()
    table = product_table(conn, fields, names)
    kernel = geometry.lie_bracket
    brackets = []
    monkeypatch.setattr(envelope, "lie_bracket",
                        lambda *args: brackets.append(1) or kernel(*args))
    rule = RationalFunction._quotient_rule
    partials = []
    monkeypatch.setattr(RationalFunction, "_quotient_rule",
                        lambda self, var: partials.append(1) or rule(self, var))
    assert commutator_matches_brackets(fields, table)
    assert len(brackets) == 6 * 5 // 2
    # product_table took every nonzero component's partial along every axis,
    # and the brackets read them back from RationalFunction.diff's memo
    assert partials == []


def test_product_table_takes_one_derivative_per_field_and_axis(monkeypatch):
    conn, fields, names = halfplane_scene()
    assert is_flat_affine(conn)   # the flatness tensors are cached from here on
    kernel = geometry._nabla_coordinate
    calls = []
    monkeypatch.setattr(geometry, "_nabla_coordinate",
                        lambda *args: calls.append(1) or kernel(*args))
    product_table(conn, fields, names)
    # the IAT tests take nabla_{d_a} X once per field and axis, and one more per
    # pair a <= b; the products read the same first table and take none
    dim = conn.chart.dim
    assert len(calls) == len(fields) * (dim + dim * (dim + 1) // 2) == 30


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_product_table_names_the_first_non_iat_field(order):
    conn, fields, names = halfplane_scene()
    chart = conn.chart
    bad = [VectorField(chart, ["x^2", "0"]), VectorField(chart, ["0", "y^2"])]
    first, second = order
    fields = fields[:2] + [bad[first]] + fields[2:] + [bad[second]]
    names = names[:2] + [f"q{first}"] + names[2:] + [f"q{second}"]
    expected = is_infinitesimal_affine(conn, bad[first])
    assert not expected.holds and not is_infinitesimal_affine(conn, bad[second]).holds
    with pytest.raises(IATViolationError) as err:
        product_table(conn, fields, names)
    assert (err.value.field_name, err.value.witness) == (f"q{first}", expected.witness)
    with pytest.raises(IATViolationError) as oracle:
        oracle_product_table(conn, fields, names)
    assert str(err.value) == str(oracle.value)


def test_zero_components_share_one_object():
    _, fields, _ = halfplane_scene()
    rows = dense_coordinate_rows(fields)
    zeros = {id(x) for row in rows for x in row if x == 0}
    assert len(zeros) == 1
    assert all(type(x) is Fraction for row in rows for x in row)
