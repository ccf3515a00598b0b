"""Geometry operations: covariant derivatives, flatness tensors, the
infinitesimal-affine test and ansatz solver, frames and product tables."""
import re
from fractions import Fraction

import pytest

from flataffine import (
    Chart,
    Connection,
    DependentFieldsError,
    Frame,
    IATViolationError,
    NotFlatError,
    NotInSpanError,
    RationalFunction,
    SingularFrameError,
    TensorReport,
    VectorField,
    check_associative,
    connection_from_frame,
    covariant_derivative,
    curvature,
    express_in_basis,
    is_flat_affine,
    is_infinitesimal_affine,
    lie_bracket,
    product_table,
    solve_iat_ansatz,
    torsion,
)
from flataffine.geometry import independent_fields
from flataffine.symcore import ChartMismatchError, parse_expr
from helpers import (
    dense_constants,
    dense_express,
    dense_gamma,
    alpha_connection,
    apply_field,
    chart_xy,
    aff_line_connection,
    field_span_rank,
    gln_scene,
    same_field_span,
    six_iat_fields,
    alpha2_fields,
    plane_chart,
    six_field_table_algebra,
    alpha2_table_algebra,
    zero_algebra,
)

CH = chart_xy()


def vf(*coeffs):
    return VectorField(CH, coeffs)


def rf(source):
    return parse_expr(source, CH)


def test_coordinate_field_refuses_an_axis_outside_the_chart():
    assert VectorField.coordinate(CH, 1) == vf("0", "1")
    for axis in (2, 5, -1):
        with pytest.raises(ValueError, match="not between 0 and 1"):
            VectorField.coordinate(CH, axis)


@pytest.mark.parametrize("axis", [0.5, 1.0, True, False, "1"],
                         ids=["half", "float", "true", "false", "string"])
def test_coordinate_field_refuses_an_axis_that_is_not_an_int(axis):
    # 0.5 read as the zero field, and True and 1.0 as axis 1
    with pytest.raises(ValueError, match="not between 0 and 1"):
        VectorField.coordinate(CH, axis)


# ----- covariant derivative -----------------------------------------------------


def test_cov_deriv_flat_examples():
    flat = Connection.zero(CH)
    assert covariant_derivative(flat, vf("x", "0"), vf("0", "y")).is_zero()
    assert covariant_derivative(flat, vf("1", "0"), vf("x", "0")) == vf("1", "0")


def test_cov_deriv_function_linear_in_first_slot():
    conn = aff_line_connection(CH)
    _, fields = six_iat_fields(CH)
    factors = [rf("x"), rf("y^2"), rf("1/x")]
    for X in fields[:3]:
        for Y in fields[:3]:
            for f in factors:
                lhs = covariant_derivative(conn, X.scaled(f), Y)
                rhs = covariant_derivative(conn, X, Y).scaled(f)
                assert lhs == rhs


def test_cov_deriv_leibniz_in_second_slot():
    conn = aff_line_connection(CH)
    _, fields = six_iat_fields(CH)
    factors = [rf("x"), rf("y^2"), rf("1/x")]
    for X in fields[:3]:
        for Y in fields[:3]:
            for f in factors:
                lhs = covariant_derivative(conn, X, Y.scaled(f))
                rhs = Y.scaled(apply_field(X, f)) + covariant_derivative(conn, X, Y).scaled(f)
                assert lhs == rhs


def test_cov_deriv_chart_mismatch():
    with pytest.raises(ChartMismatchError):
        covariant_derivative(Connection.zero(CH), vf("x", "0"),
                             VectorField(plane_chart(), ["x", "0"]))


# ----- Lie bracket -----------------------------------------------------------------


def test_lie_bracket_examples():
    assert lie_bracket(vf("1", "0"), vf("x", "0")) == vf("1", "0")
    # [x dx + y dy, dy] = -dy (hand expansion)
    assert lie_bracket(vf("x", "y"), vf("0", "1")) == vf("0", "-1")
    X = vf("x + y^2/x", "0")
    assert lie_bracket(X, X).is_zero()


def test_torsion_free_bracket_identity_on_37_fields():
    conn = aff_line_connection(CH)
    _, fields = six_iat_fields(CH)
    for X in fields:
        for Y in fields:
            lhs = covariant_derivative(conn, X, Y) - covariant_derivative(conn, Y, X)
            assert lhs == lie_bracket(X, Y)


# ----- torsion / curvature / flatness -----------------------------------------------


@pytest.mark.parametrize("entries", [
    [(1, 1, 1, "1"), (1, 1, 1, "0")],
    [(2, 1, 2, "x"), (1, 1, 1, "y"), (2, 1, 2, "x")],
])
def test_from_sparse_refuses_a_repeated_symbol(entries):
    k, i, j, _ = entries[-1]
    with pytest.raises(ValueError, match=re.escape(f"({k},{i},{j}) is given twice")):
        Connection.from_sparse(plane_chart(), entries)
    # the same entries without the repeat are accepted
    Connection.from_sparse(plane_chart(), entries[:-1])


@pytest.mark.parametrize("entry", [
    (1.0, 1, 2, "x"), (1, True, 2, "x"), (1, 1, "2", "x"), (0, 1, 2, "x"), (1, 3, 2, "x"),
], ids=["float", "bool", "string", "zero", "past-dim"])
def test_from_sparse_refuses_an_index_that_is_not_an_int_in_range(entry):
    # a float, a bool or a string is refused like an index out of range
    with pytest.raises(ValueError, match="Christoffel index out of range"):
        Connection.from_sparse(chart_xy(), [entry])


def test_torsion_zero_and_perturbed():
    assert torsion(Connection.zero(CH)).is_zero
    conn = Connection.from_sparse(CH, [(1, 1, 2, "1")])
    report = torsion(conn)
    assert not report.is_zero
    assert report.component(1, 1, 2) == rf("1")
    assert report.component(1, 2, 1) == rf("-1")
    assert report.nonzero[0] == (1, 1, 2)
    assert report.component_name((1, 1, 2)) == "T^1_{1,2}"


def test_torsion_of_aff_line_connection_vanishes():
    assert torsion(aff_line_connection(CH)).is_zero


def test_curvature_zero_cases():
    assert curvature(Connection.zero(CH)).is_zero
    assert curvature(aff_line_connection(CH)).is_zero


@pytest.mark.parametrize("tensor, index", [(torsion, (1, 1, 2)), (curvature, (1, 2, 1, 1))])
def test_a_tensor_report_is_read_only_so_its_memo_keeps_flatness(tensor, index):
    # the report is the connection's memo: a write into it would change
    # every later verdict on that connection
    conn = Connection.zero(CH)
    report = tensor(conn)
    with pytest.raises(TypeError):
        report.components[index] = rf("1")
    assert tensor(conn) is report and report.is_zero and report == tensor(Connection.zero(CH))
    assert is_flat_affine(conn)
    curved = tensor(Connection.from_sparse(CH, [(1, 1, 2, "1"), (1, 1, 1, "y")]))
    with pytest.raises(TypeError):
        del curved.components[curved.nonzero[0]]
    assert not curved.is_zero


def test_curvature_single_term_oracle():
    # Gamma^1_{11} = y; the formula gives R^1_{211} = d_2 Gamma^1_{11} = 1
    # and R^1_{121} = -1, everything else zero.
    conn = Connection.from_sparse(CH, [(1, 1, 1, "y")])
    report = curvature(conn)
    assert report.component(1, 2, 1, 1) == rf("1")
    assert report.component(1, 1, 2, 1) == rf("-1")
    assert report.nonzero == [(1, 1, 2, 1), (1, 2, 1, 1)]


def test_is_flat_affine_matches_tensor_flags():
    suite = [Connection.zero(CH), aff_line_connection(CH), alpha_connection(2, CH),
             Connection.from_sparse(CH, [(1, 1, 2, "1")]),
             Connection.from_sparse(CH, [(1, 1, 1, "y")])]
    for conn in suite:
        assert is_flat_affine(conn) == (torsion(conn).is_zero and curvature(conn).is_zero)
    assert not is_flat_affine(Connection.from_sparse(CH, [(1, 1, 2, "1")]))


def test_tensor_zero_flags_are_computed_once_per_report(monkeypatch):
    conn = alpha_connection(2, CH)
    assert is_flat_affine(conn)
    calls = []
    original = RationalFunction.is_zero
    monkeypatch.setattr(RationalFunction, "is_zero",
                        lambda self: calls.append(1) or original(self))
    for _ in range(3):
        assert is_flat_affine(conn)
    assert calls == []
    assert TensorReport("torsion", {(1, 1, 1): rf("0")}, CH) == \
        TensorReport("torsion", {}, CH)


# ----- infinitesimal affine transformations -------------------------------------------


def test_iat_flat_affine_field_holds():
    assert is_infinitesimal_affine(Connection.zero(CH), vf("0", "x")).holds


def test_iat_c6_holds():
    conn = aff_line_connection(CH)
    c6 = vf("-x*y - y^3/x", "x^2 + y^2")
    assert is_infinitesimal_affine(conn, c6).holds


def test_iat_rejects_quadratic_field_with_witness():
    report = is_infinitesimal_affine(Connection.zero(CH), vf("x^2", "0"))
    assert not report.holds
    assert report.witness == (1, 1)


def test_iat_requires_flat_connection():
    with pytest.raises(NotFlatError):
        is_infinitesimal_affine(Connection.from_sparse(CH, [(1, 1, 2, "1")]),
                                vf("x", "0"))


def test_iat_closed_under_product_on_37_list():
    conn = aff_line_connection(CH)
    _, fields = six_iat_fields(CH)
    for X in fields:
        for Y in fields:
            assert is_infinitesimal_affine(conn, covariant_derivative(conn, X, Y)).holds


# ----- ansatz solver -------------------------------------------------------------------


def affine_span_fields():
    return [vf("1", "0"), vf("0", "1"), vf("x", "0"), vf("y", "0"),
            vf("0", "x"), vf("0", "y")]


def test_solve_flat_degree_one():
    sols = solve_iat_ansatz(Connection.zero(CH), ["1", "x", "y"])
    assert len(sols) == 6
    assert same_field_span(sols, affine_span_fields())


def test_solve_flat_degree_two_same_space():
    sols = solve_iat_ansatz(Connection.zero(CH), ["1", "x", "y", "x^2", "x*y", "y^2"])
    assert len(sols) == 6
    assert same_field_span(sols, affine_span_fields())


def test_solve_37_ansatz_recovers_six_fields():
    conn = aff_line_connection(CH)
    ansatz = ["1", "x", "y", "x^2", "y^2", "x*y", "1/x", "y/x", "y^2/x", "y^3/x"]
    sols = solve_iat_ansatz(conn, ansatz)
    assert len(sols) == 6
    _, fields = six_iat_fields(CH)
    assert same_field_span(sols, fields)


def test_solve_outputs_are_iat_and_rref():
    conn = aff_line_connection(CH)
    ansatz = ["1", "x", "y", "1/x", "y/x", "y^2/x"]
    sols = solve_iat_ansatz(conn, ansatz)
    for f in sols:
        assert is_infinitesimal_affine(conn, f).holds
    # the coefficient matrix of the solutions against the slot-major candidate
    # fields is in reduced row-echelon form
    terms = [rf(t) for t in ansatz]
    candidates = []
    for slot in range(2):
        for t in terms:
            coeffs = [rf("0"), rf("0")]
            coeffs[slot] = t
            candidates.append(VectorField(CH, coeffs))
    from flataffine.linalg import rref
    coeff_matrix = dense_express(sols, candidates)
    assert rref(coeff_matrix)[0] == coeff_matrix
    assert solve_iat_ansatz(conn, ansatz) == sols


def test_solve_requires_flat():
    with pytest.raises(NotFlatError):
        solve_iat_ansatz(Connection.from_sparse(CH, [(1, 1, 2, "1")]), ["1", "x"])


def test_solve_rejects_dependent_ansatz():
    with pytest.raises(ValueError, match="dependent"):
        solve_iat_ansatz(Connection.zero(CH), ["1", "x", "2*x"])


# ----- frames and connection_from_frame ---------------------------------------------


def test_trivial_frame_zero_constants():
    frame = Frame([vf("1", "0"), vf("0", "1")])
    conn = connection_from_frame(frame, zero_algebra(("a", "b")))
    assert conn == Connection.zero(CH)


def test_aff_line_frame_round_trip():
    conn = aff_line_connection(CH)
    # hand-derived: Gamma^1_{11} = Gamma^1_{22} = 1/x, all else 0
    gamma = dense_gamma(conn)
    assert gamma[0][0][0] == rf("1/x")
    assert gamma[1][1][0] == rf("1/x")
    zero = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)
            if (i, j, k) not in ((0, 0, 0), (1, 1, 0))]
    for i, j, k in zero:
        assert gamma[i][j][k].is_zero()


def test_singular_frame_rejected():
    with pytest.raises(SingularFrameError):
        Frame([vf("x", "y"), vf("2*x", "2*y")])


def test_gl2_closed_form_and_round_trip():
    scene = gln_scene(2)
    conn = scene.connect()
    assert is_flat_affine(conn)
    for (p, q) in scene.pairs:
        for (r, s) in scene.pairs:
            got = covariant_derivative(conn, scene.e_plus(p, q), scene.e_minus(r, s))
            assert got == scene.f_field(p, q, r, s), (p, q, r, s)


def test_gl2_frame_round_trip_reexpresses_constants():
    scene = gln_scene(2)
    conn = scene.connect()
    frame_fields = list(scene.frame.fields)
    c = dense_constants(scene.constants)
    for a in range(4):
        for b in range(4):
            prod = covariant_derivative(conn,
                                        frame_fields[a], frame_fields[b])
            [coords] = dense_express([prod], frame_fields)
            assert coords == list(c[a][b])


# ----- product tables ---------------------------------------------------------------


def test_product_table_flat_pair():
    table = product_table(Connection.zero(CH), [vf("1", "0"), vf("x", "0")],
                          ["dx", "xdx"])
    c = dense_constants(table)
    assert c[0][1] == (Fraction(1), Fraction(0))   # dx · xdx = dx
    assert c[1][1] == (Fraction(0), Fraction(1))   # xdx · xdx = xdx
    assert not any(c[0][0])
    assert not any(c[1][0])


def test_product_table_reproduces_reference_six_field_table():
    conn = aff_line_connection(CH)
    names, fields = six_iat_fields(CH)
    table = product_table(conn, fields, names)
    assert table == six_field_table_algebra()
    assert check_associative(table).holds


def test_product_table_39_alpha2():
    conn = alpha_connection(2, CH)
    names, fields = alpha2_fields(CH)
    table = product_table(conn, fields, names)
    assert table == alpha2_table_algebra()
    assert check_associative(table).holds


def test_product_table_commutator_matches_brackets():
    conn = aff_line_connection(CH)
    names, fields = six_iat_fields(CH)
    c = dense_constants(product_table(conn, fields, names))
    for i in range(6):
        for j in range(6):
            [bracket] = dense_express([lie_bracket(fields[i], fields[j])], fields)
            expected = [a - b for a, b in zip(c[i][j], c[j][i])]
            assert bracket == expected


def test_product_table_rejects_non_closed_span():
    conn = Connection.zero(CH)
    with pytest.raises(NotInSpanError) as err:
        # (x dy)·(y dx) = x dx is outside span{x dy, y dx}
        product_table(conn, [vf("0", "x"), vf("y", "0")], ["a", "b"])
    assert err.value.pair == (1, 2)


def test_product_table_rejects_non_iat_field():
    conn = Connection.zero(CH)
    with pytest.raises(IATViolationError) as err:
        product_table(conn, [vf("x^2", "0")], ["bad"])
    assert err.value.field_name == "bad"
    assert err.value.witness == (1, 1)


def test_product_table_refuses_dependent_fields_before_the_iat_tests():
    conn = Connection.zero(CH)
    # the third field is 2 * the second; the fourth is not infinitesimal affine
    fields = [vf("1", "0"), vf("x", "0"), vf("2*x", "0"), vf("x^2", "0")]
    with pytest.raises(DependentFieldsError) as err:
        product_table(conn, fields, ["dx", "f", "g", "bad"])
    assert err.value.index == 2
    assert str(err.value) == \
        "field 'g' is a constant combination of the fields before it"
    with pytest.raises(DependentFieldsError) as err:
        product_table(conn, [vf("0", "0"), vf("1", "0")], ["zero", "dx"])
    assert err.value.index == 0


def test_product_table_requires_flat():
    with pytest.raises(NotFlatError):
        product_table(Connection.from_sparse(CH, [(1, 1, 2, "1")]),
                      [vf("1", "0")], ["a"])


# ----- express_in_basis ----------------------------------------------------------------


def test_express_simple():
    assert dense_express([vf("2*x", "0")], [vf("x", "0"), vf("0", "1")]) == \
        [[Fraction(2), Fraction(0)]]


def test_express_reference_table_entry():
    _, fields = six_iat_fields(CH)
    target = fields[0].scaled(2) - fields[4].scaled(2)   # 2e1- - 2C5
    [coords] = dense_express([target], fields)
    assert coords == [Fraction(2), 0, 0, 0, Fraction(-2), 0]


def test_express_failure_for_nonconstant_relation():
    with pytest.raises(NotInSpanError):
        express_in_basis([vf("x^2", "0")], [vf("x", "0")])


def test_span_questions_refuse_fields_on_two_charts():
    other = VectorField(plane_chart(), ["x", "0"])
    with pytest.raises(ValueError, match="all fields must share one chart"):
        express_in_basis([vf("x", "0")], [other])
    with pytest.raises(ValueError, match="all fields must share one chart"):
        independent_fields([vf("x", "0"), other], ["a", "b"])


def test_field_coefficients_on_an_equal_chart_are_accepted():
    """The constructor tests chart identity first and equality after it, as
    `require_same_chart` does: a coefficient on an equal but distinct chart
    is accepted, one on another chart is refused."""
    twin = Chart(CH.name, CH.variables)
    assert twin is not CH and twin == CH
    X = VectorField(CH, [parse_expr("x", twin), parse_expr("y^2", CH)])
    assert X == vf("x", "y^2") and X.chart is CH
    for other in (plane_chart(), Chart(CH.name, ("x", "z"))):
        with pytest.raises(ValueError, match="coefficient chart does not match"):
            VectorField(CH, [parse_expr("x", other), "0"])


def test_christoffel_symbols_on_another_chart_are_refused():
    """Both public `Connection` constructors refuse a symbol on another chart,
    a zero one too, as `VectorField` refuses a coefficient, and accept one on
    an equal chart."""
    twin = Chart(CH.name, CH.variables)
    assert Connection.from_sparse(CH, [(1, 1, 2, parse_expr("x", twin))]) == \
        Connection.from_sparse(CH, [(1, 1, 2, "x")])
    assert Connection(CH, [[[0, 0], [parse_expr("y", twin), 0]], [[0, 0], [0, 0]]]) == \
        Connection.from_sparse(CH, [(1, 1, 2, "y")])
    for other in (plane_chart(), Chart(CH.name, ("x", "z"))):
        with pytest.raises(ValueError, match="Christoffel symbol chart does not match"):
            Connection.from_sparse(CH, [(1, 1, 2, parse_expr("x", other))])
        for symbol in (parse_expr("x", other), RationalFunction.zero(other)):
            with pytest.raises(ValueError, match="Christoffel symbol chart does not match"):
                Connection(CH, [[[0, 0], [symbol, 0]], [[0, 0], [0, 0]]])


# ----- span helpers ---------------------------------------------------------------------


def test_field_span_rank():
    _, fields = six_iat_fields(CH)
    assert field_span_rank(fields) == 6
    assert field_span_rank(fields[:2] + [fields[0] + fields[1]]) == 2


def test_independent_fields_dedups_gl2_union():
    scene = gln_scene(2)
    names, fields = scene.invariant_fields()
    all_names = names + scene.f_names
    all_fields = fields + scene.f_fields
    kept_names, kept_fields = independent_fields(all_fields, all_names)
    assert len(kept_fields) == 16
    # the union has rank 16, and one right-invariant field is dependent
    assert "E-22" not in kept_names
    assert sum(1 for n in kept_names if n.startswith("E")) == 7
