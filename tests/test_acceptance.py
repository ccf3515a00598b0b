"""Acceptance criteria, one test per criterion, all comparisons exact.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.
"""
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from flataffine import (
    Connection,
    JacobiError,
    NotInSpanError,
    SCAlgebra,
    VectorField,
    check_associative,
    check_left_symmetric,
    commutator_algebra,
    compute_envelope,
    covariant_derivative,
    curvature,
    express_in_basis,
    is_flat_affine,
    is_infinitesimal_affine,
    lie_bracket,
    opposite,
    product_table,
    solve_iat_ansatz,
    subalgebra_closure,
    torsion,
)
from flataffine.symcore import parse_expr
from helpers import (
    dense_express,
    alpha_connection,
    alpha_family,
    apply_field,
    chart_xy,
    gln_scene,
    aff_line_lsa,
    aff_line_connection,
    six_iat_fields,
    alpha2_fields,
    random_algebra,
    random_rational_function,
    six_field_table_algebra,
    alpha2_table_algebra,
    same_field_span,
    subspace_contains,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


CH = chart_xy()


def test_criterion_1_six_field_table_golden():
    with criterion(1, "product table reproduces the reference six-field table, all 36 entries"):
        conn = aff_line_connection(CH)
        names, fields = six_iat_fields(CH)
        table = product_table(conn, fields, names)
        expected = six_field_table_algebra()
        for i in range(6):
            for j in range(6):
                assert table.c[i][j] == expected.c[i][j], (i + 1, j + 1)
        e = {name: k for k, name in enumerate(names)}
        assert table.c[e["e2-"]][e["C6"]] == \
            (Fraction(2), 0, 0, 0, Fraction(-2), 0)      # e2-·C6 = 2e1- - 2C5
        assert not any(table.c[e["C6"]][e["C6"]])        # C6·C6 = 0


def test_criterion_2_envelope_dimension_five():
    with criterion(2, "envelope of {e1-, e2-} has rank 5 and excludes C6"):
        conn = aff_line_connection(CH)
        names, fields = six_iat_fields(CH)
        report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
        assert report.closure.rank == 5
        assert report.closure.named_basis(names) == ["e1-", "e2-", "C3", "C4", "C5"]
        assert not subspace_contains(report.closure, report.ambient.basis_vector(5))
        assert report.envelope.dim == 5


def test_criterion_3_associativity_and_commutators():
    with criterion(3, "induced products are associative; commutators = Lie brackets"):
        conn = aff_line_connection(CH)
        names, fields = six_iat_fields(CH)
        table = product_table(conn, fields, names)
        assert check_associative(table).holds
        conn39 = alpha_connection(2, CH)
        names39, f39 = alpha2_fields(CH)
        alpha_table = product_table(conn39, f39, names39)
        assert check_associative(alpha_table).holds
        for tbl, flds in ((table, fields), (alpha_table, f39)):
            n = tbl.dim
            for i in range(n):
                for j in range(n):
                    [bracket] = dense_express([lie_bracket(flds[i], flds[j])], flds)
                    assert bracket == [a - b for a, b in zip(tbl.c[i][j], tbl.c[j][i])]


def test_criterion_4_generic_case_alpha2():
    with criterion(4, "alpha = 2 table matches the reference 4x4 table and closes at rank 4"):
        conn = alpha_connection(2, CH)
        names, fields = alpha2_fields(CH)
        table = product_table(conn, fields, names)
        assert table == alpha2_table_algebra()
        space = subalgebra_closure(table, [table.basis_vector(i) for i in range(4)])
        assert space.rank == 4


def test_criterion_5_gl2():
    with criterion(5, "GL2: closed-form products for all 16 tuples; closure rank 16"):
        scene = gln_scene(2)
        conn = scene.connect()
        for (p, q) in scene.pairs:
            for (r, s) in scene.pairs:
                got = covariant_derivative(conn, scene.e_plus(p, q),
                                           scene.e_minus(r, s))
                assert got == scene.f_field(p, q, r, s), (p, q, r, s)
        table16 = product_table(conn, scene.f_fields, scene.f_names)
        _, inv_fields = scene.invariant_fields()
        generators = dense_express(inv_fields, scene.f_fields)
        assert len(generators) == 8
        space = subalgebra_closure(table16, generators)
        assert space.rank == 16


def test_criterion_6_flat_standard_connection_ansatz():
    with criterion(6, "flat connection: degree <= 1 and <= 2 ansatz give the affine span"):
        flat = Connection.zero(CH)
        expected = [VectorField(CH, c) for c in
                    (("1", "0"), ("0", "1"), ("x", "0"), ("y", "0"),
                     ("0", "x"), ("0", "y"))]
        deg1 = solve_iat_ansatz(flat, ["1", "x", "y"])
        assert len(deg1) == 6
        assert same_field_span(deg1, expected)
        deg2 = solve_iat_ansatz(flat, ["1", "x", "y", "x^2", "x*y", "y^2"])
        assert len(deg2) == 6
        assert same_field_span(deg2, expected)


def test_criterion_7_left_symmetry_and_bracket():
    with criterion(7, "left-symmetry of the invariant products; commutator = aff(R)"):
        cases = [aff_line_lsa()] + [alpha_family(a) for a in (1, 2, 3)]
        for algebra in cases:
            assert check_left_symmetric(algebra).holds
            lie = commutator_algebra(algebra)
            assert lie.c[0][1] == (Fraction(0), Fraction(1))   # [e1, e2] = e2
            assert lie.c[1][0] == (Fraction(0), Fraction(-1))


def test_criterion_8_flatness_verification():
    with criterion(8, "flatness: invariant connections flat; perturbation caught"):
        suite = [aff_line_connection(CH), alpha_connection(2, CH), Connection.zero(CH)]
        for conn in suite:
            assert torsion(conn).is_zero
            assert curvature(conn).is_zero
        perturbed = Connection.from_sparse(CH, [(1, 1, 2, "1")])
        report = torsion(perturbed)
        assert not report.is_zero
        assert report.component_name(report.nonzero[0]) == "T^1_{1,2}"
        for conn in suite + [perturbed,
                             Connection.from_sparse(CH, [(1, 1, 1, "y")])]:
            assert is_flat_affine(conn) == \
                (torsion(conn).is_zero and curvature(conn).is_zero)


def test_criterion_9_property_suites():
    with criterion(9, "randomized property suites (fixed seeds, >= 20 instances)"):
        rng = random.Random(20250808)
        # closure idempotence and opposite involution
        count = 0
        while count < 20:
            A = random_algebra(rng, rng.randint(2, 4))
            gens = [[Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
                    for _ in range(rng.randint(1, A.dim))]
            space = subalgebra_closure(A, gens)
            assert subalgebra_closure(A, [list(r) for r in space.rows]) == space
            assert opposite(opposite(A)) == A
            count += 1
        # Jacobi follows from left symmetry
        instances = [aff_line_lsa()] + [alpha_family(a) for a in range(1, 6)]
        while len(instances) < 20:
            A = random_algebra(rng, 2)
            if check_left_symmetric(A).holds:
                instances.append(A)
        for A in instances:
            commutator_algebra(A)   # must not raise
        # Leibniz / function-linearity of the covariant derivative, both on the
        # fixed factor corpus and on randomized factors
        conn = aff_line_connection(CH)
        _, fields = six_iat_fields(CH)
        factors = [parse_expr(s, CH) for s in ("x", "y^2", "1/x")]
        factors += [random_rational_function(rng, CH, max_degree=2)
                    for _ in range(12)]
        checked = 0
        for X in fields[:2]:
            for Y in fields[:2]:
                for f in factors:
                    assert covariant_derivative(conn, X.scaled(f), Y) == \
                        covariant_derivative(conn, X, Y).scaled(f)
                    assert covariant_derivative(conn, X, Y.scaled(f)) == \
                        Y.scaled(apply_field(X, f)) + covariant_derivative(conn, X, Y).scaled(f)
                    checked += 1
        assert checked >= 20
        # parse/print round-trips
        for _ in range(25):
            g = random_rational_function(rng, CH)
            assert parse_expr(str(g), CH) == g


def test_criterion_10_negative_controls():
    with criterion(10, "negative controls: IAT witness, span failure, Jacobi error"):
        report = is_infinitesimal_affine(Connection.zero(CH),
                                         VectorField(CH, ("x^2", "0")))
        assert not report.holds and report.witness == (1, 1)
        with pytest.raises(NotInSpanError):
            express_in_basis([VectorField(CH, ("x^2", "0"))],
                             [VectorField(CH, ("x", "0"))])
        bad = SCAlgebra.from_products(
            ("b1", "b2", "b3"),
            {("b1", "b2"): {"b3": 1}, ("b1", "b3"): {"b1": 1},
             ("b2", "b3"): {"b2": 1}})
        with pytest.raises(JacobiError) as err:
            commutator_algebra(bad)
        assert err.value.witness == (1, 2, 3)
