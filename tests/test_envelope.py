"""Envelope orchestration: closures, opposite convention, planted mutants that
each check must catch, bi-invariant criterion."""
import hashlib
import json

import pytest

from flataffine import (
    Connection,
    LieAlgebraSC,
    SCAlgebra,
    VectorField,
    check_associative,
    commutator_algebra,
    compute_envelope,
    opposite,
    subalgebra_closure,
    verify_bi_invariant_criterion,
)
from flataffine.algebra import JacobiError
from flataffine.envelope import OPPOSITE_CONVENTION
from flataffine.geometry import (
    IATViolationError,
    NotFlatError,
    independent_fields,
    is_flat_affine,
    is_infinitesimal_affine,
    product_table,
)
from helpers import (
    dense_constants,
    dense_express,
    alpha_connection,
    chart_xy,
    gln_scene,
    aff_line_lsa,
    aff_line_connection,
    six_iat_fields,
    alpha2_fields,
    six_field_table_algebra,
    subspace_contains,
    zero_algebra,
    full_route_checks,
)


def test_envelope_37_dimension_five():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    assert report.closure.rank == 5
    assert report.closure.named_basis(names) == ["e1-", "e2-", "C3", "C4", "C5"]
    assert all(report.checks.values())
    assert report.convention == OPPOSITE_CONVENTION
    # envelope constants are the opposite of the restricted reference table
    table = six_field_table_algebra()
    envelope, c = dense_constants(report.envelope), dense_constants(table)
    for i in range(5):
        for j in range(5):
            assert envelope[i][j] == c[j][i][:5]
    # C6 is excluded
    assert not subspace_contains(report.closure, table.basis_vector(5))


def test_envelope_37_c6_stays_out_after_extra_rounds():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    ambient = report.ambient
    rows = [list(r) for r in report.closure.rows]
    from flataffine.linalg import rref
    for _ in range(6):
        products = [list(ambient.product(u, v)) for u in rows for v in rows]
        rows, _ = rref(rows + products)
        assert len(rows) == 5
        assert all(row[5] == 0 for row in rows)


def test_envelope_39_dimension_four():
    conn = alpha_connection(2, chart_xy())
    names, fields = alpha2_fields(chart_xy())
    report = compute_envelope(conn, fields, names, names)
    assert report.closure.rank == 4
    assert all(report.checks.values())


def test_envelope_full_generators_is_everything():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, names)
    assert report.closure.rank == len(names)
    assert report.envelope == opposite(report.ambient)


def test_envelope_idempotent_at_algebra_layer():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    again = subalgebra_closure(report.ambient, [list(r) for r in report.closure.rows])
    assert again == report.closure


def test_envelope_commutator_conventions():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    # ambient commutator equals vector-field brackets (checked inside);
    # envelope commutator is the negation of the restricted one
    assert report.checks["ambient_commutator_matches_lie_brackets"]
    assert report.checks["envelope_commutator_is_opposite_of_restricted_brackets"]
    assert report.commutator == commutator_algebra(report.envelope)


def test_envelope_gl2_closure_rank16():
    scene = gln_scene(2)
    conn = scene.connect()
    table16 = product_table(conn, scene.f_fields, scene.f_names)
    assert check_associative(table16).holds
    inv_names, inv_fields = scene.invariant_fields()
    generators = dense_express(inv_fields, scene.f_fields)
    space = subalgebra_closure(table16, generators)
    assert space.rank == 16


def test_envelope_gl2_via_orchestrator():
    scene = gln_scene(2)
    from flataffine.geometry import independent_fields
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [n for n in names if n.startswith("E")]
    report = compute_envelope(scene.connect(), fields, names, generators)
    assert report.closure.rank == 16
    assert all(report.checks.values())


def test_final_check_catches_a_missing_opposite(monkeypatch):
    # with `opposite` returning its argument, the envelope's commutator is the
    # restricted one, not its negation: only the last check can see that
    from flataffine import envelope
    monkeypatch.setattr(envelope, "opposite", lambda algebra: algebra)
    scene = gln_scene(2)
    from flataffine.geometry import independent_fields
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [n for n in names if n.startswith("E")]
    report = compute_envelope(scene.connect(), fields, names, generators)
    failed = [name for name, ok in report.checks.items() if not ok]
    assert failed == ["envelope_commutator_is_opposite_of_restricted_brackets"]


def gl2_envelope_scene():
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    return scene.connect(), fields, names, [n for n in names if n.startswith("E")]


def halfplane_envelope_scene():
    names, fields = six_iat_fields(chart_xy())
    return aff_line_connection(chart_xy()), fields, names, ["e1-", "e2-"]


@pytest.mark.parametrize("scene, wrong", [
    (halfplane_envelope_scene, "drop"), (halfplane_envelope_scene, "double"),
    (gl2_envelope_scene, "drop"), (gl2_envelope_scene, "double")])
def test_final_check_catches_a_wrong_difference(monkeypatch, scene, wrong):
    # u - v read as u, or as 2 (u - v), wherever the commutators are taken;
    # the expected side of the last check subtracts nothing
    from flataffine import algebra, envelope
    difference = algebra._difference
    mutant = {"drop": lambda u, v: u,
              "double": lambda u, v: tuple((k, 2 * x) for k, x in difference(u, v))}[wrong]
    monkeypatch.setattr(algebra, "_difference", mutant)
    monkeypatch.setattr(envelope, "_difference", mutant)
    report = compute_envelope(*scene())
    failed = [name for name, ok in report.checks.items() if not ok]
    assert failed == ["ambient_commutator_matches_lie_brackets",
                      "envelope_commutator_is_opposite_of_restricted_brackets"]


def partial_opposite(a, b):
    """An `opposite` that leaves the pair (a, b), (b, a) untransposed."""
    def opposite(algebra):
        rows = [list(row) for row in zip(*algebra.rows)]
        rows[a][b], rows[b][a] = algebra.rows[a][b], algebra.rows[b][a]
        return SCAlgebra._of(algebra.basis_names, tuple(map(tuple, rows)))
    return opposite


@pytest.mark.parametrize("pair, failed", [
    ((0, 1), ["envelope_associative",
              "envelope_commutator_is_opposite_of_restricted_brackets"]),
    ((2, 3), ["envelope_commutator_is_opposite_of_restricted_brackets"])],
    ids=["not-associative", "associative"])
def test_final_check_catches_a_partial_opposite(monkeypatch, pair, failed):
    from flataffine import algebra, envelope
    conn = alpha_connection(2, chart_xy())
    names, fields = alpha2_fields(chart_xy())
    # every associativity scan runs through `_associator_failure`: the ambient
    # verdict on the generators' rows, `check_associative` on the rows of a
    # generating set it finds
    scans, verdicts = [], []
    rows_scan = algebra._associator_failure

    def spy(A, rows):
        scans.append(A)
        return rows_scan(A, rows)
    monkeypatch.setattr(algebra, "_associator_failure", spy)
    monkeypatch.setattr(envelope, "_associator_failure", spy)
    monkeypatch.setattr(envelope, "check_associative",
                        lambda algebra: verdicts.append(algebra) or check_associative(algebra))
    report = compute_envelope(conn, fields, names, names)
    # the closure is the whole space and the envelope is the ambient's
    # opposite, so the ambient scan gives the envelope's verdict
    assert report.closure.rank == 4 and all(report.checks.values())
    assert scans == [report.ambient] and verdicts == []
    a, b = pair
    assert report.ambient.rows[a][b] != report.ambient.rows[b][a]
    monkeypatch.setattr(envelope, "opposite", partial_opposite(a, b))
    scans.clear()
    report = compute_envelope(conn, fields, names, names)
    # the envelope is not the ambient's opposite: it is scanned itself
    assert scans == [report.ambient, report.envelope] and verdicts == [report.envelope]
    assert report.checks["envelope_associative"] == check_associative(report.envelope).holds
    assert [name for name, ok in report.checks.items() if not ok] == failed


def test_a_non_associative_envelope_keeps_the_jacobi_error(monkeypatch):
    # the envelope's commutator is built through its Jacobi scan unless the
    # envelope is associative
    from flataffine import envelope
    monkeypatch.setattr(envelope, "opposite", partial_opposite(0, 1))
    with pytest.raises(JacobiError) as err:
        compute_envelope(*gl2_envelope_scene())
    assert err.value.witness == (1, 2, 3)


def test_envelope_report_json():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    doc = report.to_json_dict()
    assert doc["closure"]["rank"] == 5
    assert doc["closure"]["named_basis"] == ["e1-", "e2-", "C3", "C4", "C5"]
    assert doc["envelope"]["dim"] == 5
    assert doc["convention"] == OPPOSITE_CONVENTION
    text = report.to_text()
    assert "closure rank: 5" in text


def test_envelope_unknown_generator():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    with pytest.raises(KeyError):
        compute_envelope(conn, fields, names, ["nope"])


def test_envelope_refuses_a_repeated_generator():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    with pytest.raises(ValueError, match="generator 'e1-' is listed twice"):
        compute_envelope(conn, fields, names, ["e1-", "e1-", "e2-"])
    # an unknown name is reported first, wherever the repeat is
    with pytest.raises(KeyError):
        compute_envelope(conn, fields, names, ["e1-", "e1-", "nope"])


def test_envelope_records_flatness_and_iat_first():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    assert list(report.checks)[:7] == ["flat_affine"] + [f"iat:{n}" for n in names]
    assert list(report.checks)[7:] == [
        "ambient_associative", "ambient_commutator_matches_lie_brackets",
        "closure_product_closed", "envelope_associative",
        "envelope_commutator_is_opposite_of_restricted_brackets"]


def test_envelope_refuses_a_non_flat_connection():
    chart = chart_xy()
    conn = Connection.from_sparse(chart, [(1, 1, 2, "1")])
    assert not is_flat_affine(conn)
    names, fields = six_iat_fields(chart)
    with pytest.raises(NotFlatError):
        compute_envelope(conn, fields, names, ["e1-", "e2-"])


def test_envelope_names_the_first_non_iat_field():
    chart = chart_xy()
    conn = aff_line_connection(chart)
    names, fields = six_iat_fields(chart)
    bad = VectorField(chart, ["x^2", "0"])
    report = is_infinitesimal_affine(conn, bad)
    assert not report.holds
    with pytest.raises(IATViolationError) as err:
        compute_envelope(conn, fields[:2] + [bad] + fields[2:],
                         names[:2] + ["bad"] + names[2:], ["e1-", "e2-"])
    assert err.value.field_name == "bad"
    assert err.value.witness == report.witness


# ----- bi-invariant criterion -------------------------------------------------------


def test_bi_invariant_true_for_envelope():
    conn = aff_line_connection(chart_xy())
    names, fields = six_iat_fields(chart_xy())
    report = compute_envelope(conn, fields, names, ["e1-", "e2-"])
    lie = commutator_algebra(report.envelope)
    assert verify_bi_invariant_criterion(lie, report.envelope)


def test_bi_invariant_false_for_aff_line_lsa():
    # aff(R) bracket: [e1, e2] = e2
    lie = LieAlgebraSC(("e1", "e2"),
                       [[[0, 0], [0, 1]], [[0, -1], [0, 0]]])
    assert not verify_bi_invariant_criterion(lie, aff_line_lsa())


def test_bi_invariant_trivial_case():
    lie = LieAlgebraSC(("a",), [[[0]]])
    assert verify_bi_invariant_criterion(lie, zero_algebra(("a",)))


def test_bi_invariant_dimension_mismatch():
    lie = LieAlgebraSC(("a",), [[[0]]])
    with pytest.raises(ValueError):
        verify_bi_invariant_criterion(lie, zero_algebra(("a", "b")))


# SHA-256 of json.dumps(report.to_json_dict()) for the GL3 envelope below, as
# computed by the dense-constant implementation this one replaced
GL3_ENVELOPE_SHA256 = "64419bfdb3dc8f6b566a648f736f7ba8a2d25b416a764e594dba4edfdaf98047"


def test_gl3_envelope_at_scale():
    scene = gln_scene(3)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [name for name in names if name.startswith("E")]
    assert len(names) == 81 and len(generators) == 17
    report = compute_envelope(scene.connect(), fields, names, generators)
    assert report.closure.rank == 81
    assert all(outcome is True for outcome in report.checks.values())
    doc = report.to_json_dict()
    report.to_text()
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == GL3_ENVELOPE_SHA256
    assert report.checks == full_route_checks(report, fields)
    assert report.commutator == commutator_algebra(report.envelope)
