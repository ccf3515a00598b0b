"""Envelope orchestration: closures, opposite convention, bi-invariant criterion."""
import hashlib
import json

import pytest

from flataffine import (
    Connection,
    LieAlgebraSC,
    VectorField,
    check_associative,
    commutator_algebra,
    compute_envelope,
    opposite,
    subalgebra_closure,
    verify_bi_invariant_criterion,
)
from flataffine.envelope import OPPOSITE_CONVENTION
from flataffine.geometry import (
    IATViolationError,
    NotFlatError,
    express_in_basis,
    independent_fields,
    is_flat_affine,
    is_infinitesimal_affine,
    product_table,
)
from helpers import (
    GL2Scene,
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
    for i in range(5):
        for j in range(5):
            assert report.envelope.c[i][j] == table.c[j][i][:5]
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
    scene = GL2Scene()
    conn = scene.connection
    table16 = product_table(conn, scene.f_fields, scene.f_names)
    assert check_associative(table16).holds
    inv_names, inv_fields = scene.invariant_fields()
    generators = express_in_basis(inv_fields, scene.f_fields)
    space = subalgebra_closure(table16, generators)
    assert space.rank == 16


def test_envelope_gl2_via_orchestrator():
    scene = GL2Scene()
    from flataffine.geometry import independent_fields
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [n for n in names if n.startswith("E")]
    report = compute_envelope(scene.connection, fields, names, generators)
    assert report.closure.rank == 16
    assert all(report.checks.values())


def test_final_check_catches_a_missing_opposite(monkeypatch):
    # with `opposite` returning its argument, the envelope's commutator is the
    # restricted one, not its negation: only the last check can see that
    from flataffine import envelope
    monkeypatch.setattr(envelope, "opposite", lambda algebra: algebra)
    scene = GL2Scene()
    from flataffine.geometry import independent_fields
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    generators = [n for n in names if n.startswith("E")]
    report = compute_envelope(scene.connection, fields, names, generators)
    failed = [name for name, ok in report.checks.items() if not ok]
    assert failed == ["envelope_commutator_is_opposite_of_restricted_brackets"]


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
    # the library reads the sparse rows only: no dense view was built
    for algebra in (report.ambient, report.envelope, report.commutator):
        assert algebra._c is None
