"""The product-table memo on a connection against fresh builds.

`product_table` memoizes each table it builds on the connection, keyed by
the set of its field objects, and answers a later call on the same objects
in another order by relabelling the stored rows.  The oracle is a fresh
build on an equal connection that has no memo: on seeded permutations of the
six half-plane fields and of the 16 GL2 fields that `independent_fields`
keeps, a hit gives the same rows and names, and it takes no derivative table
and builds no span.  A failed build stores nothing and fails the same way
again; a list that repeats a field object skips the memo, and a field
written to since the build is a miss that fails as a fresh build does.  The
last test runs each task of the shipped task file in a document of its own,
where nothing is memoized, and compares the report with the one the whole
file gives, whose envelope task reads the product-table task's table.
"""
import json
import random
from pathlib import Path

import pytest

from flataffine import geometry
from flataffine.cli import run_document
from flataffine.geometry import (
    DependentFieldsError,
    IATViolationError,
    NotInSpanError,
    VectorField,
    independent_fields,
    product_table,
)
from helpers import aff_line_connection, chart_xy, gln_scene, six_iat_fields

SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"


def halfplane_scene():
    chart = chart_xy()
    names, fields = six_iat_fields(chart)
    return lambda: aff_line_connection(chart), names, fields


def gl2_scene():
    scene = gln_scene(2)
    inv_names, inv_fields = scene.invariant_fields()
    names, fields = independent_fields(inv_fields + scene.f_fields,
                                       inv_names + scene.f_names)
    assert len(fields) == 16
    return scene.connect, names, fields


SCENES = {"halfplane": halfplane_scene, "gl2": gl2_scene}


@pytest.fixture(scope="module", params=sorted(SCENES))
def scene(request):
    return SCENES[request.param]()


def permuted(seed, *lists):
    order = list(range(len(lists[0])))
    random.Random(seed).shuffle(order)
    return [[items[i] for i in order] for items in lists]


@pytest.mark.parametrize("seed", range(6))
def test_a_hit_in_any_order_is_the_fresh_table(scene, seed):
    connect, names, fields = scene
    conn = connect()
    product_table(conn, fields, names)
    p_names, p_fields = permuted(seed, names, fields)
    hit = product_table(conn, p_fields, p_names)
    fresh = product_table(connect(), p_fields, p_names)
    assert hit.basis_names == fresh.basis_names == tuple(p_names)
    assert hit.rows == fresh.rows
    assert len(conn._tables) == 1


def test_a_field_set_with_the_same_names_is_not_a_hit():
    connect, names, fields = halfplane_scene()
    conn = connect()
    product_table(conn, fields)
    doubled = [f.scaled(2) for f in fields]
    assert product_table(conn, doubled).rows == product_table(connect(), doubled).rows
    assert len(conn._tables) == 2


@pytest.fixture
def work(monkeypatch):
    """Starts counting the derivative tables and the spans that
    `product_table` builds, and returns the counts."""
    def start():
        counts = {"derivatives": 0, "spans": 0}
        first_derivatives, field_span = geometry._first_derivatives, geometry._FieldSpan

        def counted_derivatives(conn, X):
            counts["derivatives"] += 1
            return first_derivatives(conn, X)

        def counted_span(chart, fields):
            counts["spans"] += 1
            return field_span(chart, fields)

        monkeypatch.setattr(geometry, "_first_derivatives", counted_derivatives)
        monkeypatch.setattr(geometry, "_FieldSpan", counted_span)
        return counts
    return start


@pytest.mark.parametrize("seed", [None, 0])
def test_a_hit_takes_no_derivatives_and_builds_no_span(scene, work, seed):
    connect, names, fields = scene
    # the connection is built before counting starts: its round trip reads
    # one derivative table per frame field
    conn = connect()
    work = work()
    product_table(conn, fields, names)
    assert work == {"derivatives": len(fields), "spans": 1}
    again = (names, fields) if seed is None else permuted(seed, names, fields)
    product_table(conn, again[1], again[0])
    assert work == {"derivatives": len(fields), "spans": 1}


def failing_calls():
    chart = chart_xy()
    names, fields = six_iat_fields(chart)
    return {
        # x^2 d/dx is not infinitesimal affine on the half-plane connection
        "non-iat": (fields + [VectorField(chart, ["x^2", "0"])], names + ["q"],
                    IATViolationError, lambda err: (err.field_name, err.witness)),
        # e1-·e1- = e1- + C5 leaves the span of e1- and e2-
        "not-closed": (fields[:2], names[:2], NotInSpanError, lambda err: err.pair),
        # the same object twice
        "repeated": (fields[:3] + fields[:1], names[:3] + ["again"],
                     DependentFieldsError, lambda err: err.index),
    }


@pytest.mark.parametrize("case", sorted(failing_calls()))
def test_a_failed_build_is_not_stored(case):
    fields, names, error, detail = failing_calls()[case]
    conn = aff_line_connection(fields[0].chart)
    seen = []
    for _ in range(2):
        with pytest.raises(error) as info:
            product_table(conn, fields, names)
        seen.append((str(info.value), detail(info.value)))
        assert conn._tables == {}
    assert seen[0] == seen[1]


def test_a_repeated_field_skips_a_stored_table_of_its_set():
    connect, names, fields = halfplane_scene()
    conn = connect()
    product_table(conn, fields, names)
    with pytest.raises(DependentFieldsError) as info:
        product_table(conn, fields + fields[:1], names + ["again"])
    assert info.value.index == len(fields)


def test_a_field_written_to_after_a_build_is_a_miss():
    connect, names, fields = halfplane_scene()
    conn = connect()
    table = product_table(conn, fields, names)
    original = fields[0].components[0]
    fields[0].components[0] = original * 2   # e1- becomes 2x d/dx + y d/dy: not IAT
    with pytest.raises(IATViolationError) as fresh:
        product_table(connect(), fields, names)
    for _ in range(2):   # the failed rebuild leaves the stale entry a miss
        with pytest.raises(IATViolationError) as info:
            product_table(conn, fields, names)
        assert (str(info.value), info.value.witness) == (str(fresh.value), fresh.value.witness)
    fields[0].components[0] = original
    assert product_table(conn, fields, names).rows == table.rows
    assert len(conn._tables) == 1


def without_elapsed(report):
    return {key: value for key, value in report.items() if key != "elapsed_ms"}


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
def test_a_memo_hit_never_changes_a_report(seed):
    # seed None keeps the shipped envelope order, the table task's own; a
    # seeded order makes the envelope task's table a relabelled hit
    doc = json.loads(SHIPPED.read_text())
    env = next(task for task in doc["tasks"] if task["kind"] == "envelope")
    if seed is not None:
        random.Random(seed).shuffle(env["fields"])
    code, reports = run_document(doc)
    assert code == 0 and len(reports) == len(doc["tasks"])
    sections = {key: value for key, value in doc.items() if key != "tasks"}
    for task, report in zip(doc["tasks"], reports):
        code, alone = run_document(dict(sections, tasks=[task]))
        assert code == 0
        assert without_elapsed(alone[0]) == without_elapsed(report), task["id"]
