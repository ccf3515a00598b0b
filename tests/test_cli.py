"""Task-file runner: end-to-end runs, exit codes, determinism, table rendering."""
import copy
import json
import time

import pytest

from flataffine import SCAlgebra, commutator_algebra
from flataffine.cli import (
    TASK_KINDS,
    TaskFileError,
    _RUNNERS,
    emit_table,
    load_document,
    main,
    run_document,
)
from helpers import SIX_IAT_FIELDS, six_field_table_algebra


def lsa11_json(name="aff-lsa"):
    return {
        "name": name, "dim": 2, "basis": ["e1", "e2"],
        "products": [
            {"left": 1, "right": 1, "result": ["2", "0"]},
            {"left": 1, "right": 2, "result": ["0", "1"]},
            {"left": 2, "right": 2, "result": ["1", "0"]},
        ],
    }


def six_field_table_json(name="six-field-table"):
    doc = six_field_table_algebra().to_json_dict()
    doc["name"] = name
    return doc


def six_field_brackets_json(name="six-field-brackets"):
    lie = commutator_algebra(six_field_table_algebra())
    entries = []
    for i in range(lie.dim):
        for j in range(lie.dim):
            if any(lie.c[i][j]):
                entries.append({"left": i + 1, "right": j + 1,
                                "result": [str(x) for x in lie.c[i][j]]})
    return {"name": name, "dim": lie.dim, "basis": list(lie.basis_names),
            "products": entries}


def six_field_taskfile():
    fields = [{"name": "e1+", "chart": "halfplane", "coeffs": ["x", "0"]},
              {"name": "e2+", "chart": "halfplane", "coeffs": ["0", "x"]}]
    for name, coeffs in SIX_IAT_FIELDS:
        fields.append({"name": name, "chart": "halfplane", "coeffs": list(coeffs)})
    six = [name for name, _ in SIX_IAT_FIELDS]
    return {
        "schema": 1,
        "charts": [{"name": "halfplane", "variables": ["x", "y"]}],
        "algebras": [lsa11_json(), six_field_table_json(), six_field_brackets_json()],
        "fields": fields,
        "connections": [{"name": "nabla11", "chart": "halfplane",
                         "frame": ["e1+", "e2+"], "constants": "aff-lsa"}],
        "tasks": [
            {"id": "lsa", "kind": "check-lsa", "algebra": "aff-lsa"},
            {"id": "tor", "kind": "torsion", "connection": "nabla11", "expect_zero": True},
            {"id": "curv", "kind": "curvature", "connection": "nabla11", "expect_zero": True},
            {"id": "iat-c6", "kind": "check-iat", "connection": "nabla11", "field": "C6"},
            {"id": "table", "kind": "product-table", "connection": "nabla11",
             "fields": six, "expect": "six-field-table"},
            {"id": "assoc", "kind": "check-associative", "algebra": "six-field-table"},
            {"id": "comm", "kind": "commutator", "algebra": "six-field-table"},
            {"id": "clos", "kind": "closure", "algebra": "six-field-table",
             "generators": ["e1-", "e2-"], "expect_rank": 5},
            {"id": "solve", "kind": "solve-iat", "connection": "nabla11",
             "ansatz": ["1", "x", "y", "x^2", "y^2", "x*y",
                        "1/x", "y/x", "y^2/x", "y^3/x"]},
            {"id": "env", "kind": "envelope", "connection": "nabla11",
             "fields": six, "generators": ["e1-", "e2-"], "expect_rank": 5},
            {"id": "biinv", "kind": "bi-invariant-check",
             "lie": "six-field-brackets", "algebra": "six-field-table"},
        ],
    }


def test_six_field_scene_end_to_end(tmp_path):
    code, reports = run_document(six_field_taskfile(), out_dir=tmp_path)
    assert code == 0
    by_id = {r["id"]: r for r in reports}
    assert by_id["env"]["data"]["closure"]["rank"] == 5
    assert by_id["env"]["data"]["closure"]["named_basis"] == \
        ["e1-", "e2-", "C3", "C4", "C5"]
    assert by_id["solve"]["data"]["dimension"] == 6
    assert by_id["table"]["verdict"] is True
    assert by_id["biinv"]["verdict"] is True
    assert (tmp_path / "env.json").exists()
    assert (tmp_path / "env.txt").exists()


def test_shipped_example_taskfile_runs_clean():
    from pathlib import Path
    shipped = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"
    code, reports = run_document(json.loads(shipped.read_text()))
    assert code == 0
    assert len(reports) == len(six_field_taskfile()["tasks"])


def test_corrupted_reference_entry_names_cell(tmp_path):
    doc = six_field_taskfile()
    corrupted = copy.deepcopy(doc)
    for algebra in corrupted["algebras"]:
        if algebra["name"] == "six-field-table":
            for entry in algebra["products"]:
                if entry["left"] == 2 and entry["right"] == 6:
                    entry["result"] = ["2", "0", "0", "0", "-1", "0"]
    corrupted["tasks"] = [t for t in corrupted["tasks"] if t["id"] == "table"]
    code, reports = run_document(corrupted)
    assert code == 1
    assert reports[0]["verdict"] is False
    assert reports[0]["witness"] == [2, 6]


def test_empty_task_list():
    code, reports = run_document({"schema": 1, "tasks": []})
    assert code == 0 and reports == []


def test_negative_verdict_exit_code():
    doc = {
        "schema": 1,
        "algebras": [lsa11_json()],
        "tasks": [{"id": "bad", "kind": "check-associative", "algebra": "aff-lsa"}],
    }
    code, reports = run_document(doc)
    assert code == 1
    assert reports[0]["witness"] == [1, 1, 2]


def test_fail_fast_stops():
    doc = {
        "schema": 1,
        "algebras": [lsa11_json()],
        "tasks": [
            {"id": "bad", "kind": "check-associative", "algebra": "aff-lsa"},
            {"id": "good", "kind": "check-lsa", "algebra": "aff-lsa"},
        ],
    }
    code, reports = run_document(doc, fail_fast=True)
    assert code == 1 and len(reports) == 1


def test_commutator_jacobi_failure_is_negative_verdict():
    doc = {
        "schema": 1,
        "algebras": [{
            "name": "bad", "dim": 3, "basis": ["b1", "b2", "b3"],
            "products": [
                {"left": 1, "right": 2, "result": ["0", "0", "1"]},
                {"left": 1, "right": 3, "result": ["1", "0", "0"]},
                {"left": 2, "right": 3, "result": ["0", "1", "0"]},
            ]}],
        "tasks": [{"id": "c", "kind": "commutator", "algebra": "bad"}],
    }
    code, reports = run_document(doc)
    assert code == 1
    assert reports[0]["witness"] == [1, 2, 3]


def test_perturbed_connection_torsion_fails_with_named_component():
    doc = {
        "schema": 1,
        "charts": [{"name": "plane", "variables": ["x", "y"]}],
        "connections": [{"name": "bad", "chart": "plane",
                         "christoffel": [{"k": 1, "i": 1, "j": 2, "expr": "1"}]}],
        "tasks": [{"id": "t", "kind": "torsion", "connection": "bad",
                   "expect_zero": True}],
    }
    code, reports = run_document(doc)
    assert code == 1
    assert reports[0]["witness"] == "T^1_{1,2}"


def test_schema_violations():
    with pytest.raises(TaskFileError):
        load_document({"tasks": []})
    with pytest.raises(TaskFileError) as err:
        load_document({"schema": 1, "tasks": [{"kind": "frobnicate"}]})
    assert "/tasks/0/kind" in str(err.value)
    with pytest.raises(TaskFileError) as err:
        load_document({"schema": 1,
                       "fields": [{"name": "f", "chart": "nope", "coeffs": ["1"]}],
                       "tasks": []})
    assert "/fields/0" in str(err.value)


def test_expression_error_carries_offset_and_path():
    with pytest.raises(TaskFileError) as err:
        load_document({
            "schema": 1,
            "charts": [{"name": "c", "variables": ["x"]}],
            "fields": [{"name": "f", "chart": "c", "coeffs": ["x +"]}],
            "tasks": [],
        })
    assert "/fields/0/coeffs/0" in str(err.value)
    assert "offset" in str(err.value)


def test_closure_task_with_vector_generators():
    doc = {
        "schema": 1,
        "algebras": [six_field_table_json()],
        "tasks": [{"id": "c", "kind": "closure", "algebra": "six-field-table",
                   "generators": [["1", "0", "0", "0", "0", "0"],
                                  ["0", "1", "0", "0", "0", "0"]],
                   "expect_rank": 5}],
    }
    code, reports = run_document(doc)
    assert code == 0
    assert reports[0]["data"]["named_basis"] == ["e1-", "e2-", "C3", "C4", "C5"]


def test_bi_invariant_rejects_non_bracket_input():
    doc = {
        "schema": 1,
        "algebras": [lsa11_json("not-a-bracket"), six_field_table_json()],
        "tasks": [{"id": "t", "kind": "bi-invariant-check",
                   "lie": "not-a-bracket", "algebra": "six-field-table"}],
    }
    with pytest.raises(TaskFileError) as err:
        run_document(doc)
    assert "Lie bracket" in str(err.value)


def test_dependent_ansatz_is_input_error():
    doc = {
        "schema": 1,
        "charts": [{"name": "plane", "variables": ["x", "y"]}],
        "connections": [{"name": "flat", "chart": "plane", "christoffel": []}],
        "tasks": [{"id": "t", "kind": "solve-iat", "connection": "flat",
                   "ansatz": ["x", "2*x"]}],
    }
    with pytest.raises(TaskFileError):
        run_document(doc)


def test_nonflat_connection_is_input_error():
    doc = {
        "schema": 1,
        "charts": [{"name": "plane", "variables": ["x", "y"]}],
        "connections": [{"name": "bad", "chart": "plane",
                         "christoffel": [{"k": 1, "i": 1, "j": 2, "expr": "1"}]}],
        "fields": [{"name": "f", "chart": "plane", "coeffs": ["x", "0"]}],
        "tasks": [{"id": "t", "kind": "check-iat", "connection": "bad", "field": "f"}],
    }
    with pytest.raises(TaskFileError):
        run_document(doc)


def test_determinism_byte_identical_reports():
    doc = six_field_taskfile()
    _, first = run_document(copy.deepcopy(doc))
    _, second = run_document(copy.deepcopy(doc))
    for a, b in zip(first, second):
        a, b = dict(a), dict(b)
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert json.dumps(a) == json.dumps(b)


def test_every_kind_has_a_runner():
    assert set(TASK_KINDS) == set(_RUNNERS)
    assert set(TASK_KINDS) == {
        "check-lsa", "check-associative", "commutator", "closure", "torsion",
        "curvature", "check-iat", "solve-iat", "product-table", "envelope",
        "bi-invariant-check"}


def test_main_end_to_end(tmp_path, capsys):
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(six_field_taskfile()))
    out = tmp_path / "reports"
    code = main(["run", str(taskfile), "--out", str(out), "--format", "json"])
    assert code == 0
    captured = capsys.readouterr()
    assert "env (envelope): pass" in captured.out
    report = json.loads((out / "env.json").read_text())
    assert report["data"]["closure"]["rank"] == 5
    assert not (out / "env.txt").exists()


def test_main_input_errors(tmp_path, capsys):
    missing = main(["run", str(tmp_path / "absent.json")])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    noschema = tmp_path / "noschema.json"
    noschema.write_text(json.dumps({"tasks": []}))
    assert main(["run", str(noschema)]) == 2



def _malformed(task_id, edit):
    """The six-field task file with only task `task_id`, changed by `edit`."""
    doc = six_field_taskfile()
    doc["tasks"] = [t for t in doc["tasks"] if t["id"] == task_id]
    edit(doc)
    return doc


@pytest.mark.parametrize("doc, path", [
    (_malformed("clos", lambda d: d["tasks"][0].update(expect_rank="5")),
     "/tasks/0/expect_rank"),
    (_malformed("env", lambda d: d["tasks"][0].update(expect_rank="5")),
     "/tasks/0/expect_rank"),
    (_malformed("clos", lambda d: d["tasks"][0].update(expect_rank=True)),
     "/tasks/0/expect_rank"),
    (_malformed("lsa", lambda d: d["fields"][0].update(coeffs=[1, 2])),
     "/fields/0/coeffs/0"),
    (_malformed("lsa", lambda d: d["charts"][0].update(variables=[1, 2])),
     "/charts/0/variables"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][0].update(
        result=["1/0", "0"])), "/algebras/0/products/0/result/0"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][0].update(left="1")),
     "/algebras/0/products/0/left"),
    (_malformed("lsa", lambda d: d["algebras"][0].update(basis=5)),
     "/algebras/0/basis"),
    (_malformed("lsa", lambda d: d.update(charts=5)), "/charts"),
    (_malformed("clos", lambda d: d["tasks"][0].update(
        generators=[["1/0", "0", "0", "0", "0", "0"]])), "/tasks/0/generators/0"),
    (_malformed("lsa", lambda d: d["connections"][0].update(frame=5)),
     "/connections/0/frame"),
    (_malformed("lsa", lambda d: d["connections"][0].update(christoffel=[
        {"k": "1", "i": 1, "j": 1, "expr": "1/x"}])), "/connections/0/christoffel/0/k"),
    (_malformed("table", lambda d: d["tasks"][0].update(fields=[["a"]])),
     "/tasks/0/fields/0"),
    (_malformed("tor", lambda d: d["tasks"][0].update(expect_zero="false")),
     "/tasks/0/expect_zero"),
    (_malformed("lsa", lambda d: d["fields"][0].update(
        coeffs=["(" * 5000 + "x" + ")" * 5000, "0"])), "/fields/0/coeffs/0"),
    (_malformed("lsa", lambda d: d["fields"][1].update(
        coeffs=["0", "(x+y)^200/(x-y)^200"])), "/fields/1/coeffs/1"),
    (_malformed("lsa", lambda d: d["fields"][0].update(coeffs=["9" * 5000, "0"])),
     "/fields/0/coeffs/0"),
    (_malformed("env", lambda d: d["tasks"][0]["fields"].append("e1-")),
     "/tasks/0/fields/6"),
    (_malformed("table", lambda d: d["tasks"][0].update(fields=["e1-", "e1-"])),
     "/tasks/0/fields/1"),
], ids=["closure-rank-string", "envelope-rank-string", "closure-rank-bool",
        "field-coeffs-numbers", "chart-variables-numbers", "algebra-result-zero-denominator",
        "product-left-string", "algebra-basis-number", "charts-number",
        "generator-zero-denominator", "frame-number", "christoffel-index-string",
        "table-field-list", "expect-zero-string", "coeffs-nested-too-deep",
        "coeffs-power-too-high", "coeffs-literal-too-long", "envelope-field-repeated",
        "table-field-repeated"])
def test_malformed_values_are_input_errors(tmp_path, capsys, doc, path):
    with pytest.raises(TaskFileError) as err:
        run_document(copy.deepcopy(doc))
    assert err.value.path == path
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert path in capsys.readouterr().err


def test_power_past_degree_cap_fails_fast(tmp_path, capsys):
    # the parser used to compute this power before anything could refuse it
    # (33 s on a 2-core host)
    doc = _malformed("lsa", lambda d: d["fields"][0].update(
        coeffs=["(x+y)^200/(x-y)^200", "0"]))
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    started = time.process_time()
    assert main(["run", str(taskfile)]) == 2
    assert time.process_time() - started < 1.0
    err = capsys.readouterr().err
    assert "/fields/0/coeffs/0" in err and "degree 64" in err


# ----- emit_table and rendering ------------------------------------------------------


def test_format_combination_cases():
    from fractions import Fraction
    from flataffine.render import format_combination
    names = ("a", "b", "c")
    F = Fraction
    assert format_combination((F(0), F(0), F(0)), names) == "0"
    assert format_combination((F(1), F(0), F(-1)), names) == "a - c"
    assert format_combination((F(2), F(-3), F(0)), names) == "2*a - 3*b"
    assert format_combination((F(3, 2), F(0), F(-1, 4)), names) == "(3/2)*a - (1/4)*c"


def test_emit_table_six_field():
    text = emit_table(six_field_table_algebra(), "text")
    assert "2*e1- - 2*C5" in text
    lines = text.splitlines()
    assert len(lines) == 8  # header + rule + 6 rows


def test_emit_table_zero_algebra():
    text = emit_table(SCAlgebra.zero_algebra(("a", "b")), "text")
    rows = text.splitlines()[2:]
    for row in rows:
        cells = [c.strip() for c in row.split("|")[1:]]
        assert all(c == "0" for c in cells)


def test_emit_table_idempotent():
    A = SCAlgebra.from_products(("e",), {("e", "e"): {"e": 1}})
    text = emit_table(A, "text")
    assert text.splitlines()[-1].startswith("e")
    assert text.splitlines()[-1].split("|")[1].strip() == "e"


def test_emit_table_round_trip_through_json():
    A = six_field_table_algebra()
    doc = json.loads(emit_table(A, "json"))
    back = SCAlgebra.from_json_dict(doc)
    assert emit_table(back, "text") == emit_table(A, "text")


def test_emit_table_bad_format():
    with pytest.raises(ValueError):
        emit_table(six_field_table_algebra(), "yaml")
