"""Task-file runner: end-to-end runs, exit codes, determinism, table rendering."""
import copy
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flataffine import Connection, NotFlatError, SCAlgebra, commutator_algebra
from flataffine import cli
from flataffine.cli import (
    TASK_KINDS,
    TaskFileError,
    _RUNNERS,
    load_document,
    main,
    run_document,
)
from helpers import (
    SIX_IAT_FIELDS,
    dense_constants,
    emit_table,
    six_field_table_algebra,
    zero_algebra,
)

SHIPPED = Path(__file__).resolve().parent.parent / "docs" / "example-tasks.json"


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
    c = dense_constants(lie)
    entries = []
    for i in range(lie.dim):
        for j in range(lie.dim):
            if any(c[i][j]):
                entries.append({"left": i + 1, "right": j + 1,
                                "result": [str(x) for x in c[i][j]]})
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


# SHA-256 over the shipped task file's reports, in file order: each one as
# json.dumps(report, indent=2) without "elapsed_ms", then its `_report_text`,
# each followed by a newline; the same under every PYTHONHASHSEED
EXAMPLE_REPORTS_SHA256 = "78c25dbb3fbeb151a4a40690f41fb2dabee01e7f62dc1e2fd914bd16e1614442"


def test_shipped_example_taskfile_runs_clean():
    code, reports = run_document(json.loads(SHIPPED.read_text()))
    assert code == 0
    assert len(reports) == len(six_field_taskfile()["tasks"])
    digest = hashlib.sha256()
    for report in reports:
        report = {key: value for key, value in report.items() if key != "elapsed_ms"}
        digest.update((json.dumps(report, indent=2) + "\n"
                       + cli._report_text(report) + "\n").encode())
    assert digest.hexdigest() == EXAMPLE_REPORTS_SHA256


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


def test_expected_table_of_another_dimension_is_a_negative_verdict():
    doc = six_field_taskfile()
    doc["tasks"] = [dict(t, expect="aff-lsa") for t in doc["tasks"] if t["id"] == "table"]
    code, reports = run_document(doc)
    assert code == 1
    assert reports[0]["witness"] == ["dim", 6, 2]


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


@pytest.mark.parametrize("fields, witness", [
    (["e1-", "C6"], [1, 1]),            # e1-·e1- = e1- + C5 leaves the span
    (["e1-", "e1+"], ["e1+", 2, 2]),    # x d/dx is not an IAT of nabla11
])
def test_envelope_and_product_table_report_the_same_witness(fields, witness):
    doc = six_field_taskfile()
    doc["tasks"] = [
        {"id": "table", "kind": "product-table", "connection": "nabla11",
         "fields": fields},
        {"id": "env", "kind": "envelope", "connection": "nabla11",
         "fields": fields, "generators": ["e1-"]},
    ]
    code, reports = run_document(doc)
    assert code == 1
    for report in reports:
        assert report["status"] == "fail"
        assert report["witness"] == witness
    assert reports[0]["data"] == reports[1]["data"]


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
    with pytest.raises(TaskFileError) as err:
        run_document(doc)
    assert err.value.path == "/tasks/0/ansatz/1"


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


@pytest.mark.parametrize("content", [
    b'{"schema": 1, "tasks": [], "x": ' + b"1" * 4301 + b"}",
    b"[" * 200_000,
    b'{"schema": 1, "tasks": [], "x": "\xff"}',
], ids=["integer-past-digit-limit", "nesting-past-recursion-limit", "not-utf-8"])
def test_main_refuses_unparsable_json_with_exit_2(tmp_path, capsys, content):
    taskfile = tmp_path / "tasks.json"
    taskfile.write_bytes(content)
    assert main(["run", str(taskfile)]) == 2
    assert f"error: {taskfile} cannot be parsed as JSON" in capsys.readouterr().err



def _malformed(task_id, edit):
    """The six-field task file with only task `task_id`, changed by `edit`."""
    doc = six_field_taskfile()
    doc["tasks"] = [t for t in doc["tasks"] if t["id"] == task_id]
    edit(doc)
    return doc


def _foreign_field(task_id, edit):
    """`_malformed`, plus a chart "uv" and a field "D1" on it."""
    def add_and_edit(doc):
        doc["charts"].append({"name": "uv", "variables": ["u", "v"]})
        doc["fields"].append({"name": "D1", "chart": "uv", "coeffs": ["u", "0"]})
        edit(doc)
    return _malformed(task_id, add_and_edit)


def _doubled_field(task_id):
    """`_malformed`, plus a field "2e2-" = 2 * e2- listed third in the
    task's fields, after e1- and e2-."""
    def add_and_edit(doc):
        doc["fields"].append({"name": "2e2-", "chart": "halfplane", "coeffs": ["0", "2"]})
        doc["tasks"][0]["fields"].insert(2, "2e2-")
    return _malformed(task_id, add_and_edit)


def _line_taskfile(task):
    """Fields f = x d/dx and g = 2x d/dx on the line, the zero connection, and
    one task on both fields: they span a 1-dimensional algebra, not 2."""
    return {
        "schema": 1,
        "charts": [{"name": "line", "variables": ["x"]}],
        "fields": [{"name": "f", "chart": "line", "coeffs": ["x"]},
                   {"name": "g", "chart": "line", "coeffs": ["2*x"]}],
        "connections": [{"name": "flat", "chart": "line", "christoffel": []}],
        "tasks": [dict(task, connection="flat", fields=["f", "g"])],
    }


def _result(value):
    """An edit setting the first entry of the first product's result."""
    def edit(doc):
        doc["algebras"][0]["products"][0]["result"][0] = value
    return edit


def _christoffel(*entries):
    """An edit giving the first connection these Christoffel entries."""
    def edit(doc):
        doc["connections"][0].update(christoffel=list(entries))
    return edit


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
    (_malformed("lsa", lambda d: d["charts"][0].update(
        variables=[f"x{k}" for k in range(17)])), "/charts/0/variables"),
    (_malformed("solve", lambda d: d["tasks"][0].update(ansatz=["x"] * 129)),
     "/tasks/0/ansatz"),
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
    (_malformed("env", lambda d: d["tasks"][0].update(generators=["e1-", "e1-", "e2-"])),
     "/tasks/0/generators/1"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"].append(
        {"left": 1, "right": 1, "result": ["0", "0"]})), "/algebras/0/products/3"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][1].update(left=3)),
     "/algebras/0/products/1/left"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][2].update(right=0)),
     "/algebras/0/products/2/right"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][0].update(result=["2"])),
     "/algebras/0/products/0/result"),
    (_malformed("lsa", lambda d: d["algebras"][0]["products"][0].update(
        result=["2", "0", "0"])), "/algebras/0/products/0/result"),
    (_foreign_field("iat-c6", lambda d: d["tasks"][0].update(field="D1")),
     "/tasks/0/field"),
    (_foreign_field("table", lambda d: d["tasks"][0]["fields"].insert(2, "D1")),
     "/tasks/0/fields/2"),
    (_foreign_field("env", lambda d: d["tasks"][0]["fields"].append("D1")),
     "/tasks/0/fields/6"),
    (_foreign_field("lsa", lambda d: d["connections"][0].update(chart="uv")),
     "/connections/0/frame/0"),
    (_foreign_field("lsa", lambda d: d["connections"][0].update(frame=["e1+", "D1"])),
     "/connections/0/frame/1"),
    (_doubled_field("table"), "/tasks/0/fields/2"),
    (_doubled_field("env"), "/tasks/0/fields/2"),
    (_line_taskfile({"kind": "product-table"}), "/tasks/0/fields/1"),
    (_line_taskfile({"kind": "envelope", "generators": ["g"]}), "/tasks/0/fields/1"),
    (_malformed("lsa", _result("1e5")), "/algebras/0/products/0/result/0"),
    (_malformed("lsa", _result("1.5")), "/algebras/0/products/0/result/0"),
    (_malformed("lsa", _result(0.5)), "/algebras/0/products/0/result/0"),
    (_malformed("lsa", _result(True)), "/algebras/0/products/0/result/0"),
    (_malformed("lsa", _result(" 1")), "/algebras/0/products/0/result/0"),
    (_malformed("clos", lambda d: d["tasks"][0].update(
        generators=[["1e5", "0", "0", "0", "0", "0"]])), "/tasks/0/generators/0"),
    (_malformed("clos", lambda d: d["tasks"][0].update(
        generators=[[False, "0", "0", "0", "0", "0"]])), "/tasks/0/generators/0"),
    (_malformed("lsa", _christoffel({"k": 1, "i": 1, "j": 1, "expr": "1"},
                                    {"k": 1, "i": 1, "j": 1, "expr": "0"})),
     "/connections/0/christoffel/1"),
    (_malformed("lsa", _christoffel({"k": 3, "i": 1, "j": 1, "expr": "1"})),
     "/connections/0/christoffel/0/k"),
    (_malformed("lsa", _christoffel({"k": 1, "i": 1, "j": 2, "expr": "1"},
                                    {"k": 1, "i": 0, "j": 1, "expr": "1"})),
     "/connections/0/christoffel/1/i"),
    (_malformed("lsa", _christoffel({"k": 2, "i": 2, "j": 3, "expr": "x"})),
     "/connections/0/christoffel/0/j"),
    (_malformed("lsa", lambda d: d["charts"][0].update(variables=["1", "y"])),
     "/charts/0/variables/0"),
    (_malformed("lsa", lambda d: d["charts"][0].update(variables=["x", ""])),
     "/charts/0/variables/1"),
    (_malformed("lsa", lambda d: d["charts"][0].update(variables=["x y", "x"])),
     "/charts/0/variables/0"),
    (_malformed("lsa", lambda d: d["algebras"][0].update(unit=0)), "/algebras/0/unit"),
    (_malformed("lsa", lambda d: d["algebras"][0].update(unit=3)), "/algebras/0/unit"),
    (_malformed("clos", lambda d: d["tasks"][0].update(generators=["nope"])),
     "/tasks/0/generators/0"),
    (_malformed("lsa", lambda d: d["connections"][0].update(frame=["e1+", "e1+"])),
     "/connections/0"),
    (_malformed("lsa", lambda d: d["connections"][0].update(constants="six-field-table")),
     "/connections/0"),
    (_malformed("lsa", lambda d: d["connections"].append(
        {"name": "c2", "chart": "halfplane"})), "/connections/1"),
], ids=["closure-rank-string", "envelope-rank-string", "closure-rank-bool",
        "field-coeffs-numbers", "chart-variables-numbers", "chart-variables-past-cap",
        "ansatz-past-cap", "algebra-result-zero-denominator",
        "product-left-string", "algebra-basis-number", "charts-number",
        "generator-zero-denominator", "frame-number", "christoffel-index-string",
        "table-field-list", "expect-zero-string", "coeffs-nested-too-deep",
        "coeffs-power-too-high", "coeffs-literal-too-long", "envelope-field-repeated",
        "table-field-repeated", "envelope-generator-repeated", "product-pair-repeated", "product-left-past-dim",
        "product-right-zero", "product-result-short", "product-result-long",
        "iat-field-other-chart", "table-field-other-chart", "envelope-field-other-chart",
        "frame-on-other-chart", "frame-field-other-chart", "table-field-dependent",
        "envelope-field-dependent", "line-table-dependent", "line-envelope-dependent",
        "result-exponent", "result-decimal-point", "result-float", "result-bool",
        "result-space", "generator-exponent", "generator-bool", "christoffel-repeated",
        "christoffel-k-past-dim", "christoffel-i-zero", "christoffel-j-past-dim",
        "chart-variable-integer", "chart-variable-empty", "chart-variable-two-names",
        "algebra-unit-zero", "algebra-unit-past-dim", "generator-unknown-name",
        "frame-singular", "frame-constants-wrong-dim", "connection-without-symbols"])
def test_malformed_values_are_input_errors(tmp_path, capsys, doc, path):
    with pytest.raises(TaskFileError) as err:
        run_document(copy.deepcopy(doc))
    assert err.value.path == path
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert path in capsys.readouterr().err


# the cases above whose error is in a task kind's own inputs: its field or
# fields, generators or ansatz
RUNNER_SIDE_CASES = {
    "ansatz-past-cap", "generator-zero-denominator", "table-field-list",
    "envelope-field-repeated", "table-field-repeated", "envelope-generator-repeated",
    "iat-field-other-chart",
    "table-field-other-chart", "envelope-field-other-chart", "generator-exponent",
    "generator-bool", "generator-unknown-name"}
_MALFORMED_CASES = test_malformed_values_are_input_errors.pytestmark[0]


@pytest.mark.parametrize("doc, path", [
    case for case, case_id in zip(_MALFORMED_CASES.args[1], _MALFORMED_CASES.kwargs["ids"])
    if case_id in RUNNER_SIDE_CASES], ids=[
    case_id for case_id in _MALFORMED_CASES.kwargs["ids"] if case_id in RUNNER_SIDE_CASES])
def test_load_document_alone_refuses_task_inputs(doc, path):
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == path


@pytest.mark.parametrize("doc, message", [
    (_malformed("clos", lambda d: d["tasks"][0].update(generators=["nope"])),
     "/tasks/0/generators/0: no basis element named 'nope'"),
    (_malformed("lsa", lambda d: d["algebras"][0].update(unit=0)),
     '/algebras/0/unit: "unit" must be between 1 and 2'),
    (_malformed("lsa", lambda d: d["algebras"][0].update(unit=3)),
     '/algebras/0/unit: "unit" must be between 1 and 2'),
], ids=["generator-unknown-name", "algebra-unit-zero", "algebra-unit-past-dim"])
def test_input_errors_print_one_unquoted_message_at_their_path(tmp_path, capsys, doc,
                                                                message):
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _without(task_id, key):
    """The six-field task file with only task `task_id`, without `key`."""
    return _malformed(task_id, lambda d: d["tasks"][0].pop(key))


def _torsion_of_a_perturbed_connection():
    """The torsion task of test_perturbed_connection_torsion_fails_with_named_component."""
    return {
        "schema": 1,
        "charts": [{"name": "plane", "variables": ["x", "y"]}],
        "connections": [{"name": "bad", "chart": "plane",
                         "christoffel": [{"k": 1, "i": 1, "j": 2, "expr": "1"}]}],
        "tasks": [{"id": "t", "kind": "torsion", "connection": "bad",
                   "expect_zero": True}],
    }


def _table_leaving_the_span():
    doc = six_field_taskfile()
    doc["tasks"] = [{"id": "table", "kind": "product-table", "connection": "nabla11",
                     "fields": ["e1-", "C6"]}]
    return doc


@pytest.mark.parametrize("doc, code, status, witness, lines", [
    (_without("tor", "expect_zero"), 0, "ok", None, ["  zero: True"]),
    (_without("table", "expect"), 0, "ok", None, ["  e1- | e1- + C5 | C4  | 0  | C4 | "
                                                  "2*C5 | 2*C6"]),
    (_malformed("env", lambda d: d["tasks"][0].update(expect_rank=4)), 1, "fail",
     ["rank", 5, 4], ["  witness: ['rank', 5, 4]", "  closure rank: 5 (ambient dimension 6)"]),
    (_torsion_of_a_perturbed_connection(), 1, "fail", "T^1_{1,2}",
     ["  witness: T^1_{1,2}", "  zero: False", "  T^1_{1,2} = 1", "  T^1_{2,1} = -1"]),
    (_table_leaving_the_span(), 1, "fail", [1, 1],
     ["  witness: [1, 1]", "  error: product e1-·e1- (pair (1, 1)) is not a constant "
      "combination of the given fields"]),
], ids=["torsion-without-expect-zero", "table-without-expect", "envelope-wrong-rank",
        "torsion-nonzero-components", "table-error"])
def test_reports_carry_their_documented_outcome(tmp_path, doc, code, status, witness, lines):
    """Verdict tasks without their expectation report status ok; a wrong
    envelope rank, a nonzero tensor and a product that leaves the span fail
    with their witness, and the text report writes each of them out."""
    got, (report,) = run_document(copy.deepcopy(doc), out_dir=tmp_path, fmt="text")
    assert got == code
    assert (report["status"], report["witness"]) == (status, witness)
    assert report["verdict"] is {"ok": None, "fail": False}[status]
    text = (tmp_path / f"{report['id']}.txt").read_text().splitlines()
    assert text[0] == f"task {report['id']} ({report['kind']}): {status}"
    assert [line for line in lines if line not in text] == []


def test_an_input_error_in_the_last_task_stops_the_first(monkeypatch):
    doc = json.loads(SHIPPED.read_text())
    doc["tasks"][10]["lie"] = "undefined"
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/tasks/10/lie"
    called = []
    for kind in TASK_KINDS:
        monkeypatch.setitem(_RUNNERS, kind, lambda task: called.append(task["kind"]))
    with pytest.raises(TaskFileError) as err:
        run_document(doc)
    assert err.value.path == "/tasks/10/lie"
    assert called == []


def _non_flat_example():
    """The shipped task file, its connection replaced by one with torsion."""
    doc = json.loads(SHIPPED.read_text())
    doc["connections"][0] = {"name": "nabla11", "chart": "halfplane",
                             "christoffel": [{"k": 1, "i": 1, "j": 2, "expr": "1"}]}
    return doc


def test_a_non_flat_connection_is_refused_before_the_first_task(monkeypatch):
    doc = _non_flat_example()
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/tasks/3"    # the first check-iat task
    called = []
    for kind in TASK_KINDS:
        monkeypatch.setitem(_RUNNERS, kind, lambda task: called.append(task["kind"]))
    with pytest.raises(TaskFileError) as err:
        run_document(doc)
    assert err.value.path == "/tasks/3"
    assert called == []


@pytest.mark.parametrize("index", [3, 4, 8, 9],
                         ids=["check-iat", "product-table", "solve-iat", "envelope"])
def test_a_non_flat_connection_is_refused_with_the_message_of_its_computation(index):
    doc = _non_flat_example()
    doc["tasks"] = [doc["tasks"][index]]
    with pytest.raises(TaskFileError) as err:
        load_document(doc)
    flat = json.loads(SHIPPED.read_text())
    flat["tasks"] = doc["tasks"]
    task = load_document(flat).tasks[0]
    torsion = Connection.from_sparse(task["connection"].chart, [(1, 1, 2, "1")])
    with pytest.raises(NotFlatError) as raised:
        _RUNNERS[task["kind"]](dict(task, connection=torsion))
    assert str(err.value) == f"/tasks/0: {raised.value}"


def test_fail_fast_still_refuses_a_malformed_later_task(tmp_path, capsys):
    doc = {
        "schema": 1,
        "algebras": [lsa11_json()],
        "tasks": [
            {"id": "bad", "kind": "check-associative", "algebra": "aff-lsa"},
            {"id": "typo", "kind": "check-lsa", "algebra": "aff-lsb"},
        ],
    }
    with pytest.raises(TaskFileError) as err:
        run_document(copy.deepcopy(doc), fail_fast=True)
    assert err.value.path == "/tasks/1/algebra"
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile), "--fail-fast"]) == 2
    assert "error: /tasks/1/algebra: undefined algebra 'aff-lsb'" in capsys.readouterr().err


def test_rational_with_a_huge_exponent_exits_2_at_once(tmp_path, capsys):
    # Fraction("1e999999999") would build a 415 MB integer before answering
    doc = _malformed("lsa", _result("1e999999999"))
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    started = time.process_time()
    assert main(["run", str(taskfile)]) == 2
    assert time.process_time() - started < 0.5
    assert "error: /algebras/0/products/0/result/0: bad rational" in capsys.readouterr().err


def test_an_algebra_written_with_brackets_exits_2(tmp_path, capsys):
    # the key LieAlgebraSC.to_json_dict writes; it once loaded as the zero algebra
    doc = {"schema": 1, "algebras": [{"name": "L", "dim": 2, "basis": ["a", "b"],
                                      "brackets": [{"left": 1, "right": 2,
                                                    "result": ["0", "1"]}]}],
           "tasks": [{"kind": "check-associative", "algebra": "L"}]}
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == "/algebras/0/brackets"
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert ('error: /algebras/0/brackets: an algebra is read from "products"'
            in capsys.readouterr().err)


@pytest.mark.parametrize("task_id, key, value", [
    ("tor", "expect_rank", 99), ("lsa", "expect_zero", False),
    ("env", "expect", "six-field-table"), ("table", "expect_rank", 6),
    ("clos", "expect_zero", True), ("curv", "expect", "six-field-table")])
def test_an_expectation_key_its_kind_never_reads_exits_2(tmp_path, capsys, task_id, key,
                                                         value):
    # each would otherwise be dropped, and the task pass without checking it
    doc = json.loads(SHIPPED.read_text())
    index, task = next((i, t) for i, t in enumerate(doc["tasks"]) if t["id"] == task_id)
    task[key] = value
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert capsys.readouterr().err == \
        f'error: /tasks/{index}/{key}: a {task["kind"]} task does not read "{key}"\n'


@pytest.mark.parametrize("where", ["existing-file", "under-a-file", "report-is-a-directory"])
def test_an_out_path_that_cannot_take_reports_exits_2(tmp_path, capsys, monkeypatch, where):
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(six_field_taskfile()))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"existing-file": blocker, "under-a-file": blocker / "reports",
           "report-is-a-directory": tmp_path / "reports"}[where]
    if where == "report-is-a-directory":
        (out / "env.json").mkdir(parents=True)
    ran = []
    for kind, runner in list(_RUNNERS.items()):
        monkeypatch.setitem(_RUNNERS, kind,
                            lambda task, runner=runner: ran.append(1) or runner(task))
    assert main(["run", str(taskfile), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write reports to {out}: ")
    # the directory is made before the first task runs
    assert bool(ran) is (where == "report-is-a-directory")


@pytest.mark.parametrize("section, key", [
    ("charts", "name"), ("charts", "variables"), ("algebras", "name"), ("fields", "name"),
    ("fields", "chart"), ("fields", "coeffs"), ("connections", "name"),
    ("connections", "chart")])
def test_entries_without_a_required_key_are_refused(tmp_path, capsys, section, key):
    doc = _malformed("lsa", lambda d: d[section][0].pop(key))
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == f"/{section}/0"
    assert "entries need" in str(err.value) and f'"{key}"' in str(err.value)
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert f"error: /{section}/0: " in capsys.readouterr().err


def _repeat(section, index, **changes):
    """An edit appending a copy of entry `index` of `section`, with `changes`."""
    def edit(doc):
        doc[section].append(dict(copy.deepcopy(doc[section][index]), **changes))
    return edit


@pytest.mark.parametrize("edit, path", [
    (_repeat("charts", 0), "/charts/1"),
    (_repeat("charts", 0, variables=["x", "x"]), "/charts/1"),
    (_repeat("algebras", 0), "/algebras/3"),
    (_repeat("algebras", 1, dim=129), "/algebras/3"),
    (_repeat("fields", 3), "/fields/8"),
    (_repeat("fields", 0, coeffs=["x^", "0"]), "/fields/8"),
    (_repeat("connections", 0), "/connections/1"),
    (_repeat("connections", 0, frame=["e1+", "e1+"]), "/connections/1"),
], ids=["chart", "chart-bad-body", "algebra", "algebra-bad-body", "field",
        "field-bad-body", "connection", "connection-bad-body"])
def test_repeated_names_are_refused_at_the_second_entry(tmp_path, capsys, edit, path):
    doc = _malformed("lsa", edit)
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == path
    assert "duplicate" in str(err.value)
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert f"error: {path}: duplicate" in capsys.readouterr().err


def _with_task_ids(*ids):
    """The six-field task file with one check-lsa task per entry of `ids`; the
    task of an entry None has no "id" and takes the default."""
    doc = _malformed("lsa", lambda d: None)
    [task] = doc["tasks"]
    del task["id"]
    doc["tasks"] = [task if i is None else dict(task, id=i) for i in ids]
    return doc


@pytest.mark.parametrize("ids, path", [
    (["../escaped"], "/tasks/0/id"),
    (["lsa", "a/b"], "/tasks/1/id"),
    (["a\\b"], "/tasks/0/id"),
    (["a\0b"], "/tasks/0/id"),
    (["a\nb"], "/tasks/0/id"),
    (["\ud800"], "/tasks/0/id"),
    (["x" * 201], "/tasks/0/id"),
    ([""], "/tasks/0/id"),
    (["."], "/tasks/0/id"),
    ([".."], "/tasks/0/id"),
    ([{"x": 1}], "/tasks/0/id"),
    ([True], "/tasks/0/id"),
    ([1.5], "/tasks/0/id"),
    ([None, ["t1"]], "/tasks/1/id"),
    (["lsa", "lsa"], "/tasks/1/id"),
    (["t2", None], "/tasks/1/id"),
    ([2, "2"], "/tasks/1/id"),
], ids=["parent-dir", "slash", "backslash", "nul", "newline", "lone-surrogate",
        "past-cap", "empty", "dot", "dot-dot", "object", "bool", "float", "list",
        "repeated", "explicit-meets-default", "integer-meets-string"])
def test_task_ids_that_are_not_one_new_file_name_are_refused(tmp_path, capsys, ids, path):
    doc = _with_task_ids(*ids)
    with pytest.raises(TaskFileError) as err:
        load_document(copy.deepcopy(doc))
    assert err.value.path == path
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["tasks.json"]


def test_integer_and_default_task_ids_name_the_report_files(tmp_path):
    code, reports = run_document(_with_task_ids(7, None, "x" * 200), out_dir=tmp_path)
    assert code == 0
    assert [r["id"] for r in reports] == ["7", "t2", "x" * 200]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{i}.{ext}" for i in ("7", "t2", "x" * 200) for ext in ("json", "txt"))


def test_a_repeated_frame_connection_is_built_once(monkeypatch):
    build = cli.connection_from_frame
    calls = []
    monkeypatch.setattr(cli, "connection_from_frame",
                        lambda *args: calls.append(1) or build(*args))
    doc = _malformed("lsa", _repeat("connections", 0))
    with pytest.raises(TaskFileError) as err:
        load_document(doc)
    assert err.value.path == "/connections/1"
    assert len(calls) == 1


def test_algebra_dim_past_cap_is_refused_before_allocation(tmp_path, capsys, monkeypatch):
    def built(doc):
        raise AssertionError("dim^3 constants were allocated")

    monkeypatch.setattr(SCAlgebra, "from_json_dict", built)
    doc = _malformed("lsa", lambda d: d["algebras"][0].update(
        dim=129, basis=[f"b{k}" for k in range(129)]))
    with pytest.raises(TaskFileError) as err:
        run_document(copy.deepcopy(doc))
    assert err.value.path == "/algebras/0/dim"
    taskfile = tmp_path / "tasks.json"
    taskfile.write_text(json.dumps(doc))
    assert main(["run", str(taskfile)]) == 2
    assert "/algebras/0/dim" in capsys.readouterr().err


def test_chart_and_ansatz_caps(monkeypatch):
    def solved(conn, terms):
        raise AssertionError("the ansatz system was built")

    monkeypatch.setattr(cli, "solve_iat_ansatz", solved)
    variables = [f"x{k}" for k in range(16)]
    doc = {"schema": 1, "charts": [{"name": "c", "variables": variables}],
           "connections": [{"name": "flat", "chart": "c", "christoffel": []}],
           "tasks": [{"kind": "solve-iat", "connection": "flat", "ansatz": list(variables)}]}
    # 16 terms x 16 variables = 256, exactly at the cap
    assert load_document(copy.deepcopy(doc)).charts["c"].dim == 16
    doc["tasks"][0]["ansatz"].append("1")
    with pytest.raises(TaskFileError) as err:    # 17 terms x 16 variables = 272
        load_document(doc)
    assert err.value.path == "/tasks/0/ansatz"


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
    from flataffine.render import _format_terms
    names = ("a", "b", "c")
    F = Fraction
    assert _format_terms(zip((F(0), F(0), F(0)), names)) == "0"
    assert _format_terms(zip((F(1), F(0), F(-1)), names)) == "a - c"
    assert _format_terms(zip((F(2), F(-3), F(0)), names)) == "2*a - 3*b"
    assert _format_terms(zip((F(3, 2), F(0), F(-1, 4)), names)) == "(3/2)*a - (1/4)*c"


def test_format_terms_renders_stored_rationals_as_their_fractions():
    # the stored forms (an int when integral) print as the equal Fractions did
    from fractions import Fraction
    from flataffine.render import _format_terms
    names = ("a", "b", "c", "d")
    cases = {(1, -3, Fraction(-1, 4), 0): "a - 3*b - (1/4)*c",
             (-2, 1, 0, Fraction(3, 2)): "-2*a + b + (3/2)*d",
             (-1, 0, 0, 7): "-a + 7*d",
             (Fraction(-5, 3), 0, 0, 0): "-(5/3)*a",
             (0, 0, 0, 0): "0"}
    for coeffs, text in cases.items():
        assert _format_terms(zip(coeffs, names)) == text
        assert _format_terms(zip(map(Fraction, coeffs), names)) == text


def test_emit_table_six_field():
    text = emit_table(six_field_table_algebra(), "text")
    assert "2*e1- - 2*C5" in text
    lines = text.splitlines()
    assert len(lines) == 8  # header + rule + 6 rows


def test_emit_table_zero_algebra():
    text = emit_table(zero_algebra(("a", "b")), "text")
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


# (task file, --out, exit code, text stderr must hold) of each process run; a
# None task file is the shipped one, and --out is a fresh directory or an
# existing file under tmp_path
PROCESS_RUNS = {
    "shipped-smoke-run": (None, "dir", 0, None),
    "malformed": ({"schema": 1, "tasks": [{"kind": "closure"}]}, None, 2, None),
    "brackets": ({"schema": 1, "algebras": [
        {"name": "L", "dim": 2, "basis": ["a", "b"],
         "brackets": [{"left": 1, "right": 2, "result": ["0", "1"]}]}],
        "tasks": [{"kind": "check-associative", "algebra": "L"}]}, None, 2, None),
    "string-index": ({"schema": 1, "algebras": [
        {"name": "A", "dim": 2, "basis": ["a", "b"],
         "products": [{"left": "1", "right": 1, "result": ["1", "0"]}]}],
        "tasks": [{"kind": "check-associative", "algebra": "A"}]},
        None, 2, "/algebras/0/products/0/left"),
    "out-names-a-file": (None, "file", 2, None),
}


@pytest.mark.parametrize("doc, out, code, needle", PROCESS_RUNS.values(), ids=list(PROCESS_RUNS))
def test_python_m_flataffine_exits_with_its_code_and_no_traceback(tmp_path, doc, out, code,
                                                                   needle):
    taskfile = SHIPPED
    if doc is not None:
        taskfile = tmp_path / "task.json"
        taskfile.write_text(json.dumps(doc))
    args = [sys.executable, "-m", "flataffine", "run", str(taskfile)]
    if out == "file":
        (tmp_path / "out").touch()
    if out:
        args += ["--out", str(tmp_path / "out")]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(args, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    assert done.returncode == code, done.stderr
    assert needle is None or needle in done.stderr, done.stderr
    if out == "dir":
        suffixes = sorted(p.suffix for p in (tmp_path / "out").iterdir())
        assert suffixes == [".json"] * 11 + [".txt"] * 11


def test_empty_dim_128_algebras_load_within_a_cpu_limit(tmp_path):
    # three algebras at the dim cap and no task: loading must follow the
    # product entries given, not build dim^3 constants for each algebra
    doc = {"schema": 1, "algebras": [
        {"name": f"A{a}", "dim": 128, "basis": [f"e{i}" for i in range(1, 129)]}
        for a in range(1, 4)]}
    taskfile = tmp_path / "empty-128.json"
    taskfile.write_text(json.dumps(doc))
    src = Path(__file__).resolve().parent.parent / "src"

    def limit_cpu():
        resource.setrlimit(resource.RLIMIT_CPU, (5, 5))

    done = subprocess.run([sys.executable, "-m", "flataffine", "run", str(taskfile)],
                          env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=limit_cpu,
                          capture_output=True, text=True, timeout=120)
    assert "Traceback" not in done.stderr
    assert done.returncode == 0, done.stderr
