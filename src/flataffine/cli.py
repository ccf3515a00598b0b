"""Batch front-end: read a JSON task file, run the computations, write reports.

The task file is versioned with a top-level "schema": 1.  Sections (all
optional except schema and tasks): "charts", "algebras", "fields",
"connections", "tasks"; every referenced name must be defined in the file.
All indices in the file and in reports are 1-based; rationals are serialized
as strings "p/q" so no numeric precision is lost.

Exit codes: 0 when every task ran and every verdict-type task holds, 1 on any
negative verdict (the report carries the witness), 2 on input errors.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .algebra import (
    JacobiError,
    LieAlgebraSC,
    SCAlgebra,
    check_associative,
    check_left_symmetric,
    commutator_algebra,
    subalgebra_closure,
)
from .envelope import compute_envelope, verify_bi_invariant_criterion
from .geometry import (
    Connection,
    Frame,
    IATViolationError,
    NotFlatError,
    NotInSpanError,
    SingularFrameError,
    VectorField,
    connection_from_frame,
    curvature,
    is_infinitesimal_affine,
    product_table,
    solve_iat_ansatz,
    torsion,
)
from .render import render_table_text
from .symcore import Chart, ExpressionError, UnknownVariableError, parse_expr

SCHEMA_VERSION = 1

# an algebra holds dim^3 constants; the GL3 ambient table has dimension 81
_MAX_ALGEBRA_DIM = 128
# a connection holds dim^3 Christoffel symbols; GL4's chart has 16 variables
_MAX_CHART_VARIABLES = 16
# solve-iat has terms x dim candidate fields; the GL3 ansatz has 9 x 9 = 81
_MAX_ANSATZ_SIZE = 256

class TaskFileError(ValueError):
    """Schema violation, with a path into the offending part of the document."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class _Document:
    def __init__(self):
        self.charts = {}
        self.algebras = {}
        self.fields = {}  # name -> VectorField
        self.connections = {}
        self.tasks = []


def _require(condition, message, path):
    if not condition:
        raise TaskFileError(message, path)


_KIND_NAMES = {str: "a string", list: "a list", int: "an integer"}


def _typed(value, kind, what, path):
    """`value` when it is a str, list or int (not a bool), as `kind` asks."""
    ok = type(value) is int if kind is int else isinstance(value, kind)
    _require(ok, f"{what} must be {_KIND_NAMES[kind]}", path)
    return value


def _lookup(table, name, what, path):
    _require(isinstance(name, str) and name in table, f"undefined {what} {name!r}", path)
    return table[name]


def _parse(source, chart, path) -> object:
    _require(isinstance(source, str), f"expression {source!r} must be a string", path)
    try:
        return parse_expr(source, chart)
    except (ExpressionError, UnknownVariableError, ZeroDivisionError) as err:
        raise TaskFileError(f"bad expression {source!r}: {err}", path) from None


def _entries(doc, section, what, keys, table):
    """(path, entry) for each entry of the named section `section`: an object
    with `keys` (the first is "name") whose name is a string not yet in
    `table`.  The name is checked before the caller builds the entry."""
    needed = ", ".join(f'"{key}"' for key in keys)
    for idx, entry in enumerate(_typed(doc.get(section, []), list, f'"{section}"',
                                       f"/{section}")):
        path = f"/{section}/{idx}"
        _require(isinstance(entry, dict) and all(key in entry for key in keys),
                 f"{what} entries need {needed}", path)
        name = _typed(entry["name"], str, '"name"', f"{path}/name")
        _require(name not in table, f"duplicate {what} {name!r}", path)
        yield path, entry


def load_document(doc: dict) -> _Document:
    _require(isinstance(doc, dict), "task file must be a JSON object", "/")
    _require(doc.get("schema") == SCHEMA_VERSION,
             f'missing or unsupported "schema" (expected {SCHEMA_VERSION})', "/schema")
    out = _Document()
    for path, entry in _entries(doc, "charts", "chart", ("name", "variables"), out.charts):
        _require(isinstance(entry["variables"], list)
                 and all(isinstance(v, str) for v in entry["variables"]),
                 '"variables" must be a list of strings', f"{path}/variables")
        _require(len(entry["variables"]) <= _MAX_CHART_VARIABLES,
                 f'a chart has at most {_MAX_CHART_VARIABLES} "variables"',
                 f"{path}/variables")
        try:
            out.charts[entry["name"]] = Chart(entry["name"], entry["variables"])
        except ValueError as err:
            raise TaskFileError(str(err), path) from None
    for path, entry in _entries(doc, "algebras", "algebra", ("name",), out.algebras):
        dim = _typed(entry.get("dim"), int, '"dim"', f"{path}/dim")
        _require(dim <= _MAX_ALGEBRA_DIM, f'"dim" must be at most {_MAX_ALGEBRA_DIM}',
                 f"{path}/dim")
        _require(isinstance(entry.get("basis"), list)
                 and all(isinstance(b, str) for b in entry["basis"]),
                 '"basis" must be a list of strings', f"{path}/basis")
        if "unit" in entry:
            _typed(entry["unit"], int, '"unit"', f"{path}/unit")
        products = _typed(entry.get("products", []), list, '"products"', f"{path}/products")
        pairs = set()
        for k, item in enumerate(products):
            ipath = f"{path}/products/{k}"
            _require(isinstance(item, dict), "product entries must be objects", ipath)
            for key in ("left", "right"):
                index = _typed(item.get(key), int, f'"{key}"', f"{ipath}/{key}")
                _require(1 <= index <= dim, f'"{key}" must be between 1 and {dim}',
                         f"{ipath}/{key}")
            pair = (item["left"], item["right"])
            _require(pair not in pairs, f"product {pair} is given twice", ipath)
            pairs.add(pair)
            result = _typed(item.get("result"), list, '"result"', f"{ipath}/result")
            _require(len(result) == dim, f'"result" must have {dim} entries',
                     f"{ipath}/result")
            for m, x in enumerate(result):
                _fraction(x, f"{ipath}/result/{m}")
        try:
            out.algebras[entry["name"]] = SCAlgebra.from_json_dict(entry)
        except (ValueError, KeyError) as err:
            raise TaskFileError(f"bad algebra: {err}", path) from None
    for path, entry in _entries(doc, "fields", "field", ("name", "chart", "coeffs"),
                                out.fields):
        chart = _lookup(out.charts, entry["chart"], "chart", path)
        coeffs = [_parse(c, chart, f"{path}/coeffs/{k}") for k, c in
                  enumerate(_typed(entry["coeffs"], list, '"coeffs"', f"{path}/coeffs"))]
        _require(len(coeffs) == chart.dim,
                 f"expected {chart.dim} coefficients", path)
        out.fields[entry["name"]] = VectorField(chart, coeffs)
    for path, entry in _entries(doc, "connections", "connection", ("name", "chart"),
                                out.connections):
        chart = _lookup(out.charts, entry["chart"], "chart", path)
        if "christoffel" in entry:
            sparse = []
            for k, item in enumerate(_typed(entry["christoffel"], list, '"christoffel"',
                                            f"{path}/christoffel")):
                ipath = f"{path}/christoffel/{k}"
                _require(isinstance(item, dict) and {"k", "i", "j", "expr"} <= set(item),
                         'christoffel entries need "k", "i", "j", "expr"', ipath)
                for key in "kij":
                    _typed(item[key], int, f'"{key}"', f"{ipath}/{key}")
                sparse.append((item["k"], item["i"], item["j"],
                               _parse(item["expr"], chart, ipath)))
            try:
                conn = Connection.from_sparse(chart, sparse)
            except ValueError as err:
                raise TaskFileError(str(err), path) from None
        elif "frame" in entry:
            _require("constants" in entry,
                     'frame connections need "constants" (an algebra name)', path)
            frame = _typed(entry["frame"], list, '"frame"', f"{path}/frame")
            frame_fields = [_lookup(out.fields, fname, "field", f"{path}/frame/{k}")
                            for k, fname in enumerate(frame)]
            constants = _lookup(out.algebras, entry["constants"], "algebra", path)
            try:
                conn = connection_from_frame(Frame(frame_fields), constants)
            except (ValueError, SingularFrameError) as err:
                raise TaskFileError(str(err), path) from None
        else:
            raise TaskFileError('connection needs "christoffel" or "frame"', path)
        out.connections[entry["name"]] = conn
    for idx, task in enumerate(_typed(doc.get("tasks", []), list, '"tasks"', "/tasks")):
        path = f"/tasks/{idx}"
        _require(isinstance(task, dict), "task must be an object", path)
        kind = task.get("kind")
        _require(kind in TASK_KINDS,
                 f"unknown task kind {kind!r}; valid kinds: {', '.join(TASK_KINDS)}",
                 f"{path}/kind")
        if "expect_rank" in task:
            _typed(task["expect_rank"], int, '"expect_rank"', f"{path}/expect_rank")
        _require(isinstance(task.get("expect_zero", False), bool),
                 '"expect_zero" must be true or false', f"{path}/expect_zero")
        out.tasks.append(dict(task))
    return out


# ----- task runners -----------------------------------------------------------


def _get_algebra(doc, task, key, path) -> SCAlgebra:
    return _lookup(doc.algebras, task.get(key), "algebra", f"{path}/{key}")


def _get_connection(doc, task, path) -> Connection:
    return _lookup(doc.connections, task.get("connection"), "connection",
                   f"{path}/connection")


def _get_field(doc, name, conn, path) -> VectorField:
    """The field `name`, which must live on the chart of `conn`."""
    field = _lookup(doc.fields, name, "field", path)
    _require(field.chart == conn.chart,
             f"field {name!r} is on chart {field.chart.name!r}, not on the "
             f"connection's chart {conn.chart.name!r}", path)
    return field


def _get_fields(doc, task, conn, path):
    names = task.get("fields")
    _require(isinstance(names, list) and names, 'task needs a "fields" list', f"{path}/fields")
    fields = {}
    for k, name in enumerate(names):
        field = _get_field(doc, name, conn, f"{path}/fields/{k}")
        _require(name not in fields, f"field {name!r} is listed twice",
                 f"{path}/fields/{k}")
        fields[name] = field
    return names, list(fields.values())


def _run_check(check):
    def runner(doc, task, path):
        report = check(_get_algebra(doc, task, "algebra", path))
        return report.holds, report.witness, {}
    return runner


def _run_commutator(doc, task, path):
    algebra = _get_algebra(doc, task, "algebra", path)
    try:
        lie = commutator_algebra(algebra)
    except JacobiError as err:
        return False, err.witness, {"error": "jacobi identity fails"}
    return None, None, {"lie": lie.to_json_dict()}


def _run_closure(doc, task, path):
    algebra = _get_algebra(doc, task, "algebra", path)
    gens = task.get("generators")
    _require(isinstance(gens, list) and gens, 'task needs "generators"', f"{path}/generators")
    vectors = []
    for k, g in enumerate(gens):
        if isinstance(g, str):
            try:
                vectors.append(algebra.basis_vector(algebra.basis_index(g)))
            except KeyError as err:
                raise TaskFileError(str(err), f"{path}/generators/{k}") from None
        else:
            _require(isinstance(g, list) and len(g) == algebra.dim,
                     f"generator vectors need length {algebra.dim}",
                     f"{path}/generators/{k}")
            vectors.append([_fraction(x, f"{path}/generators/{k}") for x in g])
    space = subalgebra_closure(algebra, vectors)
    payload = {
        "rank": space.rank,
        "rows": [[str(x) for x in row] for row in space.rows],
        "named_basis": space.named_basis(algebra.basis_names),
    }
    if "expect_rank" in task:
        expected = task["expect_rank"]
        if space.rank != expected:
            return False, ("rank", space.rank, expected), payload
        return True, None, payload
    return None, None, payload


def _fraction(x, path):
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as err:
        raise TaskFileError(f"bad rational {x!r}: {err}", path) from None


def _tensor_payload(report):
    return {
        "zero": report.is_zero,
        "nonzero": [{"index": list(idx), "name": report.component_name(idx),
                     "expr": str(report.components[idx])}
                    for idx in report.nonzero],
    }


def _run_tensor(compute):
    def runner(doc, task, path):
        report = compute(_get_connection(doc, task, path))
        payload = _tensor_payload(report)
        if "expect_zero" in task:
            expected = task["expect_zero"]
            if report.is_zero != expected:
                witness = report.component_name(report.nonzero[0]) if report.nonzero else None
                return False, witness, payload
            return True, None, payload
        return None, None, payload
    return runner


def _run_check_iat(doc, task, path):
    conn = _get_connection(doc, task, path)
    field = _get_field(doc, task.get("field"), conn, f"{path}/field")
    try:
        report = is_infinitesimal_affine(conn, field)
    except NotFlatError as err:
        raise TaskFileError(str(err), path) from None
    return report.holds, report.witness, {}


def _run_solve_iat(doc, task, path):
    conn = _get_connection(doc, task, path)
    ansatz = task.get("ansatz")
    _require(isinstance(ansatz, list) and ansatz, 'task needs an "ansatz" list',
             f"{path}/ansatz")
    _require(len(ansatz) * conn.chart.dim <= _MAX_ANSATZ_SIZE,
             f'"ansatz" terms times chart variables must be at most {_MAX_ANSATZ_SIZE}',
             f"{path}/ansatz")
    terms = [_parse(t, conn.chart, f"{path}/ansatz/{k}") for k, t in enumerate(ansatz)]
    try:
        fields = solve_iat_ansatz(conn, terms)
    except ValueError as err:   # non-flat connection, dependent ansatz
        raise TaskFileError(str(err), path) from None
    payload = {
        "dimension": len(fields),
        "fields": [{"coeffs": [str(c) for c in f.coeffs]} for f in fields],
    }
    return None, None, payload


def _table_failure(err):
    """Verdict, witness and payload of a product table that cannot be built:
    the field name and failing pair of a field that is not an infinitesimal
    affine transformation, or the pair whose product leaves the span."""
    if isinstance(err, IATViolationError):
        return False, (err.field_name,) + tuple(err.witness), {"error": str(err)}
    return False, err.pair, {"error": str(err)}


def _run_product_table(doc, task, path):
    conn = _get_connection(doc, task, path)
    names, fields = _get_fields(doc, task, conn, path)
    try:
        table = product_table(conn, fields, names)
    except NotFlatError as err:
        raise TaskFileError(str(err), path) from None
    except (IATViolationError, NotInSpanError) as err:
        return _table_failure(err)
    payload = {"table": table.to_json_dict(), "text": render_table_text(table)}
    if "expect" in task:
        expected = _get_algebra(doc, task, "expect", path)
        _require(expected.dim == table.dim,
                 "expected table has a different dimension", f"{path}/expect")
        for i in range(table.dim):
            for j in range(table.dim):
                if table.rows[i][j] != expected.rows[i][j]:
                    return False, (i + 1, j + 1), payload
        return True, None, payload
    return None, None, payload


def _run_envelope(doc, task, path):
    conn = _get_connection(doc, task, path)
    names, fields = _get_fields(doc, task, conn, path)
    gens = task.get("generators")
    _require(isinstance(gens, list) and gens, 'task needs "generators"',
             f"{path}/generators")
    for k, g in enumerate(gens):
        _require(g in names, f"generator {g!r} is not among the task fields",
                 f"{path}/generators/{k}")
    try:
        report = compute_envelope(conn, fields, names, gens)
    except NotFlatError as err:
        raise TaskFileError(str(err), path) from None
    except (IATViolationError, NotInSpanError) as err:
        return _table_failure(err)
    payload = report.to_json_dict()
    payload["text"] = report.to_text()
    verdict = all(report.checks.values())
    witness = None
    if not verdict:
        witness = [name for name, ok in report.checks.items() if not ok]
    if "expect_rank" in task and report.closure.rank != task["expect_rank"]:
        verdict = False
        witness = ("rank", report.closure.rank, task["expect_rank"])
    return verdict, witness, payload


def _run_bi_invariant(doc, task, path):
    bracket_source = _get_algebra(doc, task, "lie", path)
    algebra = _get_algebra(doc, task, "algebra", path)
    try:
        lie = LieAlgebraSC._checked(bracket_source.basis_names, bracket_source.rows)
    except ValueError as err:
        raise TaskFileError(
            f'algebra {task.get("lie")!r} does not define a Lie bracket: {err}',
            f"{path}/lie") from None
    try:
        verdict = verify_bi_invariant_criterion(lie, algebra)
    except ValueError as err:
        raise TaskFileError(str(err), path) from None
    return verdict, None, {}


_RUNNERS = {
    "check-lsa": _run_check(check_left_symmetric),
    "check-associative": _run_check(check_associative),
    "commutator": _run_commutator,
    "closure": _run_closure,
    "torsion": _run_tensor(torsion),
    "curvature": _run_tensor(curvature),
    "check-iat": _run_check_iat,
    "solve-iat": _run_solve_iat,
    "product-table": _run_product_table,
    "envelope": _run_envelope,
    "bi-invariant-check": _run_bi_invariant,
}
TASK_KINDS = tuple(_RUNNERS)


def _report_text(report: dict) -> str:
    lines = [f"task {report['id']} ({report['kind']}): {report['status']}"]
    if report.get("witness") is not None:
        lines.append(f"  witness: {report['witness']}")
    payload = report.get("data", {})
    if "text" in payload:
        lines.extend("  " + line for line in payload["text"].splitlines())
    elif "rank" in payload:
        lines.append(f"  rank: {payload['rank']}")
        if payload.get("named_basis"):
            lines.append(f"  basis: {', '.join(payload['named_basis'])}")
    elif "dimension" in payload:
        lines.append(f"  dimension: {payload['dimension']}")
        for f in payload.get("fields", []):
            lines.append("  field: " + ", ".join(f["coeffs"]))
    elif "zero" in payload:
        lines.append(f"  zero: {payload['zero']}")
        for item in payload.get("nonzero", []):
            lines.append(f"  {item['name']} = {item['expr']}")
    elif "lie" in payload:
        lines.append(f"  brackets: {json.dumps(payload['lie'])}")
    if "error" in payload:
        lines.append(f"  error: {payload['error']}")
    return "\n".join(lines)


def run_document(doc: dict, out_dir=None, fmt: str = "both", fail_fast: bool = False):
    """Run all tasks; returns (exit_code, reports).  Reports follow file order."""
    document = load_document(doc)
    reports = []
    any_negative = False
    for index, task in enumerate(document.tasks):
        path = f"/tasks/{index}"
        task_id = str(task.get("id", f"t{index + 1}"))
        started = time.perf_counter()
        verdict, witness, payload = _RUNNERS[task["kind"]](document, task, path)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        status = "ok" if verdict is None else ("pass" if verdict else "fail")
        report = {
            "id": task_id,
            "kind": task["kind"],
            "status": status,
            "verdict": verdict,
            "witness": list(witness) if isinstance(witness, tuple) else witness,
            "data": payload,
            "elapsed_ms": elapsed_ms,
        }
        reports.append(report)
        if verdict is False:
            any_negative = True
            if fail_fast:
                break
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        for report in reports:
            if fmt in ("json", "both"):
                (out_path / f"{report['id']}.json").write_text(
                    json.dumps(report, indent=2) + "\n")
            if fmt in ("text", "both"):
                (out_path / f"{report['id']}.txt").write_text(
                    _report_text(report) + "\n")
    return (1 if any_negative else 0), reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flataffine",
        description="Exact computations for flat affine geometry: identity checks, "
                    "product tables, infinitesimal affine transformations, envelopes.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a JSON task file")
    run_parser.add_argument("taskfile", help="path to the task file")
    run_parser.add_argument("--out", default=None, help="directory for per-task reports")
    run_parser.add_argument("--format", choices=("text", "json", "both"),
                            default="both", help="report format (default both)")
    run_parser.add_argument("--fail-fast", action="store_true",
                            help="stop after the first negative verdict")
    args = parser.parse_args(argv)

    try:
        doc = json.loads(Path(args.taskfile).read_text())
    except OSError as err:
        print(f"error: cannot read {args.taskfile}: {err}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as err:
        print(f"error: {args.taskfile} is not valid JSON: {err}", file=sys.stderr)
        return 2
    try:
        code, reports = run_document(doc, out_dir=args.out, fmt=args.format,
                                     fail_fast=args.fail_fast)
    except TaskFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for report in reports:
        line = f"{report['id']} ({report['kind']}): {report['status']}"
        if report["witness"] is not None:
            line += f" witness={report['witness']}"
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
