"""Batch front-end: read a JSON task file, run the computations, write reports.

The task file is versioned with a top-level "schema": 1.  Sections (all
optional except schema and tasks): "charts", "algebras", "fields",
"connections", "tasks"; every referenced name must be defined in the file.
All indices in the file and in reports are 1-based; rationals are serialized
as strings "p/q" so no numeric precision is lost.

Exit codes: 0 when every task ran and every verdict-type task holds, 1 on any
negative verdict (the report carries the witness), 2 on input errors and on
an --out directory that cannot be created or written.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebra import (
    JacobiError,
    LieAlgebraSC,
    SCAlgebra,
    TaskFileError,
    check_associative,
    check_left_symmetric,
    commutator_algebra,
    subalgebra_closure,
)
from .algebra import _fraction, _index, _require, _typed   # the checks with a path
from .envelope import compute_envelope, verify_bi_invariant_criterion
from .geometry import (
    Connection,
    DependentFieldsError,
    Frame,
    IATViolationError,
    NotFlatError,
    NotInSpanError,
    SingularFrameError,
    VectorField,
    connection_from_frame,
    curvature,
    is_flat_affine,
    is_infinitesimal_affine,
    product_table,
    solve_iat_ansatz,
    torsion,
)
from .render import render_table_text
from .symcore import Chart, ExpressionError, RationalFunction, UnknownVariableError, parse_expr

SCHEMA_VERSION = 1

# an algebra holds dim^3 constants; the GL3 ambient table has dimension 81
_MAX_ALGEBRA_DIM = 128
# a connection holds dim^3 Christoffel symbols; GL4's chart has 16 variables
_MAX_CHART_VARIABLES = 16
# solve-iat has terms x dim candidate fields; the GL3 ansatz has 9 x 9 = 81
_MAX_ANSATZ_SIZE = 256
# a task id names its report files <id>.json and <id>.txt in --out; 200 bytes
# leaves room for the suffix within the usual 255-byte limit on a file name
_MAX_ID_BYTES = 200

class _Document:
    def __init__(self):
        self.charts = {}
        self.algebras = {}
        self.fields = {}  # name -> VectorField
        self.connections = {}
        self.tasks = []


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
    """The document, every name resolved and every task's inputs checked."""
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
            chart = Chart(entry["name"], entry["variables"])
        except ValueError as err:
            raise TaskFileError(str(err), path) from None
        for k, var in enumerate(chart.variables):   # the grammar must read it back
            vpath = f"{path}/variables/{k}"
            _require(_parse(var, chart, vpath) == RationalFunction.variable(chart, var),
                     f"variable {var!r} reads as an expression, not a name", vpath)
        out.charts[entry["name"]] = chart
    for path, entry in _entries(doc, "algebras", "algebra", ("name",), out.algebras):
        dim = _typed(entry.get("dim"), int, '"dim"', f"{path}/dim")
        _require(dim <= _MAX_ALGEBRA_DIM, f'"dim" must be at most {_MAX_ALGEBRA_DIM}',
                 f"{path}/dim")
        try:   # every other value is the reader's to check
            out.algebras[entry["name"]] = SCAlgebra.from_json_dict(entry)
        except TaskFileError as err:
            raise TaskFileError(err.message, path + err.path) from None
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
            sparse = {}
            for k, item in enumerate(_typed(entry["christoffel"], list, '"christoffel"',
                                            f"{path}/christoffel")):
                ipath = f"{path}/christoffel/{k}"
                _require(isinstance(item, dict) and {"k", "i", "j", "expr"} <= set(item),
                         'christoffel entries need "k", "i", "j", "expr"', ipath)
                index = tuple(_index(item[key], chart.dim, f'"{key}"', f"{ipath}/{key}")
                              for key in "kij")
                _require(index not in sparse, f"Christoffel symbol {index} is given twice",
                         ipath)
                sparse[index] = _parse(item["expr"], chart, ipath)
            conn = Connection.from_sparse(chart, [idx + (g,) for idx, g in sparse.items()])
        elif "frame" in entry:
            _require("constants" in entry,
                     'frame connections need "constants" (an algebra name)', path)
            frame = _typed(entry["frame"], list, '"frame"', f"{path}/frame")
            frame_fields = [_get_field(out, fname, chart, f"{path}/frame/{k}")
                            for k, fname in enumerate(frame)]
            constants = _lookup(out.algebras, entry["constants"], "algebra", path)
            try:
                conn = connection_from_frame(Frame(frame_fields), constants)
            except (ValueError, SingularFrameError) as err:
                raise TaskFileError(str(err), path) from None
        else:
            raise TaskFileError('connection needs "christoffel" or "frame"', path)
        out.connections[entry["name"]] = conn
    ids = set()
    for idx, task in enumerate(_typed(doc.get("tasks", []), list, '"tasks"', "/tasks")):
        path = f"/tasks/{idx}"
        _require(isinstance(task, dict), "task must be an object", path)
        task_id = task.get("id", f"t{idx + 1}")
        _require(type(task_id) in (str, int), '"id" must be a string or an integer',
                 f"{path}/id")
        task_id = str(task_id)
        _require(task_id.isprintable() and 0 < len(task_id.encode()) <= _MAX_ID_BYTES
                 and task_id not in (".", "..") and "/" not in task_id
                 and "\\" not in task_id,
                 f'"id" must be a file name: 1 to {_MAX_ID_BYTES} bytes of printable '
                 'characters without "/" or "\\", and not "." or ".."', f"{path}/id")
        _require(task_id not in ids, f"duplicate task id {task_id!r}", f"{path}/id")
        ids.add(task_id)
        kind = task.get("kind")
        _require(kind in TASK_KINDS,
                 f"unknown task kind {kind!r}; valid kinds: {', '.join(TASK_KINDS)}",
                 f"{path}/kind")
        for key, kinds in _EXPECT_KINDS.items():
            _require(key not in task or kind in kinds,
                     f'a {kind} task does not read "{key}"', f"{path}/{key}")
        if "expect_rank" in task:
            _typed(task["expect_rank"], int, '"expect_rank"', f"{path}/expect_rank")
        _require(isinstance(task.get("expect_zero", False), bool),
                 '"expect_zero" must be true or false', f"{path}/expect_zero")
        out.tasks.append(dict(_task_inputs(out, task, path), id=task_id, kind=kind))
    return out


def _get_algebra(doc, task, key, path) -> SCAlgebra:
    return _lookup(doc.algebras, task.get(key), "algebra", f"{path}/{key}")


def _get_field(doc, name, chart, path) -> VectorField:
    """The field `name`, which must live on `chart`, its connection's."""
    field = _lookup(doc.fields, name, "field", path)
    _require(field.chart == chart,
             f"field {name!r} is on chart {field.chart.name!r}, not on the "
             f"connection's chart {chart.name!r}", path)
    return field


def _generator_vector(algebra, g, path):
    """A closure generator: a basis name or a rational vector of the algebra."""
    if isinstance(g, str):
        try:
            return algebra.basis_vector(algebra.basis_index(g))
        except KeyError as err:
            raise TaskFileError(err.args[0], path) from None
    _require(isinstance(g, list) and len(g) == algebra.dim,
             f"generator vectors need length {algebra.dim}", path)
    return [_fraction(x, path) for x in g]


# the kinds that read each expectation key; any other kind refuses it
_EXPECT_KINDS = {"expect_rank": ("closure", "envelope"),
                 "expect_zero": ("torsion", "curvature"), "expect": ("product-table",)}

# the kinds whose computation needs a flat connection, with the message of
# the NotFlatError it would raise
_NEEDS_FLAT = {"check-iat": NotFlatError.IAT, "solve-iat": NotFlatError.ANSATZ,
               "product-table": NotFlatError.PRODUCT, "envelope": NotFlatError.PRODUCT}


def _task_inputs(doc, task, path) -> dict:
    """The inputs of `task` by key, resolved against the document and checked,
    so that its runner only computes."""
    kind = task["kind"]
    inputs = {key: task[key] for key in ("expect_rank", "expect_zero") if key in task}
    if kind in ("check-lsa", "check-associative", "commutator", "closure",
                "bi-invariant-check"):
        algebra = inputs["algebra"] = _get_algebra(doc, task, "algebra", path)
    else:
        conn = inputs["connection"] = _lookup(doc.connections, task.get("connection"),
                                              "connection", f"{path}/connection")
    if kind == "bi-invariant-check":
        source = _get_algebra(doc, task, "lie", path)
        try:
            inputs["lie"] = LieAlgebraSC._checked(source.basis_names, source.rows)
        except ValueError as err:
            raise TaskFileError(f"algebra {task['lie']!r} does not define a Lie bracket: "
                                f"{err}", f"{path}/lie") from None
        _require(source.dim == algebra.dim, f"dimension mismatch: Lie algebra has "
                 f"{source.dim}, algebra has {algebra.dim}", f"{path}/lie")
    elif kind == "check-iat":
        inputs["field"] = _get_field(doc, task.get("field"), conn.chart, f"{path}/field")
    elif kind == "solve-iat":
        ansatz = task.get("ansatz")
        _require(isinstance(ansatz, list) and ansatz, 'task needs an "ansatz" list',
                 f"{path}/ansatz")
        _require(len(ansatz) * conn.chart.dim <= _MAX_ANSATZ_SIZE,
                 f'"ansatz" terms times chart variables must be at most '
                 f"{_MAX_ANSATZ_SIZE}", f"{path}/ansatz")
        inputs["ansatz"] = [_parse(t, conn.chart, f"{path}/ansatz/{k}")
                            for k, t in enumerate(ansatz)]
    elif kind in ("product-table", "envelope"):
        names = task.get("fields")
        _require(isinstance(names, list) and names, 'task needs a "fields" list',
                 f"{path}/fields")
        fields = {}
        for k, name in enumerate(names):
            field = _get_field(doc, name, conn.chart, f"{path}/fields/{k}")
            _require(name not in fields, f"field {name!r} is listed twice",
                     f"{path}/fields/{k}")
            fields[name] = field
        inputs["fields"] = names, list(fields.values())
        if "expect" in task:   # a product-table task's: any other kind refuses it
            inputs["expect"] = _get_algebra(doc, task, "expect", path)
        if kind == "envelope":
            gens = inputs["generators"] = task.get("generators")
            _require(isinstance(gens, list) and gens, 'task needs "generators"',
                     f"{path}/generators")
            for k, g in enumerate(gens):
                _require(g in names, f"generator {g!r} is not among the task fields",
                         f"{path}/generators/{k}")
                _require(g not in gens[:k], f"generator {g!r} is listed twice",
                         f"{path}/generators/{k}")
    elif kind == "closure":
        gens = task.get("generators")
        _require(isinstance(gens, list) and gens, 'task needs "generators"',
                 f"{path}/generators")
        inputs["generators"] = [_generator_vector(algebra, g, f"{path}/generators/{k}")
                                for k, g in enumerate(gens)]
    # last, as it is the one check that computes (torsion and curvature,
    # cached on the connection for the task that runs)
    if kind in _NEEDS_FLAT:
        _require(is_flat_affine(conn), _NEEDS_FLAT[kind], path)
    return inputs


# ----- task runners -----------------------------------------------------------


def _run_check(check, *inputs):
    """The runner of a verdict task: the `CheckReport` of check on the task's inputs."""
    def runner(task):
        report = check(*(task[name] for name in inputs))
        return report.holds, report.witness, {}
    return runner


def _run_commutator(task):
    try:
        lie = commutator_algebra(task["algebra"])
    except JacobiError as err:
        return False, err.witness, {"error": "jacobi identity fails"}
    return None, None, {"lie": lie.to_json_dict()}


def _run_closure(task):
    algebra = task["algebra"]
    space = subalgebra_closure(algebra, task["generators"])
    payload = space.to_json_dict(algebra.basis_names)
    if "expect_rank" in task:
        expected = task["expect_rank"]
        if space.rank != expected:
            return False, ("rank", space.rank, expected), payload
        return True, None, payload
    return None, None, payload


def _tensor_payload(report):
    return {
        "zero": report.is_zero,
        "nonzero": [{"index": list(idx), "name": report.component_name(idx),
                     "expr": str(report.components[idx])}
                    for idx in report.nonzero],
    }


def _run_tensor(compute):
    def runner(task):
        report = compute(task["connection"])
        payload = _tensor_payload(report)
        if "expect_zero" in task:
            expected = task["expect_zero"]
            if report.is_zero != expected:
                witness = report.component_name(report.nonzero[0]) if report.nonzero else None
                return False, witness, payload
            return True, None, payload
        return None, None, payload
    return runner


def _run_solve_iat(task):
    fields = solve_iat_ansatz(task["connection"], task["ansatz"])
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


def _run_product_table(task):
    names, fields = task["fields"]
    table = product_table(task["connection"], fields, names)
    payload = {"table": table.to_json_dict(), "text": render_table_text(table)}
    if "expect" in task:
        expected = task["expect"]
        if expected.dim != table.dim:
            return False, ("dim", table.dim, expected.dim), payload
        for i in range(table.dim):
            for j in range(table.dim):
                if table.rows[i][j] != expected.rows[i][j]:
                    return False, (i + 1, j + 1), payload
        return True, None, payload
    return None, None, payload


def _run_envelope(task):
    names, fields = task["fields"]
    report = compute_envelope(task["connection"], fields, names, task["generators"])
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


def _run_bi_invariant(task):
    return verify_bi_invariant_criterion(task["lie"], task["algebra"]), None, {}


_RUNNERS = {
    "check-lsa": _run_check(check_left_symmetric, "algebra"),
    "check-associative": _run_check(check_associative, "algebra"),
    "commutator": _run_commutator,
    "closure": _run_closure,
    "torsion": _run_tensor(torsion),
    "curvature": _run_tensor(curvature),
    "check-iat": _run_check(is_infinitesimal_affine, "connection", "field"),
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
    if out_dir is not None:   # before any task runs, so a bad path costs no work
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    reports = []
    any_negative = False
    for index, task in enumerate(document.tasks):
        started = time.perf_counter()
        try:
            verdict, witness, payload = _RUNNERS[task["kind"]](task)
        except DependentFieldsError as err:
            key = "ansatz" if task["kind"] == "solve-iat" else "fields"
            raise TaskFileError(str(err), f"/tasks/{index}/{key}/{err.index}") from None
        except (IATViolationError, NotInSpanError) as err:
            verdict, witness, payload = _table_failure(err)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        status = "ok" if verdict is None else ("pass" if verdict else "fail")
        report = {
            "id": task["id"],
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
        for report in reports:
            if fmt in ("json", "both"):
                with (out_path / f"{report['id']}.json").open("w") as fp:
                    json.dump(report, fp, indent=2)
                    fp.write("\n")
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
    except (ValueError, RecursionError) as err:
        # besides JSONDecodeError: bytes that are not UTF-8, an integer
        # literal past Python's digit limit, or nesting past the recursion limit
        print(f"error: {args.taskfile} cannot be parsed as JSON: {err}", file=sys.stderr)
        return 2
    try:
        code, reports = run_document(doc, out_dir=args.out, fmt=args.format,
                                     fail_fast=args.fail_fast)
    except TaskFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: cannot write reports to {args.out}: {err}", file=sys.stderr)
        return 2
    for report in reports:
        line = f"{report['id']} ({report['kind']}): {report['status']}"
        if report["witness"] is not None:
            line += f" witness={report['witness']}"
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
