"""The benchmark's three workloads: seeded inputs, one pass, exact answer checks.

A workload object is built from a seed (its inputs, fixed by the seed) and
then runs any number of passes.  Every pass builds its library objects from
scratch, so no pass sees a `Connection` whose torsion or curvature an earlier
pass already computed.  `check(result)` returns the list of ways a pass result
differs from the known exact answer; an empty list means the pass is correct.
"""
from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from flataffine import VectorField, compute_envelope, is_flat_affine, \
    is_infinitesimal_affine, solve_iat_ansatz
from flataffine.cli import run_document
from flataffine.geometry import independent_fields

from scene import GLnScene

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_TASKS = ROOT / "docs" / "example-tasks.json"


class HalfplaneDoc:
    """`run_document` on the shipped half-plane task file, both report formats.

    The seed permutes the ambient field list of the envelope task and the
    term order of the solve-iat ansatz.  The product-table task keeps its
    order, because its `expect` algebra fixes the basis order.
    """

    name = "halfplane-doc"
    # verdict status of each task of the unpermuted file
    STATUS = {"lsa": "pass", "tor": "pass", "curv": "pass", "iat-c6": "pass",
              "table": "pass", "assoc": "pass", "comm": "ok", "clos": "pass",
              "solve": "ok", "env": "pass", "biinv": "pass"}
    SOLVE_DIMENSION = 6
    ENVELOPE_BASIS = {"e1-", "e2-", "C3", "C4", "C5"}

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        doc = json.loads(EXAMPLE_TASKS.read_text())
        for task in doc["tasks"]:
            if task["kind"] == "envelope":
                rng.shuffle(task["fields"])
            elif task["kind"] == "solve-iat":
                rng.shuffle(task["ansatz"])
        self.doc = doc
        self.out_dir = out_dir

    def run_pass(self):
        # an empty directory, so that the check sees only this pass's reports
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return run_document(self.doc, out_dir=self.out_dir, fmt="both")

    def check(self, result) -> list:
        code, reports = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        status = {r["id"]: r["status"] for r in reports}
        if status != self.STATUS:
            problems.append(f"task verdicts {status} differ from {self.STATUS}")
        by_id = {r["id"]: r for r in reports}
        dimension = by_id.get("solve", {}).get("data", {}).get("dimension")
        if dimension != self.SOLVE_DIMENSION:
            problems.append(f"solve-iat dimension {dimension}, "
                            f"expected {self.SOLVE_DIMENSION}")
        closure = by_id.get("env", {}).get("data", {}).get("closure", {})
        if closure.get("rank") != 5:
            problems.append(f"envelope closure rank {closure.get('rank')}, expected 5")
        named = closure.get("named_basis")
        if named is None or set(named) != self.ENVELOPE_BASIS:
            problems.append(f"envelope closure basis {named}, expected "
                            f"{sorted(self.ENVELOPE_BASIS)} (without C6)")
        files = sorted(p.name for p in self.out_dir.iterdir()) \
            if self.out_dir.is_dir() else []
        expected = sorted(f"{r['id']}.{ext}" for r in reports for ext in ("json", "txt"))
        if files != expected:
            problems.append(f"report files {files} differ from {expected}")
            return problems
        for report in reports:
            task_id = report["id"]
            written = json.loads((self.out_dir / f"{task_id}.json").read_text())
            if written != json.loads(json.dumps(report)):
                problems.append(f"{task_id}.json differs from the report")
            heading = f"task {task_id} ({report['kind']}): {report['status']}"
            text = (self.out_dir / f"{task_id}.txt").read_text()
            if text.splitlines()[:1] != [heading]:
                problems.append(f"{task_id}.txt does not start with {heading!r}")
        return problems


class GL2Envelope:
    """Overlap removal over the GL2 invariant and linear fields, then the envelope.

    The seed shuffles the 8 invariant fields among themselves and the 16
    linear fields among themselves; the invariant fields stay first, so 7 of
    them are kept as generators and the closure still has rank 16.
    """

    name = "gl2-envelope"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.invariant_order = list(range(8))
        self.linear_order = list(range(16))
        rng.shuffle(self.invariant_order)
        rng.shuffle(self.linear_order)

    def run_pass(self):
        scene = GLnScene(2)
        conn = scene.connect()
        inv_names, inv_fields = scene.invariant_fields()
        names = [inv_names[i] for i in self.invariant_order] + \
            [scene.f_names[i] for i in self.linear_order]
        fields = [inv_fields[i] for i in self.invariant_order] + \
            [scene.f_fields[i] for i in self.linear_order]
        kept_names, kept_fields = independent_fields(fields, names)
        generators = [n for n in kept_names if n.startswith("E")]
        return compute_envelope(conn, kept_fields, kept_names, generators)

    def check(self, report) -> list:
        problems = []
        if report.ambient.dim != 16:
            problems.append(f"{report.ambient.dim} fields kept, expected 16")
        if len(report.generator_names) != 7:
            problems.append(f"{len(report.generator_names)} invariant generators "
                            "kept, expected 7")
        if report.closure.rank != 16:
            problems.append(f"closure rank {report.closure.rank}, expected 16")
        failed = [name for name, ok in report.checks.items() if ok is not True]
        if failed:
            problems.append(f"envelope checks failed: {failed}")
        return problems


@dataclass
class GL3Result:
    flat: bool
    invariant_verdicts: list
    control: object
    solutions: list


class GL3Iat:
    """The GL3 frame connection, its flatness, the IAT test and the ansatz solver.

    The seed permutes the frame order (the structure constants follow it) and
    the order of the 9 linear ansatz monomials.
    """

    name = "gl3-iat"
    CONTROL = ("x11^2",) + ("0",) * 8
    CONTROL_WITNESS = (1, 1)

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pairs = [(r, s) for r in range(1, 4) for s in range(1, 4)]
        self.frame_order = rng.sample(pairs, len(pairs))
        self.ansatz = [f"x{r}{s}" for (r, s) in pairs]
        rng.shuffle(self.ansatz)
        # the expected solution set: every linear field is an IAT
        self.linear_fields = set(GLnScene(3).f_fields)

    def run_pass(self):
        scene = GLnScene(3, self.frame_order)
        conn = scene.connect()
        flat = is_flat_affine(conn)
        _, inv_fields = scene.invariant_fields()
        verdicts = [is_infinitesimal_affine(conn, f) for f in inv_fields]
        control = is_infinitesimal_affine(conn, VectorField(scene.chart, self.CONTROL))
        solutions = solve_iat_ansatz(conn, self.ansatz)
        return GL3Result(flat, verdicts, control, solutions)

    def check(self, result) -> list:
        problems = []
        if result.flat is not True:
            problems.append("GL3 frame connection is not flat")
        if len(result.invariant_verdicts) != 18 or \
                not all(v.holds for v in result.invariant_verdicts):
            problems.append("an invariant field failed the IAT test")
        if result.control.holds or result.control.witness != self.CONTROL_WITNESS:
            problems.append(f"control field gave {result.control}, expected a "
                            f"failure at {self.CONTROL_WITNESS}")
        if len(result.solutions) != 81 or set(result.solutions) != self.linear_fields:
            problems.append(f"ansatz solution set ({len(result.solutions)} fields) "
                            "is not the 81 linear fields")
        return problems


WORKLOADS = {w.name: w for w in (HalfplaneDoc, GL2Envelope, GL3Iat)}


def make(name: str, seed: int, out_dir: Path):
    """The workload `name` with inputs fixed by `seed`; `out_dir` takes its files."""
    if name == HalfplaneDoc.name:
        return HalfplaneDoc(seed, out_dir)
    return WORKLOADS[name](seed)
