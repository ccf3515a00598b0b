"""Tests of the benchmark itself: the GL(n) scene, the answer checkers, the tracer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import copy
import importlib.util
import json
import statistics
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import scene
import spans
import workloads
from flataffine import IATReport
from flataffine.symcore.polynomial import Polynomial
from scene import GLnScene

ROOT = Path(__file__).resolve().parent.parent


def _test_helpers():
    spec = importlib.util.spec_from_file_location("bench_gl2_helpers",
                                                  ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ----- the GL(n) scene ------------------------------------------------------------


def test_gl2_scene_equals_test_helper_scene():
    expected = _test_helpers().GL2Scene()
    got = GLnScene(2)
    assert got.chart == expected.chart
    assert got.f_names == expected.f_names
    assert got.f_fields == expected.f_fields
    assert got.invariant_fields() == expected.invariant_fields()
    assert got.constants == expected.constants
    assert list(got.frame.fields) == list(expected.frame.fields)
    assert got.connect() == expected.connection


def test_frame_order_does_not_change_the_connection():
    order = [(2, 1), (1, 2), (2, 2), (1, 1)]
    assert GLnScene(2, order).connect() == GLnScene(2).connect()


def test_frame_order_must_be_a_permutation():
    with pytest.raises(ValueError):
        GLnScene(2, [(1, 1), (1, 1), (2, 1), (2, 2)])


def test_gl3_scene_sizes():
    gl3 = GLnScene(3)
    names, fields = gl3.invariant_fields()
    assert gl3.chart.dim == 9
    assert len(gl3.f_fields) == len(set(gl3.f_fields)) == 81
    assert len(fields) == len(names) == 18


# ----- answer checkers ------------------------------------------------------------


def test_halfplane_checker_accepts_a_real_pass_and_rejects_corruptions(tmp_path):
    workload = workloads.HalfplaneDoc(7, tmp_path)
    (tmp_path / "stale.json").write_text("{}")     # left by an earlier pass
    code, reports = workload.run_pass()
    assert workload.check((code, reports)) == []

    def corrupted(edit):
        bad = copy.deepcopy(reports)
        edit({r["id"]: r for r in bad})
        return workload.check((code, bad))

    assert workload.check((1, reports))
    assert corrupted(lambda r: r["assoc"].update(status="fail"))
    assert corrupted(lambda r: r["solve"]["data"].update(dimension=5))
    assert corrupted(lambda r: r["env"]["data"]["closure"].update(rank=6))
    assert corrupted(lambda r: r["env"]["data"]["closure"]["named_basis"].append("C6"))
    (tmp_path / "clos.txt").write_text("task clos (closure): fail\n")
    assert workload.check((code, reports))
    (tmp_path / "clos.txt").unlink()
    (tmp_path / "env.json").write_text("{}\n")
    assert workload.check((code, reports))
    (tmp_path / "env.txt").unlink()
    assert workload.check((code, reports))


def test_halfplane_seed_permutes_envelope_fields_and_ansatz(tmp_path):
    docs = [workloads.HalfplaneDoc(seed, tmp_path).doc for seed in range(4)]
    tasks = [{t["id"]: t for t in doc["tasks"]} for doc in docs]
    assert len({tuple(t["env"]["fields"]) for t in tasks}) > 1
    assert len({tuple(t["solve"]["ansatz"]) for t in tasks}) > 1
    assert all(t["table"] == tasks[0]["table"] for t in tasks)


def _gl2_report(**changes):
    report = SimpleNamespace(ambient=SimpleNamespace(dim=16),
                             generator_names=tuple(f"E+{i}" for i in range(7)),
                             closure=SimpleNamespace(rank=16),
                             checks={"flat_affine": True, "ambient_associative": True})
    for key, value in changes.items():
        setattr(report, key, value)
    return report


def test_gl2_checker_rejects_corruptions():
    workload = workloads.GL2Envelope(3)
    assert workload.check(_gl2_report()) == []
    assert workload.check(_gl2_report(ambient=SimpleNamespace(dim=15)))
    assert workload.check(_gl2_report(closure=SimpleNamespace(rank=15)))
    assert workload.check(_gl2_report(generator_names=("E+11",) * 8))
    assert workload.check(_gl2_report(checks={"ambient_associative": False}))


def test_gl3_checker_rejects_corruptions():
    workload = workloads.GL3Iat(3)
    solutions = sorted(workload.linear_fields, key=str)

    def result(**changes):
        values = dict(flat=True, invariant_verdicts=[IATReport(True)] * 18,
                      control=IATReport(False, (1, 1)), solutions=solutions)
        values.update(changes)
        return workloads.GL3Result(**values)

    assert workload.check(result()) == []
    assert workload.check(result(flat=False))
    assert workload.check(result(invariant_verdicts=[IATReport(True)] * 17
                                 + [IATReport(False, (2, 3))]))
    assert workload.check(result(control=IATReport(False, (1, 2))))
    assert workload.check(result(control=IATReport(True)))
    assert workload.check(result(solutions=solutions[1:]))
    doubled = solutions[:-1] + [solutions[0] + solutions[0]]
    assert workload.check(result(solutions=doubled))


def test_gl3_seed_permutes_frame_and_ansatz():
    runs = [workloads.GL3Iat(seed) for seed in range(4)]
    assert len({tuple(w.frame_order) for w in runs}) > 1
    assert len({tuple(w.ansatz) for w in runs}) > 1


# ----- tracing --------------------------------------------------------------------


def _traced_halfplane_pass(tmp_path):
    workload = workloads.HalfplaneDoc(1, tmp_path)
    tracer = spans.Tracer()
    tracer.patch(extra_modules=(workloads, scene))
    try:
        result = tracer.run_pass(workload.run_pass)
    finally:
        tracer.unpatch()
    assert workload.check(result) == []
    return tracer


def test_traced_pass_counts_layers_and_restores_the_program(tmp_path):
    import flataffine.cli as cli
    import flataffine.geometry as geometry
    originals = (geometry.torsion, cli.run_document, Polynomial.__mul__)
    tracer = _traced_halfplane_pass(tmp_path)
    assert (geometry.torsion, cli.run_document, Polynomial.__mul__) == originals
    assert cli._RUNNERS["torsion"].__closure__[0].cell_contents is geometry.torsion
    [stats] = tracer.per_pass_stats()
    values = spans.layer_metrics([stats])
    assert values["cli.run_document.calls"] == 1
    assert values["cli.load_document.calls"] == 1
    # the torsion task calls torsion through a closure made at import time
    assert values["geometry.torsion.calls"] == values["geometry.is_flat_affine.calls"] + 1
    assert values["geometry.torsion.misses"] == values["geometry.curvature.misses"] == 1
    assert values["geometry.express_in_basis.calls"] > 0
    assert values["linalg.rref.q.cells"] > 0 and values["linalg.rref.qx.calls"] > 0
    assert values["symcore.polynomial.mul.calls"] > 0
    assert 0 < values["symcore.polynomial.poly_lcm.trivial_ratio"] < 1
    root = tracer.passes[0]
    assert sum(stats["self_s"].values()) == pytest.approx(
        tracer.end[root] - tracer.start[root], abs=1e-6)


def test_inconsistent_spans_are_rejected(tmp_path):
    tracer = _traced_halfplane_pass(tmp_path)
    child = 1
    tracer.end[child] = tracer.end[tracer.parent[child]] + 1.0
    with pytest.raises(spans.SpanError):
        tracer.per_pass_stats()


def test_spans_file_lists_every_span(tmp_path):
    import gzip
    tracer = _traced_halfplane_pass(tmp_path / "reports")
    path = tmp_path / "spans.csv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as lines:
        rows = lines.read().splitlines()
    assert rows[0] == "id,parent,name,start_s,end_s"
    assert len(rows) == len(tracer.name) + 1
    assert rows[1].split(",")[:3] == ["0", "-1", "bench.pass"]


# ----- the metric list ------------------------------------------------------------


def test_benchmark_json_lists_the_reported_layer_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in config["per_layer"]]
    assert listed == spans.metric_specs()


def test_tail_has_ten_values_beyond_it():
    assert run.tail(list(range(1, 31))) == 20
    assert run.tail([3.0, 1.0, 2.0]) == 1.0


def test_interval_samples_speed_inside_and_restores_the_signal_handler():
    import signal
    import time
    from speed import REF_S, Interval
    handler = signal.getsignal(signal.SIGALRM)
    give_up = time.perf_counter() + 30.0
    with Interval() as interval:
        while len(interval.samples) < 4 and time.perf_counter() < give_up:
            pass
    assert signal.getsignal(signal.SIGALRM) is handler
    assert len(interval.samples) >= 5        # the entry sample, three inside, the exit one
    walls = sorted(w for w, _ in interval.samples)
    inside = sum(w for w, _ in interval.samples[1:-1])
    assert interval.raw_wall == pytest.approx(interval.measured_wall - inside, rel=1e-12)
    median = statistics.median(walls)
    assert interval.wall == pytest.approx(interval.raw_wall * REF_S / median, rel=1e-12)


def test_samples_run_with_the_collector_off_and_leave_its_state(monkeypatch):
    import gc
    import speed
    seen = []
    monkeypatch.setattr(speed, "reference_unit", lambda: seen.append(gc.isenabled()))
    collecting_before = gc.isenabled()
    try:
        for collecting in (True, False):
            (gc.enable if collecting else gc.disable)()
            with speed.Interval(sampled=False):
                pass
            assert gc.isenabled() is collecting
    finally:
        (gc.enable if collecting_before else gc.disable)()
    assert seen == [False] * 4
