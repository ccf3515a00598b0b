"""flataffine benchmark: one seeded workload per run, a closed loop of passes.

    python3 bench/run.py --workload gl2-envelope --seed 1 --seconds 15 --trace 0

One client, no threads: each pass starts after the previous one ended and
its answer was checked.  Workloads are defined in workloads.py.  Every time
is reported at reference speed (see speed.py), because the speed of a shared
host drifts by more than the bounds the benchmark must hold.

--trace 0 prints the end-to-end metrics.  Child processes, run one after
another, each import flataffine and build the inputs; FIRST_PASS_CHILDREN of
them also run a first pass, the other SETUP_CHILDREN stop there.  This
process does the same and then runs further passes for --seconds seconds,
whose times give the pass metrics.  Set-up and first-pass times are medians
over the fresh processes.

--trace 1 prints the per-layer metrics.  It alternates untraced passes with
passes traced by spans.py, reports the relative difference of their median
times as bench.trace_overhead_ratio and writes the spans to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A pass that raises or gives a wrong answer
counts as failed, and the run goes on.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import Interval, at_reference_speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
FIRST_PASS_CHILDREN = 4
SETUP_CHILDREN = 6
CHILD_TIMEOUT_S = 100
WORKLOAD_NAMES = ("halfplane-doc", "gl2-envelope", "gl3-iat")
REQUIRED = (SRC / "flataffine" / "__init__.py", ROOT / "docs" / "example-tasks.json")


def task_seconds(result) -> dict:
    """Seconds per cli task kind, from the reports' own elapsed_ms."""
    seconds = dict.fromkeys(spans.TASK_KINDS, 0.0)
    if isinstance(result, tuple):           # run_document's (exit code, reports)
        for report in result[1]:
            seconds[report["kind"]] += report["elapsed_ms"] / 1000.0
    return seconds


class Pass:
    """One checked pass: what was wrong with it and its normalised times.

    A pass with `sampled=False` takes no speed samples while it runs, so a
    traced pass records no sampler time in its spans.  `round_trip` is the
    normalised time from the collection before the pass to the end of its
    check.  The result is not kept, so that memory does not grow
    with the number of passes.
    """

    def __init__(self, workload, run, sampled: bool = True):
        started = time.perf_counter()
        gc.collect()
        result = None
        with Interval(sampled) as interval:
            try:
                result = run()
                self.problems = []
            except Exception:
                self.problems = [traceback.format_exc()]
        self.raw_wall = interval.raw_wall
        self.wall, self.cpu = interval.wall, interval.cpu
        if not self.problems:
            try:
                self.problems = workload.check(result)
            except Exception:
                self.problems = [traceback.format_exc()]
        for problem in self.problems:
            print(f"{workload.name}: wrong pass: {problem}", file=sys.stderr)
        self.task_s = task_seconds(result)
        samples = [w for w, _ in interval.samples]
        measured = time.perf_counter() - started
        self.round_trip = at_reference_speed(measured - sum(samples), samples)

    @property
    def ok(self) -> bool:
        return not self.problems


def set_up(args, out_dir: Path):
    """Import flataffine from this checkout and build the inputs.

    Returns the workload and the normalised set-up seconds.
    """
    with Interval() as setup:
        sys.path.insert(0, str(SRC))
        import flataffine
        import workloads
        workload = workloads.make(args.workload, args.seed, out_dir)
    if not Path(flataffine.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"flataffine was imported from {flataffine.__file__}, "
                         f"not from {SRC}")
    return workload, setup.wall


def fresh_sample(args, out_dir: Path) -> dict:
    workload, setup_s = set_up(args, out_dir)
    if args.fresh_sample == "setup":
        return {"setup_s": setup_s}
    first = Pass(workload, workload.run_pass)
    return {"setup_s": setup_s, "first_pass_s": first.wall, "ok": first.ok}


def run_children(args) -> list:
    """The fresh_sample() of each child process; None for a child that failed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
               "--fresh-sample"]
    samples = []
    for kind in ["first-pass"] * FIRST_PASS_CHILDREN + ["setup"] * SETUP_CHILDREN:
        child = subprocess.run(command + [kind], cwd=ROOT, capture_output=True,
                               text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            samples.append(None)
            continue
        samples.append(json.loads(child.stdout.splitlines()[-1]))
    return samples


def closed_loop(workload, seconds: float, runs) -> list:
    """Cycle through `runs` until the next cycle would end after `seconds`.

    `runs` are (pass function, sampled) pairs.  Returns (pass function, Pass)
    pairs; at least one cycle runs.
    """
    passes = []
    started = time.perf_counter()
    while True:
        for run, sampled in runs:
            passes.append((run, Pass(workload, run, sampled)))
        elapsed = time.perf_counter() - started
        per_cycle = statistics.median(p.raw_wall for _, p in passes) * len(runs)
        if elapsed + per_cycle > seconds:
            return passes


def tail(values):
    """The highest order statistic with ten values above it.

    With ten or fewer values no percentile has ten beyond it; the lowest value
    (the one with the most values beyond it) is reported then.
    """
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end(args, out_dir: Path):
    fresh = run_children(args)
    workload, setup_s = set_up(args, out_dir)
    first = Pass(workload, workload.run_pass)
    fresh.append({"setup_s": setup_s, "first_pass_s": first.wall, "ok": first.ok})
    timed = [p for _, p in closed_loop(workload, args.seconds, [(workload.run_pass, True)])]
    passes = [s for s in fresh if s is None or "ok" in s]
    attempted = len(passes) + len(timed)
    failed = sum(1 for s in passes if s is None or not s["ok"]) + \
        sum(1 for p in timed if not p.ok)
    if None in fresh:
        print(f"{args.workload}: a fresh-process sample failed", file=sys.stderr)
        return None, attempted, failed
    good = [p for p in timed if p.ok] or timed
    walls = [p.wall for p in good]
    metrics = {
        "pass_s.p50": (statistics.median(walls), "s"),
        "pass_s.tail": (tail(walls), "s"),
        "pass_cpu_s.p50": (statistics.median(p.cpu for p in good), "s"),
        "passes_per_s": (sum(1 for p in timed if p.ok) / sum(p.round_trip for p in timed), "1/s"),
        "first_pass_s": (statistics.median(s["first_pass_s"] for s in passes), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in fresh), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: pass_s.n={len(walls)} "
          f"failed_ratio={failed / attempted:.4f} ({failed}/{attempted}) "
          f"measured pass_s.p50={statistics.median(p.raw_wall for p in good):.6g} s")
    return metrics, attempted, failed


def per_layer(args, out_dir: Path):
    workload, _ = set_up(args, out_dir)
    first = Pass(workload, workload.run_pass, sampled=False)
    import scene
    import workloads
    tracer = spans.Tracer()

    def traced():
        tracer.patch(extra_modules=(workloads, scene))
        try:
            return tracer.run_pass(workload.run_pass)
        finally:
            tracer.unpatch()

    passes = [(workload.run_pass, first)] + \
        closed_loop(workload, args.seconds,
                    [(traced, False), (workload.run_pass, False)])
    untraced = [p for run, p in passes if run is not traced]
    traced_passes = [p for run, p in passes if run is traced]
    failed = sum(1 for _, p in passes if not p.ok)
    try:
        stats = tracer.per_pass_stats()
    except spans.SpanError as err:
        print(f"{args.workload}: inconsistent spans: {err}", file=sys.stderr)
        return None, len(passes), failed
    if any((s["calls"], s["counters"]) != (stats[0]["calls"], stats[0]["counters"])
           for s in stats):
        print(f"{args.workload}: counts differ between traced passes",
              file=sys.stderr)
        return None, len(passes), failed
    tracer.write(OUT / f"spans-{args.workload}.csv.gz")
    values = spans.layer_metrics(stats)
    kinds = [p.task_s for p in untraced if p.ok]
    for kind in spans.TASK_KINDS:
        values[f"cli.task_s.{kind}"] = statistics.median(k[kind] for k in kinds) \
            if kinds else 0.0
    values["bench.trace_overhead_ratio"] = \
        statistics.median(p.wall for p in traced_passes) / \
        statistics.median(p.wall for p in untraced) - 1.0
    metrics = {name: (values[name], unit) for name, unit, _ in spans.metric_specs()}
    return metrics, len(passes), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fresh-sample", choices=("setup", "first-pass"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a flataffine checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    out_dir = OUT / f"reports-{os.getpid()}"
    try:
        if args.fresh_sample:
            print(json.dumps(fresh_sample(args, out_dir)))
            return 0
        if args.trace:
            metrics, attempted, failed = per_layer(args, out_dir)
        else:
            metrics, attempted, failed = end_to_end(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if metrics is None:
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
