"""Run the benchmark over several seeds and summarise it, as a baseline record.

    python3 bench/baseline.py --out bench/BASELINE.json

Runs run.py once for every workload in BENCHMARK.json and each of the seeds
1..SEEDS with --trace 0, then once per workload with --trace 1 and seed 1,
one run at a time.  For each end-to-end metric it records the
median over the seeds and the spread: the distance between the first and
third quartiles as a share of the median.  The record also names the Python
version, the platform and the git revision of the checkout.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10


def bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(config, workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(config["run_seconds"]),
               "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args(argv)
    config = bench_config()
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    record = {"python": platform.python_version(), "platform": platform.platform(),
              "machine": platform.machine(), "git_rev": git_rev(),
              "run_seconds": config["run_seconds"], "seeds": list(range(1, SEEDS + 1)),
              "workloads": {}}
    for name in (w["name"] for w in config["workloads"]):
        runs = [run_once(config, name, seed, 0) for seed in record["seeds"]]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {
                "median": statistics.median(values), "spread": spread(values),
                "unit": runs[0]["metrics"][metric]["unit"], "values": values}
            print(f"{name:14s} {metric:16s} median {statistics.median(values):10.5g}"
                  f"  spread {spread(values):6.3f}  bound {bounds[metric]}", flush=True)
        traced = run_once(config, name, 1, 1)
        entry["per_layer_seed1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
