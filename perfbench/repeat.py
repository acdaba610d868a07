#!/usr/bin/env python3
"""Run every workload with several seeds and summarise the spread of each metric.

    python3 perfbench/repeat.py --runs 10 --out .perfbench/summary.json

For each workload: --runs untraced runs with seeds first-seed .. first-seed +
runs - 1, then one traced run.  For every end-to-end metric it reports the
median, the quartiles (statistics.quantiles(values, n=4)) and their distance
as a share of the median, which must stay below the metric's bound.  The JSON
written to --out also records the machine and library versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from common import ROOT, RUN_PY, run_child


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = run_child(
        [RUN_PY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        timeout=600.0,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed: {proc.stderr.strip()[-1000:]}")
    return json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"environment": environment(), "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [
            run_once(workload, seed, spec["run_seconds"], 0)
            for seed in range(args.first_seed, args.first_seed + args.runs)
        ]
        entry = {
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": {},
        }
        print(f"{workload}: correct {entry['correct']}, failed {sum(entry['failed'])} "
              f"of {sum(entry['attempted'])}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            entry["end_to_end"][name] = {
                "median": statistics.median(values),
                "quartiles": [q1, q3],
                "spread": spread,
                "values": values,
            }
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  (above a third of bound)"
            print(f"  {name:<12} median {statistics.median(values):<12.6g} "
                  f"spread {spread:6.1%} bound {bounds[name]:.0%}{flag}")
        traced = run_once(workload, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["correct"] &= traced["correct"]
        ok &= entry["correct"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
