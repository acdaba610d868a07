#!/usr/bin/env python3
"""Benchmark of the mdiqkd toolkit: session, bounding-program and CLI workloads.

    python3 perfbench/run.py                 # every workload, each in a fresh process
    python3 perfbench/run.py --workload bound-t7 --seed 3 --seconds 15 --trace 0

One workload run imports the package from src/ of this checkout, sets up
(import plus one warm-up call, several times over), runs its operations one
at a time for --seconds, checks every output and prints its figures.  The
last line of its output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer metrics with --trace 1.  NOTES.md says what each one means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time

from common import (
    OUT_DIR, ROOT, RUN_PY, SRC, LinprogCounter, Recorder, fix_allocator, import_probe, median, run_child, tail,
)

# name: (module, keyword arguments of its warm_up and run)
WORKLOADS = {
    "sim-session": ("sim", {}),
    "bound-t7": ("bound", {"truncation": 7}),
    "bound-t30": ("bound", {"truncation": 30}),
    "cli-smoke": ("clismoke", {}),
}
SETUP_SAMPLES = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def set_up(workload: str, workdir: str) -> float:
    """Seconds to import the package and make the workload's first call."""
    start = time.perf_counter()
    import mdiqkd

    if not os.path.abspath(mdiqkd.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"mdiqkd was imported from {mdiqkd.__file__}, not from {SRC}")
    name, kwargs = WORKLOADS[workload]
    importlib.import_module(name).warm_up(workdir, **kwargs)
    return time.perf_counter() - start


def make_workdir() -> str:
    path = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def linprog_layers(counter: LinprogCounter, recorder: Recorder, bounds: int) -> dict:
    """Solver work per traced operation that produced bounds."""
    if bounds == 0:
        return {}
    if counter.calls == 0:
        # Bounds were produced, so the solver ran where the wrapper cannot see:
        # the counters are unavailable, which is not the same as zero.
        return {"decoy.linprog_calls": None, "decoy.linprog_nit": None, "decoy.linprog_ms": None}
    return {
        "decoy.linprog_calls": counter.calls / bounds,
        "decoy.linprog_nit": counter.nit / bounds,
        "decoy.linprog_ms": 1e3 * recorder.total("scipy.linprog") / bounds,
    }


def run_workload(args: argparse.Namespace) -> int:
    spec = load_spec()
    recorder = Recorder()
    counter = LinprogCounter(recorder) if args.trace else None
    workdir = make_workdir()
    try:
        setups = [set_up(args.workload, workdir)]
        fix_allocator()
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc = run_child([RUN_PY, "--setup-probe", args.workload])
                if proc.returncode != 0:
                    raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
                setups.append(float(proc.stdout.split()[-1]))

        name, kwargs = WORKLOADS[args.workload]
        module = importlib.import_module(name)
        result = module.run(args.seed, args.seconds, recorder, bool(args.trace), workdir, **kwargs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies = result["latencies"]
    p50_ms = 1e3 * median(latencies)
    tail_s, tail_pct, tail_blocks = tail(latencies)
    tail_note = f"p{tail_pct:.1f} of {len(latencies)}" + (
        f", median over {tail_blocks} blocks" if tail_blocks > 1 else ""
    )
    work_per_s = result["work"] / sum(latencies)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    attempted, failed = result["tally"].attempted, result["tally"].failed

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for note in result["notes"]:
        print(f"  {note}")
    named = {"fail_ratio": (failed / attempted, "ratio", f"{failed} failed / {attempted} attempted")}
    if args.workload == "sim-session":
        named["sim_gates_per_s"] = (work_per_s, "gates/s", len(latencies))
    elif args.workload.startswith("bound-"):
        named["bound_p50_ms"] = (p50_ms, "ms", len(latencies))
        named["bound_tail_ms"] = (1e3 * tail_s, "ms", tail_note)
    else:
        named.update(result["named"])
    if not args.trace:
        if args.workload != "cli-smoke":
            named["setup_s"] = (median(setups), "s", len(setups))
            named["peak_rss_mb"] = (rss_kb / 1024, "MB", 1)
        print("named " + json.dumps(named))
        for name, (value, unit, samples) in named.items():
            print(f"  {name:<16} {value:.6g} {unit} (n={samples})")
        print(f"  op_tail_ms is the {tail_note}")
        values = {
            "setup_s": median(setups),
            "op_p50_ms": p50_ms,
            "op_tail_ms": 1e3 * tail_s,
            "work_per_s": work_per_s,
            "peak_rss_mb": rss_kb / 1024,
        }
        metrics = spec["end_to_end"]
    else:
        values = dict(import_probe())
        values.update(result.get("layers", {}))
        values.update(linprog_layers(counter, recorder, result.get("bounds", 0)))
        if result["ratios"]:
            values["trace.overhead_pct"] = 100.0 * (median(result["ratios"]) - 1.0)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        recorder.write(path)
        print(f"  spans written to {os.path.relpath(path, ROOT)}; "
              f"overhead against untraced calls {values.get('trace.overhead_pct', 0.0):+.1f}%")
        metrics = spec["per_layer"]
    # A per-layer metric the workload does not exercise reads 0 (see NOTES.md).
    out = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metrics}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    rows = []
    ok = True
    for workload in WORKLOADS:
        proc = run_child(
            [RUN_PY, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            timeout=300.0,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stderr)
            ok = False
            continue
        ok &= json.loads(lines[-1])["correct"]
        named = json.loads(next(line for line in lines if line.startswith("named "))[len("named "):])
        rows += [(workload, name, *entry) for name, entry in named.items()]
    print("\nend-to-end metrics")
    for workload, name, value, unit, samples in rows:
        print(f"  {workload:<12} {name:<16} {value:>12.6g} {unit:<8} n={samples}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mdiqkd", "__init__.py")):
        print(f"error: no mdiqkd package under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workdir = make_workdir()
        try:
            print(set_up(args.setup_probe, workdir))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    sys.path.insert(0, SRC)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
