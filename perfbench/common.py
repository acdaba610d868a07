"""Paths, child processes, summary statistics and the span recorder of the benchmark."""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
RUN_PY = os.path.join(HERE, "run.py")


def child_env() -> dict[str, str]:
    """Environment of every child process: the package comes from this checkout only."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = SRC
    return env


def run_child(args: list[str], cwd: str = ROOT, timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one child process to completion; the caller is blocked meanwhile."""
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def fix_allocator() -> None:
    """Turn off glibc's adaptive mmap and trim thresholds in this process.

    By default the thresholds move with the sizes of the blocks freed so far,
    so whether a large temporary array costs fresh page faults depends on the
    order of earlier calls: sessions ran 15-25% slower for some seeds than for
    others, in every process.  Fixed thresholds remove that order dependence.
    """
    import ctypes

    libc = ctypes.CDLL(None)
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 32 * 2**20)
    libc.mallopt(m_trim_threshold, 2**30)


def load_refdata() -> dict:
    with open(os.path.join(HERE, "refdata.json"), encoding="utf-8") as handle:
        return json.load(handle)


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values, blocks: int = 5, min_block: int = 100) -> tuple[float, float, int]:
    """Tail latency: (value, percentile, blocks).

    With at least blocks * min_block samples, the samples, in the order
    taken, are cut into `blocks` blocks, else kept as one.  In each block the
    tail is the highest percentile with >= 10 samples beyond it (the maximum
    when a block has fewer than 11); the value returned is the median over
    the blocks, so a few seconds of interference from other tenants moves one
    block, not the result.
    """
    if len(values) < blocks * min_block:
        blocks = 1
    size = len(values) // blocks
    tails = []
    for b in range(blocks):
        ordered = sorted(values[b * size:(b + 1) * size] if b < blocks - 1 else values[b * size:])
        n = len(ordered)
        tails.append((ordered[-1], 100.0) if n < 11 else (ordered[n - 11], 100.0 * (n - 10) / n))
    return median([t[0] for t in tails]), min(t[1] for t in tails), blocks


def rel_close(value: float, reference: float, rel: float = 1e-6) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


class Recorder:
    """In-memory spans (name, start, end, parent index), written out at the end.

    While ``enabled`` is false, span() records nothing, so the same code path
    runs traced and untraced and the difference is the tracing overhead.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, module, attr: str, name: str) -> None:
        """Replace module.attr by a version that runs inside span(name)."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(module, attr, traced)

    def total(self, name: str, parent_name: str | None = None) -> float:
        """Summed duration (s) of spans called name, optionally only those whose
        parent span is called parent_name."""
        out = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            if parent_name is not None and (parent < 0 or self.spans[parent][0] != parent_name):
                continue
            out += end - start
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]

    def timed(self, name: str, func, repeats: int) -> float:
        """Median duration (s) of `repeats` traced calls of func."""
        enabled, self.enabled = self.enabled, True
        try:
            for _ in range(repeats):
                with self.span(name):
                    func()
        finally:
            self.enabled = enabled
        return median(self.durations(name)[-repeats:])

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n"
                )


class Tally:
    """Operations attempted and failed in one run, with the reasons and law tests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tests = 0
        self.failures: dict[str, int] = {}

    def notes(self, unit: str) -> list[str]:
        return [f"FAILED {problem}: {n} {unit}" for problem, n in sorted(self.failures.items())]


def call_and_check(recorder: Recorder, enabled: bool, name: str, call, check, tally: Tally) -> float:
    """One operation: time call() inside span(name), then check its result.

    check(result) returns (problems, law tests made).  An exception or any
    problem counts the operation as failed.  Returns the seconds call() took.
    """
    recorder.enabled = enabled
    tally.attempted += 1
    start = time.perf_counter()
    try:
        with recorder.span(name):
            result = call()
        elapsed = time.perf_counter() - start
        problems, tests = check(result)
        tally.tests += tests
    except Exception as exc:
        elapsed = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    finally:
        recorder.enabled = False
    tally.failed += bool(problems)
    for problem in problems:
        tally.failures[problem] = tally.failures.get(problem, 0) + 1
    return elapsed


def paired(recorder: Recorder, traced: bool, k: int, name: str, call, check, tally: Tally) -> dict[bool, float]:
    """Seconds of operation k, keyed by whether it was traced.

    A traced run makes the call untraced and traced, in an order that
    alternates with k, so their ratio is the tracing overhead.
    """
    order = ([False, True] if k % 2 == 0 else [True, False]) if traced else [False]
    return {
        enabled: call_and_check(recorder, enabled, name, call, check, tally) for enabled in order
    }


class LinprogCounter:
    """Counts calls, simplex iterations and solver time of scipy.optimize.linprog.

    Installed before the package is imported, so a module that binds linprog
    at import time binds this wrapper.
    """

    def __init__(self, recorder: Recorder) -> None:
        import scipy.optimize

        self.calls = 0
        self.nit = 0
        original = scipy.optimize.linprog

        def linprog(*args, **kwargs):
            with recorder.span("scipy.linprog"):
                result = original(*args, **kwargs)
            if recorder.enabled:
                self.calls += 1
                self.nit += int(getattr(result, "nit", 0))
            return result

        scipy.optimize.linprog = linprog


IMPORT_PROBE = """
import sys, time
before = len(sys.modules)
start = time.perf_counter()
import mdiqkd
wall = time.perf_counter() - start
print(wall, len(sys.modules) - before, int("scipy.optimize" in sys.modules))
"""


def import_probe(samples: int = 3) -> dict[str, float]:
    """Import the package in fresh interpreters: wall time, modules loaded, scipy.optimize."""
    walls = []
    modules = loaded = 0
    for _ in range(samples):
        proc = run_child(["-c", IMPORT_PROBE])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-300:]}")
        wall, modules, loaded = proc.stdout.split()
        walls.append(float(wall))
    return {
        "import.wall_ms": 1e3 * median(walls),
        "import.modules": int(modules),
        "import.scipy_optimize_loaded": int(loaded),
    }


def peak_alloc_mb(func) -> float:
    """Peak traced Python allocation (MB) while func runs."""
    import tracemalloc

    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
