"""Golden corpus of CLI outputs: the invocations, and the script that records them.

Each case runs `mdiqkd.cli.main` in process, in a fresh directory holding a
copy of `inputs/`, so every path the program prints is relative.  What it
leaves is recorded in `expected/<case>.<stream>`:

* `exit`: the exit code;
* `stdout`, `stderr`: the text written to each;
* `warnings`: the message of each warning raised, one per line (not the
  rendered warning line, which carries a source path);
* `output`: the file written by `--output out.txt`.

A stream left empty gets no file.  `tests/test_golden.py` reruns every case
and compares the bytes exactly.  The bytes depend on numpy's PCG64 stream
and multinomial sampler and on scipy's HiGHS solver; `VERSIONS` records the
versions the corpus was written with.

The inputs are fixed test data:

* `session.cfg`, `sweep.cfg`, `hom.cfg`: session and scan configs;
* `misspelt.cfg` (the key `channel_a.los_db`), `bad_classes.cfg` (a decoy
  brighter than the signal) and `huge_grid.cfg` (a scan grid of 10**15
  delays): configs the reader refuses;
* `feasible_counts.txt`: `format_counts` of `synthetic_feasible_tables()`
  from `tests/test_cli.py`, and `extra_key_counts.txt`, the same with an
  unknown `operator: alice` header line;
* `small_counts.txt`: `simulate session.cfg`, a file the bounds refuse;
* the three counts inputs were written at counts format 1.0, with its
  `sifted` and `repetition_rate_hz` header lines, and are kept so: they
  are the corpus's cases of the 1.x read path;
* `population_gains.txt`: `format_gains` of population entry 7 (10 dB,
  misalignment 0.019) of `perfbench/refdata.json`;
* `reference_gains.txt`: `format_gains` of the reference matrices of
  `tests/test_decoy.py`, which the bounds refuse;
* `tiny_gains.txt`: `format_gains` of the exact gains
  1 - exp(-1e-7 (mu_i + mu_j)) at mus (0.31640625, 0.00158203125, 0) with
  every error rate 0.015625 (`tiny_gain_matrices()` of `tests/test_decoy.py`),
  consistent data on which the solver fails at truncation 15.

Run `python3 tests/golden/regenerate.py` from the repository root to rewrite
`expected/` and `VERSIONS`.  A rewritten corpus is changed test data: record
which files moved, and why, with the change that moved them.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
EXPECTED = HERE / "expected"
VERSIONS = HERE / "VERSIONS"
OUTPUT = "out.txt"
STREAMS = ("exit", "stdout", "stderr", "warnings", "output")

CASES: dict[str, tuple[str, ...]] = {
    "simulate-random": ("simulate", "session.cfg", "--output", OUTPUT),
    "simulate-sweep": ("simulate", "sweep.cfg"),
    "simulate-flags": ("simulate", "session.cfg", "--seed", "8", "--pulses", "30000",
                       "--output", OUTPUT),
    "hom-scan-flags": ("hom-scan", "hom.cfg", "--pulses", "20000", "--seed", "9",
                       "--output", OUTPUT),
    "table1": ("table1",),
    "table1-mu": ("table1", "--mu", "0.1", "--output", OUTPUT),
    "analyze-t7": ("analyze", "feasible_counts.txt", "--truncation", "7", "--output", OUTPUT),
    "analyze-t15": ("analyze", "feasible_counts.txt", "--truncation", "15"),
    "analyze-t30": ("analyze", "feasible_counts.txt", "--truncation", "30", "--output", OUTPUT),
    "analyze-unknown-header-key": ("analyze", "extra_key_counts.txt", "--output", OUTPUT),
    "rate-population": ("rate", "population_gains.txt", "--output", OUTPUT),
    "refuse-analyze-small": ("analyze", "small_counts.txt", "--output", OUTPUT),
    "refuse-rate-reference": ("rate", "reference_gains.txt", "--output", OUTPUT),
    "refuse-rate-tiny-gain": ("rate", "tiny_gains.txt", "--truncation", "15",
                              "--output", OUTPUT),
    "refuse-unknown-config-key": ("simulate", "misspelt.cfg", "--output", OUTPUT),
    "refuse-intensities": ("simulate", "bad_classes.cfg", "--output", OUTPUT),
    "refuse-seed-flag": ("simulate", "session.cfg", "--seed", "-1", "--output", OUTPUT),
    "refuse-hom-grid": ("hom-scan", "huge_grid.cfg", "--output", OUTPUT),
    "refuse-table1-mu": ("table1", "--mu", "-1", "--output", OUTPUT),
}


def run_case(argv: tuple[str, ...]) -> dict[str, str]:
    """The non-empty streams of one CLI run, by stream name."""
    from mdiqkd import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        shutil.copytree(INPUTS, workdir, dirs_exist_ok=True)
        os.chdir(workdir)
        try:
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(list(argv))
            output = Path(OUTPUT).read_text(encoding="utf-8") if Path(OUTPUT).exists() else ""
        finally:
            os.chdir(cwd)
    streams = {
        "exit": f"{code}\n",
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": "".join(f"{w.message}\n" for w in caught),
        "output": output,
    }
    return {name: text for name, text in streams.items() if text}


def expected(case: str) -> dict[str, str]:
    """The recorded streams of one case, by stream name."""
    paths = (EXPECTED / f"{case}.{name}" for name in STREAMS)
    return {p.suffix[1:]: p.read_text(encoding="utf-8") for p in paths if p.exists()}


def versions() -> str:
    import numpy
    import scipy

    python = ".".join(map(str, sys.version_info[:3]))
    return f"python {python}\nnumpy {numpy.__version__}\nscipy {scipy.__version__}\n"


def main() -> None:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    shutil.rmtree(EXPECTED, ignore_errors=True)
    EXPECTED.mkdir()
    for case, argv in CASES.items():
        for name, text in run_case(argv).items():
            with open(EXPECTED / f"{case}.{name}", "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    VERSIONS.write_text(versions(), encoding="utf-8")


if __name__ == "__main__":
    main()
