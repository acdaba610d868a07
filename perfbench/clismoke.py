"""cli-smoke: each subcommand of `python -m mdiqkd.cli` as a subprocess, one at a time.

Interpreter start plus package import is most of each call, so a change to
start-up shows here and nowhere else.  A cycle runs the five subcommands in
a seeded order on small inputs the benchmark writes itself:

* simulate: a short session config on one of the sim-session channels;
  the counts file it writes is checked against the population law;
* analyze: a counts file of population expectations at 1e10 pulses per cell.
  Sampled counts are not used because every sampled file tried (1e5 to 1e7
  gates, 0 / 10 / 19.5 dB) is refused today: integer counts cannot land in
  the zero-width gain brackets (acceptance check 5).  Expectation counts are
  feasible and their bounds are recorded in refdata.json;
* rate: the gains file of a population-law instance of refdata.json;
* hom-scan: a short interference scan, checked against the binomial law of
  each delay point;
* table1: the analyzer response table, checked against acceptance check 3.
"""

from __future__ import annotations

import os
import time
from types import SimpleNamespace

import numpy as np

from mdiqkd import cli, decoy, io_formats, session
from mdiqkd.bsa import BsaInput, DetectorModel, coherent_click_probs
from mdiqkd.optics import SOP_BY_CODE

import sim
from common import Recorder, Tally, call_and_check, load_refdata, median, paired, rel_close, run_child
from law import ALPHA, CLASS_LABELS, MUS, column_law, expectation_counts, law_failures

SUBCOMMANDS = ("simulate", "analyze", "rate", "hom-scan", "table1")
SIM_GATES = 200_000
HOM = {"mu": 0.1, "width": 1.5, "start": -3.0, "stop": 3.0, "points": 25, "pulses": 200_000}
HOM_DETECTOR = DetectorModel(efficiency=0.25)
C13 = 0b0101
SOP_TOKENS = ("H", "V", "+", "-")
# Acceptance check 3: (single-photon psi+, psi-, weak-coherent psi+, psi-) per row.
TABLE1 = (
    (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5), (0.5, 0.5, 0.5, 0.5),
    (1.0, 0.0, 0.75, 0.25), (1.0, 0.0, 0.75, 0.25), (0.0, 1.0, 0.25, 0.75), (0.0, 1.0, 0.25, 0.75),
)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def session_config_text(channel: str, seed: int) -> str:
    loss, mis = sim.CHANNELS[channel]
    lines = [
        f"pulses = {SIM_GATES}",
        f"seed = {seed}",
        "mode = random",
        "class_probs = " + " ".join(repr(p) for p in sim.CLASS_PROBS),
        f"channel_a.loss_db = {loss!r}",
        f"channel_a.misalignment = {mis!r}",
        f"channel_b.loss_db = {loss!r}",
        f"detector.dark_prob = {sim.DETECTOR.dark_prob!r}",
    ]
    return "\n".join(lines) + "\n"


def hom_config_text(seed: int) -> str:
    lines = [
        f"mu = {HOM['mu']!r}",
        f"pulse_width_ns = {HOM['width']!r}",
        f"delays.start_ns = {HOM['start']!r}",
        f"delays.stop_ns = {HOM['stop']!r}",
        f"delays.points = {HOM['points']}",
        f"pulses_per_point = {HOM['pulses']}",
        f"seed = {seed}",
        f"detector.efficiency = {HOM_DETECTOR.efficiency!r}",
    ]
    return "\n".join(lines) + "\n"


def counts_text(pulses: np.ndarray, counts: np.ndarray) -> str:
    """A counts file (mdiqkd-counts 1.0) written without the package's formatter."""
    lines = [
        "format: mdiqkd-counts 1.0",
        "classes: " + " ".join(f"{label}={mu!r}" for label, mu in zip(CLASS_LABELS, MUS)),
        f"pulses_total: {int(pulses.sum())}",
        "seed: 0",
        "mode: random",
        "sifted: false",
        "repetition_rate_hz: 1000000.0",
        "columns: class_a class_b sop_a sop_b pulses_sent c12 c34 c14 c23 c13 c24 other",
    ]
    for cell in np.ndindex(pulses.shape):
        ia, ib, sa, sb = cell
        numbers = [int(pulses[cell])] + [int(c) for c in counts[cell]]
        lines.append(
            " ".join([CLASS_LABELS[ia], CLASS_LABELS[ib], SOP_TOKENS[sa], SOP_TOKENS[sb]])
            + " " + " ".join(map(str, numbers))
        )
    return "\n".join(lines) + "\n"


def gains_text(entry: dict) -> str:
    """A gains file (mdiqkd-gains 1.0) written without the package's formatter."""
    lines = [
        "format: mdiqkd-gains 1.0",
        "mus: " + " ".join(repr(mu) for mu in entry["mus"]),
        "columns: mu_a mu_b q_rect q_diag e_rect e_diag",
    ]
    for i in range(3):
        for j in range(3):
            values = [entry["mus"][i], entry["mus"][j]] + [
                entry[key][i][j] for key in ("q_rect", "q_diag", "e_rect", "e_diag")
            ]
            lines.append(" ".join(repr(float(v)) for v in values))
    return "\n".join(lines) + "\n"


def _header_and_rows(text: str) -> tuple[dict[str, str], list[list[str]]]:
    header, rows = {}, []
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        key, sep, value = line.partition(": ")
        if sep and not rows and key.replace("_", "").isalnum():
            header[key] = value
        else:
            rows.append(line.split())
    return header, rows


def read_counts(text: str) -> SimpleNamespace:
    header, rows = _header_and_rows(text)
    labels = [token.partition("=")[0] for token in header["classes"].split()]
    pulses = np.zeros((3, 3, 4, 4), dtype=np.int64)
    counts = np.zeros((3, 3, 4, 4, 7), dtype=np.int64)
    for row in rows:
        cell = (labels.index(row[0]), labels.index(row[1]),
                SOP_TOKENS.index(row[2]), SOP_TOKENS.index(row[3]))
        pulses[cell] = int(row[4])
        counts[cell] = [int(v) for v in row[5:12]]
    return SimpleNamespace(pulses_total=int(header["pulses_total"]), pulses_sent=pulses, counts=counts)


class Inputs:
    """Seeded inputs of one cycle, and the checks of each subcommand's output."""

    def __init__(self, workdir: str, refdata: dict) -> None:
        self.workdir = workdir
        self.refdata = refdata
        self.laws: dict = {}
        self.hom_law = self._hom_law()

    def _law(self, key, loss, mis, dark):
        if key not in self.laws:
            self.laws[key] = column_law(loss, loss, mis, 0.0, DetectorModel(dark_prob=dark))
        return self.laws[key]

    def _hom_law(self) -> tuple[np.ndarray, float]:
        sop = SOP_BY_CODE[0]
        mu, width = HOM["mu"], HOM["width"]
        delays = np.linspace(HOM["start"], HOM["stop"], HOM["points"])
        p_ind = np.array([
            coherent_click_probs(
                BsaInput(mu, mu, sop, sop, overlap=max(0.0, 1.0 - abs(t) / width) ** 2), HOM_DETECTOR
            ).pattern_probs[C13]
            for t in delays
        ])
        p_dis = coherent_click_probs(BsaInput(mu, mu, sop, sop, overlap=0.0), HOM_DETECTOR).pattern_probs[C13]
        return p_ind, float(p_dis)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self, rng: np.random.Generator) -> None:
        self.channel = list(sim.CHANNELS)[int(rng.integers(len(sim.CHANNELS)))]
        _write(self.path("session.cfg"), session_config_text(self.channel, int(rng.integers(1, 2**31))))
        _write(self.path("hom.cfg"), hom_config_text(int(rng.integers(1, 2**31))))
        n_pop = len(self.refdata["population"])
        self.counts_index = int(rng.integers(n_pop))
        self.gains_index = int(rng.integers(n_pop))
        entry = self.refdata["population"][self.counts_index]
        law = self._law(self.counts_index, entry["loss_db"], entry["misalignment"], entry["dark_prob"])
        pulses, counts = expectation_counts(law, self.refdata["expectation_pulses_per_cell"])
        _write(self.path("counts.txt"), counts_text(pulses, counts))
        _write(self.path("gains.txt"), gains_text(self.refdata["population"][self.gains_index]))

    def argv(self, sub: str) -> list[str]:
        inputs = {"simulate": ["session.cfg"], "analyze": ["counts.txt"], "rate": ["gains.txt"],
                  "hom-scan": ["hom.cfg"], "table1": []}[sub]
        return [sub, *[self.path(name) for name in inputs], "--output", self.path(f"{sub}.out")]

    def check(self, sub: str) -> tuple[list[str], int]:
        """Failed checks of a subcommand's output file, and the law tests made."""
        with open(self.path(f"{sub}.out"), encoding="utf-8") as handle:
            text = handle.read()
        if sub == "simulate":
            loss, mis = sim.CHANNELS[self.channel]
            law = self._law(self.channel, loss, mis, sim.DETECTOR.dark_prob)
            return sim.check_tables(read_counts(text), "random", SIM_GATES, law)
        if sub in ("analyze", "rate"):
            header, _ = _header_and_rows(text)
            if sub == "analyze":
                ref = self.refdata["reference"]["7"]["expectation_counts"][self.counts_index]
            else:
                ref = self.refdata["reference"]["7"]["population"][self.gains_index]
            values = (float(header["y11_lower"]), float(header["e11_upper"]))
            ok = all(rel_close(v, r) for v, r in zip(values, ref))
            return ([] if ok else [f"{sub} bounds differ from the recorded optimum"]), 0
        if sub == "hom-scan":
            _, rows = _header_and_rows(text)
            p_ind, p_dis = self.hom_law
            if len(rows) != len(p_ind):
                return ["hom-scan row count"], 0
            n = HOM["pulses"]
            observed = np.array([[round(float(r[1]) * n), round(float(r[2]) * n)] for r in rows])
            expected = n * np.column_stack([p_ind, np.full_like(p_ind, p_dis)])
            bad = law_failures(observed, expected)
            return ([f"hom-scan rates against the binomial law ({bad} points)"] if bad else []), observed.size
        rows = [line.split()[3:] for line in text.splitlines()[2:]]
        ok = len(rows) == len(TABLE1) and all(
            all(abs(float(v) - w) <= tol for v, w, tol in zip(row, want, (1e-6, 1e-6, 1e-3, 1e-3)))
            for row, want in zip(rows, TABLE1)
        )
        return ([] if ok else ["table1 values"]), 0


def warm_up(workdir: str) -> None:
    cli.main(["table1", "--output", os.path.join(workdir, "warm-up.out")])


def run(seed: int, seconds: float, recorder: Recorder, traced: bool, workdir: str) -> dict:
    inputs = Inputs(workdir, load_refdata())
    rng = np.random.default_rng([seed, 4])
    latencies: list[float] = []
    walls: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    mains: dict[str, list[float]] = {sub: [] for sub in SUBCOMMANDS}
    ratios: list[float] = []
    tally = Tally()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        inputs.prepare(rng)
        for k in rng.permutation(len(SUBCOMMANDS)):
            sub = SUBCOMMANDS[k]
            argv = inputs.argv(sub)
            wall = call_and_check(
                recorder, False, "cli.subprocess",
                lambda: run_child(["-m", "mdiqkd.cli", *argv], cwd=workdir),
                lambda proc: _checked(inputs, sub, proc.returncode, proc.stderr),
                tally,
            )
            latencies.append(wall)
            walls[sub].append(wall)
            if traced:
                # The same call in-process: the traced time is cli.main_ms.
                times = paired(
                    recorder, True, len(ratios), "cli.main",
                    lambda: cli.main(argv),
                    lambda code: _checked(inputs, sub, code, ""),
                    tally,
                )
                ratios.append(times[True] / times[False])
                mains[sub].append(times[True])

    out = {
        "latencies": latencies,
        "work": len(latencies),
        "tally": tally,
        "notes": [
            f"subprocess calls {len(latencies)}, {len(walls['simulate'])} per subcommand; "
            f"law tests {tally.tests}, false-alarm probability per run <= {2 * ALPHA * tally.tests:.1e}",
        ] + tally.notes("calls"),
        "ratios": ratios,
        "named": {
            f"cli_{sub.replace('-', '_')}_s": (median(walls[sub]), "s", len(walls[sub]))
            for sub in SUBCOMMANDS
        },
    }
    if traced:
        out["bounds"] = len(mains["analyze"]) + len(mains["rate"])
        out["layers"] = _layers(recorder, inputs, walls, mains)
    return out


def _checked(inputs: Inputs, sub: str, code: int, stderr: str) -> tuple[list[str], int]:
    if code != 0:
        return [f"{sub} exit {code}: {stderr.strip()[-200:]}"], 0
    try:
        return inputs.check(sub)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{sub} output unreadable: {type(exc).__name__}: {exc}"], 0


SCIPY_PROBE = """
import runpy, sys
sys.argv = ["mdiqkd.cli", *sys.argv[1:]]
try:
    runpy.run_module("mdiqkd.cli", run_name="__main__")
except SystemExit:
    pass
print(int("scipy.optimize" in sys.modules))
"""


def _layers(recorder: Recorder, inputs: Inputs, walls: dict, mains: dict) -> dict:
    main_s = [median(mains[sub]) for sub in SUBCOMMANDS]
    wall_s = [median(walls[sub]) for sub in SUBCOMMANDS]
    loaded = 0
    for sub in SUBCOMMANDS:
        proc = run_child(["-c", SCIPY_PROBE, *inputs.argv(sub)], cwd=inputs.workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"scipy probe of {sub} failed: {proc.stderr.strip()[-300:]}")
        loaded += int(proc.stdout.split()[-1])

    tables = io_formats.load_counts(inputs.path("counts.txt"))
    text = io_formats.format_counts(tables)
    result = decoy.analyze(tables)
    report = io_formats.ResultReport(result=result, input_sha256="0" * 64, seed=tables.seed)
    hom_config = io_formats.load_hom_config(inputs.path("hom.cfg"))
    io_bytes = sum(
        os.path.getsize(path)
        for sub in SUBCOMMANDS
        for path in inputs.argv(sub)
        if os.path.isfile(path)
    )
    layers = {
        "cli.main_ms": 1e3 * sum(main_s) / len(main_s),
        "cli.process_overhead_ms": 1e3 * (sum(wall_s) - sum(main_s)) / len(main_s),
        "cli.scipy_optimize_subcommands": loaded,
        "session.hom_scan_ms": 1e3 * recorder.timed("session.hom_scan", lambda: session.hom_scan(hom_config), 5),
        "io_formats.format_counts_ms": 1e3 * recorder.timed(
            "io_formats.format_counts", lambda: io_formats.format_counts(tables), 10),
        "io_formats.parse_counts_ms": 1e3 * recorder.timed(
            "io_formats.parse_counts", lambda: io_formats.parse_counts(text), 10),
        "io_formats.format_report_ms": 1e3 * recorder.timed(
            "io_formats.format_report", lambda: io_formats.format_report(report), 10),
        "io_formats.bytes": io_bytes,
        "decoy.matrices_from_counts_ms": 1e3 * recorder.timed(
            "decoy.matrices_from_counts", lambda: decoy.matrices_from_counts(tables), 10),
    }
    return layers
