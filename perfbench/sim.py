"""sim-session: a seeded mix of run_session calls, one at a time, one worker.

Session sampling does nearly all the work here and the bounding programs do
none.  Each cycle of nine calls holds every (mode, channel) pair in fixed
proportion, in a seeded order, so the seed changes the inputs but not the mix:

* random mode twice per channel and sweep mode once per channel; sweep mode
  draws no preparation randomness, so it uses the session layer differently;
* channels: the reference channel (19.5 dB, misalignment 0.019 on link A,
  dark 1.5e-5), a lossless channel without misalignment (no flip draws), and
  a 10 dB channel.

Outputs are checked against the law of the counts (law.py), never against
the bits of an earlier sampler.
"""

from __future__ import annotations

import time

import numpy as np

from mdiqkd import io_formats, session
from mdiqkd.bsa import BsaInput, DetectorModel, coherent_click_probs
from mdiqkd.optics import SOP_BY_CODE, ChannelModel, attenuate, standard_classes
from mdiqkd.session import SessionConfig

from common import Recorder, Tally, median, paired, peak_alloc_mb
from law import AGREE, ALPHA, MUS, SWEEP_SLOTS, column_law, law_failures

GATES = 500_000
CLASS_PROBS = (0.25, 0.5, 0.25)
RECT_PROB = 0.5
DETECTOR = DetectorModel(dark_prob=1.5e-5)
# name: (loss_db, misalignment of link A); link B has the same loss, no misalignment.
CHANNELS = {"ref": (19.5, 0.019), "clean": (0.0, 0.0), "10dB": (10.0, 0.019)}
CYCLE = [("random", name) for name in CHANNELS for _ in range(2)] + [
    ("sweep", name) for name in CHANNELS
]
SPEEDUP_GATES = 6_000_000


def make_config(mode: str, channel: str, seed: int, pulses: int = GATES) -> SessionConfig:
    loss, mis = CHANNELS[channel]
    return SessionConfig(
        pulses=pulses,
        seed=seed,
        classes=standard_classes(MUS[0], MUS[1]),
        class_probs=CLASS_PROBS,
        channel_a=ChannelModel(loss_db=loss, misalignment=mis),
        channel_b=ChannelModel(loss_db=loss),
        detector=DETECTOR,
        rect_prob=RECT_PROB,
        mode=mode,
    )


def prep_law() -> np.ndarray:
    """P(prepared cell) in random mode, shape (3, 3, 4, 4)."""
    states = np.array([RECT_PROB / 2] * 2 + [(1.0 - RECT_PROB) / 2] * 2)
    per_side = np.outer(CLASS_PROBS, states)
    return np.einsum("ik,jl->ijkl", per_side, per_side)


def sweep_pulses(pulses: int) -> np.ndarray:
    """Exact pulses per cell of a sweep-mode session: gate g goes to slot g mod 72."""
    out = np.zeros((3, 3, 4, 4), dtype=np.int64)
    n_slots = len(SWEEP_SLOTS)
    for slot, cell in enumerate(SWEEP_SLOTS):
        out[cell] = (pulses - slot + n_slots - 1) // n_slots
    return out


def check_tables(tables, mode: str, pulses: int, law: np.ndarray) -> tuple[list[str], int]:
    """Failed checks of one session's tables, and the number of law tests made."""
    sent, counts = tables.pulses_sent, tables.counts
    failures = []
    if tables.pulses_total != pulses or int(sent.sum()) != pulses:
        failures.append("pulses_sent total")
    if np.any(counts[~AGREE] != 0):
        failures.append("counts in mismatched-basis cells")
    if np.any(counts.sum(axis=-1)[AGREE] != sent[AGREE]):
        failures.append("agreeing-basis rows do not sum to pulses_sent")
    tests = 0
    if mode == "sweep":
        if not np.array_equal(sent, sweep_pulses(pulses)):
            failures.append("sweep pulses per slot")
    else:
        tests += sent.size
        if law_failures(sent, pulses * prep_law()):
            failures.append("pulses_sent against the preparation law")
    expected = sent[AGREE][:, None] * law[AGREE]
    tests += expected.size + expected.shape[1]
    if law_failures(counts[AGREE], expected):
        failures.append("cell counts against the population law")
    if law_failures(counts[AGREE].sum(axis=0), expected.sum(axis=0)):
        failures.append("column totals against the population law")
    return failures, tests


def round_trip(tables, recorder: Recorder) -> bool:
    """format_counts -> parse_counts gives the same tables and the same bytes."""
    with recorder.span("io_formats.format_counts"):
        text = io_formats.format_counts(tables)
    with recorder.span("io_formats.parse_counts"):
        back = io_formats.parse_counts(text)
    return back == tables and io_formats.format_counts(back) == text


def warm_up(workdir: str) -> None:
    session.run_session(make_config("random", "ref", 1, pulses=10_000))


def run(seed: int, seconds: float, recorder: Recorder, traced: bool, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 1])
    laws = {
        name: column_law(loss, loss, mis, 0.0, DETECTOR) for name, (loss, mis) in CHANNELS.items()
    }
    latencies: list[float] = []
    ratios: list[float] = []
    repeated: set[tuple[str, str]] = set()
    tally = Tally()

    def check(tables, mode, channel, config) -> tuple[list[str], int]:
        problems, tests = check_tables(tables, mode, GATES, laws[channel])
        if not round_trip(tables, recorder):
            problems.append("format/parse round trip")
        if (mode, channel) not in repeated:
            repeated.add((mode, channel))
            recorder.enabled = False
            if session.run_session(config) != tables:
                problems.append("same-seed repeat differs")
        return problems, tests

    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for k in rng.permutation(len(CYCLE)):
            mode, channel = CYCLE[k]
            config = make_config(mode, channel, int(rng.integers(1, 2**31)))
            times = paired(
                recorder, traced, len(latencies), "session.run_session",
                lambda: session.run_session(config),
                lambda tables: check(tables, mode, channel, config),
                tally,
            )
            if traced:
                ratios.append(times[True] / times[False])
            latencies.append(times[traced])

    out = {
        "latencies": latencies,
        "work": GATES * len(latencies),
        "tally": tally,
        "notes": [
            f"sessions {len(latencies)} of {GATES} gates; law tests {tally.tests}, "
            f"false-alarm probability per run <= {2 * ALPHA * tally.tests:.1e}",
            f"same-seed repeats {len(repeated)}",
        ] + tally.notes("sessions"),
        "ratios": ratios,
    }
    if traced:
        out["layers"] = _layers(recorder, len(latencies))
    return out


def _response_table(loss: float) -> None:
    """The 144 analyzer responses a session on a channel of this loss needs."""
    mus = [attenuate(mu, loss) for mu in MUS]
    for ia in range(3):
        for ib in range(3):
            for sa in range(4):
                for sb in range(4):
                    coherent_click_probs(
                        BsaInput(mus[ia], mus[ib], SOP_BY_CODE[sa], SOP_BY_CODE[sb]), DETECTOR
                    )


def _speedup_2w(recorder: Recorder) -> float:
    config = make_config("random", "ref", 7, pulses=SPEEDUP_GATES)
    one = recorder.timed("session.run_session.workers_1", lambda: session.run_session(config), 2)
    two = recorder.timed(
        "session.run_session.workers_2", lambda: session.run_session(config, workers=2), 2
    )
    return one / two


def _layers(recorder: Recorder, n: int) -> dict:
    run_s = recorder.total("session.run_session")
    n_round_trips = len(recorder.durations("io_formats.format_counts"))
    return {
        "bsa.response_table_ms": 1e3 * median(
            recorder.timed("bsa.response_table", lambda loss=loss: _response_table(loss), 3)
            for loss, _ in CHANNELS.values()
        ),
        "session.run_ms": 1e3 * run_s / n,
        "session.ns_per_gate": 1e9 * run_s / (GATES * n),
        "session.peak_alloc_mb": peak_alloc_mb(
            lambda: session.run_session(make_config("random", "ref", 3))
        ),
        "session.speedup_2w": _speedup_2w(recorder),
        "io_formats.format_counts_ms": 1e3 * recorder.total("io_formats.format_counts") / n_round_trips,
        "io_formats.parse_counts_ms": 1e3 * recorder.total("io_formats.parse_counts") / n_round_trips,
    }
