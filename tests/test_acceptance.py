"""Acceptance suite: one numbered end-to-end check per test, each printing a verdict.

Run with -s to see the verdict lines on passing tests; failing tests show
them in the captured-output section of the report.
"""

import math
import statistics
import time

import numpy as np
import pytest

from test_cli import reference_gains_path
from test_decoy import REFERENCE_MUS, conclusive_split, population_matrices

from mdiqkd.bsa import BsaInput, DetectorModel, coherent_click_probs, fock_bsa_oracle
from mdiqkd.cli import main
from mdiqkd.decoy import (
    DegenerateBoundError,
    InfeasibleModelError,
    analyze,
    analyze_matrices,
    lp_bound_error,
    lp_bound_yield,
    secret_key_rate,
)
from mdiqkd.optics import SOP_BY_CODE, ChannelModel, standard_classes
from mdiqkd.session import HomScanConfig, SessionConfig, hom_scan, run_session


def verdict(number: int, slug: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {slug}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_acceptance_1_reference_rate_reproduction(tmp_path, capsys) -> None:
    gains_path = reference_gains_path(tmp_path)
    report_path = tmp_path / "report.txt"
    start = time.perf_counter()
    code = main(["rate", gains_path, "--output", str(report_path)])
    elapsed = time.perf_counter() - start
    stderr = capsys.readouterr().err
    if code == 0:
        fields = dict(
            line.split(": ", 1)
            for line in report_path.read_text(encoding="utf-8").splitlines()
            if ": " in line
        )
        rate = float(fields["rate"])
        e11 = float(fields["e11_upper"])
        e_rect = float(fields["e_rect_global"])
        ok = (
            0.832e-6 <= rate <= 1.248e-6
            and abs(e11 - 0.018) <= 0.005
            and abs(e_rect - 0.057) <= 0.003
            and elapsed < 1.0
        )
        verdict(
            1,
            "reference-rate-reproduction",
            ok,
            f"rate={rate:.3e} e11={e11:.4f} E_rect={e_rect:.4f} in {elapsed:.2f}s",
        )
        assert ok
        return
    # Diagnostic context for the refusal: the diagonal-basis programs are
    # feasible but their error bound sits far above the published 0.018.
    diag_y11 = lp_bound_yield(
        np.array(
            [
                [1.87e-5, 6.94e-6, 5.25e-6],
                [6.65e-6, 8.50e-7, 2.50e-7],
                [4.93e-6, 2.08e-7, 4.90e-10],
            ]
        ),
        REFERENCE_MUS,
    )
    diag_e11 = lp_bound_error(
        np.array(
            [
                [1.87e-5, 6.94e-6, 5.25e-6],
                [6.65e-6, 8.50e-7, 2.50e-7],
                [4.93e-6, 2.08e-7, 4.90e-10],
            ]
        ),
        np.array(
            [
                [0.296, 0.393, 0.479],
                [0.378, 0.240, 0.417],
                [0.496, 0.400, 0.500],
            ]
        ),
        REFERENCE_MUS,
    )
    verdict(
        1,
        "reference-rate-reproduction",
        False,
        f"exit {code} in {elapsed:.2f}s; {stderr.strip()}",
    )
    print(
        "  diag-basis programs remain feasible: "
        f"y11_lower={diag_y11:.4e}, e11_upper={diag_e11:.4f} "
        "(published reduction expects e11 = 0.018 +- 0.005)"
    )
    print(
        "  the rectilinear gain matrix admits no truncated yield surface: "
        "the published Q[1,1] entry sits above every reconstruction by ~2e-8"
    )
    pytest.fail(
        "rate on the reference dataset refuses with an infeasibility "
        f"certificate (exit {code}) instead of reproducing the published rate"
    )


def test_acceptance_2_closed_form_rate() -> None:
    rate = secret_key_rate(6.88e-6, 0.018, 1.36e-5, 0.057, 1.164)
    ok = 0.9e-6 <= rate <= 1.1e-6
    verdict(2, "closed-form-rate", ok, f"rate={rate:.6e}")
    assert ok


SINGLE_PHOTON_TABLE = (
    ("rect", 0, 0, 0.0, 0.0),
    ("rect", 1, 1, 0.0, 0.0),
    ("rect", 0, 1, 0.5, 0.5),
    ("rect", 1, 0, 0.5, 0.5),
    ("diag", 2, 2, 1.0, 0.0),
    ("diag", 3, 3, 1.0, 0.0),
    ("diag", 2, 3, 0.0, 1.0),
    ("diag", 3, 2, 0.0, 1.0),
)

WCP_TABLE = (
    ("rect", 0, 1, 0.5, 0.5),
    ("rect", 1, 0, 0.5, 0.5),
    ("diag", 2, 2, 0.75, 0.25),
    ("diag", 3, 3, 0.75, 0.25),
    ("diag", 2, 3, 0.25, 0.75),
    ("diag", 3, 2, 0.25, 0.75),
)


def test_acceptance_3_single_photon_and_wcp_response() -> None:
    start = time.perf_counter()
    detector = DetectorModel(efficiency=1.0, dark_prob=0.0)
    worst = 0.0
    for _, sa, sb, want_plus, want_minus in SINGLE_PHOTON_TABLE:
        plus, minus, total = conclusive_split(
            fock_bsa_oracle(1, 1, SOP_BY_CODE[sa], SOP_BY_CODE[sb])
        )
        if want_plus == want_minus == 0.0:
            worst = max(worst, total)
        else:
            worst = max(worst, abs(plus / total - want_plus), abs(minus / total - want_minus))
    assert worst <= 1e-12

    worst_wcp = 0.0
    mu = 0.005
    for _, sa, sb, want_plus, want_minus in WCP_TABLE:
        plus, minus, total = conclusive_split(
            coherent_click_probs(
                BsaInput(mu, mu, SOP_BY_CODE[sa], SOP_BY_CODE[sb]), detector
            )
        )
        worst_wcp = max(
            worst_wcp, abs(plus / total - want_plus), abs(minus / total - want_minus)
        )
    for sa, sb in ((0, 0), (1, 1)):
        _, _, total = conclusive_split(
            coherent_click_probs(
                BsaInput(mu, mu, SOP_BY_CODE[sa], SOP_BY_CODE[sb]), detector
            )
        )
        assert total <= 1e-12
    elapsed = time.perf_counter() - start
    ok = worst_wcp <= 1e-3 and elapsed < 10.0
    verdict(
        3,
        "analyzer-response-tables",
        ok,
        f"single-photon max dev {worst:.1e}, wcp max dev {worst_wcp:.1e} in {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_4_lp_soundness_suite() -> None:
    rng = np.random.default_rng(20260822)
    start = time.perf_counter()
    unsound = 0
    yield_slacks = []
    error_slacks = []
    for _ in range(100):
        y0 = float(10.0 ** rng.uniform(-5.0, -2.0))
        e0 = float(rng.uniform(0.01, 0.35))
        gains = np.empty((3, 3))
        for i, mu_i in enumerate(REFERENCE_MUS):
            for j, mu_j in enumerate(REFERENCE_MUS):
                gains[i, j] = 1.0 - math.exp(-y0 * (mu_i + mu_j))
        true_y11 = 1.0 - (1.0 - y0) ** 2
        lower = lp_bound_yield(gains, REFERENCE_MUS)
        upper = lp_bound_error(gains, np.full((3, 3), e0), REFERENCE_MUS)
        if lower > true_y11 + 1e-9 or upper < e0 - 1e-9:
            unsound += 1
        yield_slacks.append(1.0 - lower / true_y11)
        error_slacks.append(upper / e0 - 1.0)
    elapsed = time.perf_counter() - start
    median_yield = statistics.median(yield_slacks)
    median_error = statistics.median(error_slacks)
    pooled = statistics.median(yield_slacks + error_slacks)
    ok = unsound == 0 and pooled < 0.05 and elapsed < 60.0
    verdict(
        4,
        "lp-soundness-suite",
        ok,
        f"sound {100 - unsound}/100; median slack yield {median_yield:.1%}, "
        f"error {median_error:.1%}, pooled {pooled:.1%} in {elapsed:.1f}s",
    )
    if unsound:
        pytest.fail(f"{unsound} of 100 instances violated soundness")
    if not ok:
        pytest.fail(
            f"bounds are sound in all 100 instances but the pooled median slack "
            f"{pooled:.1%} exceeds the 5% target (the diagonal-basis error "
            "program plateaus near 19% slack at this mu set)"
        )


def test_acceptance_5_end_to_end_session() -> None:
    config = SessionConfig(
        pulses=1_000_000_000,
        seed=11,
        classes=standard_classes(0.5, 0.1),
        class_probs=(0.25, 0.5, 0.25),
        channel_a=ChannelModel(loss_db=19.5, misalignment=0.019),
        channel_b=ChannelModel(loss_db=19.5),
        detector=DetectorModel(efficiency=1.0, dark_prob=1.5e-5),
        batch_gates=1_000_000,
    )
    start = time.perf_counter()
    tables = run_session(config, workers=2)
    sim_elapsed = time.perf_counter() - start
    target = 1.59e-6
    outcome = ""
    try:
        result = analyze(tables)
    except InfeasibleModelError as exc:
        outcome = f"analyze refused: {exc}"
    except DegenerateBoundError as exc:
        outcome = f"analyze degenerate: {exc}"
    else:
        ok = result.rate > 0.0 and target / 2.0 <= result.rate <= target * 2.0
        verdict(
            5,
            "end-to-end-session",
            ok,
            f"rate={result.rate:.3e} (target {target:.2e} x/2) "
            f"sim {sim_elapsed:.0f}s",
        )
        assert ok
        return
    verdict(5, "end-to-end-session", False, f"sim {sim_elapsed:.0f}s; {outcome[:160]}")
    limit = analyze_matrices(population_matrices())
    print(
        "  population limit of this exact configuration: "
        f"y11={limit.y11_lower:.4e} e11={limit.e11_upper:.4f} rate={limit.rate:.3e}"
    )
    print(
        "  even with infinite statistics the bounding programs give a negative "
        "rate at these parameters; at finite N the integer-count granularity "
        "(~1e-9 per cell) additionally exceeds the truncation-7 Poisson tail "
        "slack (~4e-13 for the decoy-decoy pair), so the gain brackets cannot "
        "be satisfied and the pipeline refuses with a certificate"
    )
    pytest.fail(f"no positive rate at N=1e9: {outcome[:200]}")


def test_acceptance_6_interference_dip() -> None:
    start = time.perf_counter()
    scan = hom_scan(
        HomScanConfig(
            mu=0.1,
            pulse_width_ns=1.5,
            delays_ns=tuple(float(t) for t in np.arange(-3.0, 3.01, 0.25)),
            pulses_per_point=5_000_000,
            seed=17,
            detector=DetectorModel(efficiency=0.25),
        )
    )
    elapsed = time.perf_counter() - start
    at = {float(t): k for k, t in enumerate(scan.delays_ns)}
    center = at[0.0]
    center_dev = abs(scan.visibility[center] - 0.5)
    center_ok = center_dev <= 3.0 * scan.visibility_stderr[center]
    tail_ok = all(
        abs(scan.visibility[k]) <= 3.0 * scan.visibility_stderr[k]
        for tau, k in at.items()
        if abs(tau) >= 1.5
    )
    order = np.argsort(np.abs(scan.delays_ns), kind="stable")
    vis = scan.visibility[order]
    err = scan.visibility_stderr[order]
    monotone_ok = all(
        vis[k + 1] <= vis[k] + 3.0 * (err[k] + err[k + 1]) for k in range(len(vis) - 1)
    )
    width = scan.dip_width_ns()
    width_ok = 1.5 <= width <= 3.0
    ok = center_ok and tail_ok and monotone_ok and width_ok and elapsed < 60.0
    verdict(
        6,
        "interference-dip",
        ok,
        f"V(0)={scan.visibility[center]:.3f}+-{scan.visibility_stderr[center]:.3f}, "
        f"width={width:.2f}ns in {elapsed:.1f}s",
    )
    assert ok


def test_acceptance_7_worker_determinism() -> None:
    config = SessionConfig(
        pulses=10_000_000,
        seed=29,
        classes=standard_classes(0.5, 0.1),
        class_probs=(0.25, 0.5, 0.25),
        channel_a=ChannelModel(loss_db=19.5, misalignment=0.019),
        channel_b=ChannelModel(loss_db=19.5),
        detector=DetectorModel(efficiency=1.0, dark_prob=1.5e-5),
        batch_gates=1_000_000,
    )
    start = time.perf_counter()
    results = [run_session(config, workers=w) for w in (1, 2, 8)]
    elapsed = time.perf_counter() - start
    identical = results[0] == results[1] == results[2]
    ok = identical and elapsed < 60.0
    verdict(
        7,
        "worker-determinism",
        ok,
        f"workers 1/2/8 {'bit-identical' if identical else 'DIVERGED'} in {elapsed:.1f}s",
    )
    assert ok
