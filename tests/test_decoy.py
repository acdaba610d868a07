"""Bounding pipeline: entropy, closed forms, LP bounds, count reduction."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.optimize

from mdiqkd.bsa import BsaInput, DetectorModel, coherent_click_probs
from mdiqkd.decoy import (
    DEFAULT_F_EC,
    DEFAULT_TRUNCATION,
    MAX_TRUNCATION,
    DegenerateBoundError,
    GainErrorMatrices,
    InfeasibleModelError,
    InsufficientCountsError,
    _bracket_program,
    _error_bound,
    _error_programs,
    _poisson_rows,
    _solve,
    analyze,
    analyze_matrices,
    lp_bound_error,
    lp_bound_yield,
    matrices_from_counts,
    secret_key_rate,
    shannon_entropy,
    single_photon_gain,
)
from mdiqkd.optics import (
    SOP_BY_CODE,
    ChannelModel,
    ParameterError,
    attenuate,
    poisson_pmf,
    standard_classes,
)
from mdiqkd.session import COUNT_COLUMNS, CountTables, SessionConfig, run_session

# Reference campaign dataset: measured gain and error matrices for the nine
# intensity-class pairs, plus the published reduction of that dataset.
REFERENCE_MUS = (0.5, 0.1, 0.0)
REFERENCE_Q_RECT = np.array(
    [
        [9.44e-6, 2.19e-6, 3.96e-7],
        [2.02e-6, 6.25e-7, 4.17e-8],
        [3.08e-7, 4.17e-8, 4.90e-10],
    ]
)
REFERENCE_Q_DIAG = np.array(
    [
        [1.87e-5, 6.94e-6, 5.25e-6],
        [6.65e-6, 8.50e-7, 2.50e-7],
        [4.93e-6, 2.08e-7, 4.90e-10],
    ]
)
REFERENCE_E_RECT = np.array(
    [
        [0.057, 0.093, 0.463],
        [0.107, 0.060, 0.400],
        [0.378, 0.300, 0.500],
    ]
)
REFERENCE_E_DIAG = np.array(
    [
        [0.296, 0.393, 0.479],
        [0.378, 0.240, 0.417],
        [0.496, 0.400, 0.500],
    ]
)
REFERENCE_Q11 = 6.88e-6
REFERENCE_E11 = 0.018
REFERENCE_Q_RECT_GLOBAL = 1.36e-5
REFERENCE_E_RECT_GLOBAL = 0.057

# Frozen outputs of the bounding programs on the reference dataset.  The
# programs are deterministic, so these pin exact behavior; the tolerance
# covers solver-version drift only.
FROZEN_RECT_SLACK = 2.1332235569268875e-08
FROZEN_Y11_DIAG_T7 = 4.1630432195847165e-05
FROZEN_Y11_DIAG_T10 = 4.270529435399542e-05
FROZEN_E11_T7 = 0.09566155260717014
FROZEN_E11_T10 = 0.09110894064980826

# Binary entropy anchors computed with the decimal module at 40 digits.
H2_REFERENCE_E11 = 0.13005884617909683
H2_REFERENCE_E_RECT = 0.3154190889380807

# HiGHS's default small_matrix_value: it ignores matrix entries this small.
HIGHS_SMALL = 1e-9

PSI_PLUS_PATTERNS = (0b0011, 0b1100)
PSI_MINUS_PATTERNS = (0b1001, 0b0110)


def reference_matrices() -> GainErrorMatrices:
    return GainErrorMatrices(
        mus=REFERENCE_MUS,
        q_rect=REFERENCE_Q_RECT.copy(),
        q_diag=REFERENCE_Q_DIAG.copy(),
        e_rect=REFERENCE_E_RECT.copy(),
        e_diag=REFERENCE_E_DIAG.copy(),
    )


def conclusive_split(response) -> tuple[float, float, float]:
    probs = response.pattern_probs
    plus = float(sum(probs[p] for p in PSI_PLUS_PATTERNS))
    minus = float(sum(probs[p] for p in PSI_MINUS_PATTERNS))
    return plus, minus, plus + minus


def population_matrices(loss_db: float = 19.5) -> GainErrorMatrices:
    # Infinite-pulse limit of the acceptance-5 session, at loss_db per link:
    # analyzer response mixed over the channel-A misalignment flip, tabulated
    # by preparation.
    detector = DetectorModel(efficiency=1.0, dark_prob=1.5e-5)
    mis = 0.019
    cells = {
        "rect": ((0, 0), (0, 1), (1, 0), (1, 1)),
        "diag": ((2, 2), (2, 3), (3, 2), (3, 3)),
    }
    q = {name: np.empty((3, 3)) for name in cells}
    e = {name: np.empty((3, 3)) for name in cells}
    for i in range(3):
        for j in range(3):
            mu_a = attenuate(REFERENCE_MUS[i], loss_db)
            mu_b = attenuate(REFERENCE_MUS[j], loss_db)
            for basis, basis_cells in cells.items():
                total = wrong = 0.0
                for sa, sb in basis_cells:
                    plus = minus = 0.0
                    for flip, weight in ((0, 1.0 - mis), (1, mis)):
                        response = coherent_click_probs(
                            BsaInput(mu_a, mu_b, SOP_BY_CODE[sa ^ flip], SOP_BY_CODE[sb]),
                            detector,
                        )
                        p, m, _ = conclusive_split(response)
                        plus += weight * p
                        minus += weight * m
                    total += plus + minus
                    same_bit = (sa & 1) == (sb & 1)
                    if basis == "rect":
                        wrong += (plus + minus) if same_bit else 0.0
                    else:
                        wrong += minus if same_bit else plus
                q[basis][i, j] = total / 4.0
                e[basis][i, j] = wrong / total
    return GainErrorMatrices(
        mus=REFERENCE_MUS,
        q_rect=q["rect"],
        q_diag=q["diag"],
        e_rect=e["rect"],
        e_diag=e["diag"],
    )


def test_shannon_entropy_anchors() -> None:
    assert shannon_entropy(0.0) == 0.0
    assert shannon_entropy(1.0) == 0.0
    assert shannon_entropy(0.5) == 1.0
    assert shannon_entropy(REFERENCE_E11) == pytest.approx(H2_REFERENCE_E11, abs=1e-15)
    assert shannon_entropy(REFERENCE_E_RECT_GLOBAL) == pytest.approx(
        H2_REFERENCE_E_RECT, abs=1e-15
    )
    for p in (0.018, 0.057, 0.3, 0.49):
        assert shannon_entropy(p) == pytest.approx(shannon_entropy(1.0 - p), rel=1e-14)
    with pytest.raises(ParameterError):
        shannon_entropy(-0.01)
    with pytest.raises(ParameterError):
        shannon_entropy(1.01)


def test_single_photon_gain_closed_form() -> None:
    assert single_photon_gain(1.0, 0.5) == pytest.approx(0.25 * math.exp(-1.0), rel=1e-14)
    assert single_photon_gain(0.0, 0.5) == 0.0
    with pytest.raises(ParameterError):
        single_photon_gain(1.5, 0.5)
    for mu_signal in (0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ParameterError, match="mu_signal"):
            single_photon_gain(0.5, mu_signal)


def test_secret_key_rate_reference_reduction() -> None:
    rate = secret_key_rate(
        REFERENCE_Q11,
        REFERENCE_E11,
        REFERENCE_Q_RECT_GLOBAL,
        REFERENCE_E_RECT_GLOBAL,
        f_ec=DEFAULT_F_EC,
    )
    expected = REFERENCE_Q11 * (1.0 - H2_REFERENCE_E11) - (
        REFERENCE_Q_RECT_GLOBAL * H2_REFERENCE_E_RECT * DEFAULT_F_EC
    )
    assert rate == pytest.approx(expected, rel=1e-12)
    assert rate == pytest.approx(9.919847927624202e-07, rel=1e-12)
    assert 0.9e-6 <= rate <= 1.1e-6
    for f_ec in (0.99, math.nan, math.inf):
        with pytest.raises(ParameterError):
            secret_key_rate(1e-6, 0.02, 1e-5, 0.057, f_ec=f_ec)
    for bad in (-1e-6, math.nan, math.inf):
        with pytest.raises(ParameterError, match="q11"):
            secret_key_rate(bad, 0.02, 1e-5, 0.057)
        with pytest.raises(ParameterError, match="q_rect"):
            secret_key_rate(1e-6, 0.02, bad, 0.057)


def geometric_gains(y0: float, mus=REFERENCE_MUS) -> np.ndarray:
    # Yields 1 - (1 - y0)^(m + n) give exact closed-form gains with all
    # Poisson tails included, so the surface is feasible at any truncation.
    out = np.empty((3, 3))
    for i, mu_i in enumerate(mus):
        for j, mu_j in enumerate(mus):
            out[i, j] = 1.0 - math.exp(-y0 * (mu_i + mu_j))
    return out


def test_yield_bound_sound_and_tight_on_closed_family() -> None:
    for y0 in (1e-4, 1e-3, 1e-2):
        true_y11 = 1.0 - (1.0 - y0) ** 2
        for truncation in (DEFAULT_TRUNCATION, MAX_TRUNCATION):
            bound = lp_bound_yield(geometric_gains(y0), REFERENCE_MUS, truncation)
            assert bound <= true_y11 + 1e-9
            assert bound >= 0.90 * true_y11


def test_true_surface_meets_the_brackets_the_solver_sees() -> None:
    # With the entries the solver ignores zeroed, the true surface must still
    # fit every bracket: a dropped weight has to widen its bracket, not vanish.
    for truncation in (15, 30, MAX_TRUNCATION):
        rows, tails = _poisson_rows(REFERENCE_MUS, truncation)
        m, n = np.divmod(np.arange((truncation + 1) ** 2), truncation + 1)
        for y0 in (1e-4, 1e-3, 1e-2):
            program = _bracket_program(rows, tails, [geometric_gains(y0)])
            n_brackets = len(program.b_eq)
            a = program.a_eq[:, :-n_brackets].copy()
            a[np.abs(a) <= HIGHS_SMALL] = 0.0
            slack = program.b_eq - a @ (1.0 - (1.0 - y0) ** (m + n))[program.cells]
            widths = program.bounds[-n_brackets:, 1]
            assert np.all(slack >= -1e-12)
            assert np.all(slack <= widths + 1e-12)


def test_error_bound_sound_on_closed_family() -> None:
    for y0, e0 in ((1e-3, 0.02), (1e-3, 0.25), (1e-2, 0.10)):
        gains = geometric_gains(y0)
        qbers = np.full((3, 3), e0)
        bound = lp_bound_error(gains, qbers, REFERENCE_MUS)
        assert bound >= e0 - 1e-9
        assert bound <= 0.5 + 1e-12
        assert lp_bound_yield(gains, REFERENCE_MUS) > 0.0
        if y0 == 1e-3:
            assert bound <= 1.30 * e0


def test_error_bound_sound_on_random_surfaces() -> None:
    # Bilinear yield surfaces with random coefficients, evaluated in closed
    # form over the full Poisson support.
    rng = np.random.default_rng(7)
    for _ in range(5):
        a, b, c = rng.uniform(1e-4, 5e-2, size=3)
        e0 = float(rng.uniform(0.01, 0.3))

        def yield_at(m: int, n: int) -> float:
            return min(1.0, a + b * (m + n) + c * m * n)

        gains = np.empty((3, 3))
        for i, mu_i in enumerate(REFERENCE_MUS):
            for j, mu_j in enumerate(REFERENCE_MUS):
                pm_i = poisson_pmf(mu_i, np.arange(61))
                pm_j = poisson_pmf(mu_j, np.arange(61))
                gains[i, j] = sum(
                    pm_i[m] * pm_j[n] * yield_at(m, n)
                    for m in range(61)
                    for n in range(61)
                )
        true_y11 = yield_at(1, 1)
        yb = lp_bound_yield(gains, REFERENCE_MUS)
        assert yb <= true_y11 + 1e-9
        eb = lp_bound_error(gains, np.full((3, 3), e0), REFERENCE_MUS)
        assert eb >= e0 - 1e-9


def test_zero_error_surfaces_give_zero_bound() -> None:
    gains = geometric_gains(1e-3)
    bound = lp_bound_error(gains, np.zeros((3, 3)), REFERENCE_MUS)
    assert bound == 0.0


def test_degenerate_bound_on_vanishing_gains() -> None:
    with pytest.raises(DegenerateBoundError):
        lp_bound_error(np.zeros((3, 3)), np.full((3, 3), 0.5), REFERENCE_MUS)
    # Feasible rectilinear gains do not hide a degenerate diagonal basis.
    gains = geometric_gains(1e-3)
    with pytest.raises(DegenerateBoundError):
        analyze_matrices(
            GainErrorMatrices(
                mus=REFERENCE_MUS, q_rect=gains, q_diag=np.zeros((3, 3)),
                e_rect=np.full((3, 3), 0.03), e_diag=np.full((3, 3), 0.5),
            )
        )
    # Yields 1e-3 where a sender has no photon and 0 elsewhere: Y11 = 0 fits
    # these gains, and these error rates fit no (Y, YE) pair.  The degeneracy
    # is named first.
    photon = 1.0 - np.exp(-np.array(REFERENCE_MUS))
    qbers = np.full((3, 3), 0.05)
    qbers[2, 2] = 0.0
    qbers[0, 2] = qbers[2, 0] = 1.0
    with pytest.raises(DegenerateBoundError):
        lp_bound_error(1e-3 * (1.0 - np.outer(photon, photon)), qbers, REFERENCE_MUS)
    # Gains scaled toward zero, where Y11 = 0 fits too: the ratio program
    # solves, and the zero Y11 lower bound is refused.
    with pytest.raises(DegenerateBoundError):
        lp_bound_error(1e-9 * geometric_gains(1e-3), np.full((3, 3), 0.05), REFERENCE_MUS)


def test_error_bound_refuses_a_ratio_vertex_with_t_zero() -> None:
    # When the largest diagonal gain sits below the solver's primal tolerance,
    # the ratio program may stop at t = 0, where z / t has no value.  Such a
    # vertex is refused, not reported as a bound.
    rows, tails = _poisson_rows(REFERENCE_MUS, DEFAULT_TRUNCATION)
    programs = _error_programs(rows, tails, geometric_gains(1e-3), np.full((3, 3), 0.05))
    y_x, ratio_x = _solve(programs)
    ratio_x[-1] = 0.0
    with pytest.raises(DegenerateBoundError, match="t = 0"):
        _error_bound(y_x, ratio_x, programs, rows.shape[1])


def test_tiny_diagonal_gains_give_one_bound() -> None:
    # Diagonal gains far below the truncation tails leave Y11 near 6e-11.
    # The ratio program still solves, to the same bound from both entry points.
    errors = np.full((3, 3), 0.05)
    for y0, factor in ((1e-3, 1e-7), (1e-2, 1e-8)):
        q_diag = factor * geometric_gains(y0)
        bound = lp_bound_error(q_diag, errors, REFERENCE_MUS)
        result = analyze_matrices(
            GainErrorMatrices(
                mus=REFERENCE_MUS, q_rect=geometric_gains(y0), q_diag=q_diag,
                e_rect=errors, e_diag=errors.copy(),
            )
        )
        assert bound >= 0.05
        assert result.e11_upper == pytest.approx(bound, rel=1e-9)


def test_analysis_at_the_truncation_ceiling() -> None:
    # The programs keep only the cells whose weight the solver can see, so
    # they stop growing near T = 15 and an analysis at the ceiling needs
    # under 2 MiB.
    y0, e0 = 1e-3, 0.05
    gains = geometric_gains(y0)
    errors = np.full((3, 3), e0)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=gains, q_diag=gains.copy(),
        e_rect=errors, e_diag=errors.copy(),
    )
    tracemalloc.start()
    try:
        result = analyze_matrices(matrices, truncation=MAX_TRUNCATION)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.y11_lower <= 1.0 - (1.0 - y0) ** 2 + 1e-9
    assert result.e11_upper >= e0 - 1e-9
    assert peak < 4 * 2**20


def test_reference_rect_gains_are_infeasible() -> None:
    with pytest.raises(InfeasibleModelError) as excinfo:
        lp_bound_yield(REFERENCE_Q_RECT, REFERENCE_MUS)
    assert "Q[1,1]" in str(excinfo.value)
    slacks = {(name, i, j): s for name, i, j, s in excinfo.value.violations}
    assert ("Q", 1, 1) in slacks
    assert slacks[("Q", 1, 1)] == pytest.approx(FROZEN_RECT_SLACK, rel=1e-6)
    assert 1.0e-8 <= slacks[("Q", 1, 1)] <= 5.0e-8


def test_inconsistent_error_brackets_raise_certificate() -> None:
    # The yield brackets are met, but error rate 1 on the signal-vacuum pairs
    # next to 5% on the other pairs that see the same (m, 0) and (0, n) yields
    # fits no error-weighted surface with 0 <= YE <= Y.
    qbers = np.full((3, 3), 0.05)
    qbers[2, 2] = 0.0
    qbers[0, 2] = qbers[2, 0] = 1.0
    gains = geometric_gains(1e-3)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=gains, q_diag=gains.copy(),
        e_rect=np.full((3, 3), 0.03), e_diag=qbers,
    )
    for run in (
        lambda: lp_bound_error(gains, qbers, REFERENCE_MUS),
        # Feasible rectilinear gains: the analysis names the same brackets.
        lambda: analyze_matrices(matrices),
    ):
        with pytest.raises(InfeasibleModelError) as excinfo:
            run()
        slacks = {(name, i, j): s for name, i, j, s in excinfo.value.violations}
        assert set(slacks) == {("QE", 0, 2), ("QE", 2, 0)}
        for slack in slacks.values():
            assert slack == pytest.approx(4.736e-4, rel=1e-3)


def test_reference_analysis_raises_certificate() -> None:
    with pytest.raises(InfeasibleModelError) as excinfo:
        analyze_matrices(reference_matrices())
    # The rectilinear certificate comes first.
    with pytest.raises(InfeasibleModelError) as rect_excinfo:
        lp_bound_yield(REFERENCE_Q_RECT, REFERENCE_MUS)
    assert excinfo.value.violations == rect_excinfo.value.violations


def test_reference_diag_bounds_frozen() -> None:
    assert lp_bound_yield(REFERENCE_Q_DIAG, REFERENCE_MUS) == pytest.approx(
        FROZEN_Y11_DIAG_T7, rel=1e-6
    )
    assert lp_bound_error(
        REFERENCE_Q_DIAG, REFERENCE_E_DIAG, REFERENCE_MUS
    ) == pytest.approx(FROZEN_E11_T7, rel=1e-6)


def test_truncation_tightens_both_bounds() -> None:
    y7 = lp_bound_yield(REFERENCE_Q_DIAG, REFERENCE_MUS, truncation=7)
    y10 = lp_bound_yield(REFERENCE_Q_DIAG, REFERENCE_MUS, truncation=10)
    assert y10 == pytest.approx(FROZEN_Y11_DIAG_T10, rel=1e-6)
    assert y10 >= y7
    e7 = lp_bound_error(REFERENCE_Q_DIAG, REFERENCE_E_DIAG, REFERENCE_MUS, 7)
    e10 = lp_bound_error(REFERENCE_Q_DIAG, REFERENCE_E_DIAG, REFERENCE_MUS, 10)
    assert e10 == pytest.approx(FROZEN_E11_T10, rel=1e-6)
    assert e10 <= e7


def test_raising_the_truncation_never_loosens_a_bound() -> None:
    # A program at a higher truncation models cells the lower one only
    # brackets, so neither bound may loosen, beyond the soundness slack.
    # The 25 dB population instance is where the cut moves the bounds most.
    errors = np.full((3, 3), 0.05)
    instances = [
        GainErrorMatrices(
            mus=REFERENCE_MUS, q_rect=geometric_gains(y0), q_diag=geometric_gains(y0),
            e_rect=errors, e_diag=errors.copy(),
        )
        for y0 in (1e-4, 1e-3, 1e-2)
    ]
    for matrices in [*instances, population_matrices(25.0)]:
        low, high = (analyze_matrices(matrices, truncation=t) for t in (7, 15))
        assert high.y11_lower >= low.y11_lower - 1e-9
        assert high.e11_upper <= low.e11_upper + 1e-9


def test_widening_a_bracket_never_tightens_a_bound() -> None:
    # Raising one pair's tail T_ij widens its gain and error-weighted
    # brackets, which only enlarges the feasible set, so y11 may not rise and
    # e11 may not fall, beyond solver round-off.
    errors = np.full((3, 3), 0.05)
    instances = [
        GainErrorMatrices(
            mus=REFERENCE_MUS, q_rect=geometric_gains(y0), q_diag=geometric_gains(y0),
            e_rect=errors, e_diag=errors.copy(),
        )
        for y0 in (1e-4, 1e-3, 1e-2)
    ]
    for matrices in [*instances, population_matrices(), population_matrices(25.0)]:
        for truncation in (7, 15):
            rows, tails = _poisson_rows(matrices.mus, truncation)

            def bounds(rect_tails: np.ndarray, diag_tails: np.ndarray) -> tuple[float, float]:
                rect = _bracket_program(rows, rect_tails, [matrices.q_rect])
                diag = _error_programs(rows, diag_tails, matrices.q_diag, matrices.e_diag)
                rect_x, *diag_x = _solve([rect, *diag])
                return float(rect.c @ rect_x), _error_bound(*diag_x, diag, rows.shape[1])

            y11, e11 = bounds(tails, tails)
            for (i, j), fraction in itertools.product(np.ndindex(3, 3), (1e-6, 1e-3, 0.1)):
                rect_tails, diag_tails = tails.copy(), tails.copy()
                rect_tails[i, j] += fraction * matrices.q_rect[i, j]
                diag_tails[i, j] += fraction * matrices.q_diag[i, j]
                wide_y11, wide_e11 = bounds(rect_tails, diag_tails)
                assert wide_y11 <= y11 * (1.0 + 1e-9)
                assert wide_e11 >= e11 * (1.0 - 1e-9)


def synthetic_tables() -> CountTables:
    pulses_sent = np.zeros((3, 3, 4, 4), dtype=np.int64)
    counts = np.zeros((3, 3, 4, 4, 7), dtype=np.int64)
    rect_cells = ((0, 0), (0, 1), (1, 0), (1, 1))
    diag_cells = ((2, 2), (2, 3), (3, 2), (3, 3))
    for i in range(3):
        for j in range(3):
            for sa, sb in rect_cells + diag_cells:
                pulses_sent[i, j, sa, sb] = 1000
    c12 = COUNT_COLUMNS.index("c12")
    c14 = COUNT_COLUMNS.index("c14")
    # Signal-signal rectilinear: 10 conclusive in each matched-bit cell
    # (all errors), 30 in each crossed-bit cell (no errors).
    counts[0, 0, 0, 0, c12] = 10
    counts[0, 0, 1, 1, c12] = 10
    counts[0, 0, 0, 1, c12] = 30
    counts[0, 0, 1, 0, c12] = 30
    # Signal-signal diagonal: matched-bit cell with 70 correlated and 30
    # anticorrelated outcomes.
    counts[0, 0, 2, 2, c12] = 70
    counts[0, 0, 2, 2, c14] = 30
    return CountTables(
        class_labels=("signal", "decoy", "vacuum"),
        class_mus=(0.5, 0.1, 0.0),
        pulses_total=int(pulses_sent.sum()),
        seed=0,
        mode="sweep",
        pulses_sent=pulses_sent,
        counts=counts,
    )


def test_gains_from_counts_exact() -> None:
    tables = synthetic_tables()
    matrices, _ = matrices_from_counts(tables)
    # Gains: the mean conclusive rate over the four same-basis cells.
    assert matrices.q_rect[0, 0] == pytest.approx((10 + 10 + 30 + 30) / 4 / 1000, rel=1e-12)
    assert matrices.q_rect[2, 2] == 0.0
    assert matrices.q_diag[0, 0] == pytest.approx(100 / 4 / 1000, rel=1e-12)
    empty = dataclasses.replace(tables, pulses_sent=tables.pulses_sent.copy())
    empty.pulses_sent[0, 0, 0, 0] = 0
    with pytest.raises(InsufficientCountsError, match=r"cell \(0, 0, 0, 0\)"):
        matrices_from_counts(empty)
    # The first empty cell in (basis, i, j, sa, sb) order is named: a rect
    # cell before any diag cell, even one of an earlier pair, then the diag
    # cells in (i, j, sa, sb) order.
    empty.pulses_sent[0, 0, 0, 0] = 1000
    empty.pulses_sent[2, 0, 2, 2] = 0
    empty.pulses_sent[1, 2, 3, 2] = 0
    empty.pulses_sent[2, 1, 1, 0] = 0
    with pytest.raises(InsufficientCountsError, match=r"cell \(2, 1, 1, 0\)"):
        matrices_from_counts(empty)
    empty.pulses_sent[2, 1, 1, 0] = 1000
    with pytest.raises(InsufficientCountsError, match=r"cell \(1, 2, 3, 2\)"):
        matrices_from_counts(empty)


def test_errors_from_counts_semantics() -> None:
    tables = synthetic_tables()
    matrices, warnings = matrices_from_counts(tables)
    # Matched bits are always wrong in the rectilinear basis: 20 of 80.
    assert matrices.e_rect[0, 0] == pytest.approx(20 / 80, rel=1e-12)
    # Matched diagonal bits are wrong only for anticorrelated outcomes.
    assert matrices.e_diag[0, 0] == pytest.approx(30 / 100, rel=1e-12)
    assert any(w.startswith("rect") and "(2, 2)" in w for w in warnings)
    assert matrices.e_rect[2, 2] == 0.5
    assert any(w.startswith("diag") and "(0, 1)" in w for w in warnings)
    assert matrices.e_diag[0, 1] == 0.5


def test_matrices_from_counts_composition() -> None:
    tables = synthetic_tables()
    matrices, warnings = matrices_from_counts(tables)
    assert matrices.mus == (0.5, 0.1, 0.0)
    # Pairs without conclusive counts default to 0.5 and warn, rect pairs
    # first, each basis in (i, j) order.
    assert warnings == [
        f"{basis} intensity pair ({i}, {j}) has no conclusive counts; "
        "error rate defaulted to 0.5"
        for basis in ("rect", "diag")
        for i, j in np.ndindex(3, 3)
        if (i, j) != (0, 0)
    ]


def test_matrices_validation() -> None:
    good = reference_matrices()
    with pytest.raises(ParameterError):
        GainErrorMatrices(
            mus=(0.1, 0.5, 0.0),
            q_rect=good.q_rect,
            q_diag=good.q_diag,
            e_rect=good.e_rect,
            e_diag=good.e_diag,
        )
    with pytest.raises(ParameterError):
        GainErrorMatrices(
            mus=(math.inf, 0.1, 0.0),
            q_rect=good.q_rect,
            q_diag=good.q_diag,
            e_rect=good.e_rect,
            e_diag=good.e_diag,
        )
    with pytest.raises(ParameterError):
        GainErrorMatrices(
            mus=(0.5, 0.1, 1e-6),
            q_rect=good.q_rect,
            q_diag=good.q_diag,
            e_rect=good.e_rect,
            e_diag=good.e_diag,
        )
    with pytest.raises(ParameterError):
        GainErrorMatrices(
            mus=REFERENCE_MUS,
            q_rect=np.zeros((3, 2)),
            q_diag=good.q_diag,
            e_rect=good.e_rect,
            e_diag=good.e_diag,
        )
    with pytest.raises(ParameterError):
        GainErrorMatrices(
            mus=REFERENCE_MUS,
            q_rect=good.q_rect,
            q_diag=good.q_diag,
            e_rect=good.e_rect + 1.0,
            e_diag=good.e_diag,
        )


def test_analyze_small_session_raises_certificate() -> None:
    # Integer-count granularity at modest N cannot satisfy the Poisson
    # bracket widths, so the pipeline must refuse with a certificate.
    config = SessionConfig(
        pulses=200_000,
        seed=5,
        classes=standard_classes(),
        class_probs=(0.5, 0.25, 0.25),
        channel_a=ChannelModel(loss_db=3.0, misalignment=0.019),
        channel_b=ChannelModel(loss_db=3.0),
        detector=DetectorModel(efficiency=0.5, dark_prob=1.5e-5),
        batch_gates=100_000,
    )
    tables = run_session(config)
    with pytest.raises(InfeasibleModelError) as excinfo:
        analyze(tables)
    assert len(excinfo.value.violations) > 0


def test_analyze_matrices_result_fields_on_feasible_input() -> None:
    y0, e0 = 1e-3, 0.03
    gains = geometric_gains(y0)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS,
        q_rect=gains,
        q_diag=gains.copy(),
        e_rect=np.full((3, 3), e0),
        e_diag=np.full((3, 3), e0),
    )
    result = analyze_matrices(matrices)
    assert result.truncation == DEFAULT_TRUNCATION
    assert result.f_ec == DEFAULT_F_EC
    assert result.mus == REFERENCE_MUS
    assert result.warnings == ()
    assert 0.0 < result.y11_lower <= 1.0 - (1.0 - y0) ** 2 + 1e-9
    assert result.e11_upper >= e0 - 1e-9
    assert result.q11 == pytest.approx(
        single_photon_gain(result.y11_lower, 0.5), rel=1e-12
    )
    assert result.q_rect_measured == gains[0, 0]
    assert result.e_rect_global == e0
    # Error correction is charged on the measured signal gain and error rate.
    assert result.rate == secret_key_rate(
        result.q11, result.e11_upper, gains[0, 0], e0, result.f_ec
    )


def test_rate_charges_error_correction_on_the_measured_gain() -> None:
    # At 25 dB per link a gain rebuilt from the rectilinear program's optimal
    # vertex, with the cells it leaves out at the cap, sits about 5% above the
    # measured one.  The rate reads the measured gain, not any vertex.
    matrices = population_matrices(25.0)
    result = analyze_matrices(matrices)
    assert result.rate == secret_key_rate(
        result.q11, result.e11_upper, matrices.q_rect[0, 0], matrices.e_rect[0, 0], result.f_ec
    )


def test_analyze_matrices_solve_count(monkeypatch) -> None:
    # The rectilinear yield, the diagonal yield and the error ratio are the
    # blocks of one linear program, solved once.  It holds no entry the
    # solver would ignore, in the equality or the inequality rows, and no
    # column past the cells the solver can see, so it is as large at
    # truncation 30 as at the ceiling.
    calls = []
    real_linprog = scipy.optimize.linprog

    def recording_linprog(c, **kwargs):
        entries = np.abs(np.concatenate([kwargs["A_eq"].data, kwargs["A_ub"].data]))
        calls.append((len(c), entries, kwargs["options"]))
        return real_linprog(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
    gains = geometric_gains(1e-3)
    errors = np.full((3, 3), 0.03)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=gains, q_diag=gains.copy(),
        e_rect=errors, e_diag=errors.copy(),
    )
    for count, truncation in enumerate((DEFAULT_TRUNCATION, 30, MAX_TRUNCATION), 1):
        analyze_matrices(matrices, truncation=truncation)
        assert len(calls) == count
    for _, entries, options in calls:
        assert not np.any((entries > 0.0) & (entries <= HIGHS_SMALL))
        # Presolve costs more than it saves on programs this small.
        assert options["presolve"] is False
    assert calls[1][0] == calls[2][0]


def test_solver_failure_on_consistent_data_is_raised_once(monkeypatch) -> None:
    # When the stacked program fails on data that every diagnosis accepts,
    # the solver's message is raised after the diagnosis, without a second
    # attempt at the stack.
    widths = []
    real_linprog = scipy.optimize.linprog

    def failing_stack(c, **kwargs):
        widths.append(len(c))
        if len(c) == widths[0]:
            return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties", x=None)
        return real_linprog(c, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", failing_stack)
    gains = geometric_gains(1e-3)
    errors = np.full((3, 3), 0.03)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=gains, q_diag=gains.copy(),
        e_rect=errors, e_diag=errors.copy(),
    )
    with pytest.raises(
        DegenerateBoundError, match=r"^linear program failed: numerical difficulties$"
    ):
        analyze_matrices(matrices)
    # The elastic programs of the three bracket sets and the denominator's
    # own solve ran; the stack was solved once.
    assert len(widths) == 5
    assert widths.count(widths[0]) == 1


def test_failed_elastic_solve_is_a_refusal(monkeypatch) -> None:
    # When the diagnosis's own elastic program fails too, nothing is known
    # about the data: its solver message is the refusal, and no later
    # program is tried.
    calls = []

    def failing(c, **kwargs):
        calls.append(len(c))
        return scipy.optimize.OptimizeResult(status=4, message="numerical difficulties", x=None)

    monkeypatch.setattr(scipy.optimize, "linprog", failing)
    gains = geometric_gains(1e-3)
    with pytest.raises(
        DegenerateBoundError, match=r"^linear program failed: numerical difficulties$"
    ):
        lp_bound_yield(gains, REFERENCE_MUS)
    assert len(calls) == 2


TINY_GAIN_MUS = (0.31640625, 0.00158203125, 0.0)


def tiny_gain_matrices() -> GainErrorMatrices:
    # The geometric surface with y0 = 1e-7 and every error rate 1/64: data
    # that meet every bracket, with a largest gain of 6.3e-8.
    gains = geometric_gains(1e-7, TINY_GAIN_MUS)
    errors = np.full((3, 3), 0.015625)
    return GainErrorMatrices(
        mus=TINY_GAIN_MUS, q_rect=gains, q_diag=gains.copy(), e_rect=errors, e_diag=errors.copy()
    )


def test_solver_failure_on_tiny_consistent_gains_is_a_refusal() -> None:
    # Up to truncation 12 these gains give bounds.  From 15 on the solver
    # fails on the stacked program while every elastic diagnosis accepts the
    # data; that failure is a refusal (exit 2), not a bare RuntimeError.
    # Better conditioning of the ratio program would turn it into a bound.
    matrices = tiny_gain_matrices()
    assert analyze_matrices(matrices, truncation=12).e11_upper == pytest.approx(0.01567, rel=1e-3)
    for truncation in (15, 30):
        with pytest.raises(DegenerateBoundError, match=r"^linear program failed: "):
            analyze_matrices(matrices, truncation=truncation)


def asymmetric_matrices() -> GainErrorMatrices:
    # Yields 1 - (1 - a)^m (1 - b)^n and error-weighted yields c (1 - (1 -
    # a')^m (1 - b')^n) with a' <= a, b' <= b, c <= 1: closed-form gains,
    # feasible at any truncation, and different for the two senders.
    mus = np.array(REFERENCE_MUS)

    def gains(a: float, b: float) -> np.ndarray:
        return 1.0 - np.exp(-a * mus[:, None] - b * mus[None, :])

    q = gains(2e-3, 5e-4)
    e = np.divide(0.1 * gains(1e-3, 2e-4), q, out=np.full((3, 3), 0.5), where=q > 0.0)
    return GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=q, q_diag=q.copy(), e_rect=e, e_diag=e.copy()
    )


def test_swapping_the_senders_changes_no_bound() -> None:
    # Transposing every matrix swaps Alice and Bob, which must leave both
    # bounds as they are.  The inputs differ between the senders, so the check
    # is not vacuous.
    matrices = asymmetric_matrices()
    names = ("q_rect", "q_diag", "e_rect", "e_diag")
    swapped = GainErrorMatrices(matrices.mus, *(getattr(matrices, n).T for n in names))
    for name in names:
        assert not np.allclose(getattr(matrices, name), getattr(swapped, name), rtol=1e-3)
    true_y11 = 1.0 - (1.0 - 2e-3) * (1.0 - 5e-4)
    true_e11 = 0.1 * (1.0 - (1.0 - 1e-3) * (1.0 - 2e-4)) / true_y11
    for truncation in (DEFAULT_TRUNCATION, 30):
        result = analyze_matrices(matrices, truncation=truncation)
        mirror = analyze_matrices(swapped, truncation=truncation)
        assert result.y11_lower <= true_y11
        assert result.e11_upper >= true_e11
        assert mirror.y11_lower == pytest.approx(result.y11_lower, rel=1e-9)
        assert mirror.e11_upper == pytest.approx(result.e11_upper, rel=1e-9)


def test_analyze_matrices_checks_f_ec_before_solving(monkeypatch) -> None:
    # A bad rate factor is refused before the first linear program.
    calls = []
    real_linprog = scipy.optimize.linprog

    def counting_linprog(*args, **kwargs):
        calls.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting_linprog)
    gains = geometric_gains(1e-3)
    errors = np.full((3, 3), 0.03)
    matrices = GainErrorMatrices(
        mus=REFERENCE_MUS, q_rect=gains, q_diag=gains.copy(),
        e_rect=errors, e_diag=errors.copy(),
    )
    for f_ec in (math.nan, math.inf, 0.5):
        with pytest.raises(ParameterError, match=r"f_ec must be finite and >= 1, got"):
            analyze_matrices(matrices, f_ec=f_ec)
    assert calls == []


def test_lp_input_validation() -> None:
    with pytest.raises(ParameterError):
        lp_bound_yield(np.zeros((2, 3)), REFERENCE_MUS)
    with pytest.raises(ParameterError):
        lp_bound_yield(geometric_gains(1e-3), REFERENCE_MUS, truncation=1)
    with pytest.raises(ParameterError):
        lp_bound_yield(geometric_gains(1e-3), REFERENCE_MUS, truncation=MAX_TRUNCATION + 1)
    with pytest.raises(ParameterError):
        lp_bound_error(
            geometric_gains(1e-3), np.zeros((3, 3)), REFERENCE_MUS, MAX_TRUNCATION + 1
        )
    with pytest.raises(ParameterError):
        lp_bound_error(geometric_gains(1e-3), np.zeros((2, 2)), REFERENCE_MUS)
    nan_gains = geometric_gains(1e-3)
    nan_gains[1, 1] = math.nan
    with pytest.raises(ParameterError, match="finite"):
        lp_bound_yield(nan_gains, REFERENCE_MUS)
    with pytest.raises(ParameterError, match="finite"):
        lp_bound_error(nan_gains, np.zeros((3, 3)), REFERENCE_MUS)
    with pytest.raises(ParameterError, match="finite"):
        lp_bound_error(geometric_gains(1e-3), np.full((3, 3), math.inf), REFERENCE_MUS)
    with pytest.raises(ParameterError, match="finite"):
        lp_bound_error(geometric_gains(1e-3), np.full((3, 3), 1.5), REFERENCE_MUS)
    with pytest.raises(ParameterError, match="3 entries"):
        lp_bound_yield(geometric_gains(1e-3), (0.5, 0.0))
    with pytest.raises(ParameterError, match="3 entries"):
        lp_bound_error(geometric_gains(1e-3), np.zeros((3, 3)), (0.5, 0.1, 0.05, 0.0))
    # The one (signal, decoy, vacuum) rule: a decoy equal to or above the
    # signal, or a vacuum above 0, is refused as GainErrorMatrices refuses it.
    for mus in ((0.5, 0.5, 0.0), (0.1, 0.5, 0.0), (0.5, 0.1, 0.01)):
        with pytest.raises(ParameterError, match="vacuum mu|signal > decoy"):
            lp_bound_yield(np.full((3, 3), 1e-3), mus)
        with pytest.raises(ParameterError, match="vacuum mu|signal > decoy"):
            lp_bound_error(np.full((3, 3), 1e-3), np.full((3, 3), 0.05), mus)
    with pytest.raises(ParameterError):
        poisson_pmf(-0.5, np.arange(3))
