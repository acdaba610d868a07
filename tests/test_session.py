"""Session engine: determinism, conservation, sweep mode, dip scan."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2

import mdiqkd.bsa
import mdiqkd.session
from mdiqkd.bsa import (
    COINCIDENCE_PATTERNS,
    BsaInput,
    DetectorModel,
    coherent_click_probs,
)
from mdiqkd.optics import (
    ChannelModel,
    IntensityClass,
    ParameterError,
    SOP_BY_CODE,
    attenuate,
    standard_classes,
)
from mdiqkd.session import (
    COUNT_COLUMNS,
    MAX_DELAY_POINTS,
    CountTables,
    HomScanConfig,
    HomScanResult,
    SWEEP_SLOTS,
    SessionConfig,
    hom_scan,
    run_session,
)

Z_LIMIT = 5.0


def make_config(**overrides) -> SessionConfig:
    base = dict(
        pulses=1_000_000,
        seed=13,
        classes=standard_classes(),
        class_probs=(0.5, 0.25, 0.25),
        channel_a=ChannelModel(loss_db=3.0, misalignment=0.019),
        channel_b=ChannelModel(loss_db=3.0, misalignment=0.019),
        detector=DetectorModel(efficiency=0.5, dark_prob=1.5e-5),
        batch_gates=200_000,
    )
    base.update(overrides)
    return SessionConfig(**base)


def test_worker_count_does_not_change_results() -> None:
    config = make_config()
    single = run_session(config, workers=1)
    double = run_session(config, workers=2)
    assert single == double
    for batch_gates in (1, 999_983):
        other = dataclasses.replace(config, batch_gates=batch_gates)
        assert run_session(other, workers=3) == single


def test_worker_count_beyond_batches() -> None:
    config = make_config(pulses=300_000, batch_gates=200_000)
    assert run_session(config, workers=1) == run_session(config, workers=8)


def test_seed_changes_results() -> None:
    config = make_config(pulses=200_000)
    assert run_session(config) != run_session(dataclasses.replace(config, seed=14))


def test_conservation_and_mismatched_cells() -> None:
    config = make_config(pulses=1_234_567, batch_gates=500_000)
    tables = run_session(config)
    assert int(tables.pulses_sent.sum()) == config.pulses
    column_sums = tables.counts.sum(axis=4)
    for sa in range(4):
        for sb in range(4):
            if (sa >> 1) != (sb >> 1):
                assert int(tables.counts[:, :, sa, sb].sum()) == 0
            else:
                assert np.array_equal(
                    column_sums[:, :, sa, sb], tables.pulses_sent[:, :, sa, sb]
                )


def test_rect_same_state_silent_without_noise() -> None:
    # No misalignment and no dark counts: matched rectilinear states never
    # produce a cross-polarization coincidence.
    config = make_config(
        pulses=500_000,
        channel_a=ChannelModel(loss_db=1.0),
        channel_b=ChannelModel(loss_db=1.0),
        detector=DetectorModel(efficiency=0.9),
    )
    tables = run_session(config)
    for sa, sb in ((0, 0), (1, 1)):
        assert int(tables.counts[:, :, sa, sb, :4].sum()) == 0


def test_misalignment_creates_same_state_errors() -> None:
    # Tables are indexed by the prepared states, so flips en route must show
    # up as conclusive counts in prepared (H,H) cells.
    config = make_config(
        pulses=500_000,
        channel_a=ChannelModel(loss_db=1.0, misalignment=0.1),
        channel_b=ChannelModel(loss_db=1.0),
        detector=DetectorModel(efficiency=0.9),
    )
    tables = run_session(config)
    assert int(tables.counts[:, :, 0, 0, :4].sum()) > 0
    assert int(tables.counts[:, :, 1, 1, :4].sum()) > 0


def test_sweep_mode_covers_slots_evenly() -> None:
    config = make_config(pulses=72 * 1000 + 5, mode="sweep", batch_gates=30_000)
    tables = run_session(config)
    assert int(tables.pulses_sent.sum()) == config.pulses
    flat = {
        (ia, ib, sa, sb): int(tables.pulses_sent[ia, ib, sa, sb])
        for ia in range(3)
        for ib in range(3)
        for sa in range(4)
        for sb in range(4)
    }
    # The first five slots of the cycle take the five extra gates.
    for slot in SWEEP_SLOTS:
        assert flat[slot] == (1001 if slot in SWEEP_SLOTS[:5] else 1000)
    assert SWEEP_SLOTS[:8] == (
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1),
        (0, 0, 2, 2), (0, 0, 2, 3), (0, 0, 3, 2), (0, 0, 3, 3),
    )
    slots = set(SWEEP_SLOTS)
    for cell, pulses in flat.items():
        if cell not in slots:
            assert pulses == 0


def test_sweep_mode_at_the_largest_pulse_count() -> None:
    # 2**63 - 1 gates, the largest count the counts format carries: no slot's
    # share may overflow int64.
    tables = run_session(make_config(pulses=2**63 - 1, mode="sweep"))
    assert int(tables.pulses_sent.sum()) == 2**63 - 1


def test_empirical_gain_matches_population() -> None:
    config = make_config(pulses=2_000_000, batch_gates=500_000)
    tables = run_session(config)
    mu_a = attenuate(0.5, config.channel_a.loss_db)
    mu_b = attenuate(0.5, config.channel_b.loss_db)
    mis_a = config.channel_a.misalignment
    mis_b = config.channel_b.misalignment
    p = 0.0
    for fa in (0, 1):
        for fb in (0, 1):
            weight = (mis_a if fa else 1 - mis_a) * (mis_b if fb else 1 - mis_b)
            response = coherent_click_probs(
                BsaInput(mu_a, mu_b, SOP_BY_CODE[0 ^ fa], SOP_BY_CODE[1 ^ fb]),
                config.detector,
            )
            p += weight * float(
                sum(response.pattern_probs[i] for i in (0b0011, 0b1100, 0b1001, 0b0110))
            )
    n = int(tables.pulses_sent[0, 0, 0, 1])
    k = int(tables.counts[0, 0, 0, 1, :4].sum())
    sigma = math.sqrt(p * (1.0 - p) / n)
    assert abs(k / n - p) < Z_LIMIT * sigma


def per_gate_tallies(config: SessionConfig, seed: int) -> np.ndarray:
    """Reference sampler: draw every gate's preparation, flips and click pattern.

    Returns the (144, 8) table of run_session's multinomial: the seven count
    columns per cell, then the pulses whose outcome is not tallied.
    """
    rng = np.random.default_rng(seed)
    n = config.pulses
    if config.mode == "sweep":
        ia, ib, sa, sb = np.asarray(SWEEP_SLOTS)[np.arange(n) % len(SWEEP_SLOTS)].T
    else:
        r = config.rect_prob
        prep = np.outer(config.class_probs, [r / 2, r / 2, (1 - r) / 2, (1 - r) / 2]).ravel()
        ia, sa = np.divmod(rng.choice(12, size=n, p=prep), 4)
        ib, sb = np.divmod(rng.choice(12, size=n, p=prep), 4)
    seen_a = sa ^ (rng.random(n) < config.channel_a.misalignment)
    seen_b = sb ^ (rng.random(n) < config.channel_b.misalignment)
    fold = np.full(16, 6)
    for name, pattern in COINCIDENCE_PATTERNS.items():
        fold[pattern] = COUNT_COLUMNS.index(name.lower())
    column = np.full(n, 7)
    agree = (sa >> 1) == (sb >> 1)
    seen = np.ravel_multi_index((ia, ib, seen_a, seen_b), (3, 3, 4, 4))
    for key in np.unique(seen[agree]):
        gates = agree & (seen == key)
        ka, kb, pa, pb = np.unravel_index(key, (3, 3, 4, 4))
        mu_a = attenuate(config.classes[ka].mu, config.channel_a.loss_db)
        mu_b = attenuate(config.classes[kb].mu, config.channel_b.loss_db)
        probs = coherent_click_probs(
            BsaInput(mu_a, mu_b, SOP_BY_CODE[pa], SOP_BY_CODE[pb]), config.detector
        ).pattern_probs
        column[gates] = fold[rng.choice(16, size=int(gates.sum()), p=probs / probs.sum())]
    cell = np.ravel_multi_index((ia, ib, sa, sb), (3, 3, 4, 4))
    return np.bincount(cell * 8 + column, minlength=144 * 8).reshape(144, 8)


def session_tallies(tables: CountTables) -> np.ndarray:
    counts = tables.counts.reshape(144, 7)
    untallied = tables.pulses_sent.reshape(144) - counts.sum(axis=1)
    return np.column_stack([counts, untallied])


@pytest.mark.parametrize("mode", ["random", "sweep"])
def test_table_sampler_matches_per_gate_reference(mode) -> None:
    # Two-sample chi-square on equal totals: sum (x - y)^2 / (x + y) over bins,
    # pooling every bin whose expected count (x + y) / 2 is below 5.  The
    # statistic has at most bins - 1 degrees of freedom (fewer in sweep mode,
    # where each slot's total is fixed), so the threshold's false-alarm
    # probability is at most 1e-6 over both modes.
    config = make_config(
        pulses=1_000_000,
        mode=mode,
        channel_a=ChannelModel(loss_db=1.0, misalignment=0.1),
        channel_b=ChannelModel(loss_db=2.0, misalignment=0.2),
        detector=DetectorModel(efficiency=0.9, dark_prob=1e-4),
    )
    for seed in (101, 202):
        table = session_tallies(run_session(dataclasses.replace(config, seed=seed))).ravel()
        reference = per_gate_tallies(config, seed).ravel()
        total = table + reference
        small = total < 10
        x = np.append(table[~small], table[small].sum())
        y = np.append(reference[~small], reference[small].sum())
        if x[-1] + y[-1] == 0:
            x, y = x[:-1], y[:-1]
        statistic = float(np.sum((x - y) ** 2 / (x + y)))
        threshold = chi2.isf(1e-6 / 4, len(x) - 1)
        assert statistic < threshold, (mode, seed, statistic, threshold)


@pytest.fixture
def count_analyzer_calls(monkeypatch):
    """Count batch evaluations in session; fail on any scalar analyzer call.

    The outcome-law cache is cleared before and after, so a law built under
    the patch never reaches another test.
    """
    mdiqkd.session._channel_law.cache_clear()
    calls = []
    real_table = mdiqkd.session._pattern_table

    def counting_table(*args, **kwargs):
        calls.append(1)
        return real_table(*args, **kwargs)

    def scalar_call(*args, **kwargs):
        raise AssertionError("coherent_click_probs called")

    monkeypatch.setattr(mdiqkd.session, "_pattern_table", counting_table)
    monkeypatch.setattr(mdiqkd.bsa, "coherent_click_probs", scalar_call)
    monkeypatch.setattr(mdiqkd.session, "coherent_click_probs", scalar_call, raising=False)
    yield calls
    mdiqkd.session._channel_law.cache_clear()


@pytest.mark.parametrize("mode", ["random", "sweep"])
def test_run_session_evaluates_analyzer_once(count_analyzer_calls, mode) -> None:
    # The analyzer runs once per distinct (class mus, channels, detector):
    # seed, pulses and mode reuse the law, and every physical field is a key.
    calls = count_analyzer_calls
    config = make_config(pulses=10_000, mode=mode)
    run_session(config)
    assert len(calls) == 1
    other_mode = "sweep" if mode == "random" else "random"
    for same in (dict(seed=14), dict(pulses=777), dict(mode=other_mode, seed=0)):
        run_session(dataclasses.replace(config, **same))
    assert len(calls) == 1
    link = config.channel_a
    changes = [
        dict(classes=standard_classes(0.6, 0.1)),
        dict(classes=standard_classes(0.5, 0.2)),
        *(
            {side: dataclasses.replace(link, **field)}
            for side in ("channel_a", "channel_b")
            for field in (dict(loss_db=4.0), dict(misalignment=0.03), dict(temporal_overlap=0.9))
        ),
        dict(detector=dataclasses.replace(config.detector, efficiency=0.4)),
        dict(detector=dataclasses.replace(config.detector, dark_prob=2e-5)),
    ]
    for expected, change in enumerate(changes, start=2):
        run_session(dataclasses.replace(config, **change))
        assert len(calls) == expected, change
    run_session(config)
    assert len(calls) == 1 + len(changes)


def test_memoized_law_changes_no_table() -> None:
    law = mdiqkd.session._outcome_law(make_config())
    with pytest.raises(ValueError):
        law[0, 0] = 0.5
    assert mdiqkd.session._channel_law.cache_info().maxsize == mdiqkd.session._LAW_CACHE_SIZE
    channels = [
        dict(),
        dict(channel_b=ChannelModel(loss_db=8.0, misalignment=0.01, temporal_overlap=0.8)),
        dict(
            classes=standard_classes(0.3, 0.05),
            channel_a=ChannelModel(),
            channel_b=ChannelModel(),
            detector=DetectorModel(),
        ),
    ]
    for mode in ("random", "sweep"):
        for channel in channels:
            config = make_config(pulses=100_003, mode=mode, **channel)
            mdiqkd.session._channel_law.cache_clear()
            cold = run_session(config)
            assert run_session(config) == cold, (mode, channel)
    # Keys that compare equal share one cache entry, so their laws, each built
    # cold, must be the same bits.  The vacuum mu is the class mu that may be 0.
    signal, decoy, _ = standard_classes()
    pairs = [
        (
            dict(classes=(signal, decoy, IntensityClass("vacuum", -0.0))),
            dict(classes=(signal, decoy, IntensityClass("vacuum", 0.0))),
        ),
        (dict(channel_a=ChannelModel(loss_db=-0.0)), dict(channel_a=ChannelModel(loss_db=0.0))),
        (dict(classes=standard_classes(1, 0.1)), dict(classes=standard_classes(1.0, 0.1))),
    ]
    for first, second in pairs:
        laws = []
        for overrides in (first, second):
            mdiqkd.session._channel_law.cache_clear()
            laws.append(mdiqkd.session._outcome_law(make_config(**overrides)).tobytes())
        assert laws[0] == laws[1], first
        mdiqkd.session._outcome_law(make_config(**first))
        assert mdiqkd.session._channel_law.cache_info().currsize == 1


def test_count_tables_validation_and_copy() -> None:
    tables = run_session(make_config(pulses=100_000))
    # A simulated session keeps its mismatched-basis pulses.
    assert tables.pulses_sent[:, :, 0, 2].sum() > 0
    clone = dataclasses.replace(tables, counts=tables.counts.copy())
    assert clone == tables
    clone.counts[0, 0, 0, 1, 0] += 1
    assert clone != tables
    with pytest.raises(ParameterError):
        CountTables(
            class_labels=("a", "b", "c"),
            class_mus=(0.5, 0.1, 0.0),
            pulses_total=1,
            seed=0,
            mode="random",
            pulses_sent=np.zeros((3, 3, 4, 4), dtype=np.int64),
            counts=np.zeros((3, 3, 4, 4, 6), dtype=np.int64),
        )


def test_session_config_validation() -> None:
    for bad in (dict(pulses=0), dict(pulses=2**63), dict(seed=-1)):
        with pytest.raises(ParameterError):
            make_config(**bad)
    with pytest.raises(ParameterError):
        make_config(class_probs=(0.5, 0.5, 0.5))
    with pytest.raises(ParameterError):
        make_config(class_probs=(math.nan, 0.5, 0.5))
    with pytest.raises(ParameterError):
        make_config(rect_prob=1.5)
    with pytest.raises(ParameterError):
        make_config(mode="alternating")
    with pytest.raises(ParameterError):
        make_config(batch_gates=0)
    with pytest.raises(ParameterError):
        run_session(make_config(pulses=1000), workers=0)


def test_column_layout() -> None:
    assert COUNT_COLUMNS == ("c12", "c34", "c14", "c23", "c13", "c24", "other")


def make_hom_config(**overrides) -> HomScanConfig:
    base = dict(
        mu=0.1,
        pulse_width_ns=1.5,
        delays_ns=tuple(float(t) for t in np.arange(-3.0, 3.01, 0.25)),
        pulses_per_point=5_000_000,
        seed=17,
        detector=DetectorModel(efficiency=0.25),
    )
    base.update(overrides)
    return HomScanConfig(**base)


def test_hom_scan_dip_shape() -> None:
    result = hom_scan(make_hom_config())
    at = {float(t): k for k, t in enumerate(result.delays_ns)}
    k0 = at[0.0]
    assert abs(result.visibility[k0] - 0.5) < 3.0 * result.visibility_stderr[k0]
    for tau in (-3.0, -2.0, 1.5, 2.5, 3.0):
        k = at[tau]
        assert abs(result.visibility[k]) < 3.0 * result.visibility_stderr[k]
    width = result.dip_width_ns()
    assert 1.5 <= width <= 3.0


def test_hom_scan_deterministic() -> None:
    first = hom_scan(make_hom_config(pulses_per_point=200_000))
    second = hom_scan(make_hom_config(pulses_per_point=200_000))
    assert np.array_equal(first.visibility, second.visibility)
    third = hom_scan(make_hom_config(pulses_per_point=200_000, seed=18))
    assert not np.array_equal(first.rate_indistinguishable, third.rate_indistinguishable)


def test_hom_visibility_non_increasing_up_to_noise() -> None:
    result = hom_scan(make_hom_config())
    order = np.argsort(np.abs(result.delays_ns), kind="stable")
    vis = result.visibility[order]
    err = result.visibility_stderr[order]
    for k in range(len(vis) - 1):
        assert vis[k + 1] <= vis[k] + 3.0 * (err[k] + err[k + 1])


def test_hom_dip_width_nan_when_flat() -> None:
    flat = HomScanResult(
        delays_ns=np.array([-1.0, 0.0, 1.0]),
        rate_indistinguishable=np.array([1e-4, 1e-4, 1e-4]),
        rate_distinguishable=np.array([1e-4, 1e-4, 1e-4]),
        visibility=np.array([0.0, 0.001, 0.0]),
        visibility_stderr=np.array([0.001, 0.001, 0.001]),
        pulse_width_ns=1.5,
    )
    assert math.isnan(flat.dip_width_ns())


def test_hom_config_validation() -> None:
    with pytest.raises(ParameterError):
        make_hom_config(mu=-0.1)
    for width in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            make_hom_config(pulse_width_ns=width)
    for delays in ((), (0.0,) * (MAX_DELAY_POINTS + 1)):
        with pytest.raises(ParameterError):
            make_hom_config(delays_ns=delays)
    # An array of delays takes the same checks as a tuple.
    for delays in ([], np.zeros(MAX_DELAY_POINTS + 1), [0.0, math.nan], [math.inf]):
        with pytest.raises(ParameterError, match="delays_ns"):
            make_hom_config(delays_ns=np.array(delays))
    assert len(make_hom_config(delays_ns=np.array([-1.0, 0.0, 1.0])).delays_ns) == 3
    for bad in (dict(pulses_per_point=0), dict(pulses_per_point=2**63), dict(seed=-1)):
        with pytest.raises(ParameterError):
            make_hom_config(**bad)


def test_hom_scan_rates_follow_analyzer_response() -> None:
    # 1e9 pulses per delay put each rate within ~1% of its C13 probability,
    # taken from the scalar analyzer at xi(tau) = (1 - |tau| / width)^2.
    config = make_hom_config(delays_ns=(-3.0, -1.0, -0.25, 0.0, 0.75), pulses_per_point=10**9)
    result = hom_scan(config)
    c13 = COINCIDENCE_PATTERNS["C13"]
    sop = SOP_BY_CODE[0]

    def c13_prob(overlap: float) -> float:
        return coherent_click_probs(
            BsaInput(config.mu, config.mu, sop, sop, overlap=overlap), config.detector
        ).pattern_probs[c13]

    p_dis = c13_prob(0.0)
    for k, tau in enumerate(config.delays_ns):
        p_ind = c13_prob(max(0.0, 1.0 - abs(tau) / config.pulse_width_ns) ** 2)
        pairs = ((result.rate_indistinguishable[k], p_ind), (result.rate_distinguishable[k], p_dis))
        for rate, p in pairs:
            sigma = math.sqrt(p * (1.0 - p) / config.pulses_per_point)
            assert abs(rate - p) < Z_LIMIT * sigma, (tau, rate, p)


def reference_hom_scan(config: HomScanConfig) -> list[np.ndarray]:
    """Per-delay loop with scalar arithmetic: one indistinguishable, then one
    distinguishable binomial draw per delay, from the same analyzer table."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    n = config.pulses_per_point
    delays = np.asarray(config.delays_ns, dtype=float)
    frac = np.maximum(0.0, 1.0 - np.abs(delays) / config.pulse_width_ns)
    p_c13 = mdiqkd.bsa._pattern_table(
        config.mu, config.mu, mdiqkd.bsa._CODE_AMPS_A[0], mdiqkd.bsa._CODE_AMPS_B[0],
        np.concatenate(([0.0], frac * frac)), config.detector,
    )[:, COINCIDENCE_PATTERNS["C13"]]
    rows = []
    for p_ind in p_c13[1:]:
        c_ind = int(rng.binomial(n, p_ind))
        c_dis = int(rng.binomial(n, p_c13[0]))
        r_ind = c_ind / n
        r_dis = c_dis / n
        if c_dis == 0:
            rows.append((r_ind, r_dis, math.nan, math.nan))
            continue
        var_ind = r_ind * (1.0 - r_ind) / n
        var_dis = r_dis * (1.0 - r_dis) / n
        stderr = math.sqrt(var_ind / r_dis**2 + (r_ind**2) * var_dis / r_dis**4)
        rows.append((r_ind, r_dis, (r_dis - r_ind) / r_dis, stderr))
    return list(np.array(rows).T)


@pytest.mark.parametrize("pulses", [1, 40, 5_000, 10**6, 10**9])
def test_hom_scan_matches_per_delay_reference(pulses: int) -> None:
    # 1 and 40 pulses leave some distinguishable references empty (nan rows).
    config = make_hom_config(
        delays_ns=tuple(np.linspace(-2.0, 2.0, 49).tolist()),
        pulses_per_point=pulses,
        detector=DetectorModel(efficiency=0.25, dark_prob=1e-5),
    )
    result = hom_scan(config)
    produced = (
        result.rate_indistinguishable,
        result.rate_distinguishable,
        result.visibility,
        result.visibility_stderr,
    )
    for got, want in zip(produced, reference_hom_scan(config)):
        assert got.tobytes() == want.tobytes()


def test_hom_scan_evaluates_analyzer_once(count_analyzer_calls) -> None:
    calls = count_analyzer_calls
    hom_scan(make_hom_config(pulses_per_point=1_000))
    assert len(calls) == 1


def test_session_and_scan_accept_large_intensities() -> None:
    # mu = 1e9 at the analyzer, far above any protocol intensity, still gives
    # a valid outcome law, session and scan.
    for huge in (1e9, 1e200):
        config = make_config(
            pulses=10_000,
            classes=standard_classes(huge, 0.1),
            channel_a=ChannelModel(),
            channel_b=ChannelModel(),
            detector=DetectorModel(),
        )
        law = mdiqkd.session._outcome_law(config)
        assert np.all(np.isfinite(law)) and np.all(law >= 0.0)
        assert np.allclose(law.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        tables = run_session(config)
        assert int(tables.pulses_sent.sum()) == config.pulses
        result = hom_scan(make_hom_config(mu=huge, pulses_per_point=1_000))
        for rates in (result.rate_indistinguishable, result.rate_distinguishable):
            assert np.all((rates >= 0.0) & (rates <= 1.0))
