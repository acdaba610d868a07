"""Analyzer response: single-photon oracle, coherent engine, closed forms."""

import ast
import itertools
import math
import pathlib

import numpy as np
import pytest
from scipy.special import i0, i0e

import mdiqkd.bsa
from mdiqkd.bsa import (
    BellOutcome,
    BsaInput,
    BsaResponse,
    DetectorModel,
    PSI_MINUS_PATTERNS,
    PSI_PLUS_PATTERNS,
    UnsupportedSizeError,
    _detector_amplitudes,
    _i0e,
    _pattern_table,
    coherent_click_probs,
    fock_bsa_oracle,
)
from mdiqkd.optics import (
    ParameterError,
    PolarizationState,
    SOP_BY_CODE,
    SOP_H,
    SOP_MINUS,
    SOP_PLUS,
    SOP_V,
    poisson_pmf,
)

EXACT_TOL = 1e-12
MIXTURE_TOL = 5e-8

IDEAL = DetectorModel()

# Prepared basis-agreeing pairs with their exact single-photon response:
# (sop_a, sop_b, conditional psi+ fraction, conditional psi- fraction,
#  conclusive probability).
SINGLE_PHOTON_ROWS = (
    (SOP_H, SOP_H, 0.0, 0.0, 0.0),
    (SOP_V, SOP_V, 0.0, 0.0, 0.0),
    (SOP_H, SOP_V, 0.5, 0.5, 1.0),
    (SOP_V, SOP_H, 0.5, 0.5, 1.0),
    (SOP_PLUS, SOP_PLUS, 1.0, 0.0, 0.5),
    (SOP_MINUS, SOP_MINUS, 1.0, 0.0, 0.5),
    (SOP_PLUS, SOP_MINUS, 0.0, 1.0, 0.5),
    (SOP_MINUS, SOP_PLUS, 0.0, 1.0, 0.5),
)


def test_single_photon_rows_exact() -> None:
    for sop_a, sop_b, plus, minus, conclusive in SINGLE_PHOTON_ROWS:
        response = fock_bsa_oracle(1, 1, sop_a, sop_b)
        fractions = response.conditional_fractions
        assert fractions[BellOutcome.PSI_PLUS] == pytest.approx(plus, abs=EXACT_TOL)
        assert fractions[BellOutcome.PSI_MINUS] == pytest.approx(minus, abs=EXACT_TOL)
        assert response.conclusive_prob == pytest.approx(conclusive, abs=EXACT_TOL)


def test_single_photon_unconditional_split() -> None:
    response = fock_bsa_oracle(1, 1, SOP_H, SOP_V)
    assert response.psi_plus_prob == pytest.approx(0.5, abs=EXACT_TOL)
    assert response.psi_minus_prob == pytest.approx(0.5, abs=EXACT_TOL)
    response = fock_bsa_oracle(1, 1, SOP_PLUS, SOP_PLUS)
    assert response.psi_plus_prob == pytest.approx(0.5, abs=EXACT_TOL)
    assert response.psi_minus_prob == pytest.approx(0.0, abs=EXACT_TOL)


def test_distinguishable_photons_lose_interference() -> None:
    response = fock_bsa_oracle(1, 1, SOP_PLUS, SOP_PLUS, overlap=0.0)
    fractions = response.conditional_fractions
    assert fractions[BellOutcome.PSI_PLUS] == pytest.approx(0.5, abs=EXACT_TOL)
    assert fractions[BellOutcome.PSI_MINUS] == pytest.approx(0.5, abs=EXACT_TOL)
    # Orthogonal rectilinear photons are conclusive regardless of overlap.
    assert fock_bsa_oracle(1, 1, SOP_H, SOP_V, overlap=0.0).conclusive_prob == pytest.approx(
        1.0, abs=EXACT_TOL
    )


def test_one_sided_rect_photons_never_conclusive() -> None:
    for m in (1, 2):
        for sop in (SOP_H, SOP_V):
            response = fock_bsa_oracle(m, 0, sop, SOP_H)
            assert response.conclusive_prob == pytest.approx(0.0, abs=EXACT_TOL)
            assert float(response.pattern_probs.sum()) == pytest.approx(1.0, abs=EXACT_TOL)


def test_one_sided_diag_pair_feeds_the_conclusive_classes() -> None:
    # Two same-source diagonal photons split H/V at the analyzer, so they
    # announce psi+ and psi- at equal 1/4 rates: the multi-photon noise floor
    # of the diagonal basis.
    response = fock_bsa_oracle(2, 0, SOP_PLUS, SOP_H)
    assert response.psi_plus_prob == pytest.approx(0.25, abs=EXACT_TOL)
    assert response.psi_minus_prob == pytest.approx(0.25, abs=EXACT_TOL)
    assert fock_bsa_oracle(1, 0, SOP_PLUS, SOP_H).conclusive_prob == pytest.approx(
        0.0, abs=EXACT_TOL
    )


def test_outcome_pattern_map() -> None:
    # Detector d fires as bit d - 1.  Exactly {1, 2} or {3, 4} announces psi+,
    # exactly {1, 4} or {2, 3} announces psi-, and every other pattern, no
    # click included, is inconclusive.
    def pattern(*detectors: int) -> int:
        return sum(1 << (d - 1) for d in detectors)

    assert PSI_PLUS_PATTERNS == (pattern(1, 2), pattern(3, 4))
    assert PSI_MINUS_PATTERNS == (pattern(1, 4), pattern(2, 3))
    for index in range(16):
        response = BsaResponse(np.eye(16)[index])
        assert response.psi_plus_prob == (index in PSI_PLUS_PATTERNS)
        assert response.psi_minus_prob == (index in PSI_MINUS_PATTERNS)


def test_fock_oracle_validation() -> None:
    with pytest.raises(UnsupportedSizeError):
        fock_bsa_oracle(3, 2, SOP_H, SOP_V)
    with pytest.raises(ParameterError):
        fock_bsa_oracle(-1, 1, SOP_H, SOP_V)
    with pytest.raises(ParameterError):
        fock_bsa_oracle(1, 1, SOP_H, SOP_V, overlap=1.5)


def test_detector_model_validation() -> None:
    with pytest.raises(ParameterError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ParameterError):
        DetectorModel(dark_prob=0.02)
    DetectorModel(dark_prob=0.02, max_dark_prob=0.1)


def test_response_distribution_validation() -> None:
    with pytest.raises(ParameterError):
        BsaResponse(pattern_probs=np.full(16, 0.5))
    with pytest.raises(ParameterError):
        BsaResponse(pattern_probs=np.zeros(8))


def test_vacuum_input_is_pure_dark_noise() -> None:
    detector = DetectorModel(efficiency=0.4, dark_prob=2e-3)
    response = coherent_click_probs(BsaInput(0.0, 0.0, SOP_H, SOP_H), detector)
    d = detector.dark_prob
    for pattern in range(16):
        k = bin(pattern).count("1")
        expected = d**k * (1.0 - d) ** (4 - k)
        assert response.pattern_probs[pattern] == pytest.approx(expected, abs=1e-15)


def test_single_sided_marginal_closed_form() -> None:
    for efficiency in (1.0, 0.45):
        detector = DetectorModel(efficiency=efficiency)
        response = coherent_click_probs(BsaInput(0.3, 0.0, SOP_H, SOP_H), detector)
        marginals = response.marginals
        expected = 1.0 - math.exp(-efficiency * 0.3 / 2.0)
        assert marginals[0] == pytest.approx(expected, abs=1e-11)
        assert marginals[2] == pytest.approx(expected, abs=1e-11)
        assert marginals[1] == pytest.approx(0.0, abs=1e-15)
        assert marginals[3] == pytest.approx(0.0, abs=1e-15)


def test_interference_marginal_bessel_form() -> None:
    # Same-polarization equal-intensity pulses: the relative-phase average of
    # the exponential click law is a modified Bessel function.
    mu = 0.2
    for efficiency in (1.0, 0.5):
        detector = DetectorModel(efficiency=efficiency)
        response = coherent_click_probs(BsaInput(mu, mu, SOP_H, SOP_H), detector)
        x = efficiency * mu
        expected = 1.0 - math.exp(-x) * float(i0(x))
        for d in (0, 2):
            assert response.marginals[d] == pytest.approx(expected, abs=1e-10)


def test_coherent_engine_matches_fock_mixture() -> None:
    # Small intensities keep the truncated Poisson mixture within 5e-8.
    cases = [
        (0.04, 0.03, SOP_H, SOP_V, 1.0),
        (0.04, 0.03, SOP_PLUS, SOP_PLUS, 1.0),
        (0.05, 0.05, SOP_PLUS, SOP_MINUS, 0.6),
        (0.05, 0.02, SOP_H, SOP_H, 0.0),
    ]
    for mu_a, mu_b, sop_a, sop_b, overlap in cases:
        engine = coherent_click_probs(
            BsaInput(mu_a, mu_b, sop_a, sop_b, overlap=overlap), IDEAL
        )
        mixture = np.zeros(16)
        for m, n in itertools.product(range(5), range(5)):
            if m + n > 4:
                continue
            weight = poisson_pmf(mu_a, m) * poisson_pmf(mu_b, n)
            mixture += weight * fock_bsa_oracle(m, n, sop_a, sop_b, overlap=overlap).pattern_probs
        # The dropped tail only removes mass; compare patterns directly.
        assert np.max(np.abs(engine.pattern_probs - mixture)) < MIXTURE_TOL


def test_source_swap_symmetry() -> None:
    # Exchanging the sources mirrors the coupler: detectors (1, 2) <-> (3, 4).
    swap = [((p >> 2) & 0b11) | ((p & 0b11) << 2) for p in range(16)]
    detector = DetectorModel(efficiency=0.7, dark_prob=1e-4)
    forward = coherent_click_probs(BsaInput(0.3, 0.12, SOP_PLUS, SOP_V), detector)
    reverse = coherent_click_probs(BsaInput(0.12, 0.3, SOP_V, SOP_PLUS), detector)
    assert np.allclose(
        forward.pattern_probs, reverse.pattern_probs[swap], rtol=0.0, atol=EXACT_TOL
    )


def test_small_mu_coherent_reproduces_wcp_columns() -> None:
    # In the weak-pulse limit the conclusive fractions take the 0.75/0.25 and
    # 0.5/0.5 values of the reference table.
    mu = 0.005
    expectations = (
        (SOP_H, SOP_V, 0.5, 0.5),
        (SOP_V, SOP_H, 0.5, 0.5),
        (SOP_PLUS, SOP_PLUS, 0.75, 0.25),
        (SOP_MINUS, SOP_MINUS, 0.75, 0.25),
        (SOP_PLUS, SOP_MINUS, 0.25, 0.75),
        (SOP_MINUS, SOP_PLUS, 0.25, 0.75),
    )
    for sop_a, sop_b, plus, minus in expectations:
        fractions = coherent_click_probs(
            BsaInput(mu, mu, sop_a, sop_b), IDEAL
        ).conditional_fractions
        assert fractions[BellOutcome.PSI_PLUS] == pytest.approx(plus, abs=1e-3)
        assert fractions[BellOutcome.PSI_MINUS] == pytest.approx(minus, abs=1e-3)


def test_pattern_probs_sum_to_one_across_inputs() -> None:
    detector = DetectorModel(efficiency=0.8, dark_prob=5e-4)
    for sop_a in SOP_BY_CODE:
        for sop_b in SOP_BY_CODE:
            response = coherent_click_probs(BsaInput(0.5, 0.1, sop_a, sop_b), detector)
            assert float(response.pattern_probs.sum()) == pytest.approx(1.0, abs=1e-9)


def reference_click_probs(
    mu_a: float,
    mu_b: float,
    sop_a: PolarizationState,
    sop_b: PolarizationState,
    overlap: float,
    detector: DetectorModel,
    phase_nodes: int = 128,
) -> np.ndarray:
    """One input's 16-pattern distribution by a per-node, per-detector loop.

    Written out here, independently of the package's batched engine: the
    coupler and splitter amplitudes, the node rule and the per-detector
    product over patterns are all restated.
    """
    inv = 1.0 / math.sqrt(2.0)
    amp_a = np.array(
        [inv * sop_a.amp_h, inv * sop_a.amp_v, 1j * inv * sop_a.amp_h, 1j * inv * sop_a.amp_v]
    )
    amp_b = np.array(
        [1j * inv * sop_b.amp_h, 1j * inv * sop_b.amp_v, inv * sop_b.amp_h, inv * sop_b.amp_v]
    )
    strength = detector.efficiency * overlap * math.sqrt(mu_a * mu_b)
    nodes = max(phase_nodes, 64 + int(16.0 * strength))
    own = (1.0 - overlap) * (mu_a * np.abs(amp_a) ** 2 + mu_b * np.abs(amp_b) ** 2)
    probs = np.zeros(16)
    for k in range(nodes):
        theta = 2.0 * math.pi * k / nodes
        common = (
            math.sqrt(overlap * mu_a) * amp_a
            + np.exp(1j * theta) * math.sqrt(overlap * mu_b) * amp_b
        )
        n_mean = np.abs(common) ** 2 + own
        p_click = 1.0 - (1.0 - detector.dark_prob) * np.exp(-detector.efficiency * n_mean)
        for pattern in range(16):
            term = 1.0
            for d in range(4):
                term *= p_click[d] if (pattern >> d) & 1 else 1.0 - p_click[d]
            probs[pattern] += term
    return probs / nodes


def random_sop(rng: np.random.Generator) -> PolarizationState:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return PolarizationState(complex(v[0]), complex(v[1]))


def assert_rows_match_reference(mu_a, mu_b, sops, overlap, detector) -> None:
    amps = [_detector_amplitudes(sop_a, sop_b) for sop_a, sop_b in sops]
    amp_a = np.array([a for a, _ in amps])
    amp_b = np.array([b for _, b in amps])
    table = _pattern_table(mu_a, mu_b, amp_a, amp_b, overlap, detector)
    assert table.shape == (len(sops), 16)
    for r, (sop_a, sop_b) in enumerate(sops):
        expected = reference_click_probs(mu_a[r], mu_b[r], sop_a, sop_b, overlap[r], detector)
        assert np.max(np.abs(table[r] - expected)) < EXACT_TOL, r


def test_pattern_table_rows_match_reference() -> None:
    rng = np.random.default_rng(20121)
    detectors = (
        IDEAL,
        DetectorModel(efficiency=0.35),
        DetectorModel(efficiency=0.8, dark_prob=4e-3),
    )
    n = 16
    for detector in detectors:
        mu_a = rng.uniform(0.0, 10.0, n)
        mu_b = rng.uniform(0.0, 10.0, n)
        overlap = rng.uniform(0.0, 1.0, n)
        mu_a[0] = 0.0
        mu_b[1] = 0.0
        mu_a[2] = mu_b[2] = 0.0
        overlap[3:6] = 0.0
        overlap[6:9] = 1.0
        sops = [(random_sop(rng), random_sop(rng)) for _ in range(n - 4)]
        sops += [(SOP_H, SOP_V), (SOP_PLUS, SOP_PLUS), (SOP_PLUS, SOP_MINUS), (SOP_V, SOP_V)]
        assert_rows_match_reference(mu_a, mu_b, sops, overlap, detector)


@pytest.mark.parametrize("rows_per_block", [None, 1, 2])
def test_pattern_table_mixed_node_counts(rows_per_block) -> None:
    # At unit efficiency row 2 needs 64 + 16 * 150 = 2464 reference nodes and
    # the other rows at most 128; one batch must match each row's own
    # quadrature.  Splitting the batch into blocks of a row or two must give
    # the same rows: no row depends on the others in its batch.
    rng = np.random.default_rng(7)
    mu_a = np.array([0.3, 0.05, 150.0, 0.0, 1.2])
    mu_b = np.array([0.2, 0.05, 150.0, 0.4, 0.01])
    overlap = np.array([0.9, 1.0, 1.0, 1.0, 0.5])
    sops = [(random_sop(rng), random_sop(rng)) for _ in range(4)]
    sops.insert(2, (SOP_PLUS, SOP_PLUS))
    for detector in (IDEAL, DetectorModel(efficiency=0.6, dark_prob=1e-3)):
        if rows_per_block is None:
            assert_rows_match_reference(mu_a, mu_b, sops, overlap, detector)
            continue
        amps = [_detector_amplitudes(sop_a, sop_b) for sop_a, sop_b in sops]
        amp_a = np.array([a for a, _ in amps])
        amp_b = np.array([b for _, b in amps])
        whole = _pattern_table(mu_a, mu_b, amp_a, amp_b, overlap, detector)
        for start in range(0, len(sops), rows_per_block):
            block = slice(start, start + rows_per_block)
            assert_rows_match_reference(
                mu_a[block], mu_b[block], sops[block], overlap[block], detector
            )
            part = _pattern_table(
                mu_a[block], mu_b[block], amp_a[block], amp_b[block], overlap[block], detector
            )
            # Equal to rounding: the matrix products may sum in another order.
            assert np.max(np.abs(part - whole[block])) < 1e-15


def test_scaled_bessel_matches_reference() -> None:
    # Both branches of the numpy-only exp(-x) I0(x), on either side of the switch.
    x = np.array([0.0, 1e-3, 0.5, 8.0, 30.0, 650.0, 699.9, 700.0, 700.1, 701.0, 1e4, 1e9, 1e200])
    assert np.allclose(_i0e(x), i0e(x), rtol=2e-15, atol=0.0)


def test_large_intensities_give_distributions() -> None:
    # Intensities far above the protocol's, up to 1e200, still give finite
    # distributions that sum to 1, as one batch and row by row.
    detector = DetectorModel(efficiency=0.7, dark_prob=1e-4)
    rows = list(itertools.product(SOP_BY_CODE, SOP_BY_CODE))
    amp_a = np.array([_detector_amplitudes(a, b)[0] for a, b in rows])
    amp_b = np.array([_detector_amplitudes(a, b)[1] for a, b in rows])
    for mu in (252.07, 1e9, 1e200):
        for det in (IDEAL, detector):
            for mu_b, overlap in ((mu, 1.0), (mu, 0.3), (0.1, 1.0), (0.0, 0.0)):
                table = _pattern_table(mu, mu_b, amp_a, amp_b, overlap, det)
                assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
                assert np.allclose(table.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        for sop_a, sop_b in rows:
            coherent_click_probs(BsaInput(mu, mu, sop_a, sop_b), detector)
        # A lone H pulse splits onto detectors 1 and 3, which then click surely.
        single = coherent_click_probs(BsaInput(mu, 0.0, SOP_H, SOP_H), IDEAL)
        assert single.pattern_probs[0b0101] == 1.0


def test_dark_count_only_cells_exact() -> None:
    # Vacuum inputs click only by dark counts: each two-click pattern has
    # probability d^2 (1 - d)^2, which survives only if the dark counts are
    # applied after the ideal pattern law rather than folded into it.
    d = 1.5e-5
    response = coherent_click_probs(
        BsaInput(0.0, 0.0, SOP_H, SOP_V), DetectorModel(efficiency=1.0, dark_prob=d)
    )
    for pattern in range(16):
        if bin(pattern).count("1") == 2:
            assert response.pattern_probs[pattern] == pytest.approx(
                d**2 * (1.0 - d) ** 2, rel=1e-12, abs=0.0
            )


def test_non_bounding_modules_import_no_scipy() -> None:
    # Only decoy._linprog, the one function that calls the solver, may import
    # scipy: every other module, and decoy at import time, stays numpy-only.
    package = pathlib.Path(mdiqkd.bsa.__file__).parent
    in_linprog = 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "decoy.py":
            (linprog,) = [
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_linprog"
            ]
            allowed = set(ast.walk(linprog))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in modules):
                assert node in allowed, (path.name, node.lineno, modules)
                in_linprog += 1
    assert in_linprog > 0
