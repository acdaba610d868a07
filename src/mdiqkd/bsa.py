"""Linear-optics Bell-state analyzer: click statistics and outcome classification.

Layout: a 50:50 coupler with transmission amplitude 1/sqrt(2) and reflection
amplitude i/sqrt(2), followed by one polarizing splitter per output port.
Detectors are numbered 1..4 as (port1, H), (port1, V), (port2, H), (port2, V).

Outcome rule over the 16 click patterns, declared once as _PSI_PATTERNS:
  * exactly detectors {1, 2} or exactly {3, 4} fire: psi+
  * exactly detectors {1, 4} or exactly {2, 3} fire: psi-
  * every other pattern, including no clicks, is not counted
psi_probs reads it here; session folds it into its tally-column layout, from
which decoy takes the conclusive and error columns.

Temporal-mode model: each source occupies a common mode with amplitude weight
sqrt(overlap) plus its own leftover mode with weight sqrt(1 - overlap).  In the
common mode the two sources interfere with a uniformly random relative phase;
leftover-mode intensities add incoherently.

Click probabilities for coherent inputs are exact, for any finite intensity.
At a fixed phase the detectors click independently with p = 1 - (1 - dark)
exp(-efficiency * n), and the photon number of any detector subset is a
sinusoid in the relative phase, so the phase average of the subset's no-click
probability is a modified Bessel function I0 (Ma & Razavi, PRA 86, 062319
(2012)).  One engine, _pattern_table, evaluates a batch of inputs in one
array pass: inclusion-exclusion over the 16 subsets gives the ideal pattern
law, and dark counts are applied last.  coherent_click_probs wraps one input.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .optics import SOP_BY_CODE, ParameterError, PolarizationState, check_nonnegative, check_range

DIST_TOL = 1e-9
MAX_FOCK_PHOTONS = 4
PATTERN_COUNT = 16
# Sanity ceiling of a detector's dark-count probability per gate.
MAX_DARK_PROB = 0.01

# Pattern index encodes detector d (1-based) as bit d-1.
COINCIDENCE_PATTERNS: dict[str, int] = {
    "C12": 0b0011,
    "C34": 0b1100,
    "C14": 0b1001,
    "C23": 0b0110,
    "C13": 0b0101,
    "C24": 0b1010,
}
# The coincidence patterns that announce psi+ (row 0) and psi- (row 1).
_PSI_PATTERNS = np.array(
    [[COINCIDENCE_PATTERNS[name] for name in pair] for pair in (("C12", "C34"), ("C14", "C23"))]
)

_BITS = ((np.arange(PATTERN_COUNT)[:, None] >> np.arange(4)[None, :]) & 1).astype(bool)


class UnsupportedSizeError(ValueError):
    """Requested Fock expansion exceeds the brute-force photon-number bound."""


@dataclasses.dataclass(frozen=True, slots=True)
class DetectorModel:
    """Threshold single-photon detector with efficiency and dark counts.

    Attributes:
        efficiency: detection efficiency in (0, 1].
        dark_prob: dark-count probability per gate per detector, in
            [0, MAX_DARK_PROB).
    """

    efficiency: float = 1.0
    dark_prob: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ParameterError(
                f"efficiency must lie in (0, 1], got {self.efficiency!r}"
            )
        if not 0.0 <= self.dark_prob < MAX_DARK_PROB:
            raise ParameterError(
                f"dark_prob must lie in [0, {MAX_DARK_PROB!r}), got {self.dark_prob!r}"
            )


@dataclasses.dataclass(frozen=True, slots=True)
class BsaInput:
    """Two incoming pulses at the analyzer plus their shared temporal overlap."""

    mu_a: float
    mu_b: float
    sop_a: PolarizationState
    sop_b: PolarizationState
    overlap: float = 1.0

    def __post_init__(self) -> None:
        check_nonnegative("mu_a", self.mu_a)
        check_nonnegative("mu_b", self.mu_b)
        check_range("overlap", self.overlap, 0, 1)


@dataclasses.dataclass(frozen=True)
class BsaResponse:
    """Distribution over the 16 click patterns for one analyzer input."""

    pattern_probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.pattern_probs, dtype=float)
        if probs.shape != (PATTERN_COUNT,):
            raise ParameterError(
                f"pattern_probs must have shape (16,), got {probs.shape!r}"
            )
        if np.any(probs < -DIST_TOL) or abs(float(probs.sum()) - 1.0) > DIST_TOL:
            raise ParameterError("pattern_probs must be a probability distribution")
        object.__setattr__(self, "pattern_probs", np.clip(probs, 0.0, None))


def psi_probs(pattern_probs) -> np.ndarray:
    """Probabilities of the (psi+, psi-) announcements, shape (..., 2).

    pattern_probs holds pattern distributions on its last axis, as
    _pattern_table returns them; each announcement sums its row of _PSI_PATTERNS.
    """
    return np.asarray(pattern_probs, dtype=float)[..., _PSI_PATTERNS].sum(axis=-1)


def _detector_amplitudes(
    sop_a: PolarizationState, sop_b: PolarizationState
) -> tuple[np.ndarray, np.ndarray]:
    """Unit-amplitude transfer coefficients of each source onto the 4 detectors."""
    inv = 1.0 / math.sqrt(2.0)
    a = np.array(
        [inv * sop_a.amp_h, inv * sop_a.amp_v, 1j * inv * sop_a.amp_h, 1j * inv * sop_a.amp_v]
    )
    b = np.array(
        [1j * inv * sop_b.amp_h, 1j * inv * sop_b.amp_v, inv * sop_b.amp_h, inv * sop_b.amp_v]
    )
    return a, b


# Detector amplitudes of each protocol state code (optics.SOP_BY_CODE) as sent
# by source A and by source B, shape (4 codes, 4 detectors) each.
_CODE_AMPS_A, _CODE_AMPS_B = (
    np.array(side) for side in zip(*(_detector_amplitudes(s, s) for s in SOP_BY_CODE))
)


def _per_detector(m: np.ndarray) -> np.ndarray:
    """The 16 x 16 pattern matrix that applies the 2 x 2 matrix m to each detector's bit.

    It is the fourfold Kronecker power of m, built by broadcasting.
    """
    pair = (m[:, None, :, None] * m[None, :, None, :]).reshape(4, 4)
    return (pair[:, None, :, None] * pair[None, :, None, :]).reshape(16, 16)


# Inclusion-exclusion from subset no-click probabilities to exact patterns:
# M[U, C] = (-1)^|U & C| when U | C covers all four detectors, else 0.
_MOBIUS = _per_detector(np.array([[0.0, 1.0], [1.0, -1.0]]))

# exp(-x) I0(x) above _I0E_SWITCH: (2 pi x)^(-1/2) sum_k c_k (8x)^(-k) with
# c_k = ((2k - 1)!!)^2 / k!, highest order first.  Six terms reach double
# precision there, and np.i0 overflows a little above it.
_I0E_SWITCH = 700.0
_I0E_SERIES = (7441.875, 459.375, 37.5, 4.5, 1.0, 1.0)


def _i0e(x: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function exp(-x) I0(x) for x >= 0."""
    low = np.minimum(x, _I0E_SWITCH)
    high = np.maximum(x, _I0E_SWITCH)
    series = np.polyval(_I0E_SERIES, 1.0 / (8.0 * high)) / np.sqrt(2.0 * np.pi * high)
    return np.where(x <= _I0E_SWITCH, np.i0(low) * np.exp(-low), series)


def _pattern_table(mu_a, mu_b, amp_a, amp_b, overlap, detector: DetectorModel) -> np.ndarray:
    """Click-pattern distributions of a batch of phase-randomized coherent inputs.

    Args:
        mu_a, mu_b, overlap: per-row mean photon numbers (finite and >= 0;
            callers check them) and temporal overlap, shape (n,) or
            broadcastable to it.
        amp_a, amp_b: per-row detector amplitudes of each source, shape (n, 4)
            or broadcastable to it (see _detector_amplitudes).
        detector: detector model applied identically to all four detectors.

    Returns:
        Array of shape (n, 16): row r is the pattern distribution of input r,
        pattern index with detector d as bit d - 1.
    """
    mu_a, mu_b, overlap = (np.asarray(x, dtype=float)[..., None] for x in (mu_a, mu_b, overlap))
    # The mean photon number at detector d and relative phase theta is
    # base_d + Re(cross_d exp(i theta)); cross comes from the common mode.
    base = mu_a * np.abs(amp_a) ** 2 + mu_b * np.abs(amp_b) ** 2
    cross = np.sqrt(mu_a) * np.sqrt(mu_b) * (2.0 * overlap * np.conj(amp_a) * amp_b)
    base, cross = (np.atleast_2d(x) for x in np.broadcast_arrays(base, cross))
    # With ideal detectors no detector of subset U clicks with probability
    # exp(-a_U - b_U cos(theta')), whose phase average is exp(-a_U) I0(b_U).
    subsets = _BITS.T.astype(float)
    a = detector.efficiency * (base @ subsets)
    b = detector.efficiency * np.abs(cross @ subsets)
    # a_U >= b_U exactly; the clips drop round-off of order 1e-16.
    no_click = np.exp(-np.maximum(a - b, 0.0)) * _i0e(b)
    ideal = np.clip(no_click @ _MOBIUS, 0.0, None)
    # Dark counts add clicks independently per detector: an ideal no-click
    # becomes a click with probability dark_prob.
    dark = detector.dark_prob
    return ideal @ _per_detector(np.array([[1.0 - dark, dark], [0.0, 1.0]]))


def coherent_click_probs(inp: BsaInput, detector: DetectorModel) -> BsaResponse:
    """Exact click-pattern distribution for two phase-randomized coherent pulses.

    Args:
        inp: the two mean photon numbers, states, and shared temporal overlap.
        detector: detector model applied identically to all four detectors.

    Returns:
        BsaResponse over the 16 click patterns.
    """
    amp_a, amp_b = _detector_amplitudes(inp.sop_a, inp.sop_b)
    probs = _pattern_table(inp.mu_a, inp.mu_b, amp_a, amp_b, inp.overlap, detector)
    return BsaResponse(pattern_probs=probs[0])


def _apply_creation(
    poly: dict[tuple[int, ...], complex], coeffs: np.ndarray
) -> dict[tuple[int, ...], complex]:
    """Multiply a creation-operator polynomial by sum_j coeffs[j] e_j^dagger."""
    out: dict[tuple[int, ...], complex] = {}
    nonzero = [(j, c) for j, c in enumerate(coeffs) if c != 0.0]
    for occ, value in poly.items():
        for j, c in nonzero:
            new_occ = occ[:j] + (occ[j] + 1,) + occ[j + 1 :]
            out[new_occ] = out.get(new_occ, 0.0) + value * c
    return out


def fock_bsa_oracle(
    photons_a: int,
    photons_b: int,
    sop_a: PolarizationState,
    sop_b: PolarizationState,
    overlap: float = 1.0,
) -> BsaResponse:
    """Brute-force photon-number reference for the analyzer with ideal detectors.

    Expands (A^dagger)^m (B^dagger)^n |0> over 12 orthonormal modes
    (4 detectors x {common, leftover-A, leftover-B}) and tallies the exact
    click-pattern distribution assuming unit efficiency and no dark counts.

    Args:
        photons_a, photons_b: Fock photon numbers, m + n <= 4.
        sop_a, sop_b: source polarization states.
        overlap: shared temporal-overlap parameter in [0, 1].

    Returns:
        BsaResponse with the exact 16-pattern distribution.
    """
    for name, k in (("photons_a", photons_a), ("photons_b", photons_b)):
        if not isinstance(k, (int, np.integer)) or k < 0:
            raise ParameterError(f"{name} must be a non-negative integer, got {k!r}")
    if photons_a + photons_b > MAX_FOCK_PHOTONS:
        raise UnsupportedSizeError(
            f"total photon number {photons_a + photons_b} exceeds the supported "
            f"brute-force bound {MAX_FOCK_PHOTONS}"
        )
    check_range("overlap", overlap, 0, 1)

    amp_a, amp_b = _detector_amplitudes(sop_a, sop_b)
    root_common = math.sqrt(overlap)
    root_left = math.sqrt(1.0 - overlap)
    # Mode order per detector d: 3d = common, 3d+1 = leftover-A, 3d+2 = leftover-B.
    coeff_a = np.zeros(12, dtype=complex)
    coeff_b = np.zeros(12, dtype=complex)
    for d in range(4):
        coeff_a[3 * d] = root_common * amp_a[d]
        coeff_a[3 * d + 1] = root_left * amp_a[d]
        coeff_b[3 * d] = root_common * amp_b[d]
        coeff_b[3 * d + 2] = root_left * amp_b[d]

    poly: dict[tuple[int, ...], complex] = {(0,) * 12: 1.0 + 0.0j}
    for _ in range(photons_a):
        poly = _apply_creation(poly, coeff_a)
    for _ in range(photons_b):
        poly = _apply_creation(poly, coeff_b)

    norm = math.factorial(photons_a) * math.factorial(photons_b)
    pattern = np.zeros(PATTERN_COUNT)
    for occ, value in poly.items():
        weight = 1.0
        for k in occ:
            weight *= math.factorial(k)
        prob = (abs(value) ** 2) * weight / norm
        index = 0
        for d in range(4):
            if occ[3 * d] + occ[3 * d + 1] + occ[3 * d + 2] > 0:
                index |= 1 << d
        pattern[index] += prob
    return BsaResponse(pattern_probs=pattern)
