"""Polarization states, Poisson statistics, attenuation, intensity classes."""

import math

import numpy as np
import pytest

from mdiqkd.optics import (
    ChannelModel,
    IntensityClass,
    ParameterError,
    PolarizationState,
    SOP_BY_CODE,
    SOP_H,
    SOP_LABELS,
    SOP_MINUS,
    SOP_PLUS,
    SOP_V,
    attenuate,
    poisson_pmf,
    standard_classes,
    validate_classes,
)

EXACT_TOL = 1e-12


def test_states_are_normalized_and_code_ordered() -> None:
    assert SOP_BY_CODE == (SOP_H, SOP_V, SOP_PLUS, SOP_MINUS)
    assert SOP_LABELS == ("H", "V", "+45", "-45")
    for sop in SOP_BY_CODE:
        assert abs(abs(sop.amp_h) ** 2 + abs(sop.amp_v) ** 2 - 1.0) < EXACT_TOL
    # A code's basis is code >> 1: states of one basis are equal or
    # orthogonal, states of different bases overlap by 1/2.
    for a, first in enumerate(SOP_BY_CODE):
        for b, second in enumerate(SOP_BY_CODE):
            expected = float(a == b) if a >> 1 == b >> 1 else 0.5
            assert overlap(first, second) == pytest.approx(expected, abs=EXACT_TOL)


def test_unnormalized_state_rejected() -> None:
    with pytest.raises(ParameterError):
        PolarizationState(1.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(ParameterError):
        PolarizationState(float("nan") + 0.0j, 0.0 + 0.0j)


def overlap(first: PolarizationState, second: PolarizationState) -> float:
    """|<first|second>|^2, the projection probability between two states."""
    return abs(np.vdot([first.amp_h, first.amp_v], [second.amp_h, second.amp_v])) ** 2


def test_overlap_within_and_across_bases() -> None:
    assert overlap(SOP_H, SOP_H) == pytest.approx(1.0, abs=EXACT_TOL)
    assert overlap(SOP_H, SOP_V) == pytest.approx(0.0, abs=EXACT_TOL)
    assert overlap(SOP_PLUS, SOP_MINUS) == pytest.approx(0.0, abs=EXACT_TOL)
    for rect in (SOP_H, SOP_V):
        for diag in (SOP_PLUS, SOP_MINUS):
            assert overlap(rect, diag) == pytest.approx(0.5, abs=EXACT_TOL)


def test_code_flip_is_orthogonal() -> None:
    # The session models misalignment as the flip code ^ 1: it must turn each
    # state into its orthogonal partner in the same basis.
    for code, sop in enumerate(SOP_BY_CODE):
        flipped = code ^ 1
        assert overlap(sop, SOP_BY_CODE[flipped]) == pytest.approx(0.0, abs=EXACT_TOL)
        assert flipped >> 1 == code >> 1


def test_poisson_pmf_against_direct_series() -> None:
    mu = 0.37
    ns = np.arange(12)
    values = poisson_pmf(mu, ns)
    direct = np.array([math.exp(-mu) * mu**n / math.factorial(n) for n in ns])
    assert np.allclose(values, direct, rtol=0.0, atol=EXACT_TOL)
    assert poisson_pmf(mu, 3) == pytest.approx(direct[3], abs=EXACT_TOL)


def test_poisson_pmf_vacuum_and_validation() -> None:
    assert poisson_pmf(0.0, 0) == 1.0
    assert poisson_pmf(0.0, 2) == 0.0
    with pytest.raises(ParameterError):
        poisson_pmf(-0.1, 0)
    with pytest.raises(ParameterError):
        poisson_pmf(0.5, -1)
    with pytest.raises(ParameterError):
        poisson_pmf(0.5, 1.5)


def test_attenuate_decibel_law() -> None:
    assert attenuate(0.5, 0.0) == pytest.approx(0.5, abs=EXACT_TOL)
    assert attenuate(0.5, 10.0) == pytest.approx(0.05, abs=EXACT_TOL)
    assert attenuate(0.5, 19.5) == pytest.approx(0.5 * 10.0 ** (-1.95), abs=EXACT_TOL)
    with pytest.raises(ParameterError):
        attenuate(0.5, -1.0)
    for mu in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterError, match="^mean photon number must be finite and >= 0"):
            attenuate(mu, 3.0)


def test_standard_classes_contract() -> None:
    classes = standard_classes()
    assert [c.label for c in classes] == ["signal", "decoy", "vacuum"]
    assert [c.mu for c in classes] == [0.5, 0.1, 0.0]
    validate_classes(classes)
    with pytest.raises(ParameterError):
        standard_classes(signal_mu=0.1, decoy_mu=0.5)
    with pytest.raises(ParameterError):
        validate_classes(
            (IntensityClass("a", 0.5), IntensityClass("b", 0.1), IntensityClass("c", 0.01))
        )
    with pytest.raises(ParameterError, match="^expected exactly 3 intensity classes, got 2$"):
        validate_classes(classes[:2])
    with pytest.raises(ParameterError, match="^intensity class labels must be distinct"):
        validate_classes(
            (IntensityClass("a", 0.5), IntensityClass("b", 0.1), IntensityClass("a", 0.0))
        )
    # A label must be a token the counts file can carry.
    for label in ("", "two words", "s=1", "a:b", "#x", None):
        with pytest.raises(ParameterError, match="intensity label"):
            IntensityClass(label, 0.5)
    assert IntensityClass("s-1#", 0.5).label == "s-1#"
    with pytest.raises(ParameterError):
        IntensityClass("signal", -0.5)


def test_channel_model_validation() -> None:
    channel = ChannelModel(loss_db=19.5, misalignment=0.019, temporal_overlap=0.9)
    assert channel.loss_db == 19.5
    with pytest.raises(ParameterError):
        ChannelModel(loss_db=-1.0)
    with pytest.raises(ParameterError):
        ChannelModel(misalignment=0.6)
    with pytest.raises(ParameterError):
        ChannelModel(temporal_overlap=1.5)
