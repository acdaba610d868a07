"""Core optics primitives: polarization states, intensity classes, channels.

Conventions used across the package:
  * Polarization states are Jones vectors (amp_h, amp_v), unit norm.
  * Mean photon numbers are per pulse at the point of definition; channel loss
    rescales them multiplicatively.
  * The four protocol states are H, V (rectilinear basis) and +45, -45
    (diagonal basis), with integer codes 0, 1, 2, 3 in that order.
"""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np

NORM_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# A class label the counts file format can carry: one token without "=" or
# ":" that does not start a comment.
_LABEL = re.compile(r"[^\s=:#][^\s=:]*")


def is_label(label: object) -> bool:
    """Whether label can name an intensity class in the text formats."""
    return isinstance(label, str) and _LABEL.fullmatch(label) is not None


class ParameterError(ValueError):
    """A constructor or function argument is outside its allowed range."""


@dataclasses.dataclass(frozen=True, slots=True)
class PolarizationState:
    """Pure state of polarization as a normalized Jones vector."""

    amp_h: complex
    amp_v: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp_h) ** 2 + abs(self.amp_v) ** 2
        if not math.isfinite(norm):
            raise ParameterError("polarization amplitudes must be finite")
        if abs(norm - 1.0) > NORM_TOL:
            raise ParameterError(
                f"polarization state must be normalized, got |amp|^2 = {norm!r}"
            )


SOP_H = PolarizationState(1.0 + 0.0j, 0.0 + 0.0j)
SOP_V = PolarizationState(0.0 + 0.0j, 1.0 + 0.0j)
SOP_PLUS = PolarizationState(_INV_SQRT2 + 0.0j, _INV_SQRT2 + 0.0j)
SOP_MINUS = PolarizationState(_INV_SQRT2 + 0.0j, -_INV_SQRT2 + 0.0j)

# Canonical code order: H=0, V=1, +45=2, -45=3.  Codes within one basis differ
# in the low bit, so an orthogonal flip is code ^ 1 and the basis is code >> 1.
SOP_BY_CODE: tuple[PolarizationState, ...] = (SOP_H, SOP_V, SOP_PLUS, SOP_MINUS)
SOP_LABELS: tuple[str, ...] = ("H", "V", "+45", "-45")
# Basis names, indexed by code >> 1.
BASIS_LABELS: tuple[str, ...] = ("rect", "diag")


def poisson_pmf(mu: float, n):
    """Poisson photon-number probability P(n) for mean mu.

    Args:
        mu: mean photon number, >= 0.  mu == 0 yields the vacuum distribution.
        n: photon number, scalar int or integer array, >= 0.

    Returns:
        float or ndarray matching the shape of n.
    """
    if not math.isfinite(mu) or mu < 0.0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {mu!r}")
    n_arr = np.asarray(n)
    if not np.issubdtype(n_arr.dtype, np.integer):
        raise ParameterError("photon number n must be integer valued")
    if np.any(n_arr < 0):
        raise ParameterError("photon number n must be >= 0")
    if mu == 0.0:
        out = np.where(n_arr == 0, 1.0, 0.0)
    else:
        log_factorial = np.reshape(
            [math.lgamma(k + 1) for k in n_arr.ravel().tolist()], n_arr.shape
        )
        out = np.exp(n_arr * math.log(mu) - mu - log_factorial)
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


def attenuate(mu: float, loss_db: float) -> float:
    """Rescale a mean photon number through loss_db decibels of loss."""
    if not math.isfinite(mu) or mu < 0.0:
        raise ParameterError(f"mean photon number must be finite and >= 0, got {mu!r}")
    if not math.isfinite(loss_db) or loss_db < 0.0:
        raise ParameterError(f"loss_db must be finite and >= 0, got {loss_db!r}")
    return mu * 10.0 ** (-loss_db / 10.0)


@dataclasses.dataclass(frozen=True, slots=True)
class IntensityClass:
    """A named intensity setting (signal, decoy, or vacuum) with its mean photon number."""

    label: str
    mu: float

    def __post_init__(self) -> None:
        if not is_label(self.label):
            raise ParameterError(
                "intensity label must be a token without '=', ':' or a leading '#', "
                f"got {self.label!r}"
            )
        if not math.isfinite(self.mu) or self.mu < 0.0:
            raise ParameterError(
                f"mean photon number must be finite and >= 0, got {self.mu!r}"
            )


def standard_classes(
    signal_mu: float = 0.5, decoy_mu: float = 0.1
) -> tuple[IntensityClass, IntensityClass, IntensityClass]:
    """Build the (signal, decoy, vacuum) intensity triple."""
    classes = (
        IntensityClass("signal", signal_mu),
        IntensityClass("decoy", decoy_mu),
        IntensityClass("vacuum", 0.0),
    )
    validate_classes(classes)
    return classes


def validate_classes(
    classes: tuple[IntensityClass, IntensityClass, IntensityClass]
) -> None:
    """Check the (signal, decoy, vacuum) contract: three distinct labels and
    the check_intensities rule on their mus."""
    if len(classes) != 3:
        raise ParameterError(f"expected exactly 3 intensity classes, got {len(classes)}")
    labels = [c.label for c in classes]
    if len(set(labels)) != 3:
        raise ParameterError(f"intensity class labels must be distinct, got {labels!r}")
    check_intensities(tuple(c.mu for c in classes))


def check_intensities(mus: tuple[float, float, float]) -> None:
    """Check a (signal, decoy, vacuum) mu triple: vacuum exactly 0, finite signal > decoy > 0."""
    if len(mus) != 3:
        raise ParameterError(f"mus must have 3 entries, got {mus!r}")
    signal, decoy, vacuum = mus
    if vacuum != 0.0:
        raise ParameterError(f"vacuum mu must be exactly 0, got {vacuum!r}")
    if not math.inf > signal > decoy > 0.0:
        raise ParameterError(
            f"intensities must be finite and satisfy signal > decoy > 0, got {mus!r}"
        )


@dataclasses.dataclass(frozen=True, slots=True)
class ChannelModel:
    """One transmitter-to-analyzer optical link.

    Attributes:
        loss_db: total attenuation in dB, >= 0.
        misalignment: probability of an orthogonal polarization flip per pulse,
            in [0, 0.5].
        temporal_overlap: amplitude-squared fraction of the pulse occupying the
            common temporal mode shared with the other link, in [0, 1].
    """

    loss_db: float = 0.0
    misalignment: float = 0.0
    temporal_overlap: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.loss_db) or self.loss_db < 0.0:
            raise ParameterError(f"loss_db must be finite and >= 0, got {self.loss_db!r}")
        if not 0.0 <= self.misalignment <= 0.5:
            raise ParameterError(
                f"misalignment must lie in [0, 0.5], got {self.misalignment!r}"
            )
        if not 0.0 <= self.temporal_overlap <= 1.0:
            raise ParameterError(
                f"temporal_overlap must lie in [0, 1], got {self.temporal_overlap!r}"
            )
