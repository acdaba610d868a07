"""Data contract of the decoy-state analysis, free of any solver.

This module holds what the text formats and the command line need before a
bound is computed: the measured-matrix input (GainErrorMatrices), the
analysis output (DecoyResult with its YieldSolution), the errors the
bounding programs raise (InfeasibleModelError, DegenerateBoundError,
InsufficientCountsError) and their limits and defaults (DEFAULT_TRUNCATION,
MAX_TRUNCATION, DEFAULT_F_EC).  It needs numpy only.  The programs that
compute the bounds live in mdiqkd.decoy, the one module that loads scipy;
that module imports every name here, so ``from mdiqkd.decoy import X`` works
for these names too.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .optics import ParameterError

DEFAULT_TRUNCATION = 7
# Ceiling on the photon-number truncation: the bounds stop moving past T ~ 15 at
# typical intensities, and the programs grow as (T + 1)^2 variables.
MAX_TRUNCATION = 50
DEFAULT_F_EC = 1.164


class InfeasibleModelError(RuntimeError):
    """No yield surface is consistent with the supplied gain/error matrices.

    Attributes:
        violations: list of (matrix, i, j, slack) naming the brackets that
            cannot be met and the minimal total slack assigned to each.
    """

    def __init__(self, message: str, violations: list[tuple[str, int, int, float]]):
        super().__init__(message)
        self.violations = violations


class DegenerateBoundError(RuntimeError):
    """The single-photon yield lower bound vanished, so no error bound exists."""


class InsufficientCountsError(ValueError):
    """A cell required by the analysis has no recorded pulses."""


@dataclasses.dataclass(eq=False)
class GainErrorMatrices:
    """Measured per-intensity-pair gains and error rates in both bases.

    Attributes:
        mus: (signal, decoy, vacuum) mean photon numbers, signal > decoy > 0,
            vacuum exactly 0.
        q_rect, q_diag: 3x3 gain matrices, entries in [0, 1].
        e_rect, e_diag: 3x3 error-rate matrices, entries in [0, 1].
    """

    mus: tuple[float, float, float]
    q_rect: np.ndarray
    q_diag: np.ndarray
    e_rect: np.ndarray
    e_diag: np.ndarray

    def __post_init__(self) -> None:
        if len(self.mus) != 3:
            raise ParameterError(f"mus must have 3 entries, got {self.mus!r}")
        signal, decoy, vacuum = self.mus
        if vacuum != 0.0:
            raise ParameterError(f"vacuum mu must be exactly 0, got {vacuum!r}")
        if not math.inf > signal > decoy > 0.0:
            raise ParameterError(
                f"intensities must be finite and satisfy signal > decoy > 0, got {self.mus!r}"
            )
        for name in ("q_rect", "q_diag", "e_rect", "e_diag"):
            matrix = np.asarray(getattr(self, name), dtype=float)
            if matrix.shape != (3, 3):
                raise ParameterError(f"{name} must have shape (3, 3), got {matrix.shape!r}")
            if np.any(~np.isfinite(matrix)) or np.any(matrix < 0.0) or np.any(matrix > 1.0):
                raise ParameterError(f"{name} entries must be finite and lie in [0, 1]")
            setattr(self, name, matrix)


@dataclasses.dataclass(frozen=True)
class YieldSolution:
    """Optimal-vertex yield surfaces from the bounding programs.

    Shapes are (truncation + 1, truncation + 1).  ye_diag holds the
    error-weighted yields of the diagonal-basis program.  The surfaces are
    diagnostic only; bounds are the contractual outputs.
    """

    y_rect: np.ndarray
    y_diag: np.ndarray
    ye_diag: np.ndarray


@dataclasses.dataclass(frozen=True)
class DecoyResult:
    """Full analysis output: bounds, reconstructed totals, and the key rate."""

    y11_lower: float
    e11_upper: float
    q11: float
    q_rect_measured: float
    q_rect_reconstructed: float
    q_rect_global: float
    e_rect_global: float
    rate: float
    f_ec: float
    truncation: int
    mus: tuple[float, float, float]
    solution: YieldSolution
    warnings: tuple[str, ...]
