"""The statistical law of a session's counts, computed apart from the simulator.

The checks here hold for any sampler that draws the same law, so they survive
a change of sampling algorithm that changes the bits of the counts.  Every
tally the checks test is a sum of independent Bernoulli trials (one per gate),
so the Chernoff bound

    P(X >= x) <= exp(-D)  for x >= mu,   P(X <= x) <= exp(-D)  for x <= mu,
    D(x, mu) = x ln(x / mu) - x + mu

holds exactly, with no normal approximation.  A tally fails its check when
D > ln(1 / ALPHA), so one test raises a false alarm with probability at most
2 * ALPHA; a run reports the number of tests it made.
"""

from __future__ import annotations

import math

import numpy as np

from mdiqkd.bsa import BsaInput, DetectorModel, coherent_click_probs
from mdiqkd.optics import SOP_BY_CODE, attenuate

ALPHA = 1e-12
_D_LIMIT = math.log(1.0 / ALPHA)

MUS = (0.5, 0.1, 0.0)
CLASS_LABELS = ("signal", "decoy", "vacuum")
# Click patterns (bit d-1 set when detector d fired) of the six named
# coincidence columns, in counts-file order; the seventh column, "other",
# holds every remaining pattern, no-click included.
COLUMN_PATTERNS = (0b0011, 0b1100, 0b1001, 0b0110, 0b0101, 0b1010)
N_COLUMNS = len(COLUMN_PATTERNS) + 1
BASIS_CELLS = {
    "rect": ((0, 0), (0, 1), (1, 0), (1, 1)),
    "diag": ((2, 2), (2, 3), (3, 2), (3, 3)),
}
# Sweep mode visits the 9 intensity pairs x 8 same-basis state pairs in this
# order, one gate per slot, rectilinear block first.
SWEEP_SLOTS = tuple(
    (ia, ib, sa, sb)
    for ia in range(3)
    for ib in range(3)
    for sa, sb in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
)
AGREE = np.zeros((3, 3, 4, 4), dtype=bool)
AGREE[:, :, :2, :2] = True
AGREE[:, :, 2:, 2:] = True


def column_law(
    loss_a: float,
    loss_b: float,
    mis_a: float,
    mis_b: float,
    detector: DetectorModel,
) -> np.ndarray:
    """P(column | prepared cell), shape (3, 3, 4, 4, 7).

    Misalignment flips a prepared state to its orthogonal partner in the same
    basis before the analyzer, independently on each link.
    """
    mus_a = [attenuate(mu, loss_a) for mu in MUS]
    mus_b = [attenuate(mu, loss_b) for mu in MUS]
    seen = np.empty((3, 3, 4, 4, N_COLUMNS))
    for ia in range(3):
        for ib in range(3):
            for pa in range(4):
                for pb in range(4):
                    probs = coherent_click_probs(
                        BsaInput(mus_a[ia], mus_b[ib], SOP_BY_CODE[pa], SOP_BY_CODE[pb]),
                        detector,
                    ).pattern_probs
                    named = [probs[p] for p in COLUMN_PATTERNS]
                    seen[ia, ib, pa, pb] = named + [1.0 - sum(named)]
    flips_a = [(0, 1.0 - mis_a), (1, mis_a)] if mis_a > 0.0 else [(0, 1.0)]
    flips_b = [(0, 1.0 - mis_b), (1, mis_b)] if mis_b > 0.0 else [(0, 1.0)]
    law = np.zeros_like(seen)
    for sa in range(4):
        for sb in range(4):
            for fa, wa in flips_a:
                for fb, wb in flips_b:
                    law[:, :, sa, sb] += wa * wb * seen[:, :, sa ^ fa, sb ^ fb]
    return law


def law_matrices(law: np.ndarray) -> dict[str, np.ndarray]:
    """Infinite-statistics gain and error matrices of a column law."""
    out = {}
    for basis, cells in BASIS_CELLS.items():
        q = np.empty((3, 3))
        e = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                total = wrong = 0.0
                for sa, sb in cells:
                    plus = law[i, j, sa, sb, 0] + law[i, j, sa, sb, 1]
                    minus = law[i, j, sa, sb, 2] + law[i, j, sa, sb, 3]
                    total += plus + minus
                    same_bit = (sa & 1) == (sb & 1)
                    if basis == "rect":
                        wrong += (plus + minus) if same_bit else 0.0
                    else:
                        wrong += minus if same_bit else plus
                q[i, j] = total / 4.0
                e[i, j] = wrong / total
        out[f"q_{basis}"] = q
        out[f"e_{basis}"] = e
    return out


def expectation_counts(law: np.ndarray, pulses_per_cell: int) -> tuple[np.ndarray, np.ndarray]:
    """Population-expectation (pulses_sent, counts) with every cell sent equally.

    Named columns are rounded expectations; "other" closes each agreeing-basis
    row so that it sums to the pulses sent.  Mismatched-basis cells carry
    pulses and no counts, as in a random-mode session.
    """
    pulses = np.full((3, 3, 4, 4), pulses_per_cell, dtype=np.int64)
    counts = np.zeros((3, 3, 4, 4, N_COLUMNS), dtype=np.int64)
    named = np.rint(law[..., :-1] * pulses_per_cell).astype(np.int64)
    counts[..., :-1] = named
    counts[..., -1] = pulses_per_cell - named.sum(axis=-1)
    counts[~AGREE] = 0
    return pulses, counts


def deviance(x: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Chernoff exponent D(x, mu); infinite for a positive count of a null event."""
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(x > 0.0, x * np.log(x / mu) - x + mu, mu)
    return np.where((mu <= 0.0) & (x > 0.0), np.inf, d)


def law_failures(observed: np.ndarray, expected: np.ndarray) -> int:
    """Number of tallies whose deviation from expectation fails the bound."""
    return int(np.count_nonzero(deviance(observed, expected) > _D_LIMIT))
