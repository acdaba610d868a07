"""Protocol session simulation: pulse preparation, analyzer sampling, tallies.

Gates are independent and identically distributed, so a session's tallies
follow one known multinomial law, and run_session draws them from it
directly rather than gate by gate.  Each agreeing-basis cell's column law is
the analyzer's 16-pattern response mixed over the misalignment flips and
folded into the seven tallied columns (c12, c34, c14, c23, c13, c24, other).
Mismatched-basis gates are counted in pulses_sent but their detector
outcomes are not tabulated (they are discarded at sifting).  The law reads
only the class mus, the two channels and the detector, so it is computed once
per distinct set of these and kept read-only; sessions that differ only in
seed, pulses or mode reuse it and pay only for their draws.

Random mode makes one multinomial draw over 144 cells x 8 outcomes: the
seven columns plus "not tallied", which holds a mismatched-basis cell's
pulses.  Sweep mode sends a fixed number of gates to each of its 72 slots and
draws one multinomial per slot.  Both use a single PCG64 stream seeded with
SeedSequence(seed), so results are bit-identical for a fixed (seed, pulses).

Cell indexing: intensity pair (ia, ib) with 0 = signal, 1 = decoy, 2 = vacuum,
and state codes (sa, sb) in H=0, V=1, +45=2, -45=3.  The flat cell index is
((ia * 3 + ib) * 4 + sa) * 4 + sb in [0, 144).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re

import numpy as np

from .bsa import (
    COINCIDENCE_PATTERNS,
    PATTERN_COUNT,
    DetectorModel,
    _CODE_AMPS_A,
    _CODE_AMPS_B,
    _pattern_table,
)
from .optics import (
    ChannelModel,
    IntensityClass,
    ParameterError,
    attenuate,
    is_label,
    standard_classes,
    validate_classes,
)

N_CLASSES = 3
N_SOPS = 4
N_CELLS = N_CLASSES * N_CLASSES * N_SOPS * N_SOPS

# Tally columns per cell, in serialization order.  The first four are the
# conclusive coincidence classes; "other" absorbs every remaining pattern.
COUNT_COLUMNS = ("c12", "c34", "c14", "c23", "c13", "c24", "other")
N_COLUMNS = len(COUNT_COLUMNS)
_COLUMN_BY_NAME = {name.upper(): k for k, name in enumerate(COUNT_COLUMNS[:-1])}
_FOLD = np.full(PATTERN_COUNT, N_COLUMNS - 1, dtype=np.int64)
for _name, _pattern in COINCIDENCE_PATTERNS.items():
    _FOLD[_pattern] = _COLUMN_BY_NAME[_name]

MODE_RANDOM = "random"
MODE_SWEEP = "sweep"

# The agreeing-basis cells: a state code's basis is code >> 1 (see optics), so
# in C order the 72 cells take the axes (ia, ib, basis, sa & 1, sb & 1).
_BASIS = np.arange(N_SOPS) >> 1
AGREE = np.broadcast_to(_BASIS[:, None] == _BASIS, (N_CLASSES, N_CLASSES, N_SOPS, N_SOPS))
# Sweep mode cycles through the 72 agreeing-basis configurations gate by gate,
# in cell order: 9 intensity pairs x 8 same-basis state pairs, rectilinear first.
SWEEP_SLOTS: tuple[tuple[int, int, int, int], ...] = tuple(
    map(tuple, np.argwhere(AGREE).tolist())
)
_SWEEP_CELLS = np.flatnonzero(AGREE)


@dataclasses.dataclass(frozen=True, slots=True)
class SessionConfig:
    """Full configuration of one simulated session.

    Every field has a default, and these defaults are the session config
    file's defaults: an empty config file gives SessionConfig().

    Attributes:
        pulses: number of gates (pulse pairs) to simulate, below 2**63.
        seed: master RNG seed, >= 0.
        classes: (signal, decoy, vacuum) intensity classes.
        class_probs: per-gate selection probabilities for the three classes,
            applied independently at each sender.
        channel_a, channel_b: optical links from the two senders.
        detector: detector model at the analyzer.
        rect_prob: per-sender probability of choosing the rectilinear basis
            in random mode.
        mode: "random" (independent choices per gate) or "sweep" (deterministic
            cycle through the 72 agreeing-basis configurations).
        batch_gates: ignored; accepted for old configs.  It must be >= 1.
    """

    pulses: int = 1_000_000
    seed: int = 1
    classes: tuple[IntensityClass, IntensityClass, IntensityClass] = standard_classes()
    class_probs: tuple[float, float, float] = (0.5, 0.25, 0.25)
    channel_a: ChannelModel = ChannelModel()
    channel_b: ChannelModel = ChannelModel()
    detector: DetectorModel = DetectorModel()
    rect_prob: float = 0.5
    mode: str = MODE_RANDOM
    batch_gates: int = 1_000_000

    def __post_init__(self) -> None:
        if not 1 <= self.pulses < 2**63:
            raise ParameterError(f"pulses must lie in [1, 2**63), got {self.pulses!r}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed!r}")
        if self.batch_gates < 1:
            raise ParameterError(f"batch_gates must be >= 1, got {self.batch_gates!r}")
        validate_classes(self.classes)
        probs = self.class_probs
        if len(probs) != N_CLASSES or not all(0.0 <= p < math.inf for p in probs):
            raise ParameterError(
                f"class_probs must be 3 finite probabilities >= 0, got {probs!r}"
            )
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ParameterError(f"class_probs must sum to 1, got {probs!r}")
        if not 0.0 <= self.rect_prob <= 1.0:
            raise ParameterError(f"rect_prob must lie in [0, 1], got {self.rect_prob!r}")
        if self.mode not in (MODE_RANDOM, MODE_SWEEP):
            raise ParameterError(
                f"mode must be {MODE_RANDOM!r} or {MODE_SWEEP!r}, got {self.mode!r}"
            )


@dataclasses.dataclass(eq=False)
class CountTables:
    """Per-cell pulse and coincidence tallies of one session.

    pulses_sent has shape (3, 3, 4, 4); counts has shape (3, 3, 4, 4, 7) with
    columns ordered as COUNT_COLUMNS.  Click counts are tabulated only for
    agreeing-basis cells; mismatched-basis cells carry pulses_sent but
    all-zero counts.  Construction refuses any table that the counts file
    format could not write or read back, such as a cell whose counts sum
    above its pulses_sent, and every other table reads back unchanged.
    """

    class_labels: tuple[str, str, str]
    class_mus: tuple[float, float, float]
    pulses_total: int
    seed: int
    mode: str
    pulses_sent: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        labels = self.class_labels
        if len(labels) != N_CLASSES or len(set(labels)) != N_CLASSES or not all(
            map(is_label, labels)
        ):
            raise ParameterError(
                f"class_labels must be 3 distinct tokens without '=', ':' or a leading '#', "
                f"got {labels!r}"
            )
        if len(self.class_mus) != N_CLASSES or not all(0.0 <= m < math.inf for m in self.class_mus):
            raise ParameterError(f"class_mus must be 3 finite numbers >= 0, got {self.class_mus!r}")
        if self.pulses_total < 0:
            raise ParameterError(f"pulses_total must be >= 0, got {self.pulses_total!r}")
        if not (isinstance(self.mode, str) and re.fullmatch(r"\S+", self.mode)):
            raise ParameterError(f"mode must be a single token, got {self.mode!r}")
        self.pulses_sent = np.asarray(self.pulses_sent, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.pulses_sent.shape != (N_CLASSES, N_CLASSES, N_SOPS, N_SOPS):
            raise ParameterError(
                f"pulses_sent must have shape (3, 3, 4, 4), got {self.pulses_sent.shape!r}"
            )
        if self.counts.shape != (N_CLASSES, N_CLASSES, N_SOPS, N_SOPS, N_COLUMNS):
            raise ParameterError(
                f"counts must have shape (3, 3, 4, 4, 7), got {self.counts.shape!r}"
            )
        cells = np.concatenate((self.pulses_sent[..., None], self.counts), axis=-1)
        if cells.min() < 0:
            raise ParameterError("pulses_sent and counts must be non-negative")
        # The running remainders pulses_sent - c12 - c34 - ... of a cell are
        # exact in int64 down to the first negative one, which is all this reads.
        if np.subtract.accumulate(cells, axis=-1).min() < 0:
            raise ParameterError("a cell's counts must not sum above its pulses_sent")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountTables):
            return NotImplemented
        return (
            self.class_labels == other.class_labels
            and self.class_mus == other.class_mus
            and self.pulses_total == other.pulses_total
            and self.seed == other.seed
            and self.mode == other.mode
            and np.array_equal(self.pulses_sent, other.pulses_sent)
            and np.array_equal(self.counts, other.counts)
        )


# Outcome laws kept, one per distinct (class mus, channels, detector); each is
# 144 x 8 float64, about 9 KB.
_LAW_CACHE_SIZE = 64


def _outcome_law(config: SessionConfig) -> np.ndarray:
    """P(outcome | prepared cell), shape (144, 8).

    Outcomes are the seven COUNT_COLUMNS plus "not tallied", which holds a
    mismatched-basis cell's pulses.  Misalignment flips each link's prepared
    state to its orthogonal partner in the same basis (sop ^ 1) before the
    analyzer, so an agreeing cell's column law mixes the analyzer responses
    of the four flip combinations.

    It is computed once per distinct (class mus, channels, detector), and
    every session with those shares the one read-only array.
    """
    return _channel_law(
        tuple(c.mu for c in config.classes), config.channel_a, config.channel_b, config.detector
    )


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _channel_law(
    mus: tuple[float, float, float],
    channel_a: ChannelModel,
    channel_b: ChannelModel,
    detector: DetectorModel,
) -> np.ndarray:
    """_outcome_law computed from the fields it reads, one cache entry per key."""
    mus_a = np.array([attenuate(mu, channel_a.loss_db) for mu in mus])
    mus_b = np.array([attenuate(mu, channel_b.loss_db) for mu in mus])
    overlap = channel_a.temporal_overlap * channel_b.temporal_overlap
    ia, ib, sa, sb = np.nonzero(AGREE)
    probs = _pattern_table(
        mus_a[ia], mus_b[ib], _CODE_AMPS_A[sa], _CODE_AMPS_B[sb], overlap, detector
    )
    seen = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS, N_COLUMNS + 1))
    seen[~AGREE, N_COLUMNS] = 1.0
    # Fold the 16 patterns into the 7 columns with a one-hot (16, 7) matrix.
    seen[AGREE, :N_COLUMNS] = (
        probs / probs.sum(axis=1, keepdims=True)
    ) @ np.eye(N_COLUMNS)[_FOLD]
    mis_a = channel_a.misalignment
    mis_b = channel_b.misalignment
    sops = np.arange(N_SOPS)
    law = np.zeros_like(seen)
    for flip_a, weight_a in ((0, 1.0 - mis_a), (1, mis_a)):
        for flip_b, weight_b in ((0, 1.0 - mis_b), (1, mis_b)):
            law += weight_a * weight_b * seen[:, :, sops ^ flip_a][:, :, :, sops ^ flip_b]
    law = law.reshape(N_CELLS, N_COLUMNS + 1)
    law = law / law.sum(axis=1, keepdims=True)
    law.flags.writeable = False
    return law


def _preparation_law(config: SessionConfig) -> np.ndarray:
    """P(prepared cell) in random mode, shape (144,); the senders choose independently."""
    rect = config.rect_prob
    sop_probs = [rect / 2.0, rect / 2.0, (1.0 - rect) / 2.0, (1.0 - rect) / 2.0]
    per_side = np.outer(config.class_probs, sop_probs)
    return np.einsum("ik,jl->ijkl", per_side, per_side).ravel()


def run_session(config: SessionConfig, workers: int = 1) -> CountTables:
    """Simulate a full session and return its count tables.

    Args:
        config: session configuration.
        workers: accepted for old callers and ignored; it must be >= 1.
    """
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers!r}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    law = _outcome_law(config)
    if config.mode == MODE_RANDOM:
        pvals = (_preparation_law(config)[:, None] * law).ravel()
        table = rng.multinomial(config.pulses, pvals / pvals.sum()).reshape(N_CELLS, -1)
    else:
        # Gate g goes to slot g mod 72, so each slot's pulse count is fixed.
        n_slots = len(_SWEEP_CELLS)
        slot_pulses = np.full(n_slots, config.pulses // n_slots)
        slot_pulses[: config.pulses % n_slots] += 1
        table = np.zeros((N_CELLS, N_COLUMNS + 1), dtype=np.int64)
        table[_SWEEP_CELLS] = rng.multinomial(slot_pulses, law[_SWEEP_CELLS])

    return CountTables(
        class_labels=tuple(c.label for c in config.classes),
        class_mus=tuple(c.mu for c in config.classes),
        pulses_total=config.pulses,
        seed=config.seed,
        mode=config.mode,
        pulses_sent=table.sum(axis=1).reshape(N_CLASSES, N_CLASSES, N_SOPS, N_SOPS),
        counts=table[:, :N_COLUMNS].reshape(N_CLASSES, N_CLASSES, N_SOPS, N_SOPS, N_COLUMNS),
    )


# Default delay grid of an interference scan: start_ns, stop_ns, points.
DEFAULT_DELAY_GRID = (-3.0, 3.0, 49)
# Most delays one interference scan takes, whether listed or gridded.
MAX_DELAY_POINTS = 100_000
# Visibility that bounds the dip when its width is taken: 2.5% of the ideal
# zero-delay ceiling 0.5.
DIP_THRESHOLD = 0.0125


@dataclasses.dataclass(frozen=True, slots=True)
class HomScanConfig:
    """Two-pulse interference scan configuration.

    Both sources send H-polarized pulses of equal mean photon number mu (taken
    at the analyzer).  The temporal overlap at relative delay tau follows
    xi(tau) = (1 - |tau| / pulse_width_ns)^2 for |tau| < pulse_width_ns, else 0.

    Every field has a default, and these defaults are the scan config file's
    defaults: an empty config file gives HomScanConfig().  The default
    delays_ns spans DEFAULT_DELAY_GRID evenly; it holds at most
    MAX_DELAY_POINTS delays.
    """

    mu: float = 0.1
    pulse_width_ns: float = 1.5
    delays_ns: tuple[float, ...] = tuple(np.linspace(*DEFAULT_DELAY_GRID).tolist())
    pulses_per_point: int = 200_000
    seed: int = 1
    detector: DetectorModel = DetectorModel()

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu) or self.mu < 0.0:
            raise ParameterError(f"mu must be finite and >= 0, got {self.mu!r}")
        if not 0.0 < self.pulse_width_ns < math.inf:
            raise ParameterError(
                f"pulse_width_ns must be finite and > 0, got {self.pulse_width_ns!r}"
            )
        if len(self.delays_ns) > MAX_DELAY_POINTS:
            raise ParameterError(
                f"delays_ns must hold at most {MAX_DELAY_POINTS} delays, got {len(self.delays_ns)}"
            )
        if len(self.delays_ns) == 0 or any(not math.isfinite(t) for t in self.delays_ns):
            raise ParameterError("delays_ns must be a non-empty tuple of finite floats")
        if not 1 <= self.pulses_per_point < 2**63:
            raise ParameterError(
                f"pulses_per_point must lie in [1, 2**63), got {self.pulses_per_point!r}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed!r}")


@dataclasses.dataclass(frozen=True)
class HomScanResult:
    """Scan of the cross-port same-polarization coincidence dip.

    Rates are per gate for the C13 coincidence class.  visibility[k] is
    (rate_distinguishable - rate_indistinguishable) / rate_distinguishable at
    delays_ns[k], with a propagated binomial standard error.
    """

    delays_ns: np.ndarray
    rate_indistinguishable: np.ndarray
    rate_distinguishable: np.ndarray
    visibility: np.ndarray
    visibility_stderr: np.ndarray
    pulse_width_ns: float

    def dip_width_ns(self) -> float:
        """Full width of the region above DIP_THRESHOLD containing the dip maximum.

        Starting from the highest-visibility point, the scan is walked outward
        on both sides to the first threshold crossing, located by linear
        interpolation.  Isolated noise excursions far from the dip do not
        contribute.  Returns nan when the scan does not bracket the dip.
        """
        order = np.argsort(self.delays_ns)
        tau = self.delays_ns[order]
        vis = np.where(np.isfinite(self.visibility[order]), self.visibility[order], 0.0)
        peak = int(np.argmax(vis))
        below = vis <= DIP_THRESHOLD
        # The nearest at-or-below-threshold point on each side of the peak.
        outer = np.concatenate(
            (np.flatnonzero(below[:peak])[-1:], peak + 1 + np.flatnonzero(below[peak + 1 :])[:1])
        )
        if below[peak] or len(outer) < 2:
            return float("nan")
        inner = outer + [1, -1]
        v0, v1 = vis[inner], vis[outer]
        left, right = tau[inner] + (tau[outer] - tau[inner]) * (v0 - DIP_THRESHOLD) / (v0 - v1)
        return float(right - left)


def hom_scan(config: HomScanConfig) -> HomScanResult:
    """Run the interference dip scan and return per-delay rates and visibility."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    n = config.pulses_per_point
    delays = np.asarray(config.delays_ns, dtype=float)
    # Row 0 is the distinguishable reference (overlap 0), then one row per delay.
    frac = np.maximum(0.0, 1.0 - np.abs(delays) / config.pulse_width_ns)
    p_c13 = _pattern_table(
        config.mu, config.mu, _CODE_AMPS_A[0], _CODE_AMPS_B[0],
        np.concatenate(([0.0], frac * frac)), config.detector,
    )[:, COINCIDENCE_PATTERNS["C13"]]
    # One (indistinguishable, distinguishable) pair of draws per delay, in delay order.
    counts = rng.binomial(n, np.column_stack((p_c13[1:], np.full(len(delays), p_c13[0]))))
    rate_ind, rate_dis = (counts / n).T
    with np.errstate(divide="ignore", invalid="ignore"):
        vis = (rate_dis - rate_ind) / rate_dis
        var_ind = rate_ind * (1.0 - rate_ind) / n
        var_dis = rate_dis * (1.0 - rate_dis) / n
        # float_power rounds as the C pow does; array ** may differ by an ulp.
        stderr = np.sqrt(
            var_ind / np.float_power(rate_dis, 2)
            + np.float_power(rate_ind, 2) * var_dis / np.float_power(rate_dis, 4)
        )
    # Without distinguishable-reference counts the visibility is undefined.
    no_reference = counts[:, 1] == 0
    vis[no_reference] = stderr[no_reference] = np.nan
    return HomScanResult(
        delays_ns=delays,
        rate_indistinguishable=rate_ind,
        rate_distinguishable=rate_dis,
        visibility=vis,
        visibility_stderr=stderr,
        pulse_width_ns=config.pulse_width_ns,
    )
