"""Decoy-state bounds via linear programming and secret-key accounting.

Gain and error matrices are indexed by intensity class (0 = signal, 1 = decoy,
2 = vacuum) for each sender.  The truncated photon-number expansion keeps
joint numbers (m, n) with m, n <= truncation and brackets each measured gain:

    Q_ij - T_ij <= sum_{m,n} P_m(mu_i) P_n(mu_j) Y^{mn} <= Q_ij

where the sum runs over the cells the program keeps and T_ij covers the
Poisson mass of pair (i, j) that it leaves out: the cells outside the truncation
box, and every weight at most 1e-9 once the bracket is divided by its measured
value (the solver ignores matrix entries that small, so a smaller positive
divided width is raised just above it).  All yields lie in [0, 1], so
the discarded terms contribute between 0 and T_ij.  A cell with no weight left
in any bracket of a program is not one of its variables.  Error-weighted
yields (YE)^{mn} = Y^{mn} e^{mn} obey the same brackets against Q_ij E_ij and
are coupled by 0 <= (YE)^{mn} <= Y^{mn} <= 1.  The single-photon yield bound
minimizes Y^{11} over the rectilinear brackets.  The single-photon error bound
maximizes the ratio (YE)^{11} / Y^{11} jointly over the diagonal-basis (Y, YE)
polytope, posed as one linear program by the Charnes-Cooper transform
(Charnes & Cooper, Naval Res. Logist. Q. 9, 181 (1962)); the diagonal-basis
Y^{11} lower bound certifies that the ratio is well defined.  The programs
share no variables, so one linprog call, without presolve, solves them all as
the blocks of one block-diagonal program.  Each program is plain numpy arrays:
a dense equality block and the column indices and values of its inequality
rows, two entries each; the stack goes to the solver as COO triplets.

Only the optimal values of the programs are reported: the optimal vertex may
differ between solver versions, so nothing reads its other entries.  The key
rate charges error correction on the measured signal gain and error rate.

Importing this module loads numpy only: scipy is imported by _linprog, the one
function that calls the solver, when a bound is first solved.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .optics import (
    BASIS_LABELS,
    ParameterError,
    check_intensities,
    check_nonnegative,
    check_range,
    poisson_pmf,
)
from .session import AGREE, _PSI_COLUMNS

DEFAULT_TRUNCATION = 7
# Ceiling on the photon-number truncation: the bounds stop moving past T ~ 15 at
# typical intensities, and so do the programs (at signal intensity 0.5, at most
# 174 cells per surface, none past T = 15): every cell further out weighs too
# little for the solver to see, so its mass joins the bracket widths.
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
    """The programs give no bound on data that no bracket contradicts.

    Either the single-photon yield lower bound vanished, so no error bound
    exists, or the solver failed where the elastic diagnosis finds the data
    consistent, as it can when gains lie near its tolerances.
    """


class InsufficientCountsError(ValueError):
    """A cell required by the analysis has no recorded pulses."""


def checked_matrix(name: str, values) -> np.ndarray:
    """values as a 3x3 float array, refused unless every entry is in [0, 1]."""
    matrix = np.asarray(values, dtype=float)
    if matrix.shape != (3, 3):
        raise ParameterError(f"{name} must have shape (3, 3), got {matrix.shape!r}")
    if not np.all((matrix >= 0.0) & (matrix <= 1.0)):
        raise ParameterError(f"{name} entries must be finite and lie in [0, 1]")
    return matrix


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
        check_intensities(self.mus)
        for name in ("q_rect", "q_diag", "e_rect", "e_diag"):
            setattr(self, name, checked_matrix(name, getattr(self, name)))


@dataclasses.dataclass(frozen=True)
class DecoyResult:
    """Full analysis output: bounds, the measured signal data, and the key rate."""

    y11_lower: float
    e11_upper: float
    q11: float
    q_rect_measured: float
    e_rect_global: float
    rate: float
    f_ec: float
    truncation: int
    mus: tuple[float, float, float]
    warnings: tuple[str, ...]


_SLACK_TOL = 1e-9
_DENOM_FLOOR = 1e-15
# HiGHS's default small_matrix_value: it ignores matrix entries this small, so
# the bracket programs move them into the bracket widths instead.
_SMALL = 1e-9
# Presolve costs more than it saves on programs of a few hundred columns.
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": False,
}
# Bracket k of a program: the gains Q, then the error-weighted gains QE, pair (i, j).
_BRACKET_LABELS = [(tag, i, j) for tag in ("Q", "QE") for i in range(3) for j in range(3)]


def shannon_entropy(p: float) -> float:
    """Binary entropy H2(p) in bits, with H2(0) = H2(1) = 0."""
    check_range("entropy argument", p, 0, 1)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def single_photon_gain(y11: float, mu_signal: float) -> float:
    """Gain of the (1, 1) photon component at signal intensity both sides."""
    check_range("y11", y11, 0, 1)
    if not (math.isfinite(mu_signal) and mu_signal > 0.0):
        raise ParameterError(f"mu_signal must be finite and > 0, got {mu_signal!r}")
    return y11 * mu_signal**2 * math.exp(-2.0 * mu_signal)


def _check_f_ec(f_ec: float) -> None:
    if not (math.isfinite(f_ec) and f_ec >= 1.0):
        raise ParameterError(f"f_ec must be finite and >= 1, got {f_ec!r}")


def secret_key_rate(
    q11: float, e11: float, q_rect: float, e_rect: float, f_ec: float = DEFAULT_F_EC
) -> float:
    """Secret fraction per gate from the single-photon and error-correction terms."""
    _check_f_ec(f_ec)
    check_nonnegative("q11", q11)
    check_nonnegative("q_rect", q_rect)
    return q11 * (1.0 - shannon_entropy(e11)) - q_rect * shannon_entropy(e_rect) * f_ec


class _Program(NamedTuple):
    """Minimize c @ x, a_eq @ x = b_eq, a_ub @ x <= 0, bounds[:, 0] <= x <= bounds[:, 1].

    a_eq is dense (at most 19 rows).  Row k of a_ub holds ub_vals[k] at the
    columns ub_cols[k], two entries per row (up to 2 len(cells) + 18 rows).
    cells holds the flat indices m (T + 1) + n of the surface entries the
    program keeps, in order; each surface of x takes len(cells) columns, and
    y11 is the column of Y^{11} in the first.  The other fields tell
    _diagnose what to check when there is no solution.
    """

    c: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    bounds: np.ndarray
    cells: np.ndarray
    y11: int
    ub_cols: np.ndarray = np.empty((0, 2), dtype=int)
    ub_vals: np.ndarray = np.empty((0, 2))
    scale: np.ndarray | None = None
    denominator: bool = False
    plain: _Program | None = None


def _poisson_rows(mus: tuple[float, ...], truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-intensity Poisson rows P_m and the per-pair excluded tail masses."""
    check_intensities(mus)
    check_range("truncation", truncation, 2, MAX_TRUNCATION)
    ns = np.arange(truncation + 1)
    rows = np.stack([np.asarray(poisson_pmf(mu, ns), dtype=float) for mu in mus])
    kept = rows.sum(axis=1)
    return rows, np.clip(1.0 - np.outer(kept, kept), 0.0, None)


def _bracket_program(rows: np.ndarray, tails: np.ndarray, matrices: list[np.ndarray]) -> _Program:
    """Minimize Y^{11} over 0 <= x <= 1 and the brackets [Q_ij - T_ij, Q_ij]
    of each matrix (Q, then QE).

    Row 3 i + j of kron(rows, rows) holds P_m(mu_i) P_n(mu_j) at column
    m (T + 1) + n, the weight of surface entry (m, n) in the gain of pair (i, j);
    the k-th matrix brackets the k-th surface of x.  Each bracket is
    an equality with its own slack bounded by the bracket width, which avoids
    near-duplicate inequality rows when the width is tiny, and is divided by
    its measured value: the raw gains sit far below the solver's absolute
    tolerances.  A divided weight of at most _SMALL joins T_ij in the width,
    and a cell with no weight left in any bracket is dropped; (1, 1) stays.
    The ratio program writes the widths as matrix entries, so a positive
    width of at most _SMALL is raised just above it, which only widens.
    """
    width, k = rows.shape[1], len(matrices)
    hi = np.concatenate([values.ravel() for values in matrices])
    scale = 1.0 / np.maximum(hi, 1e-9)
    # a[b, s, cell]: bracket b's weight on the cell of the s-th surface.
    a = (scale[:, None] * np.kron(np.eye(k), np.kron(rows, rows))).reshape(len(hi), k, -1)
    small = a <= _SMALL
    widths = np.tile(tails.ravel(), k) * scale + (a * small).sum(axis=(1, 2))
    widths[(widths > 0.0) & (widths <= _SMALL)] = np.nextafter(_SMALL, 1.0)
    a[small] = 0.0
    kept = a.any(axis=(0, 1))
    kept[width + 1] = True
    cells = np.flatnonzero(kept)
    y11 = int(np.searchsorted(cells, width + 1))
    a = a[:, :, cells].reshape(len(hi), -1)
    n_brackets, n_vars = a.shape
    c = np.zeros(n_vars + n_brackets)
    c[y11] = 1.0
    return _Program(
        c=c,
        a_eq=np.hstack([a, np.eye(n_brackets)]),
        b_eq=hi * scale,
        bounds=np.column_stack([np.zeros(len(c)), np.append(np.ones(n_vars), widths)]),
        cells=cells,
        y11=y11,
        scale=scale,
    )


def _error_programs(
    rows: np.ndarray, tails: np.ndarray, gains: np.ndarray, qbers: np.ndarray
) -> list[_Program]:
    """The diagonal-basis Y^{11} program, the ratio's denominator, and the ratio program.

    The ratio (YE)^{11} / Y^{11} is maximized over the feasible set of plain,
    the (Y, YE) bracket program over the columns (Y, YE, s) with YE <= Y.  The
    Charnes-Cooper substitution (z, t) = t ((Y, YE, s), 1), t >= 0, with
    z_Y^{11} = sigma, the largest gain, so that t = sigma / Y^{11} stays of
    order 1, makes it one linear program: maximize z_YE^{11} subject to
    plain's rows with right-hand sides times t and its finite upper bounds
    times t (z_Y <= t, s_k <= width_k t; z_YE <= z_Y covers z_YE).
    Inconsistent brackets, or Y^{11} = 0 on the whole polytope, leave it
    without a solution; plain's diagnosis tells which.
    """
    plain = _bracket_program(rows, tails, [gains, gains * qbers])
    n_half, y11 = len(plain.cells), plain.y11
    n_cols = len(plain.c)
    capped = np.r_[:n_half, 2 * n_half : n_cols]
    upper = plain.bounds[capped, 1]
    # The inequality rows over the columns (z, t): YE - Y <= 0, which plain
    # shares, then z_k - upper_k t <= 0 on the capped columns.
    k = np.arange(n_half)
    cols = np.r_[np.c_[k, n_half + k], np.c_[capped, np.full(len(capped), n_cols)]]
    vals = np.r_[np.tile([-1.0, 1.0], (n_half, 1)), np.c_[np.ones(len(capped)), -upper]]
    plain = plain._replace(ub_cols=cols[:n_half], ub_vals=vals[:n_half])
    c = np.zeros(n_cols + 1)
    c[n_half + y11] = -1.0
    sigma = float(gains.max()) or 1.0  # all-zero gains: degenerate, refused later
    ratio = _Program(
        c=c,
        a_eq=np.block(
            [[np.eye(1, n_cols, y11) / sigma, 0.0], [plain.a_eq, -plain.b_eq[:, None]]]
        ),
        b_eq=np.eye(1, len(plain.b_eq) + 1)[0],
        bounds=np.repeat([[0.0, np.inf]], len(c), axis=0),
        cells=plain.cells,
        y11=y11,
        ub_cols=cols,
        ub_vals=vals,
        plain=plain,
    )
    return [_bracket_program(rows, tails, [gains])._replace(denominator=True), ratio]


def _linprog(programs: list[_Program]):
    """One linprog call on the programs stacked as one block-diagonal LP, in COO triplets."""
    from scipy import sparse
    from scipy.optimize import linprog

    at = np.cumsum([0] + [len(p.c) for p in programs])
    down = np.cumsum([0] + [len(p.b_eq) for p in programs])
    nz = [np.nonzero(p.a_eq) for p in programs]
    ij = np.hstack([np.add(k, [[d], [a]]) for k, d, a in zip(nz, down, at)])
    data = np.concatenate([p.a_eq[k] for p, k in zip(programs, nz)])
    cols = np.concatenate([p.ub_cols + a for p, a in zip(programs, at)])
    vals = np.concatenate([p.ub_vals for p in programs]).ravel()
    rows = np.repeat(np.arange(len(cols)), 2)
    return linprog(
        np.concatenate([p.c for p in programs]),
        A_ub=sparse.coo_array((vals, (rows, cols.ravel())), shape=(len(cols), at[-1])),
        b_ub=np.zeros(len(cols)),
        A_eq=sparse.coo_array((data, ij), shape=(down[-1], at[-1])),
        b_eq=np.concatenate([p.b_eq for p in programs]),
        bounds=np.concatenate([p.bounds for p in programs]),
        method="highs",
        options=_HIGHS_OPTIONS,
    )


def _solve(programs: list[_Program]) -> list[np.ndarray]:
    """Solve programs that share no variables in one linprog call.

    Minimizing the sum of the objectives over the product of the polytopes
    optimizes each program; returns each one's part of the vertex.  Blocks
    are stacked last first, so the ratio program, passed last, takes the
    first columns (stacked last, it moved e11 by up to 4.8e-7 relative at
    truncation 30).  Without a solution the programs are diagnosed in the
    order given; if none raises, the solver's failure is raised as
    DegenerateBoundError.
    """
    stack = programs[::-1]
    res = _linprog(stack)
    if res.status != 0:
        for program in programs:
            _diagnose(program if program.plain is None else program.plain)
        raise DegenerateBoundError(f"linear program failed: {res.message}")
    return np.split(res.x, np.cumsum([len(p.c) for p in stack[:-1]]))[::-1]


def _checked_denominator(y11: float) -> None:
    if y11 <= _DENOM_FLOOR:
        raise DegenerateBoundError(
            f"single-photon yield lower bound {y11!r} is too small to divide the error mass by"
        )


def _diagnose(program: _Program) -> None:
    """Raise what keeps a bracket program from a solution, if the data are at fault.

    Elastic form: each bracket may miss by u (shortfall) or v (excess) at a
    cost of the total scaled miss.  A positive miss names the brackets no
    surface meets (bracket k is divided by scale[k]); with none, a
    denominator program's optimum is checked.
    """
    n_cols, n_miss = len(program.c), 2 * len(program.scale)
    elastic = program._replace(
        c=np.repeat([0.0, 1.0], [n_cols, n_miss]),
        a_eq=np.hstack([program.a_eq, np.eye(n_miss // 2), -np.eye(n_miss // 2)]),
        bounds=np.concatenate([program.bounds, np.repeat([[0.0, np.inf]], n_miss, axis=0)]),
    )
    res = _linprog([elastic])
    if res.status != 0:
        raise DegenerateBoundError(f"linear program failed: {res.message}")
    misses = res.x[n_cols:].reshape(2, -1).sum(axis=0)
    if float(misses.sum()) > _SLACK_TOL:
        violations = [
            (tag, i, j, float(miss / row_scale))
            for (tag, i, j), miss, row_scale in zip(_BRACKET_LABELS, misses, program.scale)
            if miss > _SLACK_TOL
        ]
        detail = ", ".join(f"{t}[{i},{j}] off by {s:.3e}" for t, i, j, s in violations)
        raise InfeasibleModelError(
            "no yield surface is consistent with the measured matrices"
            + (f": {detail}" if detail else ""),
            violations,
        )
    if program.denominator and (res := _linprog([program])).status == 0:
        _checked_denominator(float(program.c @ res.x))


def _error_bound(y_x: np.ndarray, ratio_x: np.ndarray, programs: list[_Program]) -> float:
    y_program, ratio = programs
    _checked_denominator(float(y_program.c @ y_x))
    if ratio_x[-1] <= 0.0:
        raise DegenerateBoundError("error ratio vertex has t = 0: gains below the solver tolerance")
    return min(0.5, max(0.0, float(ratio_x[len(ratio.cells) + ratio.y11] / ratio_x[ratio.y11])))


def lp_bound_yield(
    gains: np.ndarray, mus: tuple[float, float, float], truncation: int = DEFAULT_TRUNCATION
) -> float:
    """Lower-bound the single-photon yield Y^{11} from one basis's gain matrix.

    Args:
        gains: 3x3 measured gains indexed (signal, decoy, vacuum) per axis.
        mus: the three mean photon numbers, (signal, decoy, vacuum).
        truncation: photon-number cutoff per sender, at most MAX_TRUNCATION.

    Returns:
        The minimal feasible Y^{11}.
    """
    gains = checked_matrix("gains", gains)
    rows, tails = _poisson_rows(mus, truncation)
    program = _bracket_program(rows, tails, [gains])
    (x,) = _solve([program])
    return float(x[program.y11])


def lp_bound_error(
    gains: np.ndarray,
    qbers: np.ndarray,
    mus: tuple[float, float, float],
    truncation: int = DEFAULT_TRUNCATION,
) -> float:
    """Upper-bound the single-photon error rate e^{11} from one basis's data.

    Maximizes the ratio (YE)^{11} / Y^{11} over the joint polytope of yields Y
    and error-weighted yields YE with 0 <= YE <= Y <= 1 and both bracket sets
    satisfied.  The true surfaces lie in the polytope, so the ratio optimum
    dominates the true e^{11}.  One linprog call solves the ratio, as one
    Charnes-Cooper program, together with the Y^{11} lower bound over the
    gain brackets, which must be positive for the ratio to be defined.

    Returns:
        The e^{11} upper bound: the ratio optimum, clipped to [0, 0.5].

    Raises:
        DegenerateBoundError: the Y^{11} lower bound is numerically zero, or
            the solver failed on data that meet every bracket.
        InfeasibleModelError: no surfaces meet the brackets.
    """
    gains = checked_matrix("gains", gains)
    qbers = checked_matrix("qbers", qbers)
    rows, tails = _poisson_rows(mus, truncation)
    programs = _error_programs(rows, tails, gains, qbers)
    return _error_bound(*_solve(programs), programs)


# The conclusive columns, and the error columns of each same-basis cell, shape
# (basis, a, b, column): for rectilinear preparation both conclusive outcomes
# imply anticorrelated bits, so identical-bit cells are errors in every
# conclusive column.  For diagonal preparation psi- implies anticorrelated bits
# while psi+ implies correlated ones, so the erroneous columns depend on the
# prepared pair.
_CONCLUSIVE = _PSI_COLUMNS.any(axis=0)
_SAME_BIT = np.eye(2, dtype=bool)[:, :, None]
_ERROR_COLUMNS = np.stack(
    [_SAME_BIT & _CONCLUSIVE, np.where(_SAME_BIT, _PSI_COLUMNS[1], _PSI_COLUMNS[0])]
)
# The (i, j, code_a, code_b) index of each agreeing cell of session.AGREE, on
# the axes (basis, i, j, a, b), and the index arrays that gather them.
_CELL_INDEX = np.moveaxis(np.argwhere(AGREE).reshape(3, 3, 2, 2, 2, 4), 2, 0)
_CELLS = tuple(np.moveaxis(_CELL_INDEX, -1, 0))


def matrices_from_counts(tables) -> tuple[GainErrorMatrices, list[str]]:
    """Build measured gain and error matrices from session count tables.

    In each basis, a pair's gain is the mean over its four same-basis cells of
    the conclusive-count rate, and its error rate is the share of its
    conclusive counts in the error columns.  A pair with zero conclusive
    counts carries no error information; its rate defaults to the
    random-outcome value 0.5 with a warning, the same convention the
    vacuum-vacuum pair uses.  Warnings and the empty cell named by
    InsufficientCountsError follow (basis, i, j) order, rectilinear first.
    """
    pulses = tables.pulses_sent[_CELLS]
    counts = tables.counts[_CELLS]
    empty = pulses <= 0
    if empty.any():
        raise InsufficientCountsError(f"cell {tuple(_CELL_INDEX[empty][0].tolist())} has no pulses")
    conclusive = counts[..., _CONCLUSIVE].sum(axis=-1)
    gains = (conclusive / pulses).mean(axis=(3, 4))
    total = conclusive.sum(axis=(3, 4))
    wrong = (counts * _ERROR_COLUMNS[:, None, None]).sum(axis=(3, 4, 5))
    errors = np.divide(wrong, total, out=np.full(total.shape, 0.5), where=total > 0)
    warnings = [
        f"{BASIS_LABELS[b]} intensity pair ({i}, {j}) has no conclusive counts; "
        "error rate defaulted to 0.5"
        for b, i, j in np.argwhere(total == 0).tolist()
    ]
    return GainErrorMatrices(tuple(tables.class_mus), *gains, *errors), warnings


def analyze_matrices(
    matrices: GainErrorMatrices,
    truncation: int = DEFAULT_TRUNCATION,
    f_ec: float = DEFAULT_F_EC,
) -> DecoyResult:
    """Run the full bounding pipeline on measured gain/error matrices."""
    rows, tails = _poisson_rows(matrices.mus, truncation)
    _check_f_ec(f_ec)
    rect = _bracket_program(rows, tails, [matrices.q_rect])
    diag = _error_programs(rows, tails, matrices.q_diag, matrices.e_diag)
    rect_x, *diag_x = _solve([rect, *diag])
    y11 = float(rect_x[rect.y11])
    e11 = _error_bound(*diag_x, diag)
    q11 = single_photon_gain(y11, matrices.mus[0])
    q_rect = float(matrices.q_rect[0, 0])
    e_rect = float(matrices.e_rect[0, 0])
    return DecoyResult(
        y11_lower=y11,
        e11_upper=e11,
        q11=q11,
        q_rect_measured=q_rect,
        e_rect_global=e_rect,
        rate=secret_key_rate(q11, e11, q_rect, e_rect, f_ec),
        f_ec=f_ec,
        truncation=truncation,
        mus=matrices.mus,
        warnings=(),
    )


def analyze(
    tables, truncation: int = DEFAULT_TRUNCATION, f_ec: float = DEFAULT_F_EC
) -> DecoyResult:
    """Full pipeline from count tables to bounds and key rate."""
    matrices, warnings = matrices_from_counts(tables)
    result = analyze_matrices(matrices, truncation=truncation, f_ec=f_ec)
    return dataclasses.replace(result, warnings=tuple(warnings))
