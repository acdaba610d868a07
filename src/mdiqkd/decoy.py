"""Decoy-state bounds via linear programming and secret-key accounting.

Gain and error matrices are indexed by intensity class (0 = signal, 1 = decoy,
2 = vacuum) for each sender.  The truncated photon-number expansion keeps
joint numbers (m, n) with m, n <= truncation and brackets each measured gain:

    Q_ij - T_ij <= sum_{m,n} P_m(mu_i) P_n(mu_j) Y^{mn} <= Q_ij

where T_ij is the Poisson mass outside the truncation box (all yields lie in
[0, 1], so the discarded terms contribute between 0 and T_ij).  Error-weighted
yields (YE)^{mn} = Y^{mn} e^{mn} obey the same brackets against Q_ij E_ij and
are coupled by 0 <= (YE)^{mn} <= Y^{mn} <= 1.  The single-photon yield bound
minimizes Y^{11} over the rectilinear brackets.  The single-photon error bound
maximizes the ratio (YE)^{11} / Y^{11} jointly over the diagonal-basis (Y, YE)
polytope, posed as one linear program by the Charnes-Cooper transform
(Charnes & Cooper, Naval Res. Logist. Q. 9, 181 (1962)); the diagonal-basis
Y^{11} lower bound certifies that the ratio is well defined.  The programs
share no variables, so one linprog call solves them all as the blocks of one
block-diagonal program.

Only the optimal values of the programs are contractual; the reported yield
surfaces are one optimal vertex and may differ between solver versions.

This is the one module of the package that loads scipy.  The data contract
that the formats and the command line need without a solver lives in
mdiqkd.decoy_types and is imported here, so every name of both modules can be
imported from this one.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .decoy_types import (
    DEFAULT_F_EC,
    DEFAULT_TRUNCATION,
    MAX_TRUNCATION,
    DecoyResult,
    DegenerateBoundError,
    GainErrorMatrices,
    InfeasibleModelError,
    InsufficientCountsError,
    YieldSolution,
    checked_matrix,
)
from .optics import ParameterError, poisson_pmf
from .session import COUNT_COLUMNS

_SLACK_TOL = 1e-9
_DENOM_FLOOR = 1e-15
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


@dataclasses.dataclass(frozen=True)
class YieldBound:
    """Result of the single-photon yield program: bound plus its vertex."""

    value: float
    surface: np.ndarray


@dataclasses.dataclass(frozen=True)
class ErrorBound:
    """Result of the single-photon error program."""

    value: float
    y11_diag_lower: float
    y_surface: np.ndarray
    ye_surface: np.ndarray


def shannon_entropy(p: float) -> float:
    """Binary entropy H2(p) in bits, with H2(0) = H2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"entropy argument must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def single_photon_gain(y11: float, mu_signal: float) -> float:
    """Gain of the (1, 1) photon component at signal intensity both sides."""
    if not 0.0 <= y11 <= 1.0:
        raise ParameterError(f"y11 must lie in [0, 1], got {y11!r}")
    if not mu_signal > 0.0:
        raise ParameterError(f"mu_signal must be > 0, got {mu_signal!r}")
    return y11 * mu_signal**2 * math.exp(-2.0 * mu_signal)


def _check_f_ec(f_ec: float) -> None:
    if not (math.isfinite(f_ec) and f_ec >= 1.0):
        raise ParameterError(f"f_ec must be finite and >= 1, got {f_ec!r}")


def secret_key_rate(
    q11: float, e11: float, q_rect: float, e_rect: float, f_ec: float = DEFAULT_F_EC
) -> float:
    """Secret fraction per gate from the single-photon and error-correction terms."""
    _check_f_ec(f_ec)
    return q11 * (1.0 - shannon_entropy(e11)) - q_rect * shannon_entropy(e_rect) * f_ec


class _Program(NamedTuple):
    """Minimize c @ x, a_eq @ x = b_eq, a_ub @ x <= 0, bounds[:, 0] <= x <= bounds[:, 1];
    without a solution, diagnose() raises the error the data are at fault for."""

    c: np.ndarray
    a_eq: sparse.csr_array
    b_eq: np.ndarray
    a_ub: sparse.csr_array
    bounds: np.ndarray
    diagnose: Callable[[], None]


def _poisson_rows(mus: tuple[float, ...], truncation: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-intensity Poisson rows P_m and the per-pair excluded tail masses."""
    if len(mus) != 3:
        raise ParameterError(f"mus must have 3 entries, got {mus!r}")
    if not 2 <= truncation <= MAX_TRUNCATION:
        raise ParameterError(f"truncation must lie in [2, {MAX_TRUNCATION}], got {truncation!r}")
    ns = np.arange(truncation + 1)
    rows = np.stack([np.asarray(poisson_pmf(mu, ns), dtype=float) for mu in mus])
    kept = rows.sum(axis=1)
    return rows, np.clip(1.0 - np.outer(kept, kept), 0.0, None)


def _pad(matrix: sparse.sparray, n_cols: int) -> sparse.csr_array:
    return sparse.hstack([matrix, sparse.csr_array((matrix.shape[0], n_cols))], format="csr")


def _bracket_program(
    rows: np.ndarray,
    tails: np.ndarray,
    matrices: list[tuple[str, np.ndarray]],
    index: int,
    coupling: sparse.sparray | None = None,
    denominator: bool = False,
) -> _Program:
    """Minimize x[index] over 0 <= x <= 1 with coupling @ x <= 0 and the
    brackets [Q_ij - T_ij, Q_ij] of each named matrix.

    Row 3 i + j of kron(rows, rows) holds P_m(mu_i) P_n(mu_j) at column
    m (T + 1) + n, the weight of surface entry (m, n) in the gain of pair (i, j);
    the k-th named matrix brackets the k-th surface of x.  Each bracket is
    an equality with its own slack bounded by the bracket width, which avoids
    near-duplicate inequality rows when the width is tiny, and is divided by
    its measured value: the raw gains sit far below the solver's absolute
    tolerances.  The optimum of a denominator program must exceed _DENOM_FLOOR.
    """
    hi = np.concatenate([values.ravel() for _, values in matrices])
    scale = 1.0 / np.maximum(hi, 1e-9)
    a = sparse.block_diag(scale.reshape(-1, 9, 1) * np.kron(rows, rows), format="csr")
    n_brackets, n_vars = a.shape
    labels = [(tag, i, j) for tag, _ in matrices for i in range(3) for j in range(3)]
    widths = np.tile(tails.ravel(), len(matrices)) * scale
    c = np.zeros(n_vars + n_brackets)
    c[index] = 1.0
    program = _Program(
        c=c,
        # All-CSR blocks take scipy's fast stacking path.
        a_eq=sparse.hstack([a, sparse.eye_array(n_brackets, format="csr")], format="csr"),
        b_eq=hi * scale,
        a_ub=sparse.csr_array((0, len(c))) if coupling is None else _pad(coupling, n_brackets),
        bounds=np.column_stack([np.zeros(len(c)), np.append(np.ones(n_vars), widths)]),
        diagnose=lambda: None,
    )
    # A closure over the program it is stored in would be a reference cycle,
    # which keeps every analysis's matrices alive until the cyclic collector runs.
    return program._replace(diagnose=lambda: _diagnose(program, labels, scale, denominator))


def _error_programs(
    rows: np.ndarray, tails: np.ndarray, gains: np.ndarray, qbers: np.ndarray
) -> list[_Program]:
    """The diagonal-basis Y^{11} program, the ratio's denominator, and the ratio program.

    The ratio (YE)^{11} / Y^{11} is maximized over the feasible set of plain,
    the (Y, YE) bracket program over the columns (Y, YE, s).  The
    Charnes-Cooper substitution (z, t) = t ((Y, YE, s), 1), t >= 0, with
    z_Y^{11} = 1, makes it one linear program: maximize z_YE^{11} = e^{11}
    subject to plain's rows with right-hand sides times t and its finite
    upper bounds times t (z_Y <= t, s_k <= width_k t; z_YE <= z_Y covers
    z_YE).  Inconsistent brackets, or Y^{11} = 0 on the whole polytope, leave
    it without a solution; plain's diagnosis tells which.
    """
    width = rows.shape[1]
    n_half = width * width
    # YE - Y <= 0.
    coupling = sparse.eye_array(n_half, 2 * n_half, k=n_half) - sparse.eye_array(n_half, 2 * n_half)
    plain = _bracket_program(
        rows, tails, [("Q", gains), ("QE", gains * qbers)], width + 1, coupling
    )
    n_cols = len(plain.c)
    capped = np.r_[:n_half, 2 * n_half : n_cols]
    eye = sparse.eye_array(n_cols, format="csr")
    c = np.zeros(n_cols + 1)
    c[n_half + width + 1] = -1.0
    ratio = _Program(
        c=c,
        a_eq=sparse.bmat(
            [[eye[[width + 1]], None], [plain.a_eq, -plain.b_eq[:, None]]], format="csr"
        ),
        b_eq=np.eye(1, len(plain.b_eq) + 1)[0],
        a_ub=sparse.bmat(
            [[plain.a_ub, None], [eye[capped], -plain.bounds[capped, 1:]]], format="csr"
        ),
        bounds=np.repeat([[0.0, np.inf]], len(c), axis=0),
        diagnose=plain.diagnose,
    )
    return [_bracket_program(rows, tails, [("Q", gains)], width + 1, denominator=True), ratio]


def _linprog(programs: list[_Program], **options):
    """One linprog call on the programs stacked as one block-diagonal LP."""
    a_ub = sparse.block_diag([p.a_ub for p in programs], format="csr")
    return linprog(
        np.concatenate([p.c for p in programs]),
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=sparse.block_diag([p.a_eq for p in programs], format="csr"),
        b_eq=np.concatenate([p.b_eq for p in programs]),
        bounds=np.concatenate([p.bounds for p in programs]),
        method="highs",
        options={**_HIGHS_OPTIONS, **options},
    )


def _solve(programs: list[_Program]) -> list[np.ndarray]:
    """Solve programs that share no variables in one linprog call.

    Minimizing the sum of the objectives over the product of the polytopes
    optimizes each program; returns each one's part of the vertex.  Blocks
    are stacked last first, so the ratio program, passed last, takes the
    first columns (stacked last, it moved e11 by up to 4.8e-7 relative at
    truncation 30).  Without a solution the programs are diagnosed in the
    order given, and if none raises the solve is retried without presolve.
    """
    stack = programs[::-1]
    res = _linprog(stack)
    if res.status != 0:
        for program in programs:
            program.diagnose()
        res = _linprog(stack, presolve=False)
    if res.status != 0:
        raise RuntimeError(f"linear program failed: {res.message}")
    return np.split(res.x, np.cumsum([len(p.c) for p in stack[:-1]]))[::-1]


def _checked_denominator(y11: float) -> float:
    if y11 <= _DENOM_FLOOR:
        raise DegenerateBoundError(
            f"single-photon yield lower bound {y11!r} is too small to divide the error mass by"
        )
    return y11


def _diagnose(program: _Program, labels: list, scale: np.ndarray, denominator: bool) -> None:
    """Raise what keeps a bracket program from a solution, if the data are at fault.

    Elastic form: each bracket may miss by u (shortfall) or v (excess) at a
    cost of the total scaled miss.  A positive miss names the brackets no
    surface meets; with none, a denominator program's optimum is checked.
    """
    n_cols, n_miss = len(program.c), 2 * len(labels)
    slack = sparse.eye_array(n_miss // 2, format="csr")
    elastic = program._replace(
        c=np.repeat([0.0, 1.0], [n_cols, n_miss]),
        a_eq=sparse.hstack([program.a_eq, slack, -slack], format="csr"),
        a_ub=_pad(program.a_ub, n_miss),
        bounds=np.concatenate([program.bounds, np.repeat([[0.0, np.inf]], n_miss, axis=0)]),
    )
    res = _linprog([elastic])
    if res.status != 0:
        raise RuntimeError(f"linear program failed: {res.message}")
    misses = res.x[n_cols:].reshape(2, -1).sum(axis=0)
    if float(misses.sum()) > _SLACK_TOL:
        violations = [
            (tag, i, j, float(miss / row_scale))
            for (tag, i, j), miss, row_scale in zip(labels, misses, scale)
            if miss > _SLACK_TOL
        ]
        detail = ", ".join(f"{t}[{i},{j}] off by {s:.3e}" for t, i, j, s in violations)
        raise InfeasibleModelError(
            "no yield surface is consistent with the measured matrices"
            + (f": {detail}" if detail else ""),
            violations,
        )
    if denominator and (res := _linprog([program])).status == 0:
        _checked_denominator(float(program.c @ res.x))


def _yield_bound(x: np.ndarray, width: int) -> YieldBound:
    return YieldBound(value=float(x[width + 1]), surface=x[: width * width].reshape(width, width))


def _error_bound(y_x: np.ndarray, ratio_x: np.ndarray, width: int) -> ErrorBound:
    y11 = _checked_denominator(float(y_x[width + 1]))
    n_half = width * width
    z = ratio_x[: 2 * n_half] / ratio_x[-1]
    return ErrorBound(
        value=min(0.5, max(0.0, float(ratio_x[n_half + width + 1]))),
        y11_diag_lower=y11,
        y_surface=z[:n_half].reshape(width, width),
        ye_surface=z[n_half:].reshape(width, width),
    )


def lp_bound_yield(
    gains: np.ndarray, mus: tuple[float, float, float], truncation: int = DEFAULT_TRUNCATION
) -> YieldBound:
    """Lower-bound the single-photon yield Y^{11} from one basis's gain matrix.

    Args:
        gains: 3x3 measured gains indexed (signal, decoy, vacuum) per axis.
        mus: the three mean photon numbers, (signal, decoy, vacuum).
        truncation: photon-number cutoff per sender, at most MAX_TRUNCATION.

    Returns:
        YieldBound with the minimal feasible Y^{11} and one attaining surface.
    """
    gains = checked_matrix("gains", gains)
    rows, tails = _poisson_rows(mus, truncation)
    width = rows.shape[1]
    (x,) = _solve([_bracket_program(rows, tails, [("Q", gains)], width + 1)])
    return _yield_bound(x, width)


def lp_bound_error(
    gains: np.ndarray,
    qbers: np.ndarray,
    mus: tuple[float, float, float],
    truncation: int = DEFAULT_TRUNCATION,
) -> ErrorBound:
    """Upper-bound the single-photon error rate e^{11} from one basis's data.

    Maximizes the ratio (YE)^{11} / Y^{11} over the joint polytope of yields Y
    and error-weighted yields YE with 0 <= YE <= Y <= 1 and both bracket sets
    satisfied.  The true surfaces lie in the polytope, so the ratio optimum
    dominates the true e^{11}.  One linprog call solves the ratio, as one
    Charnes-Cooper program, together with the Y^{11} lower bound over the
    gain brackets, which must be positive for the ratio to be defined.

    Raises:
        DegenerateBoundError: the Y^{11} lower bound is numerically zero.
        InfeasibleModelError: no surfaces meet the brackets.
    """
    gains = checked_matrix("gains", gains)
    qbers = checked_matrix("qbers", qbers)
    rows, tails = _poisson_rows(mus, truncation)
    return _error_bound(*_solve(_error_programs(rows, tails, gains, qbers)), rows.shape[1])


def global_gain_qber(
    yield_surface: np.ndarray, error_surface: np.ndarray, mu_signal: float
) -> tuple[float, float]:
    """Reconstruct the signal-signal gain and error rate from yield surfaces.

    Args:
        yield_surface: (M+1, M+1) per-photon-number yields.
        error_surface: (M+1, M+1) per-photon-number error fractions.
        mu_signal: signal intensity applied on both sides.

    Returns:
        (gain, qber) of the truncated reconstruction; the Poisson mass outside
        the truncation box is not included.
    """
    yields = np.asarray(yield_surface, dtype=float)
    errors = np.asarray(error_surface, dtype=float)
    if yields.ndim != 2 or yields.shape[0] != yields.shape[1]:
        raise ParameterError(f"yield_surface must be square, got {yields.shape!r}")
    if errors.shape != yields.shape:
        raise ParameterError("error_surface must match yield_surface in shape")
    if not mu_signal > 0.0:
        raise ParameterError(f"mu_signal must be > 0, got {mu_signal!r}")
    row = np.asarray(poisson_pmf(mu_signal, np.arange(yields.shape[0])), dtype=float)
    weights = np.outer(row, row)
    gain = float((weights * yields).sum())
    if gain <= 0.0:
        return 0.0, 0.0
    qber = float((weights * yields * errors).sum()) / gain
    return gain, qber


# Same-basis state codes of each basis, and the error columns of each of its
# four cells (a, b), shape (2, 2, 7): for rectilinear preparation both
# conclusive outcomes imply anticorrelated bits, so identical-bit cells are
# errors in all four conclusive columns.  For diagonal preparation the
# {1,4}/{2,3} outcome implies anticorrelated bits while {1,2}/{3,4} implies
# correlated ones, so the erroneous columns depend on the prepared pair.
_BASIS_SOPS = {"rect": slice(0, 2), "diag": slice(2, 4)}
_SAME_BIT = np.eye(2, dtype=bool)[:, :, None]
_ERROR_COLUMNS = {
    "rect": _SAME_BIT & np.isin(COUNT_COLUMNS, ("c12", "c34", "c14", "c23")),
    "diag": np.where(
        _SAME_BIT, np.isin(COUNT_COLUMNS, ("c14", "c23")), np.isin(COUNT_COLUMNS, ("c12", "c34"))
    ),
}


def _basis_block(tables, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """pulses_sent (3, 3, 2, 2) and counts (3, 3, 2, 2, 7) of a basis's same-basis cells."""
    if basis not in _BASIS_SOPS:
        raise ParameterError(f"basis must be 'rect' or 'diag', got {basis!r}")
    sops = _BASIS_SOPS[basis]
    return tables.pulses_sent[:, :, sops, sops], tables.counts[:, :, sops, sops]


def gains_from_counts(tables, basis: str) -> np.ndarray:
    """Per-intensity-pair gain: mean over the four same-basis cells of the
    conclusive-count rate."""
    pulses, counts = _basis_block(tables, basis)
    empty = np.argwhere(pulses <= 0)
    if len(empty):
        i, j, a, b = empty[0].tolist()
        first = _BASIS_SOPS[basis].start
        raise InsufficientCountsError(f"cell ({i}, {j}, {first + a}, {first + b}) has no pulses")
    return (counts[..., :4].sum(axis=-1) / pulses).mean(axis=(2, 3))


def errors_from_counts(tables, basis: str) -> tuple[np.ndarray, list[str]]:
    """Per-intensity-pair error rate among conclusive events.

    Pairs with zero conclusive counts carry no error information; their rate
    defaults to the random-outcome value 0.5 with a warning, the same
    convention the vacuum-vacuum pair uses.
    """
    _, counts = _basis_block(tables, basis)
    total = counts[..., :4].sum(axis=(2, 3, 4))
    wrong = (counts * _ERROR_COLUMNS[basis]).sum(axis=(2, 3, 4))
    warnings = [
        f"{basis} intensity pair ({i}, {j}) has no conclusive counts; "
        "error rate defaulted to 0.5"
        for i, j in np.argwhere(total == 0).tolist()
    ]
    return np.divide(wrong, total, out=np.full((3, 3), 0.5), where=total > 0), warnings


def matrices_from_counts(tables) -> tuple[GainErrorMatrices, list[str]]:
    """Build measured gain and error matrices from session count tables."""
    q_rect = gains_from_counts(tables, "rect")
    q_diag = gains_from_counts(tables, "diag")
    e_rect, warn_rect = errors_from_counts(tables, "rect")
    e_diag, warn_diag = errors_from_counts(tables, "diag")
    matrices = GainErrorMatrices(
        mus=tuple(tables.class_mus),
        q_rect=q_rect,
        q_diag=q_diag,
        e_rect=e_rect,
        e_diag=e_diag,
    )
    return matrices, warn_rect + warn_diag


def analyze_matrices(
    matrices: GainErrorMatrices,
    truncation: int = DEFAULT_TRUNCATION,
    f_ec: float = DEFAULT_F_EC,
    extra_warnings: tuple[str, ...] = (),
) -> DecoyResult:
    """Run the full bounding pipeline on measured gain/error matrices."""
    rows, tails = _poisson_rows(matrices.mus, truncation)
    _check_f_ec(f_ec)
    width = rows.shape[1]
    rect = _bracket_program(rows, tails, [("Q", matrices.q_rect)], width + 1)
    diag = _error_programs(rows, tails, matrices.q_diag, matrices.e_diag)
    rect_x, *diag_x = _solve([rect, *diag])
    rect_bound = _yield_bound(rect_x, width)
    error_bound = _error_bound(*diag_x, width)
    mu_signal = matrices.mus[0]
    q11 = single_photon_gain(rect_bound.value, mu_signal)

    e_rect_measured = float(matrices.e_rect[0, 0])
    constant_error = np.full_like(rect_bound.surface, e_rect_measured)
    q_trunc, _ = global_gain_qber(rect_bound.surface, constant_error, mu_signal)
    # Yields outside the truncation box are taken at the cap, keeping the
    # reconstruction conservative for the subtraction term.
    q_rect_reconstructed = q_trunc + float(tails[0, 0])

    rate = secret_key_rate(
        q11, error_bound.value, q_rect_reconstructed, e_rect_measured, f_ec
    )
    return DecoyResult(
        y11_lower=rect_bound.value,
        e11_upper=error_bound.value,
        q11=q11,
        q_rect_measured=float(matrices.q_rect[0, 0]),
        q_rect_reconstructed=q_rect_reconstructed,
        q_rect_global=q_rect_reconstructed,
        e_rect_global=e_rect_measured,
        rate=rate,
        f_ec=f_ec,
        truncation=truncation,
        mus=matrices.mus,
        solution=YieldSolution(
            y_rect=rect_bound.surface,
            y_diag=error_bound.y_surface,
            ye_diag=error_bound.ye_surface,
        ),
        warnings=tuple(extra_warnings),
    )


def analyze(
    tables, truncation: int = DEFAULT_TRUNCATION, f_ec: float = DEFAULT_F_EC
) -> DecoyResult:
    """Full pipeline from count tables to bounds and key rate."""
    matrices, warnings = matrices_from_counts(tables)
    return analyze_matrices(
        matrices, truncation=truncation, f_ec=f_ec, extra_warnings=tuple(warnings)
    )
