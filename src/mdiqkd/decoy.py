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
Y^{11} lower bound is solved first to certify that the ratio is well defined.

Only the optimal values of the programs are contractual; the reported yield
surfaces are one optimal vertex and may differ between solver versions.

This is the one module of the package that loads scipy (sparse matrices and
linprog).  It holds everything that computes: the two bounding programs
(lp_bound_yield, lp_bound_error and their YieldBound / ErrorBound results),
the count reduction (gains_from_counts, errors_from_counts,
matrices_from_counts), the key-rate accounting (shannon_entropy,
single_photon_gain, secret_key_rate, global_gain_qber) and the pipelines
analyze_matrices and analyze.  The data contract that the text formats and
the command line need without a solver (GainErrorMatrices, DecoyResult,
YieldSolution, the three error classes and the truncation and f_ec defaults)
lives in mdiqkd.decoy_types and is imported here, so every name of both
modules can be imported from this one.
"""

from __future__ import annotations

import dataclasses
import math

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
)
from .optics import ParameterError, poisson_pmf
from .session import COUNT_COLUMNS

_SLACK_TOL = 1e-9
_DENOM_FLOOR = 1e-15
_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


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


def _poisson_rows(
    mus: tuple[float, float, float], truncation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-intensity Poisson rows P_m and the per-pair excluded tail masses."""
    if not 2 <= truncation <= MAX_TRUNCATION:
        raise ParameterError(
            f"truncation must lie in [2, {MAX_TRUNCATION}], got {truncation!r}"
        )
    ns = np.arange(truncation + 1)
    rows = np.stack([np.asarray(poisson_pmf(mu, ns), dtype=float) for mu in mus])
    kept = rows.sum(axis=1)
    tails = 1.0 - np.outer(kept, kept)
    return rows, np.clip(tails, 0.0, None)


def _brackets(
    rows: np.ndarray, tails: np.ndarray, *matrices: tuple[str, np.ndarray]
) -> tuple[list[tuple[str, int, int]], sparse.csr_array, np.ndarray, np.ndarray]:
    """Labels, coefficient rows and (lo, hi) of the nine brackets per matrix.

    Row 3 i + j of kron(rows, rows) holds P_m(mu_i) P_n(mu_j) at column
    m (T + 1) + n, the weight of surface entry (m, n) in the gain of pair (i, j);
    the k-th named matrix brackets the k-th surface of the variable vector.
    """
    labels = [(tag, i, j) for tag, _ in matrices for i in range(3) for j in range(3)]
    a = sparse.block_diag([np.kron(rows, rows)] * len(matrices), format="csr")
    hi = np.concatenate([values.ravel() for _, values in matrices])
    return labels, a, hi - np.tile(tails.ravel(), len(matrices)), hi


def _scale_brackets(
    a: sparse.csr_array, lo: np.ndarray, hi: np.ndarray
) -> tuple[sparse.csr_array, np.ndarray, np.ndarray, np.ndarray]:
    """Row-normalize brackets: scaled rows, his and widths, and the row scales.

    Every equality then has an O(1) right-hand side; the raw gains sit far
    below the solver's absolute feasibility tolerances otherwise.
    """
    scales = 1.0 / np.maximum(hi, 1e-9)
    widths = np.clip(hi - lo, 0.0, None)
    return sparse.diags_array(scales) @ a, hi * scales, widths * scales, scales


def _solve_bracket_lp(
    c: np.ndarray,
    labels: list[tuple[str, int, int]],
    a: sparse.csr_array,
    lo: np.ndarray,
    hi: np.ndarray,
    coupling: sparse.sparray | None = None,
) -> np.ndarray:
    """Minimize c @ x over 0 <= x <= 1 with lo <= a @ x <= hi and coupling @ x <= 0.

    Each bracket is posed as an equality with its own slack variable bounded
    by the bracket width (row @ x + s = hi, 0 <= s <= hi - lo), which avoids
    near-duplicate inequality rows when the width is tiny.  On infeasibility,
    re-solves with elastic slacks to identify which measured entries cannot be
    reconciled, then raises InfeasibleModelError.
    """
    n_brackets, n_vars = a.shape
    a_s, his_s, widths_s, scales = _scale_brackets(a, lo, hi)
    # All-CSR blocks take scipy's fast stacking path.
    slack = sparse.eye_array(n_brackets, format="csr")
    a_eq = sparse.hstack([a_s, slack], format="csr")
    bounds = [(0.0, 1.0)] * n_vars + [(0.0, w) for w in widths_s]
    a_ub = a_ub_diag = b_ub = None
    if coupling is not None:
        n_hard = coupling.shape[0]
        a_ub = sparse.hstack([coupling, sparse.csr_array((n_hard, n_brackets))], format="csr")
        a_ub_diag = sparse.hstack(
            [a_ub, sparse.csr_array((n_hard, 2 * n_brackets))], format="csr"
        )
        b_ub = np.zeros(n_hard)
    c_full = np.concatenate([c, np.zeros(n_brackets)])
    res = linprog(
        c_full,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=his_s,
        bounds=bounds,
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status == 0:
        return res.x[:n_vars]
    if res.status not in (2, 4):
        raise RuntimeError(f"linear program failed: {res.message}")

    # Elastic reformulation: let each equality miss by u (shortfall) or v
    # (excess) and minimize the total scaled miss.  Near-zero total miss means
    # the program was feasible and only numerically troubled.
    elastic = sparse.hstack([a_eq, slack, -slack], format="csr")
    c_diag = np.concatenate([np.zeros(n_vars + n_brackets), np.ones(2 * n_brackets)])
    bounds_diag = bounds + [(0.0, None)] * (2 * n_brackets)
    diag = linprog(
        c_diag,
        A_ub=a_ub_diag,
        b_ub=b_ub,
        A_eq=elastic,
        b_eq=his_s,
        bounds=bounds_diag,
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if diag.status != 0:
        raise RuntimeError(f"linear program failed: {res.message}")
    misses_scaled = diag.x[n_vars + n_brackets :]
    if float(misses_scaled.sum()) <= _SLACK_TOL:
        retry = linprog(
            c_full,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=his_s,
            bounds=bounds,
            method="highs",
            options={**_HIGHS_OPTIONS, "presolve": False},
        )
        if retry.status == 0:
            return retry.x[:n_vars]
        raise RuntimeError(
            f"linear program failed numerically on a feasible instance: {res.message}"
        )
    per_bracket_scaled = misses_scaled[:n_brackets] + misses_scaled[n_brackets:]
    violations = [
        (tag, i, j, float(miss / scale))
        for (tag, i, j), miss, scale in zip(labels, per_bracket_scaled, scales)
        if miss > _SLACK_TOL
    ]
    detail = ", ".join(f"{t}[{i},{j}] off by {s:.3e}" for t, i, j, s in violations)
    raise InfeasibleModelError(
        "no yield surface is consistent with the measured matrices"
        + (f": {detail}" if detail else ""),
        violations,
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
    gains = np.asarray(gains, dtype=float)
    if gains.shape != (3, 3):
        raise ParameterError(f"gains must have shape (3, 3), got {gains.shape!r}")
    rows, tails = _poisson_rows(mus, truncation)
    width = truncation + 1
    labels, a, lo, hi = _brackets(rows, tails, ("Q", gains))
    c = np.zeros(width * width)
    c[width + 1] = 1.0
    surface = _solve_bracket_lp(c, labels, a, lo, hi).reshape(width, width)
    return YieldBound(value=float(surface[1, 1]), surface=surface)


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
    dominates the true e^{11}.  The Charnes-Cooper substitution z = t (Y, YE),
    t >= 0, with the scale fixed by z_Y^{11} = 1, makes it one linear program:
    maximize z_YE^{11} = e^{11} subject to (a z)_k + s_k = hi_k t,
    0 <= s_k <= width_k t for the bracket slacks s, and z_YE <= z_Y <= t.
    The Y^{11} lower bound is solved first; when it is positive,
    0 < t <= 1 / min Y^{11} and the surfaces are z / t.

    Raises:
        DegenerateBoundError: the Y^{11} lower bound is numerically zero.
        InfeasibleModelError: no surfaces meet the brackets.
    """
    gains = np.asarray(gains, dtype=float)
    qbers = np.asarray(qbers, dtype=float)
    if gains.shape != (3, 3) or qbers.shape != (3, 3):
        raise ParameterError("gains and qbers must both have shape (3, 3)")
    rows, tails = _poisson_rows(mus, truncation)
    width = truncation + 1
    n_half = width * width
    idx_y11 = width + 1

    denominator = lp_bound_yield(gains, mus, truncation)
    if denominator.value <= _DENOM_FLOOR:
        raise DegenerateBoundError(
            f"single-photon yield lower bound {denominator.value!r} is too small "
            "to divide the error mass by"
        )

    labels, a, lo, hi = _brackets(rows, tails, ("Q", gains), ("QE", gains * qbers))
    a_s, his_s, widths_s, _ = _scale_brackets(a, lo, hi)
    n_brackets = len(labels)
    eye_s = sparse.eye_array(n_brackets)
    # YE - Y <= 0.
    coupling = sparse.eye_array(n_half, 2 * n_half, k=n_half) - sparse.eye_array(n_half, 2 * n_half)
    # Columns: z = t (Y, YE), s, t.
    a_eq = sparse.bmat(
        [
            [sparse.eye_array(1, 2 * n_half, k=idx_y11), None, None],
            [a_s, eye_s, -his_s[:, None]],
        ],
        format="csr",
    )
    a_ub = sparse.bmat(
        [
            [coupling, None, None],
            [sparse.eye_array(n_half, 2 * n_half), None, -np.ones((n_half, 1))],
            [None, eye_s, -widths_s[:, None]],
        ],
        format="csr",
    )
    b_eq = np.zeros(n_brackets + 1)
    b_eq[0] = 1.0
    c = np.zeros(2 * n_half + n_brackets + 1)
    c[n_half + idx_y11] = -1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(a_ub.shape[0]),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0.0, None),
        method="highs",
        options=_HIGHS_OPTIONS,
    )
    if res.status in (2, 4):
        # Raises InfeasibleModelError with the certificate if the data are
        # inconsistent; otherwise the failure is the solver's.
        _solve_bracket_lp(np.zeros(2 * n_half), labels, a, lo, hi, coupling)
        raise RuntimeError(f"ratio program failed on a feasible instance: {res.message}")
    if res.status != 0:
        raise RuntimeError(f"linear program failed: {res.message}")

    z = res.x[: 2 * n_half] / res.x[-1]
    return ErrorBound(
        value=min(0.5, max(0.0, float(res.x[n_half + idx_y11]))),
        y11_diag_lower=denominator.value,
        y_surface=z[:n_half].reshape(width, width),
        ye_surface=z[n_half:].reshape(width, width),
    )


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
    _, tails = _poisson_rows(matrices.mus, truncation)
    _check_f_ec(f_ec)
    rect_bound = lp_bound_yield(matrices.q_rect, matrices.mus, truncation)
    error_bound = lp_bound_error(matrices.q_diag, matrices.e_diag, matrices.mus, truncation)
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
    warnings = tuple(extra_warnings)
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
        warnings=warnings,
    )


def analyze(
    tables, truncation: int = DEFAULT_TRUNCATION, f_ec: float = DEFAULT_F_EC
) -> DecoyResult:
    """Full pipeline from count tables to bounds and key rate."""
    matrices, warnings = matrices_from_counts(tables)
    return analyze_matrices(
        matrices, truncation=truncation, f_ec=f_ec, extra_warnings=tuple(warnings)
    )
