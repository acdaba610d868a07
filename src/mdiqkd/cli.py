"""Command-line interface: simulate, analyze, rate, hom-scan, table1.

Exit codes: 0 on success, 1 on any validation or input error (including
unknown flags), 2 when the bounding programs certify the measured model
infeasible or degenerate.  Output files are written atomically after the
full result is formatted, so a nonzero exit never leaves a partial file.
"""

from __future__ import annotations

import argparse
import sys

from .bsa import (
    _CODE_AMPS_A,
    _CODE_AMPS_B,
    BellOutcome,
    BsaResponse,
    DetectorModel,
    _pattern_table,
    fock_bsa_oracle,
)
from .decoy import (
    DEFAULT_F_EC,
    DEFAULT_TRUNCATION,
    MAX_TRUNCATION,
    DegenerateBoundError,
    InfeasibleModelError,
    InsufficientCountsError,
    analyze,
    analyze_matrices,
)
from .io_formats import (
    FormatError,
    ResultReport,
    _write_atomic,
    file_digest,
    format_counts,
    format_hom_table,
    format_report,
    load_counts,
    load_gains,
    load_hom_config,
    load_session_config,
)
from .optics import SOP_BY_CODE, SOP_LABELS, ParameterError
from .session import hom_scan, run_session

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INFEASIBLE = 2

DEFAULT_TABLE_MU = 0.005


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _emit(text: str, path: str | None) -> None:
    """Write output to a file (atomically) or stdout."""
    if path is None:
        sys.stdout.write(text)
        return
    _write_atomic(text, path)


def _overrides(args: argparse.Namespace) -> dict:
    out = {}
    if getattr(args, "seed", None) is not None:
        out["seed"] = args.seed
    if getattr(args, "pulses", None) is not None:
        out["pulses"] = args.pulses
    return out


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_session_config(args.config, strict=args.strict, overrides=_overrides(args))
    tables = run_session(config, workers=args.workers)
    _emit(format_counts(tables), args.output)
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    tables = load_counts(args.counts, strict=args.strict)
    result = analyze(tables, truncation=args.truncation, f_ec=args.f_ec)
    report = ResultReport(
        result=result, input_sha256=file_digest(args.counts), seed=tables.seed
    )
    _emit(format_report(report), args.output)
    return EXIT_OK


def _cmd_rate(args: argparse.Namespace) -> int:
    matrices = load_gains(args.gains, strict=args.strict)
    result = analyze_matrices(matrices, truncation=args.truncation, f_ec=args.f_ec)
    report = ResultReport(result=result, input_sha256=file_digest(args.gains))
    _emit(format_report(report), args.output)
    return EXIT_OK


def _cmd_hom_scan(args: argparse.Namespace) -> int:
    config = load_hom_config(args.config, strict=args.strict, overrides=_overrides(args))
    result = hom_scan(config)
    _emit(format_hom_table(result), args.output)
    return EXIT_OK


# Prepared pairs of the reference table: the rectilinear block, then the
# diagonal block, by state code.
_TABLE_ROWS = (
    ("rect", 0, 0),
    ("rect", 1, 1),
    ("rect", 0, 1),
    ("rect", 1, 0),
    ("diag", 2, 2),
    ("diag", 3, 3),
    ("diag", 2, 3),
    ("diag", 3, 2),
)


def _cmd_table1(args: argparse.Namespace) -> int:
    _, codes_a, codes_b = zip(*_TABLE_ROWS)
    wcp_rows = _pattern_table(
        args.mu, args.mu, _CODE_AMPS_A[list(codes_a)], _CODE_AMPS_B[list(codes_b)], 1.0,
        DetectorModel(),
    )
    lines = [
        f"single-photon and weak-coherent analyzer response (wcp mu = {args.mu!r})",
        f"{'basis':<6} {'sop_a':<6} {'sop_b':<6} "
        f"{'1ph_psi+':>9} {'1ph_psi-':>9} {'wcp_psi+':>9} {'wcp_psi-':>9}",
    ]
    for (basis, sa, sb), wcp_probs in zip(_TABLE_ROWS, wcp_rows):
        single = fock_bsa_oracle(1, 1, SOP_BY_CODE[sa], SOP_BY_CODE[sb]).conditional_fractions
        wcp = BsaResponse(pattern_probs=wcp_probs).conditional_fractions
        lines.append(
            f"{basis:<6} {SOP_LABELS[sa]:<6} {SOP_LABELS[sb]:<6} "
            f"{single[BellOutcome.PSI_PLUS]:>9g} {single[BellOutcome.PSI_MINUS]:>9g} "
            f"{wcp[BellOutcome.PSI_PLUS]:>9.4f} {wcp[BellOutcome.PSI_MINUS]:>9.4f}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _add_common_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", help="write to this file instead of stdout")
    sub.add_argument(
        "--strict", action="store_true", help="reject unknown fields instead of warning"
    )


def _add_bound_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--truncation", type=_positive_int, default=DEFAULT_TRUNCATION,
        help="photon-number truncation of the bounding programs "
        f"(2 to {MAX_TRUNCATION})",
    )
    sub.add_argument(
        "--f-ec", type=float, default=DEFAULT_F_EC, dest="f_ec",
        help="error-correction inefficiency factor",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdiqkd",
        description="Polarization-encoded MDI-QKD simulation and decoy-state analysis.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="run a session and write a counts file")
    sim.add_argument("config", help="session config file")
    sim.add_argument("--seed", type=int, help="override the config seed")
    sim.add_argument("--pulses", type=_positive_int, help="override the gate count")
    sim.add_argument(
        "--workers", type=_positive_int, default=1, help="ignored; accepted for old scripts"
    )
    _add_common_output(sim)
    sim.set_defaults(func=_cmd_simulate)

    ana = commands.add_parser("analyze", help="bound yields and rate from a counts file")
    ana.add_argument("counts", help="counts file")
    _add_bound_options(ana)
    _add_common_output(ana)
    ana.set_defaults(func=_cmd_analyze)

    rate = commands.add_parser("rate", help="bound yields and rate from a gain table")
    rate.add_argument("gains", help="gain-table file")
    _add_bound_options(rate)
    _add_common_output(rate)
    rate.set_defaults(func=_cmd_rate)

    hom = commands.add_parser("hom-scan", help="scan the two-pulse interference dip")
    hom.add_argument("config", help="scan config file")
    hom.add_argument("--seed", type=int, help="override the config seed")
    hom.add_argument(
        "--pulses", type=_positive_int, help="override the pulses per delay point"
    )
    _add_common_output(hom)
    hom.set_defaults(func=_cmd_hom_scan)

    tab = commands.add_parser(
        "table1", help="print the analyzer response table for prepared state pairs"
    )
    tab.add_argument(
        "--mu", type=float, default=DEFAULT_TABLE_MU,
        help="mean photon number of the weak-coherent columns",
    )
    _add_common_output(tab)
    tab.set_defaults(func=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_VALIDATION
        return EXIT_OK if code == 0 else EXIT_VALIDATION
    try:
        return args.func(args)
    except (FormatError, ParameterError, InsufficientCountsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleModelError, DegenerateBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
