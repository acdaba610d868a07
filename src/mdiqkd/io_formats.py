"""Versioned text formats for counts, gain tables, reports, and configs.

All formats are line-oriented UTF-8 text.  Data files (counts, gains,
reports) start with a "format: <name> <major>.<minor>" line; loading a file
whose major version differs from the writer's fails loudly.  Serialization
is canonical: fixed key order, single-space separation, floats via repr,
rows in declared intensity order then state-code order, "\n" newlines.
Loaders additionally accept blank lines and full-line "#" comments so the
files stay hand-editable; such input is non-canonical and is normalized
away by a save.  Config files use flat "key = value" lines.  Their keys are
the fields of SessionConfig and HomScanConfig, with dotted names for nested
fields (for example channel_a.loss_db) and classes.<label> for an intensity
class's mu; each key's default is the dataclass default, and its value is
parsed by that default's type.  Scan configs also take a
delays.start_ns / delays.stop_ns / delays.points grid.

Unknown header keys and unknown config keys raise in strict mode and warn
otherwise.  Structural problems (bad version, duplicate cells, malformed
rows) always raise FormatError with file and line context.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import os
import warnings as _warnings

import numpy as np

from .decoy import DecoyResult, GainErrorMatrices
from .optics import ParameterError
from .session import (
    COUNT_COLUMNS,
    DEFAULT_DELAY_GRID,
    N_CLASSES,
    N_COLUMNS,
    N_SOPS,
    CountTables,
    HomScanConfig,
    HomScanResult,
    SessionConfig,
)

TOOL_VERSION = "0.1.0"

COUNTS_FORMAT = "mdiqkd-counts"
GAINS_FORMAT = "mdiqkd-gains"
REPORT_FORMAT = "mdiqkd-report"
HOM_FORMAT = "mdiqkd-homscan"
FORMAT_VERSION = "1.0"

# File tokens for the four state codes, in code order.
SOP_TOKENS = ("H", "V", "+", "-")
_SOP_CODE_BY_TOKEN = {token: code for code, token in enumerate(SOP_TOKENS)}

_COUNTS_COLUMNS_LINE = "class_a class_b sop_a sop_b pulses_sent " + " ".join(COUNT_COLUMNS)
_GAINS_COLUMNS_LINE = "mu_a mu_b q_rect q_diag e_rect e_diag"


class FormatError(ValueError):
    """A file failed to parse or violated a format invariant."""


def file_digest(path: str) -> str:
    """SHA-256 hex digest of a file's raw bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_atomic(text: str, path: str) -> None:
    """Write text to path through a temporary file and a rename.

    A failed write leaves neither a partial target nor the temporary file.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt_float(value: float) -> str:
    return repr(float(value))


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(token: str, context: str) -> bool:
    if token == "true":
        return True
    if token == "false":
        return False
    raise FormatError(f"{context}: expected 'true' or 'false', got {token!r}")


def _parse_int(token: str, context: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"{context}: expected an integer, got {token!r}") from None


def _parse_float(token: str, context: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"{context}: expected a number, got {token!r}") from None
    if not np.isfinite(value):
        raise FormatError(f"{context}: expected a finite number, got {token!r}")
    return value


def _check_version(value: str, expected_name: str, context: str) -> None:
    parts = value.split()
    if len(parts) != 2 or parts[0] != expected_name:
        raise FormatError(
            f"{context}: expected format {expected_name!r}, got {value!r}"
        )
    version = parts[1].split(".")
    if len(version) != 2 or not all(p.isdigit() for p in version):
        raise FormatError(f"{context}: malformed version {parts[1]!r}")
    major = int(version[0])
    expected_major = int(FORMAT_VERSION.split(".")[0])
    if major != expected_major:
        raise FormatError(
            f"{context}: unsupported major version {parts[1]} "
            f"(this reader handles {expected_major}.x)"
        )


class _HeaderReader:
    """Walks 'key: value' lines, tracking line numbers and duplicate keys."""

    def __init__(self, lines: list[tuple[int, str]], source: str):
        self.lines = lines
        self.source = source
        self.pos = 0
        self.seen: set[str] = set()

    def context(self, lineno: int) -> str:
        return f"{self.source}:{lineno}"

    def next_pair(self) -> tuple[int, str, str] | None:
        if self.pos >= len(self.lines):
            return None
        lineno, line = self.lines[self.pos]
        if ":" not in line:
            return None
        key, _, value = line.partition(":")
        key = key.strip()
        if not key or " " in key:
            return None
        self.pos += 1
        if key in self.seen:
            raise FormatError(f"{self.context(lineno)}: duplicate header key {key!r}")
        self.seen.add(key)
        return lineno, key, value.strip()

    def rest(self) -> list[tuple[int, str]]:
        return self.lines[self.pos:]


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def _read_header(
    reader: _HeaderReader,
    format_name: str,
    stop_key: str | None,
    known: set[str],
    strict: bool,
) -> dict[str, tuple[int, str]]:
    """Read header pairs through stop_key (or to the first non-pair line)."""
    first = reader.next_pair()
    if first is None or first[1] != "format":
        where = reader.context(first[0]) if first else reader.source
        raise FormatError(f"{where}: first line must be 'format: {format_name} <version>'")
    _check_version(first[2], format_name, reader.context(first[0]))
    header: dict[str, tuple[int, str]] = {}
    while True:
        pair = reader.next_pair()
        if pair is None:
            if stop_key is not None:
                raise FormatError(f"{reader.source}: missing header key {stop_key!r}")
            return header
        lineno, key, value = pair
        if key not in known:
            message = f"{reader.context(lineno)}: unknown header key {key!r}"
            if strict:
                raise FormatError(message)
            _warnings.warn(message, stacklevel=3)
            continue
        header[key] = (lineno, value)
        if key == stop_key:
            return header


def _require(header: dict[str, tuple[int, str]], key: str, source: str) -> tuple[int, str]:
    if key not in header:
        raise FormatError(f"{source}: missing header key {key!r}")
    return header[key]


# Counts files.

_COUNTS_HEADER_KEYS = {
    "format",
    "classes",
    "pulses_total",
    "seed",
    "mode",
    "sifted",
    "repetition_rate_hz",
    "columns",
}


def format_counts(tables: CountTables) -> str:
    """Canonical text serialization of count tables."""
    for label in tables.class_labels:
        if "=" in label or ":" in label:
            raise FormatError(
                f"class label {label!r} cannot be serialized ('=' and ':' reserved)"
            )
    out = io.StringIO()
    out.write(f"format: {COUNTS_FORMAT} {FORMAT_VERSION}\n")
    pairs = " ".join(
        f"{label}={_fmt_float(mu)}"
        for label, mu in zip(tables.class_labels, tables.class_mus)
    )
    out.write(f"classes: {pairs}\n")
    out.write(f"pulses_total: {int(tables.pulses_total)}\n")
    out.write(f"seed: {int(tables.seed)}\n")
    out.write(f"mode: {tables.mode}\n")
    out.write(f"sifted: {_fmt_bool(tables.sifted)}\n")
    out.write(f"repetition_rate_hz: {_fmt_float(tables.repetition_rate_hz)}\n")
    out.write(f"columns: {_COUNTS_COLUMNS_LINE}\n")
    for ia in range(N_CLASSES):
        for ib in range(N_CLASSES):
            for sa in range(N_SOPS):
                for sb in range(N_SOPS):
                    pulses = int(tables.pulses_sent[ia, ib, sa, sb])
                    row = [int(c) for c in tables.counts[ia, ib, sa, sb]]
                    if pulses == 0 and not any(row):
                        continue
                    fields = [
                        tables.class_labels[ia],
                        tables.class_labels[ib],
                        SOP_TOKENS[sa],
                        SOP_TOKENS[sb],
                        str(pulses),
                        *[str(c) for c in row],
                    ]
                    out.write(" ".join(fields) + "\n")
    return out.getvalue()


def parse_counts(text: str, strict: bool = False, source: str = "<string>") -> CountTables:
    """Parse counts-file text into CountTables."""
    reader = _HeaderReader(_content_lines(text), source)
    header = _read_header(reader, COUNTS_FORMAT, "columns", _COUNTS_HEADER_KEYS, strict)

    lineno, value = _require(header, "columns", source)
    if value != _COUNTS_COLUMNS_LINE:
        raise FormatError(f"{source}:{lineno}: unsupported column layout {value!r}")

    lineno, value = _require(header, "classes", source)
    labels: list[str] = []
    mus: list[float] = []
    for token in value.split():
        name, sep, mu_text = token.partition("=")
        if not sep or not name:
            raise FormatError(
                f"{source}:{lineno}: class entries must be label=mu, got {token!r}"
            )
        labels.append(name)
        mus.append(_parse_float(mu_text, f"{source}:{lineno}"))
    if len(labels) != N_CLASSES:
        raise FormatError(
            f"{source}:{lineno}: expected {N_CLASSES} classes, got {len(labels)}"
        )
    if len(set(labels)) != N_CLASSES:
        raise FormatError(f"{source}:{lineno}: class labels must be distinct")
    class_index = {label: k for k, label in enumerate(labels)}

    lineno, value = _require(header, "pulses_total", source)
    pulses_total = _parse_int(value, f"{source}:{lineno}")
    if pulses_total < 0:
        raise FormatError(f"{source}:{lineno}: pulses_total must be >= 0")
    lineno, value = _require(header, "seed", source)
    seed = _parse_int(value, f"{source}:{lineno}")
    lineno, value = _require(header, "mode", source)
    mode = value
    if not mode or " " in mode:
        raise FormatError(f"{source}:{lineno}: mode must be a single token")
    lineno, value = _require(header, "sifted", source)
    sifted = _parse_bool(value, f"{source}:{lineno}")
    lineno, value = _require(header, "repetition_rate_hz", source)
    repetition_rate_hz = _parse_float(value, f"{source}:{lineno}")

    pulses_sent = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS), dtype=np.int64)
    counts = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS, N_COLUMNS), dtype=np.int64)
    filled = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS), dtype=bool)
    for lineno, line in reader.rest():
        fields = line.split()
        if len(fields) != 5 + N_COLUMNS:
            raise FormatError(
                f"{source}:{lineno}: expected {5 + N_COLUMNS} fields, got {len(fields)}"
            )
        where = f"{source}:{lineno}"
        cell = []
        for field in (fields[0], fields[1]):
            if field not in class_index:
                raise FormatError(f"{where}: unknown class label {field!r}")
            cell.append(class_index[field])
        for field in (fields[2], fields[3]):
            if field not in _SOP_CODE_BY_TOKEN:
                raise FormatError(f"{where}: unknown state token {field!r}")
            cell.append(_SOP_CODE_BY_TOKEN[field])
        ia, ib, sa, sb = cell
        if filled[ia, ib, sa, sb]:
            raise FormatError(
                f"{where}: duplicate cell "
                f"{fields[0]} {fields[1]} {fields[2]} {fields[3]}"
            )
        filled[ia, ib, sa, sb] = True
        numbers = [_parse_int(f, where) for f in fields[4:]]
        if any(n < 0 for n in numbers):
            raise FormatError(f"{where}: counts must be non-negative")
        pulses_sent[ia, ib, sa, sb] = numbers[0]
        counts[ia, ib, sa, sb] = numbers[1:]

    try:
        return CountTables(
            class_labels=tuple(labels),
            class_mus=tuple(mus),
            pulses_total=pulses_total,
            seed=seed,
            mode=mode,
            pulses_sent=pulses_sent,
            counts=counts,
            sifted=sifted,
            repetition_rate_hz=repetition_rate_hz,
        )
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def save_counts(tables: CountTables, path: str) -> None:
    """Write count tables in canonical form."""
    _write_atomic(format_counts(tables), path)


def load_counts(path: str, strict: bool = False) -> CountTables:
    """Read a counts file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_counts(handle.read(), strict=strict, source=path)


# Gain/error tables.

_GAINS_HEADER_KEYS = {"format", "mus", "columns"}


def format_gains(matrices: GainErrorMatrices) -> str:
    """Canonical text serialization of measured gain and error matrices."""
    out = io.StringIO()
    out.write(f"format: {GAINS_FORMAT} {FORMAT_VERSION}\n")
    out.write("mus: " + " ".join(_fmt_float(mu) for mu in matrices.mus) + "\n")
    out.write(f"columns: {_GAINS_COLUMNS_LINE}\n")
    for i in range(3):
        for j in range(3):
            fields = [
                _fmt_float(matrices.mus[i]),
                _fmt_float(matrices.mus[j]),
                _fmt_float(matrices.q_rect[i, j]),
                _fmt_float(matrices.q_diag[i, j]),
                _fmt_float(matrices.e_rect[i, j]),
                _fmt_float(matrices.e_diag[i, j]),
            ]
            out.write(" ".join(fields) + "\n")
    return out.getvalue()


def parse_gains(
    text: str, strict: bool = False, source: str = "<string>"
) -> GainErrorMatrices:
    """Parse gain-table text into GainErrorMatrices."""
    reader = _HeaderReader(_content_lines(text), source)
    header = _read_header(reader, GAINS_FORMAT, "columns", _GAINS_HEADER_KEYS, strict)

    lineno, value = _require(header, "columns", source)
    if value != _GAINS_COLUMNS_LINE:
        raise FormatError(f"{source}:{lineno}: unsupported column layout {value!r}")
    lineno, value = _require(header, "mus", source)
    mus = [_parse_float(t, f"{source}:{lineno}") for t in value.split()]
    if len(mus) != 3:
        raise FormatError(f"{source}:{lineno}: expected 3 intensities, got {len(mus)}")

    q_rect = np.zeros((3, 3))
    q_diag = np.zeros((3, 3))
    e_rect = np.zeros((3, 3))
    e_diag = np.zeros((3, 3))
    filled = np.zeros((3, 3), dtype=bool)
    for lineno, line in reader.rest():
        where = f"{source}:{lineno}"
        fields = line.split()
        if len(fields) != 6:
            raise FormatError(f"{where}: expected 6 fields, got {len(fields)}")
        pair = []
        for field in fields[:2]:
            mu = _parse_float(field, where)
            if mu not in mus:
                raise FormatError(f"{where}: intensity {field} not in declared mus")
            pair.append(mus.index(mu))
        i, j = pair
        if filled[i, j]:
            raise FormatError(f"{where}: duplicate intensity pair {fields[0]} {fields[1]}")
        filled[i, j] = True
        q_rect[i, j] = _parse_float(fields[2], where)
        q_diag[i, j] = _parse_float(fields[3], where)
        e_rect[i, j] = _parse_float(fields[4], where)
        e_diag[i, j] = _parse_float(fields[5], where)
    if not filled.all():
        missing = [(i, j) for i in range(3) for j in range(3) if not filled[i, j]]
        raise FormatError(f"{source}: missing intensity pairs {missing}")

    try:
        return GainErrorMatrices(
            mus=tuple(mus), q_rect=q_rect, q_diag=q_diag, e_rect=e_rect, e_diag=e_diag
        )
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def save_gains(matrices: GainErrorMatrices, path: str) -> None:
    """Write gain and error matrices in canonical form."""
    _write_atomic(format_gains(matrices), path)


def load_gains(path: str, strict: bool = False) -> GainErrorMatrices:
    """Read a gain-table file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_gains(handle.read(), strict=strict, source=path)


# Analysis reports.


@dataclasses.dataclass(frozen=True)
class ResultReport:
    """Analysis result plus the provenance needed to reproduce it."""

    result: DecoyResult
    input_sha256: str | None = None
    seed: int | None = None
    tool_version: str = TOOL_VERSION


def format_report(report: ResultReport) -> str:
    """Canonical text serialization of an analysis report."""
    result = report.result
    out = io.StringIO()
    out.write(f"format: {REPORT_FORMAT} {FORMAT_VERSION}\n")
    out.write(f"tool_version: {report.tool_version}\n")
    out.write(f"input_sha256: {report.input_sha256 or '-'}\n")
    if report.seed is not None:
        out.write(f"seed: {int(report.seed)}\n")
    out.write(f"truncation: {int(result.truncation)}\n")
    out.write(f"f_ec: {_fmt_float(result.f_ec)}\n")
    out.write("mus: " + " ".join(_fmt_float(mu) for mu in result.mus) + "\n")
    for name in (
        "y11_lower",
        "e11_upper",
        "q11",
        "q_rect_measured",
        "q_rect_reconstructed",
        "q_rect_global",
        "e_rect_global",
        "rate",
    ):
        out.write(f"{name}: {_fmt_float(getattr(result, name))}\n")
    out.write(f"warnings: {len(result.warnings)}\n")
    for k, message in enumerate(result.warnings, start=1):
        flat = " ".join(str(message).split())
        out.write(f"warning_{k}: {flat}\n")
    return out.getvalue()


def save_report(report: ResultReport, path: str) -> None:
    """Write an analysis report in canonical form."""
    _write_atomic(format_report(report), path)


# Interference-scan tables.


def format_hom_table(result: HomScanResult) -> str:
    """Canonical text serialization of an interference-scan result."""
    out = io.StringIO()
    out.write(f"format: {HOM_FORMAT} {FORMAT_VERSION}\n")
    out.write(f"pulse_width_ns: {_fmt_float(result.pulse_width_ns)}\n")
    width = result.dip_width_ns()
    out.write(f"dip_width_ns: {_fmt_float(width)}\n")
    out.write(
        "columns: delay_ns rate_indistinguishable rate_distinguishable "
        "visibility visibility_stderr\n"
    )
    for k in range(len(result.delays_ns)):
        fields = [
            _fmt_float(result.delays_ns[k]),
            _fmt_float(result.rate_indistinguishable[k]),
            _fmt_float(result.rate_distinguishable[k]),
            _fmt_float(result.visibility[k]),
            _fmt_float(result.visibility_stderr[k]),
        ]
        out.write(" ".join(fields) + "\n")
    return out.getvalue()


# Config files: flat "key = value" lines with dotted section names.  The keys
# and their defaults come from the config dataclasses' fields.


def _config_defaults(default, prefix: str = "") -> dict[str, object]:
    """Dotted config key -> default value for every leaf field of a config.

    A nested dataclass field takes dotted keys, and an intensity-class tuple
    takes one classes.<label> key per class, setting that class's mu.
    """
    out: dict[str, object] = {}
    for field in dataclasses.fields(default):
        key = prefix + field.name
        value = getattr(default, field.name)
        if dataclasses.is_dataclass(value):
            out.update(_config_defaults(value, key + "."))
        elif field.name == "classes":
            out.update({f"{key}.{c.label}": c.mu for c in value})
        else:
            out[key] = value
    return out


def _with_values(default, values: dict[str, object], prefix: str = ""):
    """Copy of a config with the dotted keys in values set.

    dataclasses.replace re-runs each __post_init__, so every value is
    validated as if passed to the constructor.
    """
    changes: dict[str, object] = {}
    for field in dataclasses.fields(default):
        key = prefix + field.name
        value = getattr(default, field.name)
        if dataclasses.is_dataclass(value):
            changes[field.name] = _with_values(value, values, key + ".")
        elif field.name == "classes":
            changes[field.name] = tuple(
                dataclasses.replace(c, mu=values.get(f"{key}.{c.label}", c.mu))
                for c in value
            )
        elif key in values:
            changes[field.name] = values[key]
    return dataclasses.replace(default, **changes)


def _read_config(
    text: str, source: str, strict: bool, defaults: dict[str, object]
) -> dict[str, object]:
    """Parse config text into values for the keys it sets.

    Each value is parsed by the type of its key's default: int, float, str,
    or a whitespace-separated tuple of floats.
    """
    values: dict[str, object] = {}
    for lineno, line in _content_lines(text):
        where = f"{source}:{lineno}"
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or " " in key:
            raise FormatError(f"{where}: expected 'key = value', got {line!r}")
        if key in values:
            raise FormatError(f"{where}: duplicate key {key!r}")
        if key not in defaults:
            message = f"{where}: unknown config key {key!r}"
            if strict:
                raise FormatError(message)
            _warnings.warn(message, stacklevel=3)
            continue
        context = f"{where} ({key})"
        default = defaults[key]
        if isinstance(default, tuple):
            values[key] = tuple(_parse_float(t, context) for t in value.split())
        elif isinstance(default, int):
            values[key] = _parse_int(value, context)
        elif isinstance(default, float):
            values[key] = _parse_float(value, context)
        else:
            values[key] = value
    return values


def _build_config(
    default, values: dict[str, object], overrides: dict | None, pulses_key: str, source: str
):
    """Apply the "pulses" and "seed" overrides to values, then build the config."""
    for flag, key in (("pulses", pulses_key), ("seed", "seed")):
        if flag in (overrides or {}):
            values[key] = int(overrides[flag])
    try:
        return _with_values(default, values)
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def parse_session_config(
    text: str,
    strict: bool = False,
    source: str = "<string>",
    overrides: dict | None = None,
) -> SessionConfig:
    """Build a SessionConfig from config text plus optional field overrides.

    Keys not in the text keep their SessionConfig defaults.  overrides maps a
    subset of {"pulses", "seed"} to values taking precedence over the file,
    for command-line flags.
    """
    default = SessionConfig()
    values = _read_config(text, source, strict, _config_defaults(default))
    return _build_config(default, values, overrides, "pulses", source)


def load_session_config(
    path: str, strict: bool = False, overrides: dict | None = None
) -> SessionConfig:
    """Read a session config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_session_config(
            handle.read(), strict=strict, source=path, overrides=overrides
        )


def parse_hom_config(
    text: str,
    strict: bool = False,
    source: str = "<string>",
    overrides: dict | None = None,
) -> HomScanConfig:
    """Build a HomScanConfig from config text plus optional field overrides.

    Keys not in the text keep their HomScanConfig defaults.  The delay grid
    comes either from an explicit delays_ns list or from a delays.start_ns /
    delays.stop_ns / delays.points triple, not both; a partial triple takes
    the rest from DEFAULT_DELAY_GRID.  overrides maps a subset of
    {"pulses", "seed"} to values taking precedence over the file; "pulses"
    sets pulses_per_point.
    """
    default = HomScanConfig()
    grid_defaults = dict(
        zip(("delays.start_ns", "delays.stop_ns", "delays.points"), DEFAULT_DELAY_GRID)
    )
    values = _read_config(
        text, source, strict, {**_config_defaults(default), **grid_defaults}
    )
    if any(key in values for key in grid_defaults):
        if "delays_ns" in values:
            raise FormatError(f"{source}: give delays_ns or a delays.* grid, not both")
        start, stop, points = (values.pop(key, value) for key, value in grid_defaults.items())
        if points < 2:
            raise FormatError(f"{source}: delays.points must be >= 2, got {points}")
        values["delays_ns"] = tuple(np.linspace(start, stop, points).tolist())
    return _build_config(default, values, overrides, "pulses_per_point", source)


def load_hom_config(
    path: str, strict: bool = False, overrides: dict | None = None
) -> HomScanConfig:
    """Read an interference-scan config file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_hom_config(
            handle.read(), strict=strict, source=path, overrides=overrides
        )
