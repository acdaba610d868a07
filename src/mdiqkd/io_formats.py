"""Versioned text formats for counts, gain tables, reports, and configs.

All formats are line-oriented UTF-8 text.  One writer renders every data
file (counts, gains, reports, scan tables): a "format: <name> <major>.<minor>"
line, "key: value" header lines in a fixed order, then rows of fields joined
by single spaces; floats via repr, rows in declared intensity order then
state-code order, "\n" newlines.  One reader loads counts and gains files:
the header runs from the format line through the "columns" line, every later
line is a data row, and a major version the reader does not handle fails
loudly.  Counts files are written at 2.0; 1.x files still load, their two
retired header keys (sifted, repetition_rate_hz) skipped unread.  Loaders
accept blank lines and full-line "#" comments so the files stay
hand-editable; a save normalizes them away.  Config files use flat
"key = value" lines.  Their keys are the fields of SessionConfig and
HomScanConfig, with dotted names for nested fields (for example
channel_a.loss_db) and classes.<label> for an intensity class's mu; each
key's default is the dataclass default, and its value is parsed by that
default's type.  Scan configs also take a delays.start_ns / delays.stop_ns /
delays.points grid of at most MAX_DELAY_POINTS points.

An unknown header key in a data file warns, so that a file written by a
later minor version still loads.  An unknown config key raises FormatError:
config files carry no version, so such a key can only be a typo.  Structural
problems (bad version, duplicate keys or cells, malformed rows) raise
FormatError too, each with file and line context.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import warnings as _warnings

import numpy as np

from .decoy import DecoyResult, GainErrorMatrices
from .optics import ParameterError, check_intensities
from .session import (
    COUNT_COLUMNS,
    DEFAULT_DELAY_GRID,
    MAX_DELAY_POINTS,
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
# Per format: the version written, the major versions read (reports and scan
# tables have no reader), and the header keys of an older version that the
# reader skips without a warning.
_VERSIONS: dict[str, tuple[str, tuple[int, ...], tuple[str, ...]]] = {
    COUNTS_FORMAT: ("2.0", (1, 2), ("sifted", "repetition_rate_hz")),
    GAINS_FORMAT: ("1.0", (1,), ()),
    REPORT_FORMAT: ("2.0", (), ()),
    HOM_FORMAT: ("1.0", (), ()),
}

# File tokens for the four state codes, in code order.
SOP_TOKENS = ("H", "V", "+", "-")
_SOP_CODE_BY_TOKEN = {token: code for code, token in enumerate(SOP_TOKENS)}

_COUNTS_COLUMNS_LINE = "class_a class_b sop_a sop_b pulses_sent " + " ".join(COUNT_COLUMNS)
_GAINS_COLUMNS_LINE = "mu_a mu_b q_rect q_diag e_rect e_diag"
_HOM_COLUMNS_LINE = (
    "delay_ns rate_indistinguishable rate_distinguishable visibility visibility_stderr"
)


class FormatError(ValueError):
    """A file failed to parse or violated a format invariant."""


def read_text(path: str) -> tuple[str, str]:
    """A UTF-8 text file's contents, without a leading byte-order mark, and the
    SHA-256 hex digest of its bytes."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8-sig"), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


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
    majors = _VERSIONS[expected_name][1]
    if int(version[0]) not in majors:
        raise FormatError(
            f"{context}: unsupported major version {parts[1]} "
            f"(this reader handles {' and '.join(f'{m}.x' for m in majors)})"
        )


def _content_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a "#" comment."""
    lines = [(lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1)]
    return [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]


def _render(format_name: str, header, rows) -> str:
    """Canonical data-file text.

    The format line at the format's written version, then one "key: value"
    line per (key, value) pair of header, then one line per row of string
    fields, joined by single spaces.
    """
    lines = [f"format: {format_name} {_VERSIONS[format_name][0]}"]
    lines += [f"{key}: {value}" for key, value in header]
    lines += [" ".join(fields) for fields in rows]
    return "\n".join(lines) + "\n"


def _read_data_file(
    text: str, format_name: str, keys: tuple[str, ...], columns: str, source: str
) -> tuple[dict[str, tuple[str, str]], list[tuple[str, list[str]]]]:
    """Split data-file text into its header values and data rows.

    The header is the "key: value" lines from the format line through the
    columns line; every later content line is a data row.  Checks the format
    name and major version, duplicate keys (unknown ones included), that each
    of keys is present and that the columns line reads columns.  An unknown
    key only warns: a later minor version may add keys.  A key the format
    retired is skipped without one.

    Returns (header, rows): header maps each key read to (value,
    "source:line"), and rows lists ("source:line", whitespace-split fields)
    in file order.
    """
    first_line = f"first line must be 'format: {format_name} <version>'"
    lines = _content_lines(text)
    header: dict[str, tuple[str, str]] = {}
    for lineno, line in lines:
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or not key or " " in key:
            break
        where = f"{source}:{lineno}"
        if not header and key != "format":
            raise FormatError(f"{where}: {first_line}")
        if key in header:
            raise FormatError(f"{where}: duplicate header key {key!r}")
        header[key] = (value.strip(), where)
        if key == "format":
            _check_version(value.strip(), format_name, where)
        elif key == "columns":
            break
        elif key not in keys and key not in _VERSIONS[format_name][2]:
            _warnings.warn(f"{where}: unknown header key {key!r}", stacklevel=3)
    if not header:
        raise FormatError(f"{source}: {first_line}")
    if "columns" not in header:
        raise FormatError(f"{source}: missing header key 'columns'")
    value, where = header["columns"]
    if value != columns:
        raise FormatError(f"{where}: unsupported column layout {value!r}")
    for key in keys:
        if key not in header:
            raise FormatError(f"{source}: missing header key {key!r}")
    rows = [(f"{source}:{lineno}", line.split()) for lineno, line in lines[len(header):]]
    return header, rows


# Counts files.

_COUNTS_HEADER_KEYS = ("classes", "pulses_total", "seed", "mode")


def format_counts(tables: CountTables) -> str:
    """Canonical text serialization of count tables."""
    labels = tables.class_labels
    classes = " ".join(f"{label}={_fmt_float(mu)}" for label, mu in zip(labels, tables.class_mus))
    header = [
        ("classes", classes),
        ("pulses_total", int(tables.pulses_total)),
        ("seed", int(tables.seed)),
        ("mode", tables.mode),
        ("columns", _COUNTS_COLUMNS_LINE),
    ]
    # Only cells with pulses or counts are written.  np.nonzero and boolean
    # indexing both walk the cells in C order: intensity pair, then state codes.
    written = (tables.pulses_sent != 0) | tables.counts.any(axis=-1)
    numbers = np.column_stack((tables.pulses_sent[written], tables.counts[written])).tolist()
    rows = (
        (labels[ia], labels[ib], SOP_TOKENS[sa], SOP_TOKENS[sb], *map(str, cell))
        for ia, ib, sa, sb, cell in zip(*np.nonzero(written), numbers)
    )
    return _render(COUNTS_FORMAT, header, rows)


def parse_counts(text: str, *, source: str = "<string>") -> CountTables:
    """Parse counts-file text into CountTables."""
    header, rows = _read_data_file(
        text, COUNTS_FORMAT, _COUNTS_HEADER_KEYS, _COUNTS_COLUMNS_LINE, source
    )
    value, where = header["classes"]
    labels: list[str] = []
    mus: list[float] = []
    for token in value.split():
        name, sep, mu_text = token.partition("=")
        if not sep or not name:
            raise FormatError(f"{where}: class entries must be label=mu, got {token!r}")
        labels.append(name)
        mus.append(_parse_float(mu_text, where))
    if len(labels) != N_CLASSES:
        raise FormatError(f"{where}: expected {N_CLASSES} classes, got {len(labels)}")
    class_index = {label: k for k, label in enumerate(labels)}

    pulses_total = _parse_int(*header["pulses_total"])
    seed = _parse_int(*header["seed"])
    mode = header["mode"][0]

    pulses_sent = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS), dtype=np.int64)
    counts = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS, N_COLUMNS), dtype=np.int64)
    filled = np.zeros((N_CLASSES, N_CLASSES, N_SOPS, N_SOPS), dtype=bool)
    for where, fields in rows:
        if len(fields) != 5 + N_COLUMNS:
            raise FormatError(
                f"{where}: expected {5 + N_COLUMNS} fields, got {len(fields)}"
            )
        cell = []
        for field in fields[:2]:
            if field not in class_index:
                raise FormatError(f"{where}: unknown class label {field!r}")
            cell.append(class_index[field])
        for field in fields[2:4]:
            if field not in _SOP_CODE_BY_TOKEN:
                raise FormatError(f"{where}: unknown state token {field!r}")
            cell.append(_SOP_CODE_BY_TOKEN[field])
        cell = tuple(cell)
        if filled[cell]:
            raise FormatError(f"{where}: duplicate cell {' '.join(fields[:4])}")
        filled[cell] = True
        numbers = [_parse_int(f, where) for f in fields[4:]]
        if min(numbers) < 0:
            raise FormatError(f"{where}: counts must be non-negative")
        if max(numbers) >= 2**63:
            raise FormatError(f"{where}: counts must be below 2**63")
        # A row may leave gates out of "other", but never count more than it sent.
        if sum(numbers[1:]) > numbers[0]:
            raise FormatError(f"{where}: counts exceed pulses_sent")
        pulses_sent[cell] = numbers[0]
        counts[cell] = numbers[1:]

    try:
        return CountTables(
            class_labels=tuple(labels),
            class_mus=tuple(mus),
            pulses_total=pulses_total,
            seed=seed,
            mode=mode,
            pulses_sent=pulses_sent,
            counts=counts,
        )
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_counts(path: str) -> CountTables:
    """Read a counts file."""
    return parse_counts(read_text(path)[0], source=path)


# Gain/error tables.


def format_gains(matrices: GainErrorMatrices) -> str:
    """Canonical text serialization of measured gain and error matrices."""
    mus = [_fmt_float(mu) for mu in matrices.mus]
    values = np.stack((matrices.q_rect, matrices.q_diag, matrices.e_rect, matrices.e_diag))
    rows = (
        (mus[i], mus[j], *map(_fmt_float, values[:, i, j])) for i in range(3) for j in range(3)
    )
    return _render(GAINS_FORMAT, [("mus", " ".join(mus)), ("columns", _GAINS_COLUMNS_LINE)], rows)


def parse_gains(text: str, *, source: str = "<string>") -> GainErrorMatrices:
    """Parse gain-table text into GainErrorMatrices."""
    header, rows = _read_data_file(text, GAINS_FORMAT, ("mus",), _GAINS_COLUMNS_LINE, source)
    value, where = header["mus"]
    mus = tuple(_parse_float(t, where) for t in value.split())
    try:
        check_intensities(mus)
    except ParameterError as exc:
        raise FormatError(f"{where}: {exc}") from exc

    # q_rect, q_diag, e_rect, e_diag: the value columns in file order.
    values = np.zeros((4, 3, 3))
    filled = np.zeros((3, 3), dtype=bool)
    for where, fields in rows:
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
        values[:, i, j] = [_parse_float(f, where) for f in fields[2:]]
    if not filled.all():
        missing = [(i, j) for i in range(3) for j in range(3) if not filled[i, j]]
        raise FormatError(f"{source}: missing intensity pairs {missing}")

    try:
        return GainErrorMatrices(mus, *values)
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


# Analysis reports.


@dataclasses.dataclass(frozen=True)
class ResultReport:
    """Analysis result plus the provenance needed to reproduce it."""

    result: DecoyResult
    input_sha256: str | None = None
    seed: int | None = None


def format_report(report: ResultReport) -> str:
    """Canonical text serialization of an analysis report."""
    result = report.result
    header = [
        ("tool_version", TOOL_VERSION),
        ("input_sha256", report.input_sha256 or "-"),
    ]
    if report.seed is not None:
        header.append(("seed", int(report.seed)))
    header += [
        ("truncation", int(result.truncation)),
        ("f_ec", _fmt_float(result.f_ec)),
        ("mus", " ".join(_fmt_float(mu) for mu in result.mus)),
    ]
    header += [
        (name, _fmt_float(getattr(result, name)))
        for name in (
            "y11_lower",
            "e11_upper",
            "q11",
            "q_rect_measured",
            "e_rect_global",
            "rate",
        )
    ]
    header.append(("warnings", len(result.warnings)))
    header += [
        (f"warning_{k}", " ".join(str(message).split()))
        for k, message in enumerate(result.warnings, start=1)
    ]
    return _render(REPORT_FORMAT, header, ())


# Interference-scan tables.


def format_hom_table(result: HomScanResult) -> str:
    """Canonical text serialization of an interference-scan result."""
    header = [
        ("pulse_width_ns", _fmt_float(result.pulse_width_ns)),
        ("dip_width_ns", _fmt_float(result.dip_width_ns())),
        ("columns", _HOM_COLUMNS_LINE),
    ]
    columns = (
        result.delays_ns,
        result.rate_indistinguishable,
        result.rate_distinguishable,
        result.visibility,
        result.visibility_stderr,
    )
    return _render(HOM_FORMAT, header, (map(_fmt_float, row) for row in zip(*columns)))


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


def _read_config(text: str, source: str, defaults: dict[str, object]) -> dict[str, object]:
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
            raise FormatError(f"{where}: unknown config key {key!r}")
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


def parse_session_config(text: str, *, source: str = "<string>") -> SessionConfig:
    """Build a SessionConfig from config text.

    Keys not in the text keep their SessionConfig defaults.
    """
    default = SessionConfig()
    values = _read_config(text, source, _config_defaults(default))
    try:
        return _with_values(default, values)
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_session_config(path: str) -> SessionConfig:
    """Read a session config file."""
    return parse_session_config(read_text(path)[0], source=path)


def parse_hom_config(text: str, *, source: str = "<string>") -> HomScanConfig:
    """Build a HomScanConfig from config text.

    Keys not in the text keep their HomScanConfig defaults.  The delay grid
    comes either from an explicit delays_ns list or from a delays.start_ns /
    delays.stop_ns / delays.points triple, not both; a partial triple takes
    the rest from DEFAULT_DELAY_GRID.
    """
    default = HomScanConfig()
    grid_defaults = dict(
        zip(("delays.start_ns", "delays.stop_ns", "delays.points"), DEFAULT_DELAY_GRID)
    )
    values = _read_config(text, source, {**_config_defaults(default), **grid_defaults})
    if any(key in values for key in grid_defaults):
        if "delays_ns" in values:
            raise FormatError(f"{source}: give delays_ns or a delays.* grid, not both")
        start, stop, points = (values.pop(key, value) for key, value in grid_defaults.items())
        if not 2 <= points <= MAX_DELAY_POINTS:
            raise FormatError(
                f"{source}: delays.points must lie in [2, {MAX_DELAY_POINTS}], got {points}"
            )
        values["delays_ns"] = tuple(np.linspace(start, stop, points).tolist())
    try:
        return _with_values(default, values)
    except ParameterError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def load_hom_config(path: str) -> HomScanConfig:
    """Read an interference-scan config file."""
    return parse_hom_config(read_text(path)[0], source=path)
