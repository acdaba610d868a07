"""Text formats: round trips, version gates, unknown keys, config parsing."""

import codecs
import dataclasses
import hashlib
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from test_cli import synthetic_feasible_tables

from mdiqkd.bsa import DetectorModel
from mdiqkd.cli import main
from mdiqkd.decoy import GainErrorMatrices, analyze_matrices
from mdiqkd.io_formats import (
    FormatError,
    ResultReport,
    TOOL_VERSION,
    format_counts,
    format_gains,
    format_hom_table,
    format_report,
    load_counts,
    load_session_config,
    parse_counts,
    parse_gains,
    parse_hom_config,
    parse_session_config,
    read_text,
)
from mdiqkd.io_formats import _walk, _write_atomic
from mdiqkd.optics import ChannelModel, ParameterError, check_intensities, standard_classes
from mdiqkd.session import (
    MAX_DELAY_POINTS,
    CountTables,
    HomScanConfig,
    SessionConfig,
    hom_scan,
    run_session,
)


def small_tables():
    config = SessionConfig(
        pulses=50_000,
        seed=23,
        classes=standard_classes(),
        class_probs=(0.5, 0.25, 0.25),
        channel_a=ChannelModel(loss_db=2.0, misalignment=0.019),
        channel_b=ChannelModel(loss_db=2.0),
        detector=DetectorModel(efficiency=0.5, dark_prob=1e-4),
        batch_gates=20_000,
    )
    return run_session(config)


def geometric_matrices() -> GainErrorMatrices:
    gains = np.empty((3, 3))
    mus = (0.5, 0.1, 0.0)
    for i, mu_i in enumerate(mus):
        for j, mu_j in enumerate(mus):
            gains[i, j] = 1.0 - math.exp(-1e-3 * (mu_i + mu_j))
    return GainErrorMatrices(
        mus=mus,
        q_rect=gains,
        q_diag=gains.copy(),
        e_rect=np.full((3, 3), 0.03),
        e_diag=np.full((3, 3), 0.04),
    )


def test_counts_round_trip_values() -> None:
    tables = small_tables()
    assert parse_counts(format_counts(tables)) == tables
    # The same tables with the mismatched-basis cells dropped.
    codes = np.arange(4)
    agree = (codes[:, None] >> 1) == (codes >> 1)
    sifted = dataclasses.replace(tables, pulses_sent=np.where(agree, tables.pulses_sent, 0))
    assert parse_counts(format_counts(sifted)) == sifted


def test_counts_tables_that_construct_round_trip() -> None:
    # Every table that constructs is written and read back unchanged, and a
    # table the format could not carry is refused when it is built.
    tables = small_tables()
    fields = dataclasses.asdict(tables)
    negative = tables.pulses_sent.copy()
    negative[1, 2, 3, 0] = -1
    negative_counts = tables.counts.copy()
    negative_counts[0, 0, 2, 2, 6] = -5
    over_full = tables.counts.copy()
    over_full[0, 0, 0, 1, 6] += tables.pulses_sent[0, 0, 0, 1] - tables.counts[0, 0, 0, 1].sum() + 1
    # One cell at the int64 top: pulses and "other" both 2**63 - 1 fill it
    # exactly, and one more full column would wrap an int64 sum of the counts.
    top = 2**63 - 1
    top_pulses = tables.pulses_sent.copy()
    top_pulses[2, 2, 0, 0] = top
    top_counts = tables.counts.copy()
    top_counts[2, 2, 0, 0] = [0, 0, 0, 0, 0, 0, top]
    wrapped_counts = top_counts.copy()
    wrapped_counts[2, 2, 0, 0, 4] = top
    good = {
        "class_labels": [("a", "b", "c"), ("\u00e9t\u00e9", "x#y", "r")],
        "class_mus": [(1e300, 1e-300, 5e-324), (-0.0, 0.0, 0.0)],
        "pulses_total": [0, 10**20],
        "mode": ["sweep", "my-mode:2", "#"],
    }
    bad = {
        "class_labels": [
            ("a b", "c", "d"), ("a", "a", "b"), ("a=1", "b", "c"), ("a:b", "c", "d"),
            ("#a", "b", "c"), ("", "b", "c"), ("a\tb", "c", "d"), ("a\u2028b", "c", "d"),
            ("a", "b"), ("a", "b", "c", "d"),
        ],
        "class_mus": [(math.nan, 0.1, 0.0), (0.5, math.inf, 0.0), (0.5, 0.1, -0.1), (0.5, 0.1)],
        "pulses_total": [-1],
        "mode": ["", " random", "a b", "random\n", "x\x85"],
        "pulses_sent": [negative, tables.pulses_sent[..., :3]],
        "counts": [negative_counts, over_full],
    }
    good_cases = [{key: value} for key, values in good.items() for value in values]
    good_cases.append({"pulses_sent": top_pulses, "counts": top_counts})
    bad_cases = [{key: value} for key, values in bad.items() for value in values]
    bad_cases.append({"pulses_sent": top_pulses, "counts": wrapped_counts})
    for overrides in good_cases:
        built = CountTables(**{**fields, **overrides})
        assert parse_counts(format_counts(built)) == built, overrides
    for overrides in bad_cases:
        with pytest.raises(ParameterError):
            CountTables(**{**fields, **overrides})


def test_counts_round_trip_bytes() -> None:
    tables = small_tables()
    text = format_counts(tables)
    assert format_counts(parse_counts(text)) == text
    assert text == format_counts(tables)


def test_counts_file_round_trip(tmp_path) -> None:
    tables = small_tables()
    path = str(tmp_path / "counts.txt")
    _write_atomic(format_counts(tables), path)
    assert load_counts(path) == tables
    assert len(read_text(path)[1]) == 64


def test_counts_zero_cells_skipped() -> None:
    tables = small_tables()
    text = format_counts(tables)
    # Mismatched-basis cells collect pulses but no counts, so they are
    # written; fully empty cells are not.
    assert "vacuum vacuum" in text
    for line in text.splitlines():
        if line.startswith("#") or ":" in line or not line.strip():
            continue
        fields = line.split()
        assert len(fields) == 12
        assert any(int(v) != 0 for v in fields[4:])


def test_counts_duplicate_cell_rejected() -> None:
    tables = small_tables()
    lines = format_counts(tables).splitlines()
    lines.append(lines[-1])
    with pytest.raises(FormatError, match="duplicate"):
        parse_counts("\n".join(lines))


@pytest.mark.filterwarnings("error")
def test_counts_version_gate() -> None:
    tables = small_tables()
    text = format_counts(tables)
    assert text.splitlines()[:6] == [
        "format: mdiqkd-counts 2.0",
        "classes: signal=0.5 decoy=0.1 vacuum=0.0",
        "pulses_total: 50000",
        "seed: 23",
        "mode: random",
        "columns: class_a class_b sop_a sop_b pulses_sent c12 c34 c14 c23 c13 c24 other",
    ]
    bumped_minor = text.replace("mdiqkd-counts 2.0", "mdiqkd-counts 2.7", 1)
    assert parse_counts(bumped_minor) == tables
    # A 1.x file carries two keys that 2.0 retired; they are skipped unread,
    # whatever their values, and without a warning.
    for sifted, rate in (("false", "1000000.0"), ("true", "2e6"), ("maybe", "fast")):
        retired = text.replace(
            "mdiqkd-counts 2.0", "mdiqkd-counts 1.0", 1
        ).replace("columns:", f"sifted: {sifted}\nrepetition_rate_hz: {rate}\ncolumns:", 1)
        assert parse_counts(retired) == tables
    bumped_major = text.replace("mdiqkd-counts 2.0", "mdiqkd-counts 3.0", 1)
    with pytest.raises(FormatError, match=r"3\.0 \(this reader handles 1\.x and 2\.x\)$"):
        parse_counts(bumped_major)
    with pytest.raises(FormatError):
        parse_counts(text.replace("mdiqkd-counts 2.0", "mdiqkd-gains 1.0", 1))
    with pytest.raises(FormatError, match="format"):
        parse_counts("pulses_total: 5\n" + text)


def test_counts_unknown_header_key() -> None:
    tables = small_tables()
    text = format_counts(tables).replace(
        "columns:", "operator: alice\ncolumns:", 1
    )
    with pytest.warns(UserWarning, match="operator"):
        assert parse_counts(text) == tables
    twice = text.replace("columns:", "operator: bob\ncolumns:", 1)
    with pytest.warns(UserWarning, match="operator"):
        with pytest.raises(FormatError, match="duplicate header key 'operator'"):
            parse_counts(twice)


def test_counts_malformed_rows() -> None:
    tables = small_tables()
    base = format_counts(tables)
    last = base.splitlines()[-1]
    for mutated_last, pattern in (
        (last + " 7", "12 fields"),
        (last.replace("vacuum", "phantom", 1), "phantom"),
        (last.replace(" - ", " X ", 1), "X"),
        (last.rsplit(" ", 1)[0] + " -3", "non-negative"),
        (last.rsplit(" ", 1)[0] + f" {2**63}", "below 2"),
    ):
        lines = base.splitlines()
        lines[-1] = mutated_last
        with pytest.raises(FormatError, match=pattern):
            parse_counts("\n".join(lines))


def test_counts_row_above_its_pulses_rejected() -> None:
    # A row's seven tallies may sum to less than its pulses_sent, since a file
    # may leave out "other", but never to more; the sum is taken without
    # int64 wrap-around.
    lines = format_counts(small_tables()).splitlines()
    index = next(k for k, line in enumerate(lines) if line.startswith("signal signal H V "))
    fields = lines[index].split()
    closing = int(fields[4]) - sum(int(f) for f in fields[5:-1])
    big = str(2**63 - 1)
    for row, accepted in (
        (fields[:-1] + [str(closing)], True),
        (fields[:-1] + ["0"], True),
        (fields[:-1] + [str(closing + 1)], False),
        (fields[:4] + [big] + fields[5:-1] + [big], False),
    ):
        lines[index] = " ".join(row)
        text = "\n".join(lines)
        if accepted:
            parse_counts(text)
            continue
        message = rf"^<string>:{index + 1}: counts exceed pulses_sent$"
        with pytest.raises(FormatError, match=message):
            parse_counts(text)


def set_last_value(token: str):
    """A text edit that replaces the last field of the last row."""
    return lambda text: text.rstrip().rsplit(" ", 1)[0] + f" {token}\n"


def set_header(key: str, value: str | None):
    """A text edit that sets a header line's value, or drops the line for None."""
    line = "" if value is None else f"{key}: {value}"
    return lambda text: re.sub(rf"^{key}: .*$", line, text, count=1, flags=re.M)


@pytest.mark.parametrize(
    ("kind", "mutate", "message"),
    [
        ("counts", set_header("format", "mdiqkd-counts 1.x"), "malformed version"),
        ("counts", lambda text: "", "first line must be"),
        (
            "counts",
            lambda text: text.replace("\nclasses:", "\nstray words\nclasses:", 1),
            "missing header key 'columns'",
        ),
        ("counts", lambda text: text.split("columns:")[0], "missing header key 'columns'"),
        ("counts", set_header("columns", "a b c"), "unsupported column layout"),
        ("counts", set_header("pulses_total", None), "missing header key 'pulses_total'"),
        (
            "counts",
            set_header("classes", "signal decoy=0.1 vacuum=0.0"),
            "class entries must be label=mu",
        ),
        ("counts", set_header("classes", "signal=0.5 decoy=0.1"), "expected 3 classes"),
        ("counts", set_header("mode", "random sweep"), "^<string>: mode must be a single token"),
        ("gains", set_header("mus", "0.5 0.1"), r"^<string>:2: mus must have 3 entries"),
        ("gains", lambda text: text + "0.5 0.1 0.0\n", "expected 6 fields"),
        ("gains", set_last_value("abc"), r"^<string>:\d+: expected a number, got 'abc'$"),
        ("gains", set_last_value("nan"), r"^<string>:\d+: expected a finite number, got 'nan'$"),
        (
            "counts",
            set_header("classes", "signal=inf decoy=0.1 vacuum=0.0"),
            r"^<string>:\d+: expected a finite number, got 'inf'$",
        ),
        (
            "session",
            lambda text: "channel_a.loss_db = nan\n",
            r"^<string>:1 \(channel_a.loss_db\): expected a finite number, got 'nan'$",
        ),
    ],
    ids=[
        "malformed-version",
        "empty",
        "stray-header-line",
        "header-cut-before-columns",
        "column-layout",
        "no-pulses-total",
        "class-without-mu",
        "two-classes",
        "mode-refused-by-tables",
        "two-mus",
        "short-gains-row",
        "gain-not-a-number",
        "gain-nan",
        "class-mu-infinite",
        "config-loss-nan",
    ],
)
def test_reader_refusals(kind, mutate, message) -> None:
    if kind == "counts":
        text, parse = format_counts(small_tables()), parse_counts
    elif kind == "gains":
        text, parse = format_gains(geometric_matrices()), parse_gains
    else:
        text, parse = "", parse_session_config
    with pytest.raises(FormatError, match=message):
        parse(mutate(text))


@pytest.mark.parametrize(
    "mus",
    [(0.5, 0.1, 0.1), (0.5, 0.5, 0.0), (0.1, 0.5, 0.0), (0.5, 0.1, 0.01), (0.5, 0.0, 0.0)],
)
def test_gains_header_intensity_rule(mus) -> None:
    # The mus line is checked before any row is read: with two equal entries
    # a row would otherwise be refused as a duplicate pair first.
    header = " ".join(map(repr, mus))
    with pytest.raises(ParameterError) as rule:
        check_intensities(mus)
    message = rf"^<string>:2: {re.escape(str(rule.value))}$"
    with pytest.raises(FormatError, match=message):
        parse_gains(set_header("mus", header)(format_gains(geometric_matrices())))


def test_counts_comments_and_blanks_tolerated() -> None:
    tables = small_tables()
    lines = format_counts(tables).splitlines()
    lines.insert(3, "# totals below")
    lines.insert(1, "")
    assert parse_counts("\n".join(lines)) == tables


def test_gains_round_trip(tmp_path) -> None:
    matrices = geometric_matrices()
    text = format_gains(matrices)
    parsed = parse_gains(text)
    assert parsed.mus == matrices.mus
    for name in ("q_rect", "q_diag", "e_rect", "e_diag"):
        assert np.array_equal(getattr(parsed, name), getattr(matrices, name))
    assert format_gains(parsed) == text
    path = str(tmp_path / "gains.txt")
    _write_atomic(format_gains(matrices), path)
    loaded = parse_gains(read_text(path)[0])
    assert np.array_equal(loaded.q_diag, matrices.q_diag)


# An unknown header key would only warn: here every warning is an error.
@pytest.mark.filterwarnings("error")
def test_byte_order_mark_is_not_content(tmp_path) -> None:
    # Some editors start UTF-8 files with a byte-order mark: it must not
    # become part of the first config key or of the format line, and the
    # digest still covers the raw bytes.
    config = tmp_path / "session.cfg"
    config.write_bytes(codecs.BOM_UTF8 + b"pulses = 1000\n")
    assert load_session_config(str(config)).pulses == 1000

    paths = {}
    for name, text in (
        ("counts", format_counts(small_tables())),
        ("gains", format_gains(geometric_matrices())),
    ):
        plain, marked = tmp_path / f"{name}.txt", tmp_path / f"{name}-bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        paths[name] = str(plain), str(marked)
        assert read_text(str(marked)) == (
            text, hashlib.sha256(marked.read_bytes()).hexdigest()
        )
        assert read_text(str(marked))[1] != read_text(str(plain))[1]

    plain, marked = paths["counts"]
    assert load_counts(marked) == load_counts(plain)
    plain, marked = (parse_gains(read_text(path)[0]) for path in paths["gains"])
    assert marked.mus == plain.mus
    for name in ("q_rect", "q_diag", "e_rect", "e_diag"):
        assert np.array_equal(getattr(marked, name), getattr(plain, name))


def test_gains_duplicate_and_missing_pairs() -> None:
    text = format_gains(geometric_matrices())
    lines = text.splitlines()
    with pytest.raises(FormatError, match="duplicate"):
        parse_gains("\n".join(lines + [lines[-1]]))
    with pytest.raises(FormatError, match="missing"):
        parse_gains("\n".join(lines[:-1]))


def test_gains_unknown_mu_and_bad_entries() -> None:
    text = format_gains(geometric_matrices())
    with pytest.raises(FormatError, match="0.3"):
        parse_gains(text + "0.3 0.1 0.0 0.0 0.0 0.0\n")
    bad = text.replace(" 0.03 ", " 1.25 ", 1)
    with pytest.raises(FormatError):
        parse_gains(bad)


def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch, capsys) -> None:
    # The rename is the last step of every subcommand's --output write: when
    # it fails, the command exits 1, the temporary file is removed and an
    # existing target keeps its old bytes.
    inputs = {
        "session.cfg": "pulses = 20000\n",
        "hom.cfg": "delays_ns = -1.0 0.0 1.0\npulses_per_point = 1000\n",
        "counts.txt": format_counts(synthetic_feasible_tables()),
        "gains.txt": format_gains(geometric_matrices()),
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    old = tmp_path / "old.txt"
    old.write_text("previous\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "replace", refuse)
    for argv in (
        ["simulate", "session.cfg"],
        ["analyze", "counts.txt"],
        ["rate", "gains.txt"],
        ["hom-scan", "hom.cfg"],
        ["table1"],
    ):
        for target in ("new.txt", "old.txt"):
            assert main([*argv, "--output", target]) == 1, argv
            assert capsys.readouterr().err == "error: rename refused\n", argv
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted([*inputs, "old.txt"])
    assert old.read_text(encoding="utf-8") == "previous\n"


def test_report_layout_and_precision() -> None:
    result = analyze_matrices(geometric_matrices())
    report = ResultReport(result=result, input_sha256="ab" * 32, seed=9)
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "format: mdiqkd-report 2.0"
    assert lines[1] == f"tool_version: {TOOL_VERSION}"
    assert f"input_sha256: {'ab' * 32}" in lines
    assert "seed: 9" in lines
    fields = dict(line.split(": ", 1) for line in lines if ": " in line)
    # 2.0 dropped the signal gain rebuilt from an optimal vertex.
    assert "q_rect_reconstructed" not in fields
    assert "q_rect_global" not in fields
    assert float(fields["q_rect_measured"]) == result.q_rect_measured
    # repr round trip: every numeric field reparses to the exact float.
    assert float(fields["rate"]) == result.rate
    assert float(fields["y11_lower"]) == result.y11_lower
    assert float(fields["e11_upper"]) == result.e11_upper
    assert int(fields["truncation"]) == result.truncation
    assert fields["mus"] == "0.5 0.1 0.0"
    assert int(fields["warnings"]) == len(result.warnings)
    assert format_report(report) == text


def test_report_optional_fields_and_warning_lines(tmp_path) -> None:
    result = dataclasses.replace(
        analyze_matrices(geometric_matrices()), warnings=("first problem", "second\nproblem")
    )
    text = format_report(ResultReport(result=result))
    assert "input_sha256: -" in text
    assert "seed:" not in text
    assert "warning_1: first problem" in text
    assert "warning_2: second problem" in text
    path = str(tmp_path / "report.txt")
    _write_atomic(format_report(ResultReport(result=result)), path)
    with open(path, "r", encoding="utf-8") as handle:
        assert handle.read() == text


def test_hom_table_layout() -> None:
    scan = hom_scan(
        HomScanConfig(
            mu=0.1,
            pulse_width_ns=1.5,
            delays_ns=(-2.0, 0.0, 2.0),
            pulses_per_point=100_000,
            seed=3,
            detector=DetectorModel(efficiency=0.25),
        )
    )
    text = format_hom_table(scan)
    lines = text.splitlines()
    assert lines[0] == "format: mdiqkd-homscan 1.0"
    rows = [line for line in lines if not line.startswith("#") and ": " not in line]
    assert len(rows) == 3
    assert all(len(row.split()) == 5 for row in rows)
    assert "dip_width_ns:" in text
    assert format_hom_table(scan) == text


def test_session_config_defaults_and_full() -> None:
    assert parse_session_config("") == SessionConfig()
    full = parse_session_config(
        "\n".join(
            [
                "# session settings",
                "pulses = 5000",
                "seed = 42",
                "mode = sweep",
                "rect_prob = 0.6",
                "batch_gates = 2500",
                "classes.signal = 0.6",
                "classes.decoy = 0.2",
                "class_probs = 0.2 0.6 0.2",
                "channel_a.loss_db = 19.5",
                "channel_a.misalignment = 0.019",
                "channel_b.loss_db = 19.5",
                "detector.efficiency = 0.9",
                "detector.dark_prob = 1.5e-5",
            ]
        )
    )
    assert full.pulses == 5000
    assert full.seed == 42
    assert full.mode == "sweep"
    assert full.classes[0].mu == 0.6
    assert full.class_probs == (0.2, 0.6, 0.2)
    assert full.channel_a.loss_db == 19.5
    assert full.channel_b.misalignment == 0.0
    assert full.detector.efficiency == 0.9


def test_session_config_errors() -> None:
    with pytest.raises(FormatError, match="duplicate"):
        parse_session_config("seed = 1\nseed = 2\n")
    with pytest.raises(FormatError, match="class_probs"):
        parse_session_config("class_probs = 0.5 0.5\n")
    with pytest.raises(FormatError):
        parse_session_config("rect_prob = 1.5\n")
    with pytest.raises(FormatError):
        parse_session_config("pulses = soon\n")
    with pytest.raises(FormatError, match="unknown config key 'knob'"):
        parse_session_config("knob = 3\n")
    with pytest.raises(FormatError):
        parse_session_config("pulses 5\n")


def test_hom_config_grid_and_conflict() -> None:
    config = parse_hom_config("")
    assert config == HomScanConfig()
    assert config.mu == 0.1
    assert config.pulse_width_ns == 1.5
    assert len(config.delays_ns) == 49
    assert config.delays_ns[0] == -3.0
    assert config.delays_ns[-1] == 3.0
    explicit = parse_hom_config("delays_ns = -1.0 0.0 1.0\n")
    assert explicit.delays_ns == (-1.0, 0.0, 1.0)
    grid = parse_hom_config("delays.start_ns = -2\ndelays.stop_ns = 2\ndelays.points = 5\n")
    assert grid.delays_ns == (-2.0, -1.0, 0.0, 1.0, 2.0)
    with pytest.raises(FormatError, match="not both"):
        parse_hom_config("delays_ns = 0.0 1.0\ndelays.points = 5\n")
    # The ceiling is checked before the grid is built: 10**15 points would
    # ask numpy for petabytes.
    assert len(parse_hom_config(f"delays.points = {MAX_DELAY_POINTS}\n").delays_ns) == (
        MAX_DELAY_POINTS
    )
    for points in (1, MAX_DELAY_POINTS + 1, 10**15):
        with pytest.raises(FormatError, match=f"delays.points must lie in .*, got {points}$"):
            parse_hom_config(f"delays.points = {points}\n")
    with pytest.raises(FormatError):
        parse_hom_config("mu = -1\n")


def readme_config_tables() -> tuple[dict[str, str], dict[str, str]]:
    """Key -> default cell of the README's session and scan config tables.

    A `section.*` row whose default is "same" stands for the session table's
    rows of that section (channel_b.* for channel_a.*).
    """
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^\| key \| default \| meaning \|\n\|[- |]+\n((?:\|.*\n)+)", text, re.M)
    tables = [
        dict(re.match(r"\| `([^`]+)` \| (.*?) \|", line).groups() for line in block.splitlines())
        for block in blocks
    ]
    assert len(tables) == 2
    session = tables[0]
    expanded = []
    for table in tables:
        rows = {}
        for key, default in table.items():
            if not key.endswith(".*"):
                rows[key] = default
                continue
            assert default == "same", key
            section = key[:-2]
            twin = "channel_a" if section == "channel_b" else section
            rows.update(
                {section + k[len(twin):]: d for k, d in session.items() if k.startswith(twin + ".")}
            )
        expanded.append(rows)
    return expanded[0], expanded[1]


def config_keys(config) -> set[str]:
    """The dotted keys of a config's leaf fields."""
    keys: dict[str, object] = {}
    _walk(config, keys.setdefault)
    return set(keys)


def test_readme_config_tables_match_reader() -> None:
    session_rows, hom_rows = readme_config_tables()
    grid_keys = {"delays.start_ns", "delays.stop_ns", "delays.points"}
    for parse, rows, keys in (
        (parse_session_config, session_rows, config_keys(SessionConfig())),
        (parse_hom_config, hom_rows, config_keys(HomScanConfig()) | grid_keys),
    ):
        assert set(rows) == keys
        default = parse("")
        for key, cell in rows.items():
            if cell.startswith("`"):
                assert parse(f"{key} = {cell.strip('`')}") == default, key
