"""Command-line interface: exit codes, output files, determinism."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from test_decoy import (
    REFERENCE_E_DIAG,
    REFERENCE_E_RECT,
    REFERENCE_MUS,
    REFERENCE_Q_DIAG,
    REFERENCE_Q_RECT,
)

import mdiqkd
from mdiqkd.cli import main
from mdiqkd.decoy import GainErrorMatrices
from mdiqkd.io_formats import (
    file_digest,
    load_session_config,
    parse_counts,
    save_counts,
    save_gains,
)
from mdiqkd.session import CountTables, run_session

SESSION_CONFIG = "\n".join(
    [
        "pulses = 400000",
        "seed = 31",
        "batch_gates = 100000",
        "channel_a.loss_db = 2.0",
        "channel_a.misalignment = 0.019",
        "channel_b.loss_db = 2.0",
        "detector.efficiency = 0.5",
        "detector.dark_prob = 1e-4",
        "",
    ]
)


def write_session_config(tmp_path) -> str:
    path = tmp_path / "session.cfg"
    path.write_text(SESSION_CONFIG, encoding="utf-8")
    return str(path)


def synthetic_feasible_tables() -> CountTables:
    # Closed-form gain family tabulated at enormous per-cell pulse counts:
    # rounding granularity sits far below the Poisson-tail slack, so the
    # bounding programs accept the file.
    n_cell = 10**14
    y0, e_rect, e_diag = 1e-3, 0.03, 0.04
    pulses = np.zeros((3, 3, 4, 4), dtype=np.int64)
    counts = np.zeros((3, 3, 4, 4, 7), dtype=np.int64)
    cells = ((0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3))
    for i, mu_i in enumerate(REFERENCE_MUS):
        for j, mu_j in enumerate(REFERENCE_MUS):
            gain = 1.0 - math.exp(-y0 * (mu_i + mu_j))
            for sa, sb in cells:
                pulses[i, j, sa, sb] = n_cell
            c_pair = round(4 * n_cell * gain)
            wrong = round(e_rect * c_pair)
            right = c_pair - wrong
            counts[i, j, 0, 0, 0] = wrong // 2 + (wrong & 1)
            counts[i, j, 1, 1, 0] = wrong // 2
            counts[i, j, 0, 1, 0] = right // 2 + (right & 1)
            counts[i, j, 1, 0, 0] = right // 2
            wrong_d = round(e_diag * c_pair)
            counts[i, j, 2, 2, 2] = wrong_d
            counts[i, j, 2, 2, 0] = c_pair - wrong_d
    return CountTables(
        class_labels=("signal", "decoy", "vacuum"),
        class_mus=REFERENCE_MUS,
        pulses_total=int(pulses.sum()),
        seed=0,
        mode="sweep",
        pulses_sent=pulses,
        counts=counts,
    )


def reference_gains_path(tmp_path) -> str:
    path = str(tmp_path / "reference_gains.txt")
    save_gains(
        GainErrorMatrices(
            mus=REFERENCE_MUS,
            q_rect=REFERENCE_Q_RECT.copy(),
            q_diag=REFERENCE_Q_DIAG.copy(),
            e_rect=REFERENCE_E_RECT.copy(),
            e_diag=REFERENCE_E_DIAG.copy(),
        ),
        path,
    )
    return path


def test_help_exits_zero(capsys) -> None:
    assert main(["--help"]) == 0
    assert main(["analyze", "--help"]) == 0
    capsys.readouterr()


def test_module_entry_point_runs_without_warnings(tmp_path) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdiqkd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdiqkd.cli", "table1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("single-photon and weak-coherent analyzer response")


def test_package_entry_point_runs_table1(tmp_path, capsys) -> None:
    src = os.path.dirname(os.path.dirname(os.path.abspath(mdiqkd.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mdiqkd", "table1"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert main(["table1"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_unknown_flag_exits_one(capsys) -> None:
    assert main(["analyze", "missing.txt", "--bogus"]) == 1
    capsys.readouterr()


def test_missing_file_exits_one(capsys) -> None:
    assert main(["analyze", "no_such_file.txt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_bad_config_exits_one(tmp_path, capsys) -> None:
    path = tmp_path / "bad.cfg"
    path.write_text("rect_prob = 1.5\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_table1_matches_analyzer_response(capsys) -> None:
    assert main(["table1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {tuple(line.split()[:3]): line.split()[3:] for line in lines[2:]}
    assert rows[("rect", "H", "H")][:2] == ["0", "0"]
    assert rows[("rect", "H", "V")][:2] == ["0.5", "0.5"]
    assert rows[("diag", "+45", "+45")][:2] == ["1", "0"]
    assert rows[("diag", "-45", "+45")][:2] == ["0", "1"]
    wcp_plus = float(rows[("diag", "+45", "+45")][2])
    wcp_minus = float(rows[("diag", "+45", "+45")][3])
    assert wcp_plus == pytest.approx(0.75, abs=1e-3)
    assert wcp_minus == pytest.approx(0.25, abs=1e-3)
    assert float(rows[("rect", "V", "H")][2]) == pytest.approx(0.5, abs=1e-3)


def test_simulate_deterministic_and_faithful(tmp_path, capsys) -> None:
    config_path = write_session_config(tmp_path)
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    out_c = tmp_path / "c.txt"
    assert main(["simulate", config_path, "--output", str(out_a)]) == 0
    assert main(["simulate", config_path, "--output", str(out_b)]) == 0
    assert main(["simulate", config_path, "--output", str(out_c), "--workers", "2"]) == 0
    bytes_a = out_a.read_bytes()
    assert bytes_a == out_b.read_bytes()
    assert bytes_a == out_c.read_bytes()
    expected = run_session(load_session_config(config_path))
    assert parse_counts(out_a.read_text(encoding="utf-8")) == expected
    capsys.readouterr()


def test_simulate_override_flags(tmp_path, capsys) -> None:
    config_path = write_session_config(tmp_path)
    out = tmp_path / "o.txt"
    assert main(
        ["simulate", config_path, "--output", str(out), "--pulses", "50000", "--seed", "7"]
    ) == 0
    tables = parse_counts(out.read_text(encoding="utf-8"))
    assert tables.pulses_total == 50000
    assert tables.seed == 7
    capsys.readouterr()


def test_simulate_to_stdout(tmp_path, capsys) -> None:
    config_path = write_session_config(tmp_path)
    assert main(["simulate", config_path, "--pulses", "20000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("format: mdiqkd-counts 1.0")
    assert parse_counts(out).pulses_total == 20000


def test_analyze_success_path(tmp_path, capsys) -> None:
    counts_path = str(tmp_path / "counts.txt")
    save_counts(synthetic_feasible_tables(), counts_path)
    report_a = tmp_path / "report_a.txt"
    report_b = tmp_path / "report_b.txt"
    assert main(["analyze", counts_path, "--output", str(report_a)]) == 0
    assert main(["analyze", counts_path, "--output", str(report_b)]) == 0
    text = report_a.read_text(encoding="utf-8")
    assert report_a.read_bytes() == report_b.read_bytes()
    fields = dict(
        line.split(": ", 1) for line in text.splitlines() if ": " in line
    )
    assert fields["format"] == "mdiqkd-report 1.0"
    assert fields["input_sha256"] == file_digest(counts_path)
    assert fields["seed"] == "0"
    assert float(fields["y11_lower"]) == pytest.approx(1.9e-3, rel=0.1)
    assert float(fields["e11_upper"]) >= 0.04
    assert int(fields["warnings"]) >= 2
    capsys.readouterr()


def test_analyze_infeasible_counts_exits_two(tmp_path, capsys) -> None:
    config_path = write_session_config(tmp_path)
    counts_path = tmp_path / "counts.txt"
    assert main(
        ["simulate", config_path, "--pulses", "200000", "--output", str(counts_path)]
    ) == 0
    report = tmp_path / "report.txt"
    assert main(["analyze", str(counts_path), "--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert "no yield surface" in err
    assert not report.exists()


def test_rate_reference_fixture_exits_two(tmp_path, capsys) -> None:
    gains_path = reference_gains_path(tmp_path)
    report = tmp_path / "report.txt"
    assert main(["rate", gains_path, "--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert "Q[1,1]" in err
    assert not report.exists()


def test_rate_degenerate_gains_exits_two(tmp_path, capsys) -> None:
    # All-zero gains are consistent, but the single-photon yield bound is 0,
    # so the error bound has nothing to divide by.
    zeros = np.zeros((3, 3))
    path = str(tmp_path / "gains.txt")
    save_gains(GainErrorMatrices(REFERENCE_MUS, zeros, zeros, zeros, zeros), path)
    report = tmp_path / "report.txt"
    assert main(["rate", path, "--output", str(report)]) == 2
    assert "too small" in capsys.readouterr().err
    assert not report.exists()


def test_rate_feasible_gains_exits_zero(tmp_path, capsys) -> None:
    gains = np.empty((3, 3))
    for i, mu_i in enumerate(REFERENCE_MUS):
        for j, mu_j in enumerate(REFERENCE_MUS):
            gains[i, j] = 1.0 - math.exp(-1e-3 * (mu_i + mu_j))
    path = str(tmp_path / "gains.txt")
    save_gains(
        GainErrorMatrices(
            mus=REFERENCE_MUS,
            q_rect=gains,
            q_diag=gains.copy(),
            e_rect=np.full((3, 3), 0.03),
            e_diag=np.full((3, 3), 0.04),
        ),
        path,
    )
    report_a = tmp_path / "ra.txt"
    report_b = tmp_path / "rb.txt"
    assert main(["rate", path, "--output", str(report_a)]) == 0
    assert main(["rate", path, "--output", str(report_b)]) == 0
    text = report_a.read_text(encoding="utf-8")
    assert report_a.read_bytes() == report_b.read_bytes()
    assert "seed:" not in text
    assert f"input_sha256: {file_digest(path)}" in text
    fields = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
    float(fields["rate"])
    capsys.readouterr()


def test_hom_scan_cli_deterministic(tmp_path, capsys) -> None:
    config = tmp_path / "hom.cfg"
    config.write_text(
        "delays_ns = -2.0 0.0 2.0\nseed = 3\ndetector.efficiency = 0.25\n",
        encoding="utf-8",
    )
    out_a = tmp_path / "ha.txt"
    out_b = tmp_path / "hb.txt"
    args = ["hom-scan", str(config), "--pulses", "50000"]
    assert main(args + ["--output", str(out_a)]) == 0
    assert main(args + ["--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    text = out_a.read_text(encoding="utf-8")
    assert text.startswith("format: mdiqkd-homscan 1.0")
    rows = [line for line in text.splitlines() if not line.startswith("#") and ": " not in line]
    assert len(rows) == 3
    capsys.readouterr()


def test_strict_header_flag(tmp_path, capsys) -> None:
    counts_path = tmp_path / "counts.txt"
    save_counts(synthetic_feasible_tables(), str(counts_path))
    text = counts_path.read_text(encoding="utf-8")
    counts_path.write_text(
        text.replace("columns:", "operator: alice\ncolumns:", 1), encoding="utf-8"
    )
    with pytest.warns(UserWarning, match="operator"):
        assert main(["analyze", str(counts_path)]) == 0
    assert main(["analyze", str(counts_path), "--strict"]) == 1
    assert "operator" in capsys.readouterr().err


def test_bad_truncation_flag(tmp_path, capsys) -> None:
    counts_path = str(tmp_path / "counts.txt")
    save_counts(synthetic_feasible_tables(), counts_path)
    assert main(["analyze", counts_path, "--truncation", "0"]) == 1
    assert main(["analyze", counts_path, "--truncation", "-3"]) == 1
    assert main(["analyze", counts_path, "--truncation", "51"]) == 1
    assert main(["rate", reference_gains_path(tmp_path), "--truncation", "51"]) == 1
    assert "truncation must lie in [2, 50]" in capsys.readouterr().err


def test_large_intensity_table_and_scan_exit_zero(tmp_path, capsys) -> None:
    assert main(["table1", "--mu", "1e9"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "wcp mu = 1000000000.0" in captured.out
    config = tmp_path / "hom.cfg"
    config.write_text("mu = 1e9\ndetector.efficiency = 1.0\n", encoding="utf-8")
    assert main(["hom-scan", str(config)]) == 0
    assert capsys.readouterr().err == ""
