import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dtmpade import __version__
from dtmpade.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DEGENERATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    execute,
    parse_grid,
    run,
)


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_grid_inclusive_end():
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    grid = parse_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == 1.0


@pytest.mark.parametrize("spec", ["nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:inf:0.1"])
def test_parse_grid_rejects_non_finite(spec):
    # checked before the loop, so an infinite end cannot grow the grid without bound
    with pytest.raises(UsageError, match="finite"):
        parse_grid(spec)


def test_series_command_prints_published_coefficients(capsys):
    code, payload = run_json(capsys, [
        "series", "--problem", "free-convection", "--order", "6",
        "--mode", "paper", "--a", "1", "--b", "1",
    ])
    assert code == EXIT_OK
    f = payload["result"]["f_coeffs"]
    assert f == pytest.approx([0, 0, 0.5, -1 / 6, -1 / 24, 1 / 48, -7 / 720], abs=1e-15)


def test_series_check_paper(capsys):
    assert run(["series", "--check-paper"]) == EXIT_OK
    assert "ok" in capsys.readouterr().out


def test_series_rejects_tiny_order(capsys):
    assert run(["series", "--order", "2"]) == EXIT_USAGE


def test_solve_paper_mode(capsys):
    code, payload = run_json(capsys, [
        "solve", "--problem", "free-convection", "--pr", "1",
        "--pade", "3", "--mode", "paper",
    ])
    assert code == EXIT_OK
    res = payload["result"]
    assert res["a"] == pytest.approx(0.5506447081, abs=1e-6)
    assert res["b"] == pytest.approx(-0.8654409691, abs=1e-6)


def test_solve_rejects_zero_degree(capsys):
    assert run(["solve", "--pade", "0"]) == EXIT_USAGE


def test_solve_nonconvergence_exit_code(capsys):
    code = run(["solve", "--pade", "3", "--mode", "paper", "--max-iter", "1",
                "--guess", "5,-9"])
    assert code == EXIT_NO_CONVERGENCE
    assert "error" in capsys.readouterr().err


def test_nonconvergence_report_prints_plain_floats(capsys):
    run(["solve", "--pade", "3", "--mode", "paper", "--max-iter", "1", "--guess", "5,-9"])
    err = capsys.readouterr().err
    assert "last iterate: (" in err and "np.float64" not in err


@pytest.mark.parametrize("argv", [
    # a guess with the wrong number of values, or a value that is not finite
    ["solve", "--guess", "0.5"],
    ["shoot", "--guess", "0.5"],
    ["compare", "--guess", "0.5"],
    ["solve", "--problem", "blasius", "--guess", "0.3,0.1"],
    ["shoot", "--guess", "nan,1"],
    # non-finite solver settings and Prandtl numbers
    ["solve", "--tol", "nan"],
    ["solve", "--tol", "inf"],
    ["shoot", "--tol", "nan"],
    ["shoot", "--eta-max", "inf"],
    ["shoot", "--eta-max", "nan"],
    ["shoot", "--step", "nan"],
    ["shoot", "--step", "inf"],
    ["profile", "--a", "0.6", "--step", "inf"],
    ["shoot", "--pr", "nan"],
    ["shoot", "--pr", "0"],
    ["profile", "--a", "0.6", "--pr", "inf"],
    # the Blasius closure fixes its own series order
    ["solve", "--problem", "blasius", "--pade", "4", "--order", "40"],
    # a negative precision, refused before any output is written
    ["series", "--digits", "-1"],
])
def test_bad_inputs_are_usage_errors(capsys, argv):
    assert run(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_file_errors_are_usage_errors(tmp_path, capsys):
    assert run(["series", "--out", str(tmp_path / "missing" / "x.json")]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"mode=paper\n\xff\xfe=1\n")  # not UTF-8
    assert run(["solve", "--config", str(cfg)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_solve_order_only_chooses_the_window(capsys):
    # every order >= 2n+1 fits the same 2n+1 coefficients, so the root is the default one
    _, default = run_json(capsys, ["solve", "--pade", "3"])
    for order in ("7", "9"):
        code, payload = run_json(capsys, ["solve", "--pade", "3", "--order", order])
        assert code == EXIT_OK
        assert payload["result"] == default["result"]
    # order 2n zero-pads f', whose [3/3] fit diverges at infinity
    assert run(["solve", "--pade", "3", "--order", "6"]) == EXIT_DEGENERATE


def test_solve_degenerate_exit_code(capsys):
    # A = B = 0 freezes theta at 1; its diagonal fit is rank-deficient
    code = run(["solve", "--pade", "3", "--guess", "0,0", "--max-iter", "1"])
    assert code in (EXIT_DEGENERATE, EXIT_NO_CONVERGENCE)


def test_shoot_reference_values(capsys):
    code, payload = run_json(capsys, ["shoot", "--pr", "1"])
    assert code == EXIT_OK
    res = payload["result"]
    assert res["a"] == pytest.approx(0.6421, abs=5e-4)
    assert res["b"] == pytest.approx(-0.5671, abs=5e-4)


def test_shoot_rejects_small_domain(capsys):
    assert run(["shoot", "--eta-max", "3"]) == EXIT_USAGE


def test_profile_csv_contract(capsys):
    code = run([
        "profile", "--source", "integrator", "--a", "0.6421", "--b", "-0.5671",
        "--grid", "0:1:0.1", "--format", "csv",
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "\r" not in out
    lines = [ln for ln in out.split("\n") if ln and not ln.startswith("#")]
    reader = list(csv.reader(lines))
    assert reader[0] == ["eta", "f", "fprime", "theta"]
    assert len(reader) == 12  # header + 11 rows
    assert reader[1] == ["0", "0", "0", "1"]
    # manifest header is embedded
    assert "# subcommand=profile" in out


def test_profile_both_sources(capsys):
    code, payload = run_json(capsys, [
        "profile", "--source", "both", "--a", "0.5506447081", "--b", "-0.8654409691",
        "--mode", "paper", "--order", "6", "--grid", "0:1:0.5",
    ])
    assert code == EXIT_OK
    assert payload["result"]["columns"][1] == "f_series"
    assert len(payload["result"]["rows"][0]) == 7


def test_profile_grid_outside_domain(capsys):
    assert run(["profile", "--a", "0.6", "--grid", "0:9:1"]) == EXIT_USAGE


def test_profile_blow_up_exit_code(capsys):
    code = run(["profile", "--a", "0", "--b", "0", "--grid", "0:4.29:4.29"])
    assert code == EXIT_NO_CONVERGENCE
    assert "blew up" in capsys.readouterr().err


def test_compare_table_shape(capsys):
    code, payload = run_json(capsys, [
        "compare", "--pr", "1", "--pade", "3", "--mode", "paper",
    ])
    assert code == EXIT_OK
    row = payload["result"]["rows"][0]
    assert row["a"] == pytest.approx(0.5506447081, abs=1e-6)
    assert row["a_oracle"] == pytest.approx(0.6421, abs=5e-4)
    assert row["b"] == pytest.approx(-0.8654409691, abs=1e-6)
    assert row["b_oracle"] == pytest.approx(-0.5671, abs=5e-4)
    assert row["delta_a"] == pytest.approx(abs(row["a"] - row["a_oracle"]), abs=1e-12)


def test_compare_keeps_going_past_a_failed_rung(capsys):
    # paper-mode [2/2] is rank-deficient; the [3/3] rung alone gives the published root
    code, payload = run_json(capsys, ["compare", "--pade", "2,3", "--mode", "paper"])
    assert code == EXIT_OK
    failed, solved = payload["result"]["rows"]
    assert failed["pade_degree"] == 2 and "rank-deficient" in failed["status"]
    assert [failed[k] for k in ("a", "delta_a", "b", "delta_b")] == [None] * 4
    assert failed["a_oracle"] == solved["a_oracle"] == payload["result"]["oracle"]["a"]
    assert solved["status"] == "ok"
    assert solved["a"] == pytest.approx(0.5506447081, abs=1e-6)
    assert solved["b"] == pytest.approx(-0.8654409691, abs=1e-6)
    # with no rung converged, compare fails with the first rung's code and message
    assert run(["compare", "--pade", "2", "--mode", "paper"]) == EXIT_DEGENERATE
    assert "rank-deficient" in capsys.readouterr().err


def test_closed_stdout_pipe_exits_quietly():
    # ~1 MB of JSON, far more than a pipe buffer holds, so the CLI is still
    # writing when the reader closes its end after 10 bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dtmpade.cli", "profile", "--a", "0.6421", "--b", "-0.5671",
         "--grid", "0:8:0.001", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert head == b'{\n  "manif'
    assert err == b""


def test_manifest_round_trip(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = run(["solve", "--pade", "3", "--mode", "paper",
                "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    rerun = execute(payload["manifest"])
    for key in ("a", "b", "residual_norm"):
        assert abs(rerun[key] - payload["result"][key]) <= 1e-12


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=paper\npade=3\n")
    code, payload = run_json(capsys, ["solve", "--config", str(cfg)])
    assert code == EXIT_OK
    assert payload["manifest"]["mode"] == "paper"
    assert payload["result"]["a"] == pytest.approx(0.5506447081, abs=1e-6)


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=paper\nbogus=1\n")
    assert run(["solve", "--config", str(cfg)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=paper\n")
    code, payload = run_json(capsys, [
        "solve", "--config", str(cfg), "--mode", "corrected", "--pade", "5",
    ])
    assert code == EXIT_OK
    assert payload["manifest"]["mode"] == "corrected"


def test_blasius_solve_and_shoot(capsys):
    code, solved = run_json(capsys, ["solve", "--problem", "blasius", "--pade", "4"])
    assert code == EXIT_OK
    code, shot = run_json(capsys, ["shoot", "--problem", "blasius", "--eta-max", "12"])
    assert code == EXIT_OK
    assert abs(solved["result"]["a"] - shot["result"]["a"]) < 0.05


def test_profile_has_no_newton_flags(capsys):
    # profile runs no Newton, so it takes no Newton tolerance or iteration limit
    for flag, value in (("--tol", "1e-8"), ("--max-iter", "5")):
        assert run(["profile", "--a", "0.6", flag, value]) == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--pade", "x"],
    ["profile", "--a", "0.6", "--tol", "1e-8"],
    ["shoot", "--step"],
    ["bogus"],
    [],
])
def test_usage_errors_return_exit_code(capsys, argv):
    # argparse's own errors come back as a return code, not SystemExit
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage: dtmpade" in err and "error:" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["shoot", "--help"])
    assert exc.value.code == 0
    assert "--eta-max" in capsys.readouterr().out


def test_profile_manifest_with_legacy_newton_keys(capsys):
    code, payload = run_json(capsys, [
        "profile", "--source", "both", "--a", "0.6421", "--b", "-0.5671", "--grid", "0:1:0.25",
    ])
    assert code == EXIT_OK
    manifest = payload["manifest"]
    assert "tol" not in manifest and "max_iter" not in manifest
    legacy = dict(manifest, tol=1e-8, max_iter=50)
    assert execute(legacy)["rows"] == execute(manifest)["rows"] == payload["result"]["rows"]


def test_execute_unknown_subcommand():
    with pytest.raises(UsageError, match="bogus"):
        execute({"subcommand": "bogus", "version": "0", "format": "json", "digits": 10})


@pytest.mark.parametrize("argv, columns, nrows", [
    (["series"], ["k", "f_coeff", "theta_coeff"], 7),
    (["series", "--problem", "blasius", "--order", "8"], ["k", "f_coeff"], 9),
    (["solve"], ["a", "b", "residual_norm", "iterations"], 1),
    (["shoot"], ["a", "b", "residual_norm", "iterations"], 1),
    (["compare", "--pade", "3,5"],
     ["pade_degree", "status", "a", "a_oracle", "delta_a", "b", "b_oracle", "delta_b"], 2),
    # Blasius rows have no b columns
    (["compare", "--problem", "blasius", "--pade", "3,4"],
     ["pade_degree", "status", "a", "a_oracle", "delta_a"], 2),
])
def test_table_and_csv_shapes(capsys, argv, columns, nrows):
    # table is the default format: title, settings, then a header and one line per row
    assert run(argv) == EXIT_OK
    title, settings, *table = capsys.readouterr().out.splitlines()
    assert title == f"dtmpade {__version__} :: {argv[0]}"
    assert settings.startswith("  [") and "format=" not in settings
    cells = [line.split() for line in table]
    assert cells[0] == columns
    assert len(cells) == 1 + nrows and all(len(row) == len(columns) for row in cells)

    assert run(argv + ["--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# subcommand={argv[0]}" and "# format=csv" in lines
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert rows[0] == columns
    assert len(rows) == 1 + nrows and all(len(row) == len(columns) for row in rows)
