import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtmpade import __version__, cli
from dtmpade.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_CHECK_FAILED,
    EXIT_DEGENERATE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    execute,
    parse_grid,
    run,
)
from dtmpade.rootfind import ClosureConfig, blasius_closure_residual
from dtmpade.shooting import ShootConfig, boundary_residual


def run_json(capsys, argv):
    code = run(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_parse_grid_inclusive_end():
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    grid = parse_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_parse_grid_builds_each_point_from_its_index():
    # an accumulated sum drifted to 6.484000000001 here
    grid = parse_grid("0:8:0.001")
    assert grid[6484] == 6.484 and grid[-1] == 8.0 and len(grid) == 8001
    # a step below the spacing of floats at 1e17 never advanced the sum
    assert parse_grid("1e17:1e17:1") == [1e17]


def test_parse_grid_rejects_too_many_points():
    with pytest.raises(UsageError, match="more than"):
        parse_grid("0:1:1e-12")
    assert run(["profile", "--a", "0.6", "--grid", "0:1:1e-12"]) == EXIT_USAGE


@pytest.mark.parametrize("spec", ["0:1e-12:1e-13", "1e17:100000000000000016:1"])
def test_parse_grid_rejects_points_that_round_together(spec, capsys):
    # points are rounded to 12 decimals, so a finer step, or one below the
    # float spacing at start, would repeat points the user wrote increasing
    with pytest.raises(UsageError, match="1e-12 point resolution"):
        parse_grid(spec)
    assert run(["profile", "--a", "0.6", "--grid", spec]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "1e-12 point resolution" in err and "strictly increasing" not in err


@given(st.integers(-10**4, 10**4), st.integers(1, 10**3), st.integers(1, 300),
       st.integers(0, 6))
def test_parse_grid_never_includes_a_point_half_a_step_past_end(start, step, points, digits):
    # end = start + (points - 1/2) * step exactly, as decimals with the given digits
    start, step = Decimal(start).scaleb(-digits), Decimal(step).scaleb(-digits)
    end = start + (points - Decimal("0.5")) * step
    assert len(parse_grid(f"{start}:{end}:{step}")) == points


def test_parse_grid_ties_and_the_bench_grid():
    # the float quotient (4.9 - 2.8) / 0.2 + 0.5 once rounded up to 11 and let 5.0 in
    assert parse_grid("2.8:4.9:0.2") == [round(2.8 + 0.2 * i, 12) for i in range(11)]
    assert parse_grid("0:1:0.4") == [0.0, 0.4, 0.8]
    assert len(parse_grid("0:2:0.01")) == 201
    # a value that underflows to 0 counts as 0; underscores are digit separators
    assert parse_grid("0e-99999999:1:0.5") == parse_grid("1e-400:1:0.5") == [0.0, 0.5, 1.0]
    assert parse_grid("1_0:1_1:0.5") == [10.0, 10.5, 11.0]
    with pytest.raises(UsageError, match="step > 0"):
        parse_grid("0:1:1e-400")


def test_profile_prints_no_row_half_a_step_past_end(capsys):
    code, payload = run_json(capsys, ["profile", "--a", "0.6", "--b", "-0.6", "--grid",
                                      "2.8:4.9:0.2", "--source", "integrator"])
    assert code == EXIT_OK
    assert payload["result"]["rows"][-1][0] == 4.8


def test_version_imports_neither_numpy_nor_fractions():
    probe = ("import sys\nfrom dtmpade import cli\ntry:\n    cli.run(['--version'])\n"
             "except SystemExit:\n    pass\nprint(sorted({'numpy', 'fractions'} & set(sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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


def test_series_check_paper_reports_a_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "GOLDEN_F", cli.GOLDEN_F[:3] + [1 / 6] + cli.GOLDEN_F[4:])
    assert run(["series", "--check-paper"]) == EXIT_CHECK_FAILED
    out, err = capsys.readouterr()
    assert out == "paper series check: FAILED\n"
    assert err.startswith("MISMATCH f(3): got -0.16666666666666666, expected 0.1666")


def test_series_rejects_tiny_order(capsys):
    assert run(["series", "--order", "2"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["series", "--order", "1000000"],
    ["profile", "--a", "0.6", "--b", "-0.5", "--source", "series", "--order", "1000000"],
])
def test_order_bound_is_a_usage_error(capsys, argv):
    # refused before any recurrence step: the O(m^2) recurrence would run an hour or more
    start = time.perf_counter()
    assert run(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "order must be at most 10,000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--pade", "65"],
    ["solve", "--pade", "100000"],
    ["solve", "--problem", "blasius", "--pade", "100000"],
    # a later rung, after the first ran
    ["compare", "--pade", "3,65"],
])
def test_pade_degree_bound_is_a_usage_error(capsys, argv):
    # refused before any fit: no fit passes the condition gate at such degrees,
    # and the two SVDs of a degree past the bound would take memory for nothing
    start = time.perf_counter()
    assert run(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "pade_degree must be at most 64, got " in capsys.readouterr().err


def test_pade_degree_at_the_bound_runs_to_the_gate(capsys):
    assert run(["solve", "--pade", "64"]) == EXIT_DEGENERATE
    assert "[64/64] linear system is rank-deficient" in capsys.readouterr().err


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
    # a negative or non-integer precision, refused before any output is written
    ["series", "--digits", "-1"],
    ["series", "--digits", "x"],
    # a Newton iteration limit below one
    ["solve", "--max-iter", "0"],
    # a grid without three parts, or with a part that is not a number
    ["profile", "--a", "0.6", "--grid", "0:1"],
    ["profile", "--a", "0.6", "--grid", "0:x:0.1"],
    # a guess that is not comma-separated reals
    ["solve", "--guess", "x,1"],
    # paper mode is a variant of the free-convection recurrence only
    ["solve", "--problem", "blasius", "--mode", "paper"],
    ["series", "--problem", "blasius", "--mode", "paper"],
    ["compare", "--problem", "blasius", "--mode", "paper"],
    ["profile", "--problem", "blasius", "--mode", "paper", "--a", "0.33", "--source", "series"],
    ["profile", "--problem", "blasius", "--mode", "paper", "--a", "0.33", "--source", "both"],
    # Pade degrees that are not comma-separated integers
    ["compare", "--pade", "2,x"],
    ["compare", "--pade", ""],
    # the Blasius DTM-Pade root is in closed form and takes no guess
    ["solve", "--problem", "blasius", "--guess", "0.3"],
    ["compare", "--problem", "blasius", "--guess", "0.3"],
])
def test_bad_inputs_are_usage_errors(capsys, argv):
    assert run(argv) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_integrator_profile_ignores_mode(capsys):
    # the integrator runs no recurrence, so --mode changes nothing, for either problem
    for problem, wall in (("free-convection", ["--a", "0.64", "--b", "-0.57"]),
                          ("blasius", ["--a", "0.33"])):
        rows = []
        for mode in ("corrected", "paper"):
            code, payload = run_json(capsys, ["profile", "--problem", problem, "--mode", mode,
                                              "--grid", "0:1:0.5", *wall])
            assert code == EXIT_OK
            rows.append(payload["result"]["rows"])
        assert rows[0] == rows[1]


@pytest.mark.parametrize("a, n, stage", [
    # the cube g^3 of the Blasius closure leaves the float range
    (1e100, 1, "cube-variable series g^3"),
    # the powers s**k of the cube-variable rescaling leave it
    (1e-80, 2, "rescaling"),
])
def test_blasius_closure_overflow(a, n, stage):
    # an OverflowError, which the CLI maps to exit 3, naming its stage
    with pytest.raises(OverflowError) as exc:
        blasius_closure_residual(a, ClosureConfig(pade_degree=n))
    assert stage in str(exc.value) and "out of range" not in str(exc.value)


def test_overflow_exit_code(capsys):
    # a coefficient beyond the float range exits 3 with a one-line report
    assert run(["series", "--problem", "blasius", "--a", "1e200", "--order", "30"]) == \
        EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_newton_flag_defaults_come_from_the_configs(capsys):
    closure = {"tol": ClosureConfig.tol, "max_iter": ClosureConfig.max_iter}
    expected = {
        "solve": closure,
        "shoot": {"tol": ShootConfig.tol, "max_iter": ShootConfig.max_iter},
        "compare": dict(closure, shoot_tol=ShootConfig.tol),
    }
    for command, defaults in expected.items():
        code, payload = run_json(capsys, [command])
        assert code == EXIT_OK
        manifest = payload["manifest"]
        assert {key: manifest[key] for key in defaults} == defaults
        assert manifest["guess"] is None


def _call_line(function, callee: str) -> int:
    """The line of function's source that calls callee."""
    lines, start = inspect.getsourcelines(function)
    return start + next(i for i, line in enumerate(lines) if f"{callee}(" in line)


@pytest.mark.parametrize("argv, executor, solver, root", [
    (["solve", "--guess=-0.6,0.6", "--pade", "3"], cli._exec_solve, "solve_problem",
     "A=-0.509636, B=0.53538"),
    # a step as long as the oracle's domain
    (["shoot", "--step", "10"], cli._exec_shoot, "shoot_solve", "A=0.42936, B=0.00472072"),
])
def test_unphysical_roots_warn_once_at_the_solver_call(capsys, argv, executor, solver, root):
    # either solver's root with A <= 0 or B >= 0 is returned (exit 0) with one
    # warning, reported at the line of the CLI that called the solver
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == EXIT_OK
    assert [str(w.message) for w in caught] == [
        f"converged root ({root}) violates the expected signs A > 0, B < 0"]
    assert caught[0].category is UserWarning
    assert (caught[0].filename, caught[0].lineno) == (cli.__file__,
                                                      _call_line(executor, solver))


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


def test_subnormal_block_is_degenerate_not_a_warning(capsys):
    # the [1/1] block is the f'-series' A = 1e-310; its solution overflows, and
    # the approximant is rejected as degenerate (exit 4), not as a usage error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["solve", "--pade", "1", "--guess=1e-310,-0.6"]) == EXIT_DEGENERATE
    assert "approximant coefficients overflow" in capsys.readouterr().err


def test_svd_failure_of_the_stacked_fit_is_degenerate(monkeypatch, capsys):
    def unconverged(A):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", unconverged)
    assert run(["solve"]) == EXIT_DEGENERATE
    err = capsys.readouterr().err
    assert err.startswith("error: f'-approximant: [3/3] SVD did not converge\n")


@pytest.mark.parametrize("argv", [
    ["shoot", "--eta-max", "1e300", "--step", "1e-300"],
    ["profile", "--a", "0.6", "--b", "-0.5", "--step", "1e-300", "--grid", "0:1:0.5"],
])
def test_rk4_step_bound_is_a_usage_error(capsys, argv):
    # refused before any trajectory runs: no overflow in the step count, no hang
    start = time.perf_counter()
    assert run(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert "at most 10,000,000 RK4 steps" in capsys.readouterr().err


def test_shoot_reference_values(capsys):
    code, payload = run_json(capsys, ["shoot", "--pr", "1"])
    assert code == EXIT_OK
    res = payload["result"]
    assert res["a"] == pytest.approx(0.6421, abs=5e-4)
    assert res["b"] == pytest.approx(-0.5671, abs=5e-4)


@pytest.mark.parametrize("argv, a", [
    (["shoot", "--step", "0.1"], 0.6421781534),
    (["shoot", "--pr", "2"], 0.5712566194),
    (["shoot", "--pr", "1.5"], 0.6004966240),
])
def test_shoot_converges_where_the_full_domain_blew_up(capsys, argv, a):
    # from the default guess each of these exited 3 before the short Newton
    # stage on eta_max 6 seeded the full domain. At Pr 2 the root from the
    # probe's seed is 0.57125661939, against 0.57125661946 from one chord
    # iteration (the older literal 0.5712566195)
    code, payload = run_json(capsys, argv)
    assert code == EXIT_OK
    assert payload["result"]["a"] == pytest.approx(a, abs=1e-10)


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


def test_blasius_profile_is_strict_json(capsys):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    assert run(["profile", "--problem", "blasius", "--source", "both", "--a", "0.332",
                "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out, parse_constant=reject)
    columns = payload["result"]["columns"]
    assert columns == ["eta", "f_series", "fprime_series", "theta_series",
                       "f_integrator", "fprime_integrator", "theta_integrator"]
    rows = payload["result"]["rows"]
    assert len(rows) == 11 and all(row[3] is None and row[6] is None for row in rows)
    # csv leaves the missing theta cells empty
    assert run(["profile", "--problem", "blasius", "--a", "0.332", "--format", "csv"]) == EXIT_OK
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert all(row[3] == "" for row in csv.reader(lines[1:]))


@pytest.mark.parametrize("source", ["integrator", "series", "both"])
@pytest.mark.parametrize("wall", [
    ["--a", "nan"],
    ["--a", "inf"],
    ["--a", "0.6", "--b", "nan"],
    ["--problem", "blasius", "--a", "0.332", "--b", "nan"],
])
def test_profile_non_finite_wall_value_is_a_usage_error(capsys, source, wall):
    assert run(["profile", "--source", source, *wall]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: initial derivatives a, b must be finite\n"


@pytest.mark.parametrize("grid, message", [
    ("0:1e9:1e8", "at most 10,000,000 RK4 steps"),
    ("-1:1:0.5", "grid must start at eta >= 0"),
])
def test_profile_grid_outside_domain(capsys, grid, message):
    # a grid past 10**7 RK4 steps is refused before any step runs
    start = time.perf_counter()
    assert run(["profile", "--a", "0.6", "--b=-0.5", f"--grid={grid}"]) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_profile_runs_to_the_end_of_its_grid(capsys):
    # past the oracle's eta_max = 8, and on a grid inside the oracle's far
    # field: each row is the oracle's trajectory on eta_max at the same step
    code, payload = run_json(capsys, ["profile", "--a", "0.6421881644", "--b=-0.5671465085",
                                      "--grid", "0:12:4"])
    assert code == EXIT_OK
    for eta, _, fp, theta in payload["result"]["rows"][2:]:
        cfg = ShootConfig(eta_max=eta)
        assert [fp, theta] == list(boundary_residual(0.6421881644, -0.5671465085, 1.0, cfg))
    assert run(["profile", "--a", "0.55", "--b", "-0.86", "--grid", "0:1:0.5"]) == EXIT_OK


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


def test_compare_validates_before_the_oracle_runs(capsys, monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the settings were checked")

    monkeypatch.setattr(cli, "shoot_solve", oracle)
    for argv in (["compare", "--pade", "0", "--step", "0.001"],
                 ["compare", "--tol", "nan"],
                 ["compare", "--problem", "blasius", "--mode", "paper"],
                 ["compare", "--guess", "0.5"],
                 ["compare", "--problem", "blasius", "--guess", "0.3"],
                 # a later rung's setting, and a degree past the bound
                 ["compare", "--pade", "3,0"],
                 ["compare", "--pade", "100000"]):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
    assert run(["compare", "--pade", "2,x"]) == EXIT_USAGE
    assert "must be comma-separated integers, got '2,x'" in capsys.readouterr().err


def test_an_oracle_failure_wins_over_failing_rungs(capsys):
    # the paper-mode [2/2] rung is rank-deficient, and the oracle blows up at Pr 0.1
    assert run(["compare", "--pr", "0.1", "--pade", "2", "--mode", "paper"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == "error: trajectory blew up near eta = 4.75\n"


def test_compare_rejects_an_empty_ladder(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("the oracle ran before the settings were checked")

    monkeypatch.setattr(cli, "shoot_solve", oracle)
    manifest = cli._manifest(cli.build_parser().parse_args(["compare", "--format", "json"]))
    with pytest.raises(UsageError, match="at least one Pade degree"):
        execute(dict(manifest, pade=[]))


json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    # a row join, raw newlines, quotes, backslashes and non-ASCII inside strings
    st.text(), st.sampled_from(['"],\n      ["', "],\n      [", "a\nb", 'q"\\', "é€😀"]),
)
json_values = st.recursive(json_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=3).map(tuple),
    # json writes int, float, bool and None keys as strings
    st.dictionaries(st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none()),
                    inner, max_size=4),
    # blocks of rows: mostly non-empty rows of scalars, some empty or holding containers
    st.lists(st.one_of(st.lists(json_scalars, min_size=1, max_size=4),
                       st.lists(inner, max_size=3)), min_size=1, max_size=4),
), max_leaves=30)


@given(st.dictionaries(st.text(), json_values, max_size=4), json_values)
def test_json_emit_is_json_dumps_with_indent(manifest, result):
    manifest = dict(manifest, format="json")
    buf = io.StringIO()
    cli.emit(manifest, result, buf)
    assert buf.getvalue() == json.dumps({"manifest": manifest, "result": result}, indent=2) + "\n"


class _Float(float):
    pass


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


# cells of exact scalar types, among a float subclass and an IntEnum, which
# the C type scan of _json_text sends down its general path
mixed_cells = st.one_of(json_scalars, st.floats().map(_Float), st.sampled_from(_Level))
mixed_rows = st.one_of(
    st.lists(mixed_cells, min_size=1, max_size=4),
    st.lists(mixed_cells, min_size=1, max_size=4).map(tuple),
    st.just([]),
    st.lists(mixed_cells, max_size=3).map(lambda row: row + [[0.5, None]]),
)


@given(st.one_of(
    st.lists(mixed_cells, max_size=6),
    st.dictionaries(st.text(), mixed_cells, max_size=6),
    st.lists(mixed_rows, min_size=1, max_size=5),
))
def test_json_text_of_flat_containers_and_row_blocks_is_json_dumps(o):
    assert cli._json_text(o, "") == json.dumps(o, indent=2)


@pytest.mark.parametrize("argv", [
    ["profile", "--source", "both", "--a", "0.6421", "--b", "-0.5671", "--grid", "0:2:0.01"],
    # Blasius rows hold null theta cells
    ["profile", "--source", "both", "--problem", "blasius", "--a", "0.332", "--grid", "0:2:0.01"],
    ["compare", "--pade", "2,3"],  # rows of dicts
    ["solve"],
    ["series", "--order", "301"],
    ["shoot", "--guess", "0.6,-0.6"],  # a manifest holding a list
])
def test_json_emit_of_real_results_is_json_dumps_with_indent(capsys, argv):
    assert run(argv + ["--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    manifest = json.loads(out)["manifest"]
    result = execute(manifest)
    assert out == json.dumps({"manifest": manifest, "result": result}, indent=2) + "\n"


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


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["series"],
    ["series", "--problem", "blasius"],
    ["profile", "--source", "integrator", "--a", "0.6421", "--b", "-0.5671"],
    ["shoot"],
    ["shoot", "--problem", "blasius"],
])
def test_commands_run_without_numpy(capsys, argv):
    # only pade.build imports numpy: these commands give the same output in an
    # interpreter where importing numpy fails
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    blocked = ("import runpy, sys; sys.modules['numpy'] = None; "
               "runpy.run_module('dtmpade.cli', run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", blocked, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    if argv == ["--version"]:
        assert proc.stdout == f"{__version__}\n"
        return
    assert run(argv) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out
    if argv == ["shoot"]:
        # the DTM-Pade solves build approximants and so need numpy: a missing
        # numpy is a one-line usage error, not a traceback
        for command in ("solve", "compare"):
            proc = subprocess.run([sys.executable, "-c", blocked, command], capture_output=True,
                                  text=True, env=env, timeout=60)
            assert proc.returncode == EXIT_USAGE, proc.stderr
            assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
            assert "numpy" in proc.stderr and "Traceback" not in proc.stderr


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
    cfg.write_text("# the published root\n\nmode=paper\n  \npade=3\n")
    code, payload = run_json(capsys, ["solve", f"--config={cfg}"])
    assert code == EXIT_OK
    assert payload["manifest"]["mode"] == "paper"
    assert payload["result"]["a"] == pytest.approx(0.5506447081, abs=1e-6)


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mode=paper\nbogus=1\n")
    assert run(["solve", "--config", str(cfg)]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err
    cfg.write_text("mode paper\n")
    assert run(["solve", "--config", str(cfg)]) == EXIT_USAGE
    assert "config line is not key=value: 'mode paper'" in capsys.readouterr().err


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
    # and marches to its grid's end, so it takes no oracle domain either
    for flag, value in (("--tol", "1e-8"), ("--max-iter", "5"), ("--eta-max", "8")):
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
    assert not {"tol", "max_iter", "eta_max"} & manifest.keys()
    for eta_max in (8.0, 3.0):
        legacy = dict(manifest, tol=1e-8, max_iter=50, eta_max=eta_max)
        assert execute(legacy)["rows"] == execute(manifest)["rows"] == payload["result"]["rows"]


def test_execute_unknown_subcommand():
    with pytest.raises(UsageError, match="bogus"):
        execute({"subcommand": "bogus", "version": "0", "format": "json", "digits": 10})


def test_digits_sets_the_significant_digits_of_csv_and_table_cells(capsys):
    argv = ["series", "--order", "6", "--mode", "paper", "--a", "1", "--b", "1", "--digits", "3"]
    assert run(argv + ["--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "3,-0.167,0", "4,-0.0417,-0.125", "5,0.0208,0.025", "6,-0.00972,0.00417"]
    assert run(argv + ["--format", "table"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "  6  -0.00972      0.00417"


def test_execute_unknown_profile_source():
    manifest = cli._manifest(cli.build_parser().parse_args(["profile", "--a", "0.6"]))
    with pytest.raises(UsageError, match="unknown profile source 'bogus'"):
        execute(dict(manifest, source="bogus"))


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
    # missing values: the b of Blasius, the roots of a failed rung
    (["shoot", "--problem", "blasius"], ["a", "b", "residual_norm", "iterations"], 1),
    (["solve", "--problem", "blasius", "--pade", "4"],
     ["a", "b", "residual_norm", "iterations"], 1),
    (["compare", "--pade", "2,3", "--mode", "paper"],
     ["pade_degree", "status", "a", "a_oracle", "delta_a", "b", "b_oracle", "delta_b"], 2),
])
def test_table_and_csv_shapes(capsys, argv, columns, nrows):
    # table is the default format: title, settings, then a header and one line
    # per row, every cell right-justified to its column's width
    assert run(argv) == EXIT_OK
    title, settings, *table = capsys.readouterr().out.splitlines()
    assert title == f"dtmpade {__version__} :: {argv[0]}"
    assert settings.startswith("  [") and "format=" not in settings
    assert table[0].split() == columns
    assert len(table) == 1 + nrows and len({len(line) for line in table}) == 1

    assert run(argv + ["--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"# subcommand={argv[0]}" and "# format=csv" in lines
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert rows[0] == columns
    assert len(rows) == 1 + nrows and all(len(row) == len(columns) for row in rows)
    # a missing value is an empty field, never the text None
    assert "None" not in {cell for row in rows for cell in row}
    if "blasius" in argv and argv[0] in ("solve", "shoot"):
        assert rows[1][1] == ""
