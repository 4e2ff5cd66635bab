"""tools/ab.py: the identity hash, the sweep, the layer cases, batch sizing and the export."""

from __future__ import annotations

import dataclasses
import importlib.util
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from dtmpade import __version__

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _git_checkout() -> bool:
    try:
        return subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                              capture_output=True).returncode == 0
    except OSError:
        return False


@pytest.fixture(autouse=True)
def _isolated_imports():
    """Undo what ab adds to sys.path and sys.modules, so that each test imports afresh."""
    path = list(sys.path)
    yield
    sys.path[:] = path
    for name in [n for n in sys.modules if n == ab.ALIAS or n.startswith(ab.ALIAS + ".")]:
        del sys.modules[name]


def _copied(rev: str, into: Path) -> Path:
    """What ab.export gives, without git: this checkout's package, copied."""
    return Path(shutil.copytree(ab.SRC / "dtmpade", into / ab.ALIAS))


def _fake_cli(tail: str) -> SimpleNamespace:
    return SimpleNamespace(execute=lambda m: m,
                           emit=lambda m, result, stream: stream.write(repr(result) + tail))


@pytest.mark.parametrize("tail, same", [("", True), (" ", False)])
def test_identity_reports_sides_that_emit_other_bytes(capsys, tail, same):
    sides = {"rev": {"cli": _fake_cli("")},
             "head": {"cli": _fake_cli(tail), "version": __version__}}
    assert ab.identity(sides) is same
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == len(ab._bench("workloads").WORKLOADS) * len(ab.SEEDS)
    assert all(line.endswith("same" if same else "DIFFERENT") for line in lines)


def test_sweep_reports_outcome_changes_root_moves_and_costlier_cases(monkeypatch, tmp_path):
    cases = [("blasius", 1.0, 6.0, 0.32), ("free-convection", 1.0, 6.0, 0.32),
             ("free-convection", 0.72, 6.0, 0.32)]
    monkeypatch.setattr(ab, "grid", lambda: iter(cases))
    monkeypatch.setattr(ab, "export", _copied)
    sides = ab.packages("unused", tmp_path)
    shooting, errors, dtm = (sides["head"][m] for m in ("shooting", "errors", "dtm"))
    original = shooting.shoot_solve
    residuals = (shooting.boundary_residual, shooting.blasius_boundary_residual)

    def patched(pr, cfg, x0=None, problem=dtm.Problem.FREE_CONVECTION):
        if pr == 0.72:
            raise errors.BlowUpError("patched", eta_reached=1.0)
        res = original(pr, cfg, x0, problem)
        if problem is dtm.Problem.BLASIUS:  # one more trajectory, counted
            shooting.blasius_boundary_residual(res.a, cfg)
            return res
        return dataclasses.replace(res, a=res.a + 1e-3)

    monkeypatch.setattr(shooting, "shoot_solve", patched)
    s = ab.sweep(sides)
    assert s["cases"] == 3 and s["converged"] == {"base": 3, "new": 2}
    assert s["outcome_changes"] == [{"problem": "free-convection", "pr": 0.72, "eta_max": 6.0,
                                     "step": 0.32, "base": [0, None], "new": [3, "BlowUpError"]}]
    assert s["max_root_move"]["move"] == pytest.approx(1e-3)
    assert s["max_root_move"]["case"]["problem"] == "free-convection"
    assert s["missing_tol"] == {"base": 0, "new": 1}  # checked at the moved root
    (costlier,) = s["costlier"]
    assert costlier["problem"] == "blasius"
    assert costlier["rk4_steps"][1] - costlier["rk4_steps"][0] == 19  # ceil(6 / 0.32)
    assert costlier["trajectories"][1] - costlier["trajectories"][0] == 1
    assert (shooting.boundary_residual, shooting.blasius_boundary_residual) == residuals


def test_a_slow_first_call_does_not_size_its_batch(monkeypatch):
    calls = {"rev": 0, "head": 0}

    def cases(pkg):
        def call():
            calls[pkg["side"]] += 1
            if calls[pkg["side"]] == 1:
                time.sleep(0.05)  # as a first call that imports numpy
        return {("slow_us", "first_call"): call}

    monkeypatch.setattr(ab, "cases", cases)
    block = ab.layers({"rev": {"side": "rev"}, "head": {"side": "head"}}, 1, "REV")
    # head: the warm-up call, the sizing call and a batch of more than one
    assert calls["head"] > 3
    assert calls["rev"] == calls["head"] - 1
    assert max(block["slow_us"]["first_call"]) < 1000  # no batch timed the slow call


@pytest.mark.skipif(not _git_checkout(), reason="exports a commit with git archive")
def test_packages_imports_the_commit_from_the_temporary_directory(tmp_path):
    sides = ab.packages("HEAD", tmp_path)
    for side, where, prefix in (("rev", tmp_path / ab.ALIAS, ab.ALIAS),
                                ("head", ab.SRC / "dtmpade", "dtmpade")):
        modules = [m for key, m in sides[side].items() if key != "version"]
        assert {Path(m.__file__).resolve().parent for m in modules} == {where.resolve()}
        assert all(m.__name__.startswith(prefix + ".") for m in modules)
    assert sides["rev"]["shooting"] is not sides["head"]["shooting"]


def test_shoot_round_case_solves_the_seed_1_shoot_oracle_round(monkeypatch, tmp_path):
    # one shoot_solve per request, with the manifest's inputs: the results
    # are those of cli.execute on the same round
    monkeypatch.setattr(ab, "export", _copied)
    pkg = ab.packages("unused", tmp_path)["head"]
    shooting = pkg["shooting"]
    requests = ab._first_round("shoot_oracle", 1, pkg["version"])
    case = ab.cases(pkg)["shoot_round_us", "seed_1"]
    original, calls = shooting.shoot_solve, []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(shooting, "shoot_solve", counted)
    results = case()
    assert len(calls) == len(requests) == 11
    assert [dataclasses.asdict(r) for r in results] == [pkg["cli"].execute(m) for m in requests]


def test_profile_cases_pass_each_side_what_its_tabulate_profile_takes(monkeypatch, tmp_path):
    # a side whose tabulate_profile takes the oracle's ShootConfig, as before
    # the profile took its own step, is given one; this checkout's the step
    monkeypatch.setattr(ab, "export", _copied)
    sides = ab.packages("unused", tmp_path)
    rev, head = sides["rev"]["shooting"], sides["head"]["shooting"]
    given = []

    def tabulate_profile(a, b, pr, grid, cfg=None, problem=None):
        given.append(cfg)

    monkeypatch.setattr(rev, "tabulate_profile", tabulate_profile)
    keys = [("tabulate_profile_us", "grid_0:2:0.01"),
            ("tabulate_profile_us", "blasius_grid_0:2:0.01")]
    calls = {side: ab.cases(pkg) for side, pkg in sides.items()}
    for key in keys:
        calls["rev"][key]()
    assert given == [rev.ShootConfig()] * 2
    grid = sides["head"]["cli"].parse_grid("0:2:0.01")
    assert calls["head"][keys[0]]() == head.tabulate_profile(0.6421, -0.5671, 1.0, grid, 0.01)
    assert calls["head"][keys[1]]() == head.tabulate_profile(
        0.332, 0.0, 1.0, grid, 0.01, sides["head"]["dtm"].Problem.BLASIUS)


def test_layer_cases_split_the_closure_into_its_parts(monkeypatch, tmp_path):
    # generate at the closure's orders and at Blasius', the tangent pass and
    # the stacked fit on the closure's own series: the fits' limits are the
    # closure residual's values and the tangents are those of its Jacobian
    monkeypatch.setattr(ab, "export", _copied)
    pkg = ab.packages("unused", tmp_path)["head"]
    dtm, pade, rootfind = (pkg[m] for m in ("dtm", "pade", "rootfind"))
    calls = ab.cases(pkg)
    for case, order, blasius in [("order_7", 7, False), ("order_11", 11, False),
                                 ("order_19", 19, False), ("blasius_order_68", 68, True),
                                 ("blasius_order_301", 301, True)]:
        sol = calls["generate_us", case]()
        assert sol.f_series.order == order and (sol.theta_series is None) is blasius
    for n in (3, 5, 9):
        res = rootfind.closure_residual(0.6, -0.6, 1.0, rootfind.ClosureConfig(pade_degree=n))
        fits = calls["build_many_us", f"n_{n}"]()
        assert [pade.limit_at_infinity(fit).hex() for fit in fits] == [v.hex() for v in res]
        df, dtheta = calls["tangents_us", f"n_{n}"]()
        assert len(df) == len(dtheta) == 2 * n + 2
        sol = dtm.generate(dtm.ProblemParams(pr=1.0, a=0.6, b=-0.6, order=2 * n + 1))
        series = ([j * c for j, c in enumerate(sol.f_series.coeffs[1:], 1)],
                  sol.theta_series.coeffs)
        dfp = [j * c for j, c in enumerate(df[1:], 1)]
        rows = pade.limit_tangents(fits, series, (dfp, dtheta))
        assert [(z.real, z.imag) for z in rows] == res.jacobian()
