"""A/B checks of this checkout against another commit, both in one process.

    python tools/ab.py identity --against REV
    python tools/ab.py layers --against REV [--repeat 40]
    python tools/ab.py sweep --against REV

Each command exports REV's src/dtmpade with `git archive` into a temporary
directory and imports it as the package `dtmpade_ab`, next to this
checkout's src/dtmpade; the modules import each other relatively, so the
two never mix. REV may be any commit name git accepts, HEAD included, which
compares the working tree with its last commit.

`identity` prints, per workload of bench/workloads.py (read, not changed)
at seeds 1 and 7, a SHA-256 of the bytes that each side's cli.execute and
cli.emit give for the first round, with format json as the benchmark issues
them (a request that raises gives its exception class and message). It
exits 1 when any pair of hashes differs.

`layers` prints a JSON object shaped like the `micro` blocks of the
BENCH_*.json files: the best of --repeat rounds, each timing a batch of
every case on both sides, the side that runs first alternating, of the
layers that ROADMAP's performance aim names, of the closure residual's
parts (generate at its orders, the tangent pass, the stacked f'/theta fit
of pade.build_many), and of the oracle as the benchmark drives it
(shoot_round_us: shooting.shoot_solve on each request of the seed-1
shoot_oracle round); each pair is [REV, this checkout] in microseconds per
call.

`sweep` calls each side's shooting.shoot_solve from the default guess on
1 020 cases (Blasius and free convection at Pr 0.1-7; eta_max 5-16; steps
0.0025-0.4) and prints as JSON, "base" being REV and "new" this checkout,
the outcome changes (exit code as that side's CLI maps the error, and
error class), the largest root move, the roots that miss tol at their
step, the totals of RK4 steps and trajectories, and every case whose RK4
steps rose. Each call of boundary_residual or blasius_boundary_residual is
one trajectory of bench/tracing.py's rk4_steps RK4 steps, counted up to
the blow-up point of one that blows up. `sweep` needs no numpy (only the
Pade fits import it), so it also runs on an interpreter with neither numpy
nor pytest, such as `python3.13 tools/ab.py sweep --against REV`: the RK4
trajectories call no sum(), so its totals are the same on CPython 3.10 to
3.13.

`layers` and `sweep` also print their figures as text on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import itertools
import json
import math
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
ALIAS = "dtmpade_ab"
SEEDS = (1, 7)


def export(rev: str, into: Path) -> Path:
    """REV's src/dtmpade, unpacked as into/dtmpade_ab."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src/dtmpade"], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return (into / "src" / "dtmpade").rename(into / ALIAS)


def packages(rev: str, into: Path) -> dict:
    """{"rev": REV's package, "head": this checkout's}, each as a module namespace."""
    export(rev, into)
    sys.path[:0] = [str(into), str(SRC)]
    out = {}
    for side, name in (("rev", ALIAS), ("head", "dtmpade")):
        pkg = importlib.import_module(name)
        out[side] = {mod: importlib.import_module(f"{name}.{mod}")
                     for mod in ("cli", "dtm", "errors", "pade", "rootfind", "series", "shooting")}
        out[side]["version"] = pkg.__version__
    head_file = Path(sys.modules["dtmpade"].__file__).resolve()
    if head_file.parent != SRC / "dtmpade":
        raise SystemExit(f"imported dtmpade from {head_file}, not {SRC}")
    return out


def _bench(name: str):
    """A module of bench/, which this tool reads and does not change."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    return importlib.import_module(name)


# ---------------------------------------------------------------- identity

def _emitted(cli, manifest: dict) -> bytes:
    buf = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            cli.emit(manifest, cli.execute(manifest), buf)
        except Exception as exc:  # the outcome is what is compared
            return f"{type(exc).__name__}: {exc}\n".encode()
    return buf.getvalue().encode()


def _first_round(workload: str, seed: int, version: str) -> list[dict]:
    """The manifests of a workload's first round at seed, as bench/run.py issues them."""
    workloads = _bench("workloads")
    return next(workloads.rounds(workloads.WORKLOADS[workload], seed, version,
                                 workloads.load_refs()))


def identity(sides: dict) -> bool:
    version = sides["head"]["version"]
    same = True
    print(f"{'workload':16s} {'seed':>5s} {'requests':>8s}  {'REV sha256':16s}  "
          f"{'checkout sha256':16s}")
    for name in _bench("workloads").WORKLOADS:
        for seed in SEEDS:
            requests = _first_round(name, seed, version)
            digests = {side: hashlib.sha256(b"".join(
                _emitted(sides[side]["cli"], m) for m in requests)).hexdigest()
                for side in ("rev", "head")}
            ok = digests["rev"] == digests["head"]
            same &= ok
            print(f"{name:16s} {seed:5d} {len(requests):8d}  {digests['rev'][:16]}  "
                  f"{digests['head'][:16]}  {'same' if ok else 'DIFFERENT'}")
    return same


# ------------------------------------------------------------------ layers

PROFILE = {"subcommand": "profile", "version": None, "a": 0.6421, "b": -0.5671, "digits": 10,
           "eta_max": 8.0, "format": "json", "grid": "0:2:0.01", "mode": "corrected",
           "order": 40, "pr": 1.0, "problem": "free-convection", "source": "both",
           "step": 0.01}
BLASIUS_PROFILE = dict(PROFILE, problem="blasius", a=0.332, b=0.0)


def cases(pkg: dict) -> dict:
    """(layer, case) -> a call of that layer at fixed inputs, for one package."""
    cli, dtm, pade, rootfind, shooting = (
        pkg[m] for m in ("cli", "dtm", "pade", "rootfind", "shooting"))
    grid = cli.parse_grid(PROFILE["grid"])
    out = {}
    for eta_max, step in ((6.0, 0.32), (8.0, 0.16), (8.0, 0.01)):
        cfg = shooting.ShootConfig(eta_max=eta_max, step=step)
        out["trajectory_us", f"eta_max_{eta_max:g}_step_{step:g}"] = (
            lambda cfg=cfg: shooting.boundary_residual(0.6421, -0.5671, 1.0, cfg))
    cfg = shooting.ShootConfig()
    out["trajectory_us", "blasius_eta_max_8_step_0.01"] = (
        lambda: shooting.blasius_boundary_residual(0.332, cfg))
    shoots = [(m["pr"], shooting.ShootConfig(eta_max=m["eta_max"], step=m["step"], tol=m["tol"],
                                             max_iter=m["max_iter"]),
               m["guess"], dtm.Problem(m["problem"]))
              for m in _first_round("shoot_oracle", 1, pkg["version"])]
    out["shoot_round_us", "seed_1"] = lambda: [
        shooting.shoot_solve(pr, scfg, x0, problem) for pr, scfg, x0, problem in shoots]
    out["tabulate_profile_us", "grid_0:2:0.01"] = (
        lambda: shooting.tabulate_profile(0.6421, -0.5671, 1.0, grid, cfg))
    out["tabulate_profile_us", "blasius_grid_0:2:0.01"] = (
        lambda: shooting.tabulate_profile(0.332, 0.0, 1.0, grid, cfg, problem=dtm.Problem.BLASIUS))
    for key, m in (("both_grid_0:2:0.01", PROFILE), ("blasius_both_grid_0:2:0.01",
                                                     BLASIUS_PROFILE)):
        m = dict(m, version=pkg["version"])
        result = cli.execute(m)
        out["execute_us", key] = lambda m=m: cli.execute(m)
        out["emit_us", key] = lambda m=m, result=result: cli.emit(m, result, io.StringIO())
    for order in (7, 11, 19, 101, 301):  # the first three are the closure's at n = 3, 5, 9
        params = dtm.ProblemParams(pr=1.0, a=0.6, b=-0.6, order=order)
        out["generate_us", f"order_{order}"] = lambda params=params: dtm.generate(params)
    for order in (68, 301):  # 68 is the [11/11] Blasius closure's
        params = dtm.ProblemParams(dtm.Problem.BLASIUS, a=0.332, order=order)
        out["generate_us", f"blasius_order_{order}"] = lambda params=params: dtm.generate(params)
    for n in (3, 5, 9):
        ccfg = rootfind.ClosureConfig(pade_degree=n)
        # the series that the closure fits: order 2n + 1, corrected mode
        sol = dtm.generate(dtm.ProblemParams(pr=1.0, a=0.6, b=-0.6, order=2 * n + 1))
        fp = pkg["series"].TruncatedSeries(
            [j * c for j, c in enumerate(sol.f_series.coeffs[1:], 1)])
        out["pade_build_us", f"theta_n_{n}"] = lambda n=n, s=sol.theta_series: pade.build(s, n, n)
        out["build_many_us", f"n_{n}"] = (
            lambda n=n, pair=(fp, sol.theta_series): pade.build_many(pair, n, n))
        out["tangents_us", f"n_{n}"] = (
            lambda sol=sol: dtm.free_convection_tangents(sol, 1.0, dtm.RecurrenceMode.CORRECTED))
        out["closure_residual_us", f"n_{n}"] = (
            lambda ccfg=ccfg: rootfind.closure_residual(0.6, -0.6, 1.0, ccfg))
        out["closure_jacobian_us", f"n_{n}"] = (
            rootfind.closure_residual(0.6, -0.6, 1.0, ccfg).jacobian)
    return out


def _batch(fn, number: int) -> float:
    t0 = time.perf_counter_ns()
    for _ in range(number):
        fn()
    return (time.perf_counter_ns() - t0) / number / 1e3


def layers(sides: dict, repeat: int, rev: str) -> dict:
    calls = {side: cases(pkg) for side, pkg in sides.items()}
    block = {"command": f"python tools/ab.py layers --against {rev} --repeat {repeat}",
             "what": f"best of {repeat} rounds of batches of about 5 ms in one process, each "
                     "round timing every case on both sides, the side that runs first "
                     f"alternating; {rev} imported as {ALIAS}; "
                     "free convection at Pr 1 from (A, B) = (0.6421, -0.5671) for "
                     "trajectories and profiles and (0.6, -0.6) for generate, the closure "
                     "residual, its Jacobian, its tangent pass (free_convection_tangents "
                     "on its order-2n+1 series), the stacked [n/n] fit of its f' and theta "
                     "series (build_many) and the fit of its theta series alone, "
                     "Blasius at A = 0.332; shoot_round_us is one call of shoot_solve per "
                     "request of the seed-1 shoot_oracle round, from its seeded guesses"}
    for fn in [*calls["rev"].values(), *calls["head"].values()]:
        fn()  # untimed, so that no batch is sized by a first call's imports (numpy)
    # every case in every round, so that a slow spell of the host spoils one
    # batch of many cases rather than every batch of one
    numbers = {key: max(1, round(5000 / _batch(fn, 1))) for key, fn in calls["head"].items()}
    best = {key: {"rev": math.inf, "head": math.inf} for key in numbers}
    for i in range(repeat):
        for key, number in numbers.items():
            for side in (("rev", "head") if i % 2 else ("head", "rev")):
                best[key][side] = min(best[key][side], _batch(calls[side][key], number))
    for (layer, case), t in best.items():
        block.setdefault(layer, {})[case] = [round(t["rev"], 2), round(t["head"], 2)]
        print(f"{layer:20s} {case:30s} {t['rev']:10.2f} {t['head']:10.2f} "
              f"{t['head'] / t['rev']:7.3f}", file=sys.stderr)
    block["note"] = f"each pair is [{rev}, this checkout]"
    return block


# ------------------------------------------------------------------- sweep

FREE_PRS = (0.1, 0.3, 0.5, 0.72, 1.0, 1.5, 2.0, 3.0, 7.0)
FINE_ETA_MAXES = (5.0, 6.0, 6.5, 7.0, 8.0, 10.0, 12.0, 16.0)
FINE_STEPS = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.05, 0.08, 0.1, 0.12)
COARSE_ETA_MAXES = (5.0, 6.0, 7.0, 8.0, 12.0)
COARSE_STEPS = (0.16, 0.2, 0.25, 0.3, 0.32, 0.4)
CASE = ("problem", "pr", "eta_max", "step")


def grid():
    """(problem, pr, eta_max, step) of every case: 720 with steps up to 0.12, then 300."""
    problems = [("blasius", 1.0)] + [("free-convection", pr) for pr in FREE_PRS]
    for eta_maxes, steps in ((FINE_ETA_MAXES, FINE_STEPS), (COARSE_ETA_MAXES, COARSE_STEPS)):
        for (problem, pr), eta_max, step in itertools.product(problems, eta_maxes, steps):
            yield problem, pr, eta_max, step


def _exit_code(cli, exc: Exception) -> int:
    """The code that this side's cli.run exits with when a solve raises exc."""
    if isinstance(exc, cli.DegenerateApproximantError):
        return cli.EXIT_DEGENERATE
    return cli.EXIT_NO_CONVERGENCE if isinstance(exc, cli._NUMERICAL_ERRORS) else cli.EXIT_USAGE


def _oracle_rows(pkg: dict) -> dict:
    """case -> outcome, root, trajectories and RK4 steps of one side's shoot_solve."""
    shooting, rk4_steps = pkg["shooting"], _bench("tracing").rk4_steps
    names = ("boundary_residual", "blasius_boundary_residual")
    residuals = {name: getattr(shooting, name) for name in names}
    counts = {}

    def counted(original):
        def residual(*args):  # the config is the last argument of both
            counts["trajectories"] += 1
            try:
                out = original(*args)
            except pkg["errors"].BlowUpError as exc:  # this side's class, not the tracer's
                counts["rk4_steps"] += rk4_steps(args[-1], exc.eta_reached)
                raise
            counts["rk4_steps"] += rk4_steps(args[-1])
            return out
        return residual

    rows = {}
    vars(shooting).update({name: counted(fn) for name, fn in residuals.items()})
    try:
        for problem, pr, eta_max, step in grid():
            cfg = shooting.ShootConfig(eta_max=eta_max, step=step)
            counts.update(trajectories=0, rk4_steps=0)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    res = shooting.shoot_solve(pr, cfg, problem=pkg["dtm"].Problem(problem))
                except Exception as exc:  # the outcome is the record
                    row = {"exit": _exit_code(pkg["cli"], exc), "error": type(exc).__name__}
                else:
                    row = {"exit": 0, "error": None, "a": res.a, "b": res.b}
            row.update(counts, warned=len(caught))
            if row["exit"] == 0:  # checked by the unwrapped functions, uncounted
                r = (residuals["boundary_residual"](res.a, res.b, pr, cfg) if res.b is not None
                     else (residuals["blasius_boundary_residual"](res.a, cfg),))
                row["meets_tol"] = max(map(abs, r)) <= cfg.tol
            rows[problem, pr, eta_max, step] = row
    finally:
        vars(shooting).update(residuals)
    return rows


def sweep(sides: dict) -> dict:
    base, new = _oracle_rows(sides["rev"]), _oracle_rows(sides["head"])
    outcome_changes, costlier, root_moves = [], [], []
    for key, b in base.items():
        n, case = new[key], dict(zip(CASE, key))
        if (b["exit"], b["error"]) != (n["exit"], n["error"]):
            outcome_changes.append({**case, "base": [b["exit"], b["error"]],
                                    "new": [n["exit"], n["error"]]})
        elif b["exit"] == 0:
            move = max(abs(b["a"] - n["a"]), abs((b["b"] or 0.0) - (n["b"] or 0.0)))
            root_moves.append((move, case))
        if n["rk4_steps"] > b["rk4_steps"]:
            costlier.append({**case, "rk4_steps": [b["rk4_steps"], n["rk4_steps"]],
                             "trajectories": [b["trajectories"], n["trajectories"]]})
    move, where = max(root_moves, key=lambda m: m[0], default=(0.0, None))
    total = lambda f: {"base": sum(map(f, base.values())), "new": sum(map(f, new.values()))}
    steps = total(lambda r: r["rk4_steps"])
    summary = {
        "cases": len(base),
        "converged": total(lambda r: r["exit"] == 0),
        "outcome_changes": outcome_changes,
        "missing_tol": total(lambda r: r.get("meets_tol") is False),
        "sign_warnings": total(lambda r: r["warned"]),
        "max_root_move": {"move": move, "case": where},
        "rk4_steps": dict(steps, change_pct=round(100 * (steps["new"] / steps["base"] - 1), 2)),
        "trajectories": total(lambda r: r["trajectories"]),
        "costlier": costlier,
    }
    for key, v in summary.items():  # as text on stderr: base -> new, a line per listed case
        if isinstance(v, list):
            v = f"{len(v)}" + "".join(f"\n  {c}" for c in v)
        elif isinstance(v, dict) and "base" in v:
            pct = v.get("change_pct")
            v = f"{v['base']} -> {v['new']}" + ("" if pct is None else f" ({pct:+.2f}%)")
        print(f"{key.replace('_', ' ')}: {v}", file=sys.stderr)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    against = argparse.ArgumentParser(add_help=False)
    against.add_argument("--against", required=True, metavar="REV")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("identity", parents=[against],
                   help="hash the emitted bytes of every workload's first round")
    sub.add_parser("layers", parents=[against], help="interleaved best-of-N timings of each layer"
                   ).add_argument("--repeat", type=int, default=40)
    sub.add_parser("sweep", parents=[against],
                   help="the shooting oracle's outcomes and cost over 1 020 cases")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = packages(args.against, Path(tmp))
        if args.command == "identity":
            return 0 if identity(sides) else 1
        out = (layers(sides, args.repeat, args.against) if args.command == "layers"
               else sweep(sides))
        print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
