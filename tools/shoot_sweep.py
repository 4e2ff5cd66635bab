"""Sweep the shooting oracle over a grid of cases and compare two sweeps.

    PYTHONPATH=src python tools/shoot_sweep.py run sweep.jsonl
    python tools/shoot_sweep.py compare parent.jsonl change.jsonl [--json]

`run` calls shoot_solve from the default guess on every case of the grid
(Blasius and free convection at Pr 0.1-7; eta_max 5-16; steps 0.0025-0.4)
with whichever dtmpade is importable, and writes one JSON row per case: its
outcome (exit code and error class, as the CLI would map them), the root,
the residual norm at the requested step recomputed from the root, the
trajectories and the RK4 steps. A trajectory is counted at each call of
boundary_residual or blasius_boundary_residual, and RK4 steps as the nsub of
the one interval each of their stepper calls runs, up to the blow-up point
of a trajectory that blows up.

`compare` reads two such files, case by case, and prints the outcome
changes, the largest root move, the step totals and every case whose RK4
steps rose, with its numbers; --json prints the same as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

FREE_PRS = (0.1, 0.3, 0.5, 0.72, 1.0, 1.5, 2.0, 3.0, 7.0)
FINE_ETA_MAXES = (5.0, 6.0, 6.5, 7.0, 8.0, 10.0, 12.0, 16.0)
FINE_STEPS = (0.0025, 0.005, 0.01, 0.02, 0.04, 0.05, 0.08, 0.1, 0.12)
COARSE_ETA_MAXES = (5.0, 6.0, 7.0, 8.0, 12.0)
COARSE_STEPS = (0.16, 0.2, 0.25, 0.3, 0.32, 0.4)


def grid():
    """(problem, pr, eta_max, step) of every case: 720 with steps up to 0.12, then 300."""
    problems = [("blasius", 1.0)] + [("free-convection", pr) for pr in FREE_PRS]
    for eta_maxes, steps in ((FINE_ETA_MAXES, FINE_STEPS), (COARSE_ETA_MAXES, COARSE_STEPS)):
        for problem, pr in problems:
            for eta_max in eta_maxes:
                for step in steps:
                    yield problem, pr, eta_max, step


def run(path: str) -> None:
    from dtmpade import shooting
    from dtmpade.dtm import Problem
    from dtmpade.errors import BlowUpError

    counts = {"trajectories": 0, "rk4_steps": 0}

    def counted_stepper(original):
        def advance(state, intervals, *args):
            # a residual marches to eta_max alone: one interval
            (eta, h, nsub), = intervals
            try:
                out = original(state, intervals, *args)
            except BlowUpError as exc:
                counts["rk4_steps"] += round((exc.eta_reached - eta) / h)
                raise
            counts["rk4_steps"] += nsub
            return out
        return advance

    def counted_trajectory(original):
        def residual(*args):
            counts["trajectories"] += 1
            return original(*args)
        return residual

    residuals = {name: getattr(shooting, name)
                 for name in ("boundary_residual", "blasius_boundary_residual")}
    for name in ("_advance_free_convection", "_advance_blasius"):
        setattr(shooting, name, counted_stepper(getattr(shooting, name)))
    for name, original in residuals.items():
        setattr(shooting, name, counted_trajectory(original))

    with open(path, "w", encoding="utf-8") as out:
        for problem, pr, eta_max, step in grid():
            cfg = shooting.ShootConfig(eta_max=eta_max, step=step)
            counts.update(trajectories=0, rk4_steps=0)
            row = {"problem": problem, "pr": pr, "eta_max": eta_max, "step": step}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    res = shooting.shoot_solve(pr, cfg, problem=Problem(problem))
                except Exception as exc:  # the outcome is the record
                    row.update(exit=_exit_code(exc), error=type(exc).__name__, message=str(exc))
                else:
                    row.update(exit=0, error=None, a=res.a, b=res.b,
                               iterations=res.iterations, residual_norm=res.residual_norm)
            row.update(counts, warned=len(caught))
            if row["exit"] == 0:
                if res.b is None:
                    r = (residuals["blasius_boundary_residual"](res.a, cfg),)
                else:
                    r = residuals["boundary_residual"](res.a, res.b, pr, cfg)
                row["verified_norm"] = max(abs(v) for v in r)
                row["meets_tol"] = row["verified_norm"] <= cfg.tol
            out.write(json.dumps(row) + "\n")


def _exit_code(exc: Exception) -> int:
    from dtmpade.cli import _NUMERICAL_ERRORS, EXIT_DEGENERATE, EXIT_NO_CONVERGENCE, EXIT_USAGE
    from dtmpade.errors import DegenerateApproximantError

    if isinstance(exc, DegenerateApproximantError):
        return EXIT_DEGENERATE
    return EXIT_NO_CONVERGENCE if isinstance(exc, _NUMERICAL_ERRORS) else EXIT_USAGE


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {(r["problem"], r["pr"], r["eta_max"], r["step"]): r for r in rows}


def compare(base_path: str, new_path: str) -> dict:
    base, new = _load(base_path), _load(new_path)
    if base.keys() != new.keys():
        raise SystemExit("the two sweeps cover different cases")
    outcome_changes, costlier, root_moves = [], [], []
    for key, b in base.items():
        n = new[key]
        case = dict(zip(("problem", "pr", "eta_max", "step"), key))
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
    total = lambda rows, k: sum(r[k] for r in rows.values())
    count = lambda rows, k, v: sum(r.get(k) == v for r in rows.values())
    return {
        "cases": len(base),
        "converged": {"base": count(base, "exit", 0), "new": count(new, "exit", 0)},
        "outcome_changes": outcome_changes,
        "missing_tol": {"base": count(base, "meets_tol", False),
                        "new": count(new, "meets_tol", False)},
        "sign_warnings": {"base": total(base, "warned"), "new": total(new, "warned")},
        "max_root_move": {"move": move, "case": where},
        "rk4_steps": {"base": total(base, "rk4_steps"), "new": total(new, "rk4_steps"),
                      "change_pct": round(100 * (total(new, "rk4_steps") / total(base, "rk4_steps")
                                                 - 1), 2)},
        "trajectories": {"base": total(base, "trajectories"), "new": total(new, "trajectories")},
        "costlier": costlier,
    }


def _print(summary: dict) -> None:
    print(f"{summary['cases']} cases; converged {summary['converged']['base']} -> "
          f"{summary['converged']['new']}")
    print(f"outcome changes: {len(summary['outcome_changes'])}")
    for c in summary["outcome_changes"]:
        print(f"  {c}")
    print(f"roots missing tol at their step: {summary['missing_tol']['base']} -> "
          f"{summary['missing_tol']['new']}")
    print(f"sign warnings: {summary['sign_warnings']['base']} -> {summary['sign_warnings']['new']}")
    m = summary["max_root_move"]
    print(f"largest root move: {m['move']:.3g} at {m['case']}")
    s, t = summary["rk4_steps"], summary["trajectories"]
    print(f"RK4 steps: {s['base']} -> {s['new']} ({s['change_pct']:+.2f}%); "
          f"trajectories: {t['base']} -> {t['new']}")
    print(f"cases with more RK4 steps: {len(summary['costlier'])}")
    for c in summary["costlier"]:
        print(f"  {c}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("base")
    cmp.add_argument("new")
    cmp.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.out)
    else:
        summary = compare(args.base, args.new)
        if args.json:
            json.dump(summary, sys.stdout, indent=2)
            print()
        else:
            _print(summary)


if __name__ == "__main__":
    main()
