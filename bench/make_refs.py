"""Regenerate the pinned references in refs.json.

The references are the shooting oracle's wall values at half the default
RK4 step and on a domain 1.5 times the default one. A direct solve on the
wide domain diverges or lands on a spurious root, so each case is reached
by continuation: first in Pr from the Pr = 1 root on the default domain,
then in eta_max from 8 out to REF_ETA_MAX, each solve starting from the
previous root.

Run from the repository root:

    python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dtmpade import __version__  # noqa: E402
from dtmpade.dtm import Problem  # noqa: E402
from dtmpade.shooting import ShootConfig, shoot_solve  # noqa: E402

from workloads import BLASIUS, REFS_PATH, WORKLOADS  # noqa: E402

REF_STEP = 0.005
REF_ETA_MAX = 12.0
REF_TOL = 1e-10
PR_STEP = 0.1
ETA_STEP = 0.5


def _solve(problem: Problem, pr: float, eta_max: float, guess):
    cfg = ShootConfig(eta_max=eta_max, step=REF_STEP, tol=REF_TOL)
    return shoot_solve(pr, cfg, x0=guess, problem=problem)


def reference(problem_name: str, pr: float) -> dict:
    problem = Problem(problem_name)
    res = _solve(problem, 1.0, 8.0, None)
    if problem is Problem.FREE_CONVECTION:
        n = max(1, int(np.ceil(abs(pr - 1.0) / PR_STEP)))
        for p in np.linspace(1.0, pr, n + 1)[1:]:
            res = _solve(problem, float(p), 8.0, (res.a, res.b))
    for eta_max in np.arange(8.0 + ETA_STEP, REF_ETA_MAX + ETA_STEP / 2, ETA_STEP):
        guess = (res.a,) if res.b is None else (res.a, res.b)
        res = _solve(problem, pr, float(eta_max), guess)
    return {"problem": problem_name, "pr": pr, "a": res.a, "b": res.b,
            "residual_norm": res.residual_norm}


def main() -> None:
    cases = sorted({(p, 1.0 if p == BLASIUS else pr)
                    for w in WORKLOADS.values() for p, pr in w.cases})
    refs = []
    for problem, pr in cases:
        refs.append(reference(problem, pr))
        print(json.dumps(refs[-1]), flush=True)
    doc = {
        "about": "shooting-oracle wall values A = f''(0), B = theta'(0); "
                 "regenerate with bench/make_refs.py",
        "dtmpade_version": __version__,
        "settings": {"step": REF_STEP, "eta_max": REF_ETA_MAX, "tol": REF_TOL,
                     "free_convection_guess": [0.6, -0.6], "blasius_guess": [0.3]},
        "refs": refs,
    }
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
