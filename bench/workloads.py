"""Seeded request streams for the benchmark's workloads.

A workload is an endless sequence of rounds. Every round holds the same
set of request kinds in a seeded order, so a run that measures whole
rounds always sees the same mix: the medians then depend on the program,
not on which request kinds a short run happened to draw.

``shoot_oracle`` and ``series_profile`` draw their numeric inputs from the
seed as well, so no two of their requests are identical. ``dtm_ladder``
repeats the rungs exactly as ``dtmpade compare`` walks them, from the
default Newton guess: a perturbed guess moves some rungs between success
and rejection and, rarely, onto a far unphysical root (A = -0.83 for the
corrected [8/8] at Pr = 1 from a guess perturbed by 1e-4), which would
make the workload's accuracy and success rate depend on the seed. A result
cache would therefore be answered on that workload and must be judged on
the other two.

Every request is a run manifest of the shape ``dtmpade`` itself builds,
so it goes through ``cli.execute`` and ``cli.emit`` exactly as
``dtmpade solve/shoot/series/profile --format json`` would.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS_PATH = Path(__file__).with_name("refs.json")

FREE = "free-convection"
BLASIUS = "blasius"

# relative spread of the seeded Newton start around the CLI's default guess:
# enough to make every request distinct, small enough that the Newton path,
# and so the cost of a request kind, does not depend on the seed (at 1e-3
# the Pr = 1 solve took 28 to 39 trajectories)
SHOOT_GUESS_JITTER = 1e-6
# relative spread of the wall values fed to profiles around the references
PROFILE_WALL_JITTER = 0.02

DEFAULT_GUESS = {FREE: (0.6, -0.6), BLASIUS: (0.3,)}


def manifest(subcommand: str, version: str, **fields) -> dict:
    """A run manifest with the key order and defaults ``dtmpade`` emits."""
    fields.setdefault("digits", 10)
    fields.setdefault("format", "json")
    return {"subcommand": subcommand, "version": version, **dict(sorted(fields.items()))}


def _jitter(rng: random.Random, values, rel: float) -> tuple[float, ...]:
    return tuple(v * (1.0 + rng.uniform(-rel, rel)) for v in values)


def ref_key(problem: str, pr: float) -> str:
    """Key of a pinned reference; Blasius has no Prandtl number."""
    return BLASIUS if problem == BLASIUS else f"{FREE}@{pr:g}"


def load_refs(path: Path = REFS_PATH) -> dict[str, dict]:
    with open(path, encoding="utf-8") as fh:
        return {ref_key(r["problem"], r["pr"]): r for r in json.load(fh)["refs"]}


# ------------------------------------------------------------------ rounds

LADDER_PRS = (0.72, 1.0, 1.5)
LADDER_FREE_DEGREES = range(1, 11)
LADDER_BLASIUS_DEGREES = range(2, 12)


def dtm_ladder_round(rng: random.Random, version: str, refs: dict) -> list[dict]:
    """Every rung of the Pade ladder that ``compare`` walks, once each."""
    out = []
    for pr in LADDER_PRS:
        for mode in ("corrected", "paper"):
            for n in LADDER_FREE_DEGREES:
                out.append(manifest(
                    "solve", version, problem=FREE, pr=pr, pade=n, order=None,
                    mode=mode, tol=1e-10, max_iter=50, guess=None))
    for n in LADDER_BLASIUS_DEGREES:
        out.append(manifest(
            "solve", version, problem=BLASIUS, pr=1.0, pade=n, order=None,
            mode="corrected", tol=1e-10, max_iter=50, guess=None))
    rng.shuffle(out)
    return out


SHOOT_CASES = ((FREE, 0.5), (FREE, 0.72), (FREE, 1.0), (BLASIUS, 1.0))
SHOOT_STEPS = (0.01, 0.02)
# requests per (problem, Pr, step) in a round, 1 where not listed. Blasius
# twice at each step and Pr = 1 twice at step 0.01, so that, whatever the
# number of rounds a run completes, the median request falls inside the
# group of equal-cost requests at step 0.02 (Pr 0.5 and 0.72, 25
# trajectories each) and the tail request, the 11th slowest, inside the
# costliest group (Pr = 1 at step 0.01, 31 trajectories) once a run has six
# rounds. On a boundary between two groups either figure would jump with
# the round count.
SHOOT_COPIES = {(BLASIUS, 1.0, 0.01): 2, (BLASIUS, 1.0, 0.02): 2, (FREE, 1.0, 0.01): 2}


def shoot_oracle_round(rng: random.Random, version: str, refs: dict) -> list[dict]:
    """The RK4 shooting oracle for every case and step size."""
    out = [
        manifest("shoot", version, problem=problem, pr=pr, eta_max=8.0, step=step,
                 tol=1e-8, max_iter=50,
                 guess=_jitter(rng, DEFAULT_GUESS[problem], SHOOT_GUESS_JITTER))
        for problem, pr in SHOOT_CASES for step in SHOOT_STEPS
        for _ in range(SHOOT_COPIES.get((problem, pr, step), 1))
    ]
    rng.shuffle(out)
    return out


SERIES_ORDERS = (101, 301)  # inclusive range of high orders
SERIES_STRATA = 3  # high-order series per problem and round
PROFILE_CASES = ((FREE, 0.72), (FREE, 1.0), (BLASIUS, 1.0))
PROFILE_GRID = "0:2:0.01"
PROFILE_ORDER = 40


def series_profile_round(rng: random.Random, version: str, refs: dict) -> list[dict]:
    """High-order series and dense two-source profiles at wall values near the references.

    Orders are stratified over SERIES_ORDERS so that each round spans the
    whole range whatever the seed.
    """
    lo, hi = SERIES_ORDERS
    width = (hi - lo + 1) // SERIES_STRATA
    out = []
    for problem, pr in ((FREE, 1.0), (BLASIUS, 1.0)):
        ref = refs[ref_key(problem, pr)]
        for stratum in range(SERIES_STRATA):
            a, b = _jitter(rng, (ref["a"], ref["b"] or 0.0), PROFILE_WALL_JITTER)
            out.append(manifest(
                "series", version, problem=problem, pr=pr, a=a, b=b, mode="corrected",
                order=lo + stratum * width + rng.randrange(width)))
    for problem, pr in PROFILE_CASES:
        ref = refs[ref_key(problem, pr)]
        a, b = _jitter(rng, (ref["a"], ref["b"] or 0.0), PROFILE_WALL_JITTER)
        out.append(manifest(
            "profile", version, problem=problem, pr=pr, a=a, b=b, source="both",
            grid=PROFILE_GRID, order=PROFILE_ORDER, mode="corrected", eta_max=8.0,
            step=0.01, tol=1e-8, max_iter=50))
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[random.Random, str, dict], list[dict]]
    cases: tuple[tuple[str, float], ...]  # (problem, Pr) pairs that need a reference


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "dtm_ladder",
            "DTM-Pade solves up the Pade ladder: many short recurrences, Pade builds and "
            "Newton steps, with the ladder's deterministic rejections; shooting is idle.",
            dtm_ladder_round,
            tuple((FREE, pr) for pr in LADDER_PRS) + ((BLASIUS, 1.0),)),
        Workload(
            "shoot_oracle",
            "RK4 shooting solves: pure-Python trajectories under finite-difference Newton; "
            "dtm and pade are idle.",
            shoot_oracle_round,
            SHOOT_CASES),
        Workload(
            "series_profile",
            "Few high-order O(m^2) recurrences, one dense-output RK4 trajectory per profile "
            "and large emitted payloads; no root finding.",
            series_profile_round,
            ((FREE, 1.0), (BLASIUS, 1.0)) + PROFILE_CASES),
    )
}


def missing_refs(workload: Workload, refs: dict) -> list[str]:
    """Reference keys the workload needs but the pinned data lacks."""
    return sorted({ref_key(p, pr) for p, pr in workload.cases} - set(refs))


def rounds(workload: Workload, seed: int, version: str, refs: dict):
    """The workload's endless, seed-determined sequence of rounds."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.make_round(rng, version, refs)


def warmup_requests(workload: Workload, seed: int, version: str, refs: dict,
                    count: int) -> list[dict]:
    """Untimed requests from a stream separate from the measured one."""
    rng = random.Random(f"{workload.name}:{seed}:warmup")
    return workload.make_round(rng, version, refs)[:count]
