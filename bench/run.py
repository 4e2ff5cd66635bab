"""Benchmark of dtmpade through the CLI's own entry points.

Run from the repository root, one workload at a time:

    python3 bench/run.py --workload dtm_ladder --seed 1 --seconds 30 --trace 0

One client in one process issues seeded requests in a closed loop: each
manifest goes through ``cli.execute`` and ``cli.emit(..., format json)``
only after the previous one returned, whole rounds at a time, until
``--seconds`` have passed. Every output is checked; a failed check stops
the run with exit code 1 and no metrics.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` issues every
request a second time, right after its untraced run, with spans around
every public layer function, checks that both emitted the same bytes, and
prints the per-layer metrics of the traced requests with the tracing
overhead (traced over untraced time). The spans are written to bench/out/.
Workloads are defined in workloads.py and the pinned references in
refs.json (regenerated by make_refs.py).

Times are reported at a reference host speed: a fixed kernel, timed
between requests, inside long ones and around each cold start, scales
every measured time to what it would be on a host where the kernel takes
speed.REF_NS (see speed.py). This removes the speed swings of a shared host, which wall
times over one run cannot average out. The wall-clock figures and the
kernel times are kept in the ``info`` line and the run record.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"failed" counts requests whose outcome broke the CLI's exit-code
contract; such a request stops the run, so a printed result has none.
Requests that the CLI rejects with exit code 3 or 4 are answers the
contract allows; they are counted by class and lower success_rate and
solves_per_s.
"""

from __future__ import annotations

import os

# one BLAS thread in this process and in the cold starts it launches;
# set before anything imports numpy
BLAS_PIN = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                 "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD_STARTS = 15
WARMUP_REQUESTS = 3
RERUN_SAMPLE = 3


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class ColdStartFailed(Exception):
    pass


def cold_starts(version: str, probe: speed.SpeedProbe) -> tuple[list[float], list[float]]:
    """Seconds of fresh interpreters running ``dtmpade --version``, each
    scaled to the probe's reference speed by kernel times around it, and
    the same in wall seconds.

    One untimed launch first, so that every timed one finds the bytecode
    cache written.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
    cmd = [sys.executable, "-m", "dtmpade.cli", "--version"]
    scaled, wall = [], []
    before = probe.time()
    for i in range(COLD_STARTS + 1):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter_ns() - t0
        after = probe.time()
        if proc.returncode != 0 or proc.stdout.strip() != version:
            raise ColdStartFailed(f"cold start failed: {proc.returncode} {proc.stdout!r} "
                               f"{proc.stderr!r}")
        if i:
            scaled.append(elapsed * speed.scale(before, after) / 1e9)
            wall.append(elapsed / 1e9)
        before = after
    return scaled, wall


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "dtmpade" / "cli.py").is_file():
        print(f"error: no dtmpade sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import dtmpade
    from dtmpade import cli, dtm, pade, rootfind, series, shooting

    if Path(dtmpade.__file__).resolve().parent != SRC / "dtmpade":
        print(f"error: imported dtmpade from {dtmpade.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracing
    from workloads import WORKLOADS, load_refs, missing_refs, rounds, warmup_requests

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    refs = load_refs()
    missing = missing_refs(workload, refs)
    if missing:
        print(f"error: no pinned reference for {missing}; run bench/make_refs.py",
              file=sys.stderr)
        return 2
    version = dtmpade.__version__
    env = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "blas_pin": BLAS_PIN,
        "load": "closed loop, 1 client, 1 process",
    }
    print("env " + json.dumps(env))

    try:
        probe = speed.SpeedProbe()
        setup, setup_wall = ([], []) if args.trace else cold_starts(version, probe)
        warm = harness.Checker(refs, version)
        for m in warm.pinned_requests() + warmup_requests(
                workload, args.seed, version, refs, WARMUP_REQUESTS):
            warm(harness.issue(m))
        for name in ("golden order-6 series", "paper-mode [3/3] root"):
            if not warm.checked.get(name):
                raise harness.CheckFailed(f"pinned check {name!r} did not run")

        checker = harness.Checker(refs, version)
        modules = {"cli": cli, "dtm": dtm, "pade": pade, "rootfind": rootfind,
                   "series": series, "shooting": shooting, "dtmpade": dtmpade}
        before = {(name, attr): value for name, module in modules.items()
                  for attr, value in vars(module).items()}
        tracer = tracing.Tracer(modules) if args.trace else None
        records, traced, first_round = harness.measure(
            rounds(workload, args.seed, version, refs), args.seconds, checker, probe, tracer)
        if any(getattr(modules[name], attr) is not value
               for (name, attr), value in before.items()):
            raise harness.CheckFailed("tracing left a module attribute replaced")
        rng = random.Random(f"{workload.name}:{args.seed}:rerun")
        for out in rng.sample(first_round, min(RERUN_SAMPLE, len(first_round))):
            if not harness.rerun_matches(out):
                raise harness.CheckFailed(f"re-running {out.manifest} changed its output")

        if tracer is not None:
            metrics, extra = harness.trace_metrics(tracer, records, traced, probe)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.tsv")
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
            records = traced
        else:
            metrics, extra = harness.end_to_end(records, checker, setup, setup_wall, probe)
            units = {name: unit for name, unit, _ in harness.E2E_METRICS}
    except (harness.CheckFailed, ColdStartFailed) as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        return 1

    extra.update(outcomes=dict(Counter(r.cls for r in records)), checks=checker.checked,
                 abs_err_by=checker.abs_err_by, requests=len(records),
                 rounds=len(records) // len(first_round))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print("info " + json.dumps(extra))
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "info": extra, "metrics": metrics}, fh, indent=2)
    print(json.dumps({
        "correct": True, "attempted": len(records), "failed": 0,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
