"""A/B checks of this checkout against another commit, both in one process.

    python tools/ab.py identity --against REV
    python tools/ab.py layers --against REV [--repeat 40]

Both commands export REV's src/dtmpade with `git archive` into a temporary
directory and import it as the package `dtmpade_ab`, next to this
checkout's src/dtmpade; the modules import each other relatively, so the
two never mix. REV may be any commit name git accepts, HEAD included, which
compares the working tree with its last commit.

`identity` runs the first round of every workload of bench/workloads.py
(read, not changed) at seeds 1 and 7 through both packages' cli.execute and
cli.emit with format json, as the benchmark issues them, and prints a
SHA-256 of the emitted bytes per workload and seed for each side; a
request that raises adds its exception class and message instead. It
exits 1 when any pair of hashes differs.

`layers` times fixed calls of the layers that ROADMAP's performance aim
names, best of --repeat rounds that each time a batch of every case on
both sides, the side that runs first alternating, and prints one JSON
object shaped like the `micro` blocks of the BENCH_*.json files: every
pair is [REV, this checkout] in microseconds per call.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
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
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return (into / "src" / "dtmpade").rename(into / ALIAS)


def packages(rev: str, into: Path) -> dict:
    """{"rev": REV's package, "head": this checkout's}, each as a module namespace."""
    export(rev, into)
    sys.path[:0] = [str(into), str(SRC)]
    out = {}
    for side, name in (("rev", ALIAS), ("head", "dtmpade")):
        pkg = importlib.import_module(name)
        out[side] = {mod: importlib.import_module(f"{name}.{mod}")
                     for mod in ("cli", "dtm", "rootfind", "shooting")}
        out[side]["version"] = pkg.__version__
    head_file = Path(sys.modules["dtmpade"].__file__).resolve()
    if head_file.parent != SRC / "dtmpade":
        raise SystemExit(f"imported dtmpade from {head_file}, not {SRC}")
    return out


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


def identity(sides: dict) -> bool:
    sys.path.insert(0, str(BENCH))
    import workloads

    version = sides["head"]["version"]
    refs = workloads.load_refs()
    same = True
    print(f"{'workload':16s} {'seed':>5s} {'requests':>8s}  {'REV sha256':16s}  "
          f"{'checkout sha256':16s}")
    for name, workload in workloads.WORKLOADS.items():
        for seed in SEEDS:
            requests = next(workloads.rounds(workload, seed, version, refs))
            digests = {}
            for side in ("rev", "head"):
                h = hashlib.sha256()
                for m in requests:
                    h.update(_emitted(sides[side]["cli"], m))
                digests[side] = h.hexdigest()
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
    cli, dtm, rootfind, shooting = (pkg[m] for m in ("cli", "dtm", "rootfind", "shooting"))
    grid = cli.parse_grid(PROFILE["grid"])
    blasius = dtm.Problem.BLASIUS
    out = {}
    for eta_max, step in ((6.0, 0.32), (8.0, 0.16), (8.0, 0.01)):
        cfg = shooting.ShootConfig(eta_max=eta_max, step=step)
        out["trajectory_us", f"eta_max_{eta_max:g}_step_{step:g}"] = (
            lambda cfg=cfg: shooting.boundary_residual(0.6421, -0.5671, 1.0, cfg))
    cfg = shooting.ShootConfig()
    out["trajectory_us", "blasius_eta_max_8_step_0.01"] = (
        lambda: shooting.blasius_boundary_residual(0.332, cfg))
    out["tabulate_profile_us", "grid_0:2:0.01"] = (
        lambda: shooting.tabulate_profile(0.6421, -0.5671, 1.0, grid, cfg))
    out["tabulate_profile_us", "blasius_grid_0:2:0.01"] = (
        lambda: shooting.tabulate_profile(0.332, 0.0, 1.0, grid, cfg, problem=blasius))
    for key, m in (("both_grid_0:2:0.01", PROFILE), ("blasius_both_grid_0:2:0.01",
                                                     BLASIUS_PROFILE)):
        m = dict(m, version=pkg["version"])
        result = cli.execute(m)
        out["execute_us", key] = lambda m=m: cli.execute(m)
        out["emit_us", key] = lambda m=m, result=result: cli.emit(m, result, io.StringIO())
    for order in (101, 301):
        params = dtm.ProblemParams(pr=1.0, a=0.6, b=-0.6, order=order)
        out["generate_us", f"order_{order}"] = lambda params=params: dtm.generate(params)
    for n in (3, 5, 9):
        ccfg = rootfind.ClosureConfig(pade_degree=n)
        out["closure_residual_us", f"n_{n}"] = (
            lambda ccfg=ccfg: rootfind.closure_residual(0.6, -0.6, 1.0, ccfg))
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
                     "trajectories and profiles and (0.6, -0.6) for generate and "
                     "closure_residual, Blasius at A = 0.332"}
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("identity", help="hash the emitted bytes of every workload's first round")
    p.add_argument("--against", required=True, metavar="REV")
    p = sub.add_parser("layers", help="interleaved best-of-N timings of each layer")
    p.add_argument("--against", required=True, metavar="REV")
    p.add_argument("--repeat", type=int, default=40)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        sides = packages(args.against, Path(tmp))
        if args.command == "identity":
            return 0 if identity(sides) else 1
        print(json.dumps(layers(sides, args.repeat, args.against), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
