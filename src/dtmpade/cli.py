"""Command-line front end.

Subcommands: series, solve, shoot, profile, compare. Every emitted result
embeds the fully resolved run manifest, which is the run record:
re-running a manifest through execute() reproduces the result, which is
what makes output files self-describing. Exit codes are a contract: 0 success, 1 check failure,
2 usage/precondition, 3 numerical non-convergence, 4 degenerate
approximant, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from itertools import chain, repeat

from . import __version__
from .dtm import Problem, ProblemParams, RecurrenceMode, generate
from .errors import (
    BlowUpError,
    DegenerateApproximantError,
    NonConvergenceError,
)
from .rootfind import ClosureConfig, solve_problem
from .series import evaluate as series_evaluate
from .series import differentiate
from .shooting import ShootConfig, shoot_solve, tabulate_profile

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_DEGENERATE = 4
EXIT_BROKEN_PIPE = 141  # the shell's code for a writer killed by SIGPIPE

# errors of a solve that run() maps to exit 3 or 4
_NUMERICAL_ERRORS = (NonConvergenceError, BlowUpError, OverflowError,
                     DegenerateApproximantError)

# golden coefficients of the published order-6 series at A = B = 1; each
# quotient of integer literals is the float nearest the exact rational
GOLDEN_F = [0.0, 0.0, 1 / 2, -1 / 6, -1 / 24, 1 / 48, -7 / 720]
GOLDEN_THETA = [1.0, 1.0, 0.0, 0.0, -1 / 8, 1 / 40, 1 / 240]


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as UsageError, so run() returns instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:end:step': point i is start + i*step to 12 decimals, below end + step/2.

    Which points lie below end + step/2 is decided on the decimals as
    written, so a point exactly half a step past end is never included.
    Points that coincide after the rounding (a step below 1e-12, or below
    the float spacing at start) are a usage error.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:end:step, got {spec!r}")
    try:
        values = start, end, step = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid values must be numeric, got {spec!r}")
    if not all(math.isfinite(v) for v in values):
        raise UsageError(f"grid values must be finite, got {spec!r}")
    from fractions import Fraction  # only a grid needs it; --version starts without it

    # a value that is 0 as a float counts as 0: so does 1e-400, and a huge
    # exponent such as 0e-99999999 never becomes a power of ten
    lo, hi, width = (Fraction(p.replace("_", "")) if v else Fraction(0)
                     for p, v in zip(parts, values))
    if width <= 0 or hi < lo:
        raise UsageError("grid needs end >= start and step > 0")
    points = math.ceil((hi - lo) / width + Fraction(1, 2))
    if points > 10**6:
        raise UsageError(f"grid {spec!r} has more than 10^6 points")
    grid = [round(start + i * step, 12) for i in range(points)]
    if any(g2 == g1 for g1, g2 in zip(grid, grid[1:])):
        raise UsageError(f"grid {spec!r} repeats points after rounding "
                         "to the 1e-12 point resolution")
    return grid


def parse_guess(spec: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in spec.split(","))
    except ValueError:
        raise UsageError(f"guess must be comma-separated reals, got {spec!r}")


def _digits(spec: str) -> int:
    try:
        digits = int(spec)
    except ValueError:
        digits = -1
    if digits < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {spec!r}")
    return digits


def _degrees(spec: str) -> list[int]:
    try:
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers, got {spec!r}")


# ---------------------------------------------------------------- execution

def execute(manifest: dict) -> dict:
    """Run the computation a manifest describes. Pure function of the manifest."""
    sub = manifest["subcommand"]
    if sub not in _EXECUTORS:
        raise UsageError(f"unknown subcommand {sub!r}")
    return _EXECUTORS[sub](manifest)


def _generate(m: dict):
    return generate(ProblemParams(
        problem=Problem(m["problem"]), pr=m["pr"], a=m["a"], b=m["b"],
        order=m["order"], mode=RecurrenceMode(m["mode"]),
    ))


def _exec_series(m: dict) -> dict:
    sol = _generate(m)
    theta = list(sol.theta_series.coeffs) if sol.theta_series is not None else None
    return {"f_coeffs": list(sol.f_series.coeffs), "theta_coeffs": theta}


def _exec_solve(m: dict) -> dict:
    cfg = ClosureConfig(pade_degree=m["pade"], series_order=m["order"],
                        tol=m["tol"], max_iter=m["max_iter"])
    return asdict(solve_problem(Problem(m["problem"]), m["pr"], cfg,
                                x0=m["guess"], mode=RecurrenceMode(m["mode"])))


def _exec_shoot(m: dict) -> dict:
    cfg = ShootConfig(eta_max=m["eta_max"], step=m["step"], tol=m["tol"],
                      max_iter=m["max_iter"])
    return asdict(shoot_solve(m["pr"], cfg, x0=m["guess"], problem=Problem(m["problem"])))


def _series_profile_columns(m: dict, grid: list[float]) -> tuple:
    sol = _generate(m)
    fp = differentiate(sol.f_series)
    theta = sol.theta_series
    return (list(map(series_evaluate, repeat(sol.f_series), grid)),
            list(map(series_evaluate, repeat(fp), grid)),
            repeat(None) if theta is None else list(map(series_evaluate, repeat(theta), grid)))


def _integrator_profile_columns(m: dict, grid: list[float]) -> tuple:
    # no Newton, no far field: older manifests' eta_max, tol and max_iter are ignored
    rows = tabulate_profile(m["a"], m["b"], m["pr"], grid, m["step"], Problem(m["problem"]))
    return tuple(zip(*rows))[1:]


_PROFILE_COLUMNS = ["eta", "f", "fprime", "theta"]
_PROFILE_SOURCES = {"series": _series_profile_columns,
                    "integrator": _integrator_profile_columns}


def _exec_profile(m: dict) -> dict:
    """(eta, f, f', theta) rows of one source, or of both side by side.

    Each source gives its f, f' and theta columns, and each row is built
    once from the grid and those columns.
    """
    grid = parse_grid(m["grid"])
    source = m["source"]
    if source in _PROFILE_SOURCES:
        columns, sources = list(_PROFILE_COLUMNS), [source]
    elif source == "both":
        columns = ["eta"] + [f"{c}_{s}" for s in _PROFILE_SOURCES for c in _PROFILE_COLUMNS[1:]]
        sources = list(_PROFILE_SOURCES)
    else:
        raise UsageError(f"unknown profile source {source!r}")
    cells = [c for s in sources for c in _PROFILE_SOURCES[s](m, grid)]
    return {"columns": columns, "rows": list(map(list, zip(grid, *cells)))}


def _exec_compare(m: dict) -> dict:
    """One row per Pade rung, each with its status; a rung that fails
    numerically leaves its row's roots null and the ladder goes on.

    The rungs run first, each through solve's own checks, so a usage error
    stops compare before the oracle integrates. The oracle's error wins
    over the rungs'; when no rung converged, the first rung's is raised.
    """
    if not m["pade"]:
        raise UsageError("compare needs at least one Pade degree")
    solved = []
    for n in m["pade"]:
        try:
            solved.append(_exec_solve(dict(m, pade=n, order=None)))
        except _NUMERICAL_ERRORS as exc:
            solved.append(exc)
    oracle = _exec_shoot(dict(m, tol=m["shoot_tol"], guess=None))
    keys = ("a",) if oracle["b"] is None else ("a", "b")
    rows = []
    for n, res in zip(m["pade"], solved):
        ok = not isinstance(res, Exception)
        row = {"pade_degree": n, "status": "ok" if ok else str(res)}
        for k in keys:
            row.update({k: res[k] if ok else None, f"{k}_oracle": oracle[k],
                        f"delta_{k}": abs(res[k] - oracle[k]) if ok else None})
        rows.append(row)
    if all(isinstance(res, Exception) for res in solved):
        raise solved[0]
    return {"oracle": {"a": oracle["a"], "b": oracle["b"]}, "rows": rows}


_EXECUTORS = {"series": _exec_series, "solve": _exec_solve, "shoot": _exec_shoot,
              "profile": _exec_profile, "compare": _exec_compare}


# ----------------------------------------------------------------- emission

def _fmt(x, digits: int) -> str:
    """One csv or table cell; a missing value (JSON null) is an empty field."""
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.{digits}g}"
    return str(x)


# the types json writes as arrays and objects, and the exact types of the
# scalars and rows that one C encoder call lays out (see _json_text)
_CONTAINERS = (list, tuple, dict)
_SCALARS = frozenset({str, int, float, bool, type(None)})
_ROWS = frozenset({list, tuple})
_WRITE_CHUNK = 1 << 16


@functools.cache
def _encoder(indent: str):
    """The C encoder's encode with one item per line at indent.

    CPython up to 3.12 runs json's pure-Python encoder whenever indent is
    set; without indent, and these separators, the C encoder lays out a
    container that holds no container just as indent would inside it.
    """
    return json.JSONEncoder(separators=(",\n" + indent, ": ")).encode


def _is_flat(items) -> bool:
    """Whether every item is of a type json writes as a scalar, checked in C.

    The types must match exactly: a subclass, or any other type, goes down
    _json_text's general path, which gives json.dumps' bytes for it too.
    """
    return _SCALARS.issuperset(map(type, items))


def _json_text(o, indent: str) -> str:
    r"""json.dumps(o, indent=2) for o nested at indent.

    One C call lays out a container that holds no container, a block of
    non-empty rows of scalars, whose rows are then split at the "],\n["
    joins, or the entries of a dict, with null in place of each container.
    Both encoders escape every control character, so a raw newline only
    comes from a separator.
    """
    inner = indent + "  "
    if not isinstance(o, _CONTAINERS) or not o:
        return _encoder(inner)(o)
    brackets = "{}" if isinstance(o, dict) else "[]"
    if _is_flat(o.values() if isinstance(o, dict) else o):
        body = inner + _encoder(inner)(o)[1:-1]
    elif isinstance(o, dict):
        # each container is laid out in place of the null that ends its entry
        stub = {k: None if isinstance(v, _CONTAINERS) else v for k, v in o.items()}
        entries = _encoder(inner)(stub)[1:-1].split(",\n" + inner)
        body = ",\n".join(
            inner + (e[:-4] + _json_text(v, inner) if isinstance(v, _CONTAINERS) else e)
            for e, v in zip(entries, o.values()))
    elif _ROWS.issuperset(map(type, o)) and all(o) and _is_flat(chain.from_iterable(o)):
        cell = inner + "  "
        rows = _encoder(cell)(o)[2:-2].replace(f"],\n{cell}[", f"\n{inner}],\n{inner}[\n{cell}")
        body = f"{inner}[\n{cell}{rows}\n{inner}]"
    else:
        body = ",\n".join(inner + _json_text(v, inner) for v in o)
    return f"{brackets[0]}\n{body}\n{indent}{brackets[1]}"


def emit(manifest: dict, result: dict, stream) -> None:
    """Write the result in the manifest's format.

    json writes exactly json.dumps({"manifest": ..., "result": ...},
    indent=2) and a newline, laid out in C (see _json_text) and written in
    64 KiB pieces. One large write to an unbuffered stdout (PYTHONUNBUFFERED,
    python -u) can end short without an error when the pipe's reader closes
    during it, so the exit would be 0; the next piece's write raises
    BrokenPipeError instead.
    """
    fmt = manifest["format"]
    if fmt == "json":
        text = (f'{{\n  "manifest": {_json_text(manifest, "  ")},\n'
                f'  "result": {_json_text(result, "  ")}\n}}\n')
        for i in range(0, len(text), _WRITE_CHUNK):
            stream.write(text[i:i + _WRITE_CHUNK])
    elif fmt == "csv":
        _emit_csv(manifest, result, stream)
    else:
        _emit_table(manifest, result, stream)


def _tabular(result: dict) -> tuple[list[str], list[list]]:
    """Coerce any result payload into (header, rows) for csv/table output."""
    if "rows" in result and "columns" in result:
        return list(result["columns"]), [list(r) for r in result["rows"]]
    if "rows" in result:  # compare: list of dicts sharing keys
        header = list(result["rows"][0].keys())
        return header, [[r.get(h) for h in header] for r in result["rows"]]
    if "f_coeffs" in result:
        header = ["k", "f_coeff"]
        rows = [[k, c] for k, c in enumerate(result["f_coeffs"])]
        if result.get("theta_coeffs") is not None:
            header.append("theta_coeff")
            for row, c in zip(rows, result["theta_coeffs"]):
                row.append(c)
        return header, rows
    header = list(result.keys())
    return header, [[result[h] for h in header]]


def _emit_csv(manifest: dict, result: dict, stream) -> None:
    digits = manifest["digits"]
    for key, value in manifest.items():
        stream.write(f"# {key}={value}\n")
    header, rows = _tabular(result)
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v, digits) for v in row])


def _emit_table(manifest: dict, result: dict, stream) -> None:
    digits = manifest["digits"]
    stream.write(f"dtmpade {__version__} :: {manifest['subcommand']}\n")
    settings = ", ".join(f"{k}={v}" for k, v in manifest.items()
                         if k not in ("subcommand", "format", "digits", "version"))
    stream.write(f"  [{settings}]\n")
    header, rows = _tabular(result)
    cells = [header] + [[_fmt(v, digits) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for r in cells:
        stream.write("  " + "  ".join(c.rjust(w) for c, w in zip(r, widths)) + "\n")


# -------------------------------------------------------------------- argv

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", default=Problem.FREE_CONVECTION.value,
                   choices=[v.value for v in Problem])
    p.add_argument("--pr", type=float, default=1.0, help="Prandtl number")
    p.add_argument("--format", default="table", choices=["table", "csv", "json"])
    p.add_argument("--digits", type=_digits, default=10,
                   help="significant digits in emitted numbers")
    p.add_argument("--out", default=None, help="write output to this path")
    p.add_argument("--config", default=None,
                   help="key=value file supplying defaults; flags win")


def _add_mode(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default=RecurrenceMode.CORRECTED.value,
                   choices=[v.value for v in RecurrenceMode])


def _add_domain(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta-max", type=float, default=ShootConfig.eta_max)
    p.add_argument("--step", type=float, default=ShootConfig.step)


def _add_newton(p: argparse.ArgumentParser, cfg: type[ClosureConfig | ShootConfig]) -> None:
    p.add_argument("--tol", type=float, default=cfg.tol)
    p.add_argument("--max-iter", type=int, default=cfg.max_iter, help="Newton iteration limit")
    p.add_argument("--guess", type=parse_guess, default=None, help="Newton starting point")


def build_parser() -> argparse.ArgumentParser:
    """Flags of every subcommand; solver defaults come from ClosureConfig/ShootConfig."""
    parser = _ArgumentParser(prog="dtmpade")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("series", help="print the recurrence coefficients")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--a", type=float, default=1.0, help="f''(0)")
    p.add_argument("--b", type=float, default=1.0, help="theta'(0)")
    p.add_argument("--check-paper", action="store_true",
                   help="verify the published order-6 coefficients at A=B=1")

    p = subs.add_parser("solve", help="determine (A, B) from the infinity conditions")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--pade", type=int, default=ClosureConfig.pade_degree,
                   help="diagonal degree n")
    p.add_argument("--order", type=int, default=None,
                   help="series truncation (derived from the degree when omitted)")
    _add_newton(p, ClosureConfig)

    p = subs.add_parser("shoot", help="independent shooting-method oracle")
    _add_common(p)
    _add_domain(p)
    _add_newton(p, ShootConfig)

    p = subs.add_parser("profile", help="tabulate (eta, f, f', theta) on a grid")
    _add_common(p)
    _add_mode(p)
    p.add_argument("--step", type=float, default=ShootConfig.step)
    p.add_argument("--source", default="integrator",
                   choices=["series", "integrator", "both"])
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--grid", default="0:1:0.1")
    p.add_argument("--order", type=int, default=12, help="series order for --source series")

    p = subs.add_parser("compare", help="DTM-Pade roots against the shooting oracle")
    _add_common(p)
    _add_mode(p)
    _add_domain(p)
    p.add_argument("--pade", type=_degrees,
                   default=[ClosureConfig.pade_degree],
                   help="diagonal degree(s), comma separated")
    _add_newton(p, ClosureConfig)
    p.add_argument("--shoot-tol", type=float, default=ShootConfig.tol)
    return parser


def _load_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"config line is not key=value: {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _with_config(argv: list[str]) -> tuple[list[str], list[str]]:
    """argv with the config file's values inserted as flags after the subcommand.

    The inserted --key=value tokens come before every explicit flag, so
    argparse converts them like typed flags and a later explicit flag wins.
    Returns the new argv and the inserted tokens.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    sub = next((i for i, t in enumerate(argv) if not t.startswith("-")), None)
    if path is None or sub is None:
        return argv, []
    tokens = [f"--{key.replace('_', '-')}={value}" for key, value in _load_config(path).items()]
    return argv[:sub + 1] + tokens + argv[sub + 1:], tokens


def _manifest(args: argparse.Namespace) -> dict:
    skip = {"out", "config", "check_paper"}
    m = {"subcommand": args.subcommand, "version": __version__}
    for key, value in sorted(vars(args).items()):
        if key in skip or key == "subcommand":
            continue
        m[key] = value
    return m


def _check_paper() -> int:
    result = _exec_series({"problem": "free-convection", "pr": 1.0, "a": 1.0,
                           "b": 1.0, "order": 6, "mode": "paper"})
    ok = True
    for label, got, want in (("f", result["f_coeffs"], GOLDEN_F),
                             ("theta", result["theta_coeffs"], GOLDEN_THETA)):
        for k, (g, w) in enumerate(zip(got, want)):
            if abs(g - w) > 1e-14:
                print(f"MISMATCH {label}({k}): got {g!r}, expected {w}", file=sys.stderr)
                ok = False
    print("paper series check:", "ok" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def run(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, from_config = _with_config(argv)
        args, extras = parser.parse_known_args(argv)
        unknown = [t.partition("=")[0][2:] for t in extras if t in from_config]
        if unknown:
            raise UsageError(f"config key {unknown[0]!r} is not a flag of {args.subcommand!r}")
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.subcommand == "series" and args.check_paper:
            return _check_paper()
        manifest = _manifest(args)
        result = execute(manifest)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                emit(manifest, result, fh)
        else:
            emit(manifest, result, sys.stdout)
            sys.stdout.flush()
    except BrokenPipeError:
        return EXIT_BROKEN_PIPE
    except (UsageError, ValueError, OSError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NonConvergenceError) and exc.last_iterate is not None:
            print(f"  last iterate: {exc.last_iterate}, residual norm "
                  f"{exc.residual_norm:.3e}", file=sys.stderr)
        degenerate = isinstance(exc, DegenerateApproximantError)
        return EXIT_DEGENERATE if degenerate else EXIT_NO_CONVERGENCE
    return EXIT_OK


def main() -> None:
    code = run()
    if code == EXIT_BROKEN_PIPE:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not raise BrokenPipeError again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
