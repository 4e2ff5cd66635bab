"""Issue requests through the CLI's entry points, classify them, check them.

A request is one manifest passed to ``cli.execute`` and emitted with
``cli.emit`` into memory, timed together, as one closed-loop client would
see it. Its outcome class follows the exit-code contract of ``cli.run``:
0 success, 3 numerical non-convergence (Newton, RK4 blow-up, coefficient
overflow), 4 degenerate approximant. Anything ``cli.run`` would map to
another code is a fault of the run and stops the benchmark.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import resource
import statistics
import time
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

from dtmpade import cli, rootfind, shooting
from dtmpade.dtm import RecurrenceMode
from dtmpade.errors import (
    BlowUpError,
    DegenerateApproximantError,
    DegenerateLimitError,
    NonConvergenceError,
)
from dtmpade.rootfind import ClosureConfig
from dtmpade.shooting import ShootConfig

import speed
import tracing
from workloads import BLASIUS, FREE, manifest, ref_key

PAPER_ROOT = (0.5506447081, -0.8654409691)  # published paper-mode [3/3] root at Pr = 1
PAPER_ROOT_TOL = 1e-6
OSTRACH_PR1 = (0.6421, -0.5671)  # shooting root at Pr = 1
OSTRACH_TOL = 5e-4
SHOOT_REF_TOL = 1e-3  # eta_max = 8 truncation error of the oracle is ~2e-4
GOLDEN_TOL = 1e-14  # as in ``dtmpade series --check-paper``
NEAR_WALL = 1.0  # series and integrator profiles must agree up to this eta
NEAR_WALL_TOL = 1e-8
PREFIX_ORDER = 10
SIGN_WARNING = "violates the expected signs"


class CheckFailed(Exception):
    """An output of the program is wrong; the run reports no metrics."""


def classify(exc: BaseException) -> tuple[int, str] | None:
    """(exit code, class) that ``cli.run`` gives an exception, or None if it
    would give neither 3 nor 4."""
    if isinstance(exc, (cli.UsageError, ValueError)):
        return None  # cli.run checks these first and answers 2
    if isinstance(exc, NonConvergenceError):
        return 3, "rootfind.nonconvergence"
    if isinstance(exc, BlowUpError):
        return 3, "shooting.blowup"
    if isinstance(exc, OverflowError):
        return 3, "dtm.overflow"
    if isinstance(exc, DegenerateApproximantError):
        # the closures re-raise the Pade layer's error with context; its
        # cause says whether the fit or its limit at infinity degenerated
        while exc.__cause__ is not None:
            exc = exc.__cause__
        stage = "limit" if isinstance(exc, DegenerateLimitError) else "build"
        return 4, f"pade.{stage}.degenerate"
    return None


@dataclass
class Outcome:
    manifest: dict
    start: int  # perf_counter_ns when the request was issued
    ns: int
    exit_code: int
    cls: str  # "ok" or the failure class
    result: dict | None
    text: str  # emitted JSON, or "<class>: <message>" for a failure
    emit_bytes: int
    sign_warnings: int

    @property
    def digest(self) -> bytes:
        return hashlib.blake2b(self.text.encode(), digest_size=16).digest()


def issue(m: dict) -> Outcome:
    """Run one request; only ``execute`` and ``emit`` fall inside the timing."""
    buf = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter_ns()
        try:
            result = cli.execute(m)
            cli.emit(m, result, buf)
        except Exception as exc:
            ns = time.perf_counter_ns() - t0
            mapped = classify(exc)
            if mapped is None:
                raise CheckFailed(
                    f"request outside the exit-code contract: {type(exc).__name__}: {exc} "
                    f"for {m}") from exc
            code, cls = mapped
            out = Outcome(m, t0, ns, code, cls, None, f"{type(exc).__name__}: {exc}", 0, 0)
        else:
            ns = time.perf_counter_ns() - t0
            text = buf.getvalue()
            out = Outcome(m, t0, ns, 0, "ok", result, text, len(text.encode()), 0)
    out.sign_warnings = sum(SIGN_WARNING in str(w.message) for w in caught)
    return out


@dataclass
class Checker:
    """Checks every successful output and gathers the accuracy figures."""

    refs: dict
    version: str
    abs_err_max: float = 0.0
    abs_err_by: dict = field(default_factory=dict)  # "a"/"b"/"profile" -> max
    checked: dict = field(default_factory=dict)  # check name -> times applied

    def _count(self, name: str) -> None:
        self.checked[name] = self.checked.get(name, 0) + 1

    def _err(self, kind: str, value: float) -> None:
        self.abs_err_by[kind] = max(self.abs_err_by.get(kind, 0.0), value)
        self.abs_err_max = max(self.abs_err_max, value)

    def __call__(self, out: Outcome) -> None:
        if out.exit_code != 0:
            return
        sub = out.manifest["subcommand"]
        getattr(self, f"_check_{sub}")(out.manifest, out.result)

    def _root_errors(self, m: dict, res: dict) -> None:
        ref = self.refs[ref_key(m["problem"], m["pr"])]
        self._err("a", abs(res["a"] - ref["a"]))
        if res["b"] is not None:
            self._err("b", abs(res["b"] - ref["b"]))

    def _check_solve(self, m: dict, res: dict) -> None:
        cfg = ClosureConfig(pade_degree=m["pade"], series_order=m["order"],
                            tol=m["tol"], max_iter=m["max_iter"])
        if m["problem"] == BLASIUS:
            norm = abs(rootfind.blasius_closure_residual(res["a"], cfg))
        else:
            r = rootfind.closure_residual(res["a"], res["b"], m["pr"], cfg,
                                          RecurrenceMode(m["mode"]))
            norm = max(abs(v) for v in r)
        self._count("closure residual within tol")
        if not norm <= m["tol"]:
            raise CheckFailed(f"root {res} has closure residual {norm:.3e} > tol for {m}")
        if (m["problem"], m["pr"], m["mode"], m["pade"], m["order"]) == (
                FREE, 1.0, "paper", 3, None):
            self._count("paper-mode [3/3] root")
            if max(abs(res["a"] - PAPER_ROOT[0]), abs(res["b"] - PAPER_ROOT[1])) > PAPER_ROOT_TOL:
                raise CheckFailed(f"paper-mode [3/3] root {res} differs from {PAPER_ROOT}")
        self._root_errors(m, res)

    def _check_shoot(self, m: dict, res: dict) -> None:
        cfg = ShootConfig(eta_max=m["eta_max"], step=m["step"], tol=m["tol"],
                          max_iter=m["max_iter"])
        if m["problem"] == BLASIUS:
            norm = abs(shooting.blasius_boundary_residual(res["a"], cfg))
        else:
            norm = max(abs(v) for v in shooting.boundary_residual(
                res["a"], res["b"], m["pr"], cfg))
        self._count("boundary residual within tol")
        if not norm <= m["tol"]:
            raise CheckFailed(f"root {res} has boundary residual {norm:.3e} > tol for {m}")
        if m["problem"] == FREE and m["pr"] == 1.0:
            self._count("shooting root at Pr = 1")
            if max(abs(res["a"] - OSTRACH_PR1[0]), abs(res["b"] - OSTRACH_PR1[1])) > OSTRACH_TOL:
                raise CheckFailed(f"shooting root {res} at Pr = 1 differs from {OSTRACH_PR1}")
        ref = self.refs[ref_key(m["problem"], m["pr"])]
        self._count("shooting root near reference")
        if abs(res["a"] - ref["a"]) > SHOOT_REF_TOL or (
                res["b"] is not None and abs(res["b"] - ref["b"]) > SHOOT_REF_TOL):
            raise CheckFailed(f"shooting root {res} is far from the reference {ref}")
        self._root_errors(m, res)

    def _check_series(self, m: dict, res: dict) -> None:
        f, theta = res["f_coeffs"], res["theta_coeffs"]
        want_theta = m["order"] + 1 if m["problem"] == FREE else None
        if len(f) != m["order"] + 1 or (None if theta is None else len(theta)) != want_theta:
            raise CheckFailed(f"series of order {m['order']} has the wrong length")
        if not all(math.isfinite(c) for c in f + (theta or [])):
            raise CheckFailed(f"non-finite series coefficient for {m}")
        if (m["problem"], m["pr"], m["mode"], m["order"], m["a"], m["b"]) == (
                FREE, 1.0, "paper", 6, 1.0, 1.0):
            self._count("golden order-6 series")
            for got, want in ((f, cli.GOLDEN_F), (theta, cli.GOLDEN_THETA)):
                if any(abs(g - float(w)) > GOLDEN_TOL for g, w in zip(got, want)):
                    raise CheckFailed(f"order-6 paper series {got} differs from {want}")
        if m["order"] > PREFIX_ORDER:
            # the recurrence never revisits a coefficient, so a low-order
            # run must reproduce the leading coefficients bit for bit
            low = cli.execute(dict(m, order=PREFIX_ORDER))
            self._count("series prefix stable")
            if low["f_coeffs"] != f[:PREFIX_ORDER + 1] or (
                    theta is not None and low["theta_coeffs"] != theta[:PREFIX_ORDER + 1]):
                raise CheckFailed(f"leading coefficients change with the order for {m}")

    def _check_profile(self, m: dict, res: dict) -> None:
        grid = cli.parse_grid(m["grid"])
        if [row[0] for row in res["rows"]] != grid:
            raise CheckFailed(f"profile rows do not follow the grid {m['grid']}")
        if m["source"] != "both":
            return
        pairs = ((1, 4), (2, 5)) if m["problem"] == BLASIUS else ((1, 4), (2, 5), (3, 6))
        dev = max(abs(row[i] - row[j]) for row in res["rows"] if row[0] <= NEAR_WALL
                  for i, j in pairs)
        self._count("series and integrator agree near the wall")
        if not dev <= NEAR_WALL_TOL:
            raise CheckFailed(f"series and integrator differ by {dev:.3e} near the wall for {m}")
        self._err("profile", dev)

    def pinned_requests(self) -> list[dict]:
        """Requests whose answers are pinned independently of the references."""
        return [
            manifest("series", self.version, problem=FREE, pr=1.0, a=1.0, b=1.0,
                     mode="paper", order=6),
            manifest("solve", self.version, problem=FREE, pr=1.0, pade=3, order=None,
                     mode="paper", tol=1e-10, max_iter=50, guess=None),
        ]


def rerun_matches(out: Outcome) -> bool:
    """Whether the request, run again from its emitted manifest, emits the same text."""
    m = json.loads(out.text)["manifest"] if out.exit_code == 0 else out.manifest
    return issue(m).text == out.text


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile with at least
    ten samples beyond it; the maximum when there are too few samples."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


class Record(NamedTuple):
    """What the run keeps of one measured request."""
    ns: int  # without the kernel timings that interrupted the request
    scale: float  # host-speed factor from the kernel timings around and in the request
    exit_code: int
    cls: str
    digest: bytes
    emit_bytes: int
    sign_warnings: int

    @property
    def scaled_ms(self) -> float:
        return self.ns * self.scale / 1e6

    @classmethod
    def of(cls, out: Outcome, ns: int, scale: float) -> "Record":
        return cls(ns, scale, out.exit_code, out.cls, out.digest, out.emit_bytes,
                   out.sign_warnings)


def measure(stream, seconds: float, checker: Checker, probe: speed.SpeedProbe,
            tracer: tracing.Tracer | None = None):
    """Issue whole rounds until ``seconds`` have passed, checking every output.

    The probe times its kernel between every two requests and, every
    speed.INSIDE_S, inside a request; each request is scaled by the kernel
    times on either side of it and inside it. With a tracer, every request
    is issued again under it right after its untraced run, and the two
    must emit the same bytes; traced requests are not interrupted, so that
    their spans hold no kernel time. Returns the untraced records, the
    traced ones and the full outcomes of the first round, from which the
    re-run sample is drawn.
    """
    records, traced, first_round = [], [], None
    before = probe.time()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        outs = []
        for m in next(stream):
            with probe.inside() as interrupts:
                out = issue(m)
            after = probe.time()
            checker(out)
            ns, inside = speed.uninterrupted(out.start, out.ns, interrupts)
            records.append(Record.of(out, ns, speed.scale(before, *inside, after)))
            outs.append(out)
            before = after
            if tracer is not None:
                tracer.request = len(traced)
                with tracer:
                    plain = issue(m)
                after = probe.time()
                again = Record.of(plain, plain.ns, speed.scale(before, after))
                before = after
                if (again.exit_code, again.cls, again.digest) != (
                        out.exit_code, out.cls, out.digest):
                    raise CheckFailed(f"output differs with tracing on for {m}")
                traced.append(again)
        if first_round is None:
            first_round = outs
    return records, traced, first_round


# (name, unit, better) of every end-to-end metric, in report order
E2E_METRICS = (
    ("solves_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("success_rate", "1", "higher"),
    ("abs_err_max", "1", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def end_to_end(records: list[Record], checker: Checker, setup: list[float],
               setup_wall: list[float], probe: speed.SpeedProbe):
    """End-to-end metrics of an untraced pass, and what they rest on.

    Request times and ``setup`` (cold starts, already scaled) are at the
    probe's reference speed; the wall-clock figures go into the extras.
    """
    lat_ms = [r.scaled_ms for r in records]
    ok = sum(r.exit_code == 0 for r in records)
    tail_ms, tail_pct, samples = tail(lat_ms)
    metrics = {
        "solves_per_s": ok / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "success_rate": ok / len(records),
        "abs_err_max": checker.abs_err_max,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall_ms = [r.ns / 1e6 for r in records]
    extra = {"latency_tail_percentile": tail_pct, "latency_samples": samples,
             "setup_runs_s": setup, "wall_setup_runs_s": setup_wall,
             "wall_setup_s": statistics.median(setup_wall),
             "wall_solves_per_s": ok / (sum(wall_ms) / 1e3),
             "wall_latency_p50_ms": statistics.median(wall_ms),
             "wall_latency_tail_ms": tail(wall_ms)[0],
             **probe.summary(),
             "sign_warnings": sum(r.sign_warnings for r in records)}
    return metrics, extra


def trace_metrics(tracer: tracing.Tracer, untraced: list[Record], traced: list[Record],
                  probe: speed.SpeedProbe):
    """Per-layer metrics of the traced requests, and the tracing overhead.

    Span times are scaled to the probe's reference speed; the overhead
    compares wall times, since each traced request ran right after its
    untraced twin.
    """
    untraced_ns = sum(r.ns for r in untraced)
    traced_ns = sum(r.ns for r in traced)
    metrics = tracing.layer_metrics(
        tracer.spans, len(traced), sum(r.emit_bytes for r in traced),
        sum(r.sign_warnings for r in traced), 100.0 * (traced_ns / untraced_ns - 1.0),
        scales=[r.scale for r in traced])
    extra = {"untraced_p50_ms": statistics.median(r.ns for r in untraced) / 1e6,
             "traced_p50_ms": statistics.median(r.ns for r in traced) / 1e6,
             "untraced_total_s": untraced_ns / 1e9, "traced_total_s": traced_ns / 1e9,
             "spans": len(tracer.spans), **probe.summary()}
    return metrics, extra
