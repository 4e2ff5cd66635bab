"""Spans around the package's public functions, installed from outside it.

The modules bind each other's functions with ``from ... import``, so a
function is looked up under several names: ``dtm.generate`` is called as
``rootfind.generate`` and ``cli.generate``, ``series.evaluate`` as
``cli.series_evaluate``. ``Tracer.install`` therefore replaces every
attribute of every package module that holds a traced function, and
``Tracer.remove`` puts each original back.

Spans stay in memory: (name, start, end, parent, request, error, work).
``work`` counts what the layer did, where the arguments say it: convolution
summands for ``dtm.generate``, RK4 steps for a trajectory, residual
evaluations for ``newton_solve``.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass
from types import ModuleType

from dtmpade.errors import (
    BlowUpError,
    DegenerateApproximantError,
    NonConvergenceError,
)

TRACED = (
    "cli.execute", "cli.emit",
    "rootfind.solve_problem", "rootfind.newton_solve",
    "rootfind.closure_residual", "rootfind.blasius_closure_residual",
    "shooting.shoot_solve", "shooting.boundary_residual",
    "shooting.blasius_boundary_residual", "shooting.tabulate_profile",
    "pade.build", "pade.limit_at_infinity",
    "dtm.generate",
    "series.differentiate", "series.cauchy_product", "series.evaluate",
)
TRAJECTORIES = ("shooting.boundary_residual", "shooting.blasius_boundary_residual")


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top of a request
    request: int
    start: int = 0  # perf_counter_ns
    end: int = 0
    error: type | None = None  # class of the exception that left the call
    work: int = 0
    iterations: int = -1  # newton_solve only; -1 when unknown


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def generate_terms(params) -> int:
    """Convolution summands one ``dtm.generate`` call evaluates.

    Free convection: three sums of k+1 terms for k = 0..m-2; Blasius: one.
    """
    m = params.order
    if params.problem.value == "blasius":
        return (m - 2) * (m - 1) // 2
    return 3 * (m - 1) * m // 2


def rk4_steps(cfg, eta_reached: float | None = None) -> int:
    """Fixed RK4 steps of one trajectory: ceil(eta_max / step)."""
    end = cfg.eta_max if eta_reached is None else eta_reached
    return math.ceil(end / cfg.step - 1e-9)


def _before_generate(span, args, kwargs):
    span.work = generate_terms(_arg(args, kwargs, 0, "params"))
    return args, kwargs


def _trajectory_hooks(cfg_pos: int):
    def before(span, args, kwargs):
        span.work = rk4_steps(_arg(args, kwargs, cfg_pos, "cfg"))
        return args, kwargs

    def after(span, args, kwargs, result, exc):
        if isinstance(exc, BlowUpError) and exc.eta_reached is not None:
            span.work = rk4_steps(_arg(args, kwargs, cfg_pos, "cfg"), exc.eta_reached)

    return before, after


def _before_newton(span, args, kwargs):
    residual = _arg(args, kwargs, 0, "residual")

    def counted(x):
        span.work += 1
        return residual(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, residual=counted)


def _after_newton(span, args, kwargs, result, exc):
    if exc is None:
        span.iterations = result.iterations
    elif isinstance(exc, NonConvergenceError) and exc.iterations is not None:
        span.iterations = exc.iterations


# name -> (before, after); before may replace the call's arguments
_HOOKS = {
    "dtm.generate": (_before_generate, None),
    "rootfind.newton_solve": (_before_newton, _after_newton),
    "shooting.boundary_residual": _trajectory_hooks(3),
    "shooting.blasius_boundary_residual": _trajectory_hooks(1),
}


class Tracer:
    """Records spans while installed; ``request`` tags the spans it records.

    Installing is cheap after the first time, so a run can trace single
    requests between untraced ones.
    """

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules  # short name -> module, e.g. "cli" -> dtmpade.cli
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._plan: list[tuple[ModuleType, str, object, object]] | None = None
        self._installed = False

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = clock()
                span.error = type(exc)
                if after is not None:
                    after(span, args, kwargs, None, exc)
                raise
            finally:
                stack.pop()
            span.end = clock()
            if after is not None:
                after(span, args, kwargs, result, None)
            return result

        return traced

    def _patches(self) -> list[tuple[ModuleType, str, object, object]]:
        """(module, attribute, original, wrapper) for every name of every traced function."""
        if self._plan is None:
            self._plan = []
            for qualified in TRACED:
                mod_name, fn_name = qualified.split(".")
                original = getattr(self.modules[mod_name], fn_name)
                wrapper = self._wrap(qualified, original)
                for module in self.modules.values():
                    self._plan += [(module, attr, original, wrapper)
                                   for attr, value in vars(module).items() if value is original]
        return self._plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for module, attr, _, wrapper in self._patches():
            setattr(module, attr, wrapper)
        self._installed = True

    def remove(self) -> None:
        for module, attr, original, _ in self._patches():
            setattr(module, attr, original)
        self._installed = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def write(self, path) -> None:
        """One tab-separated line per span, times in ns from the first span."""
        t0 = self.spans[0].start if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tstart_ns\tend_ns\terror\twork\n")
            for i, s in enumerate(self.spans):
                err = s.error.__name__ if s.error is not None else ""
                fh.write(f"{i}\t{s.parent}\t{s.request}\t{s.name}\t{s.start - t0}\t"
                         f"{s.end - t0}\t{err}\t{s.work}\n")


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                   for c in children[i]]
        out.append(s.end - s.start - _covered(clipped))
    return out


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("shooting.trajectories", "count/req", "lower"),
    ("shooting.rk4_steps", "count/req", "lower"),
    ("shooting.trajectory.ms", "ms/req", "lower"),
    ("shooting.ns_per_step", "ns", "lower"),
    ("shooting.tabulate_profile.ms", "ms/req", "lower"),
    ("shooting.blowup", "count/req", "lower"),
    ("rootfind.newton_solve.self_ms", "ms/req", "lower"),
    ("rootfind.newton_iterations", "count/req", "lower"),
    ("rootfind.residual_evals", "count/req", "lower"),
    ("rootfind.useful_eval_ratio", "1", "higher"),
    ("rootfind.useful_eval_base", "count/req", "lower"),
    ("rootfind.nonconvergence", "count/req", "lower"),
    ("rootfind.sign_warnings", "count/req", "lower"),
    ("rootfind.closure_residual.self_ms", "ms/req", "lower"),
    ("rootfind.blasius_closure_residual.self_ms", "ms/req", "lower"),
    ("pade.build.calls", "count/req", "lower"),
    ("pade.build.ms", "ms/req", "lower"),
    ("pade.build.degenerate", "count/req", "lower"),
    ("pade.limit_at_infinity.ms", "ms/req", "lower"),
    ("pade.limit.degenerate", "count/req", "lower"),
    ("dtm.generate.calls", "count/req", "lower"),
    ("dtm.generate.ms", "ms/req", "lower"),
    ("dtm.generate.terms", "count/req", "lower"),
    ("dtm.generate.ns_per_term", "ns", "lower"),
    ("dtm.overflow", "count/req", "lower"),
    ("series.differentiate.ms", "ms/req", "lower"),
    ("series.cauchy_product.ms", "ms/req", "lower"),
    ("series.evaluate.ms", "ms/req", "lower"),
    ("cli.execute.self_ms", "ms/req", "lower"),
    ("cli.emit.ms", "ms/req", "lower"),
    ("cli.emit.bytes", "B/req", "lower"),
    ("trace.spans", "count/req", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_metrics(spans: list[Span], requests: int, emit_bytes: int,
                  sign_warnings: int, overhead_pct: float,
                  scales: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics of a traced pass, per attempted request.

    ``scales[r]``, if given, multiplies every span time of request ``r``
    (the host-speed scale of speed.py). Ratios that have no base in the
    pass (ns per step when no trajectory ran) read 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)  # ns
    own: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    failed: dict[tuple[str, type], int] = defaultdict(int)
    iters = useful = useful_evals = 0
    for s, self_ns in zip(spans, selfs):
        scale = 1.0 if scales is None else scales[s.request]
        calls[s.name] += 1
        total[s.name] += (s.end - s.start) * scale
        own[s.name] += self_ns * scale
        work[s.name] += s.work
        for cls in (BlowUpError, DegenerateApproximantError, NonConvergenceError,
                    OverflowError):
            if s.error is not None and issubclass(s.error, cls):
                failed[s.name, cls] += 1
        if s.name == "rootfind.newton_solve" and s.iterations >= 0:
            iters += s.iterations
            useful += s.iterations + 1
            useful_evals += s.work

    def per_req(x: float) -> float:
        return x / requests

    def ms(ns: float) -> float:
        return per_req(ns / 1e6)

    traj_ns = sum(total[n] for n in TRAJECTORIES)
    steps = sum(work[n] for n in TRAJECTORIES)
    out = {
        "shooting.trajectories": per_req(sum(calls[n] for n in TRAJECTORIES)),
        "shooting.rk4_steps": per_req(steps),
        "shooting.trajectory.ms": ms(traj_ns),
        "shooting.ns_per_step": traj_ns / steps if steps else 0.0,
        "shooting.tabulate_profile.ms": ms(total["shooting.tabulate_profile"]),
        "shooting.blowup": per_req(sum(
            failed[n, BlowUpError] for n in TRAJECTORIES + ("shooting.tabulate_profile",))),
        "rootfind.newton_solve.self_ms": ms(own["rootfind.newton_solve"]),
        "rootfind.newton_iterations": per_req(iters),
        "rootfind.residual_evals": per_req(work["rootfind.newton_solve"]),
        "rootfind.useful_eval_ratio": useful / useful_evals if useful_evals else 0.0,
        "rootfind.useful_eval_base": per_req(useful_evals),
        "rootfind.nonconvergence": per_req(
            failed["rootfind.newton_solve", NonConvergenceError]),
        "rootfind.sign_warnings": per_req(sign_warnings),
        "rootfind.closure_residual.self_ms": ms(own["rootfind.closure_residual"]),
        "rootfind.blasius_closure_residual.self_ms":
            ms(own["rootfind.blasius_closure_residual"]),
        "pade.build.calls": per_req(calls["pade.build"]),
        "pade.build.ms": ms(total["pade.build"]),
        "pade.build.degenerate": per_req(failed["pade.build", DegenerateApproximantError]),
        "pade.limit_at_infinity.ms": ms(total["pade.limit_at_infinity"]),
        "pade.limit.degenerate": per_req(
            failed["pade.limit_at_infinity", DegenerateApproximantError]),
        "dtm.generate.calls": per_req(calls["dtm.generate"]),
        "dtm.generate.ms": ms(total["dtm.generate"]),
        "dtm.generate.terms": per_req(work["dtm.generate"]),
        "dtm.generate.ns_per_term": (total["dtm.generate"] / work["dtm.generate"]
                                     if work["dtm.generate"] else 0.0),
        "dtm.overflow": per_req(failed["dtm.generate", OverflowError]),
        "series.differentiate.ms": ms(total["series.differentiate"]),
        "series.cauchy_product.ms": ms(total["series.cauchy_product"]),
        "series.evaluate.ms": ms(total["series.evaluate"]),
        "cli.execute.self_ms": ms(own["cli.execute"]),
        "cli.emit.ms": ms(total["cli.emit"]),
        "cli.emit.bytes": per_req(emit_bytes),
        "trace.spans": per_req(len(spans)),
        "trace.overhead_pct": overhead_pct,
    }
    return out
