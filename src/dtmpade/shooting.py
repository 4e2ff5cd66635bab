"""Classical shooting oracle for the same boundary-value problems.

This module is the independent check on the series pipeline and is kept
deliberately boring: fixed-step classical RK4 on a truncated domain, Newton
on the far-boundary mismatch. Infinity is realized as the truncation point
eta_max, where f'(eta_max) = 0 and theta(eta_max) = 0 (f' = 1 for Blasius)
are imposed; there is no domain mapping.

shoot_solve seeds its fine stage, Newton at the requested step h, with up
to four levels, in the order below (continuation in eta_max, then nested
iteration down a ladder of halving steps; c = COARSE_STEP). Each level
starts from the last root found before it, or the caller's guess. A level that blows up or does
not converge hands on neither root nor Jacobian rows, as if it had not run.
A Newton level's first iteration steps with the rows handed on, which
differ from its own Jacobian by discretisation error, in place of two
forward-difference trajectories; newton_solve falls back to them where
that step fails.

1. Short, on a domain longer than SHORT_ETA_MAX: Newton on eta_max =
   SHORT_ETA_MAX at SHORT_STEP, or h if coarser. f'(eta_max) and
   theta(eta_max) grow exponentially with the error in the guess, over a
   shorter span there, so Newton takes fewer damped trials and blows up
   less often: at Pr 0.5 and 1, 0.32 converges on eta_max = 6 from the
   default guess, where 0.16 and 0.32 blow up on eta_max = 8. Only Blasius
   hands on its rows (they save the middle level one trajectory); for
   free convection, rows from eta_max = 6 cost the middle level more
   trajectories than forward differences.
2. Middle, for h below 2c: Newton at 2c on the full domain, so the damped
   trials run at 50 RK4 steps per trajectory on eta_max = 8.
3. Coarse, for h below c: where rows J were handed on, one chord step,
   x_c = x_m - J^-1 r(x_m) from the middle root x_m, one trajectory at c
   and unverified; otherwise, or where that trajectory raises or the step
   counts as singular, Newton at c. Without this level the fine stage's
   chord step from the middle root often misses tol.
4. Seed and probe, where the middle and coarse levels both gave a root:
   a fixed-step
   RK4 root has the global error C h^4 + O(h^5), so x_m at 2c and x_c at c
   predict the root at h as
   x(h) = x_c + (x_c - x_m) (h^4 - c^4) / (c^4 - (2c)^4), the fine
   stage's seed.
   At the benchmark's free-convection cases its residual at h is 3.9e-8 to
   6.1e-8 (the coarse root's 7.9e-7 to 9.8e-7), still above tol = 1e-8.
   So below c / 2, where the last rows J handed on predict a residual
   |J (x_c - x(h))| above tol, one trajectory at c / 2 from x(c / 2) and
   one chord step with J, unverified, give the probe point, and the seed
   is the extrapolation through x_c and it: 0.75e-9 to 2.0e-9 at h. A probe
   that raises or whose step counts as singular leaves the two-level seed.

The fine stage runs last, from the seed or else the last root, so a
returned root meets tol at h. From the default guess on eta_max = 8, at
steps 0.01 and 0.02, the four levels and the fine stage run 13-16, 7-10,
1, 1 and 1 trajectories at Pr 0.5-1 (1 297 to 1 904 RK4 steps per
request), and 7, 4, 1, none and 1 for Blasius (833 and 1 233 steps).

Free convection integrates the first-order system of
(f, f', f'', theta, theta') with

    f''' = 2 (f')^2 - theta - 3 f f''
    theta'' = -3 Pr f theta'

Blasius integrates (f, f', f'') with f''' = -(1/2) f f''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter, le, mul

from .dtm import Problem, check_prandtl, check_wall_values
from .errors import BlowUpError, NonConvergenceError
from .rootfind import SolveResult, _step, check_signs, check_stopping, initial_guess, newton_solve

_BLOWUP_LIMIT = 1e8
# the coarse level's step; the middle level runs at twice it and the probe
# at half it
COARSE_STEP = 0.08
# the short level's domain and finest step
SHORT_ETA_MAX = 6.0
SHORT_STEP = 4 * COARSE_STEP
# eta_max / step above this is refused, as parse_grid refuses over 10**6
# points: at ~1 us per RK4 step, a trajectory would take 10 s or more
MAX_RK4_STEPS = 10**7


@dataclass(frozen=True)
class ShootConfig:
    """Truncation point, RK4 step and Newton stopping parameters."""

    eta_max: float = 8.0
    step: float = 0.01
    tol: float = 1e-8
    max_iter: int = 50

    def __post_init__(self):
        if not (math.isfinite(self.eta_max) and self.eta_max >= 5):
            raise ValueError(
                "eta_max must be finite and >= 5; the far field is unconverged below that")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and positive")
        if self.eta_max / self.step > MAX_RK4_STEPS:
            raise ValueError(
                f"eta_max / step must be at most {MAX_RK4_STEPS:,} RK4 steps per trajectory")
        check_stopping(self.tol, self.max_iter)


def _blown_up(reached: float) -> BlowUpError:
    return BlowUpError(f"trajectory blew up near eta = {reached:.4g}", eta_reached=reached)


# The steppers run a whole march in one call: for each (eta, h, nsub)
# interval, nsub classical RK4 steps of length h from eta on local floats,
# then the state at the interval's end, one tuple per interval. No stage
# calls a right-hand-side function, whose call cost about a quarter of a
# free-convection step: the derivative of f, f' or theta at a stage is that
# stage's own f', f'' or theta', so each stage computes only f''' (c) and
# theta'' (e). Every sum keeps the operand order of the vector formula
# s + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) with stages s + (h / 2) * k, so the
# trajectories match float64 arrays bit for bit. A component outside
# [-_BLOWUP_LIMIT, _BLOWUP_LIMIT], or NaN, after any step raises
# BlowUpError at that step's end, eta + i h within its interval;
# lo <= x <= hi has the truth value of abs(x) <= hi for every float,
# infinities and NaN included.

def _advance_free_convection(state, intervals, pr: float) -> list[tuple[float, ...]]:
    f, fp, fpp, th, thp = state
    # m = -3 Pr, so m * f * thp groups as the (-3.0 * pr) * f * thp of the ODE
    m = -3.0 * pr
    hi = _BLOWUP_LIMIT
    lo = -hi
    out = []
    for eta, h, nsub in intervals:
        hh = 0.5 * h
        h6 = h / 6.0
        for i in range(nsub):
            c1 = 2.0 * fp * fp - th - 3.0 * f * fpp
            e1 = m * f * thp
            f2 = f + hh * fp
            fp2 = fp + hh * fpp
            fpp2 = fpp + hh * c1
            th2 = th + hh * thp
            thp2 = thp + hh * e1
            c2 = 2.0 * fp2 * fp2 - th2 - 3.0 * f2 * fpp2
            e2 = m * f2 * thp2
            f3 = f + hh * fp2
            fp3 = fp + hh * fpp2
            fpp3 = fpp + hh * c2
            th3 = th + hh * thp2
            thp3 = thp + hh * e2
            c3 = 2.0 * fp3 * fp3 - th3 - 3.0 * f3 * fpp3
            e3 = m * f3 * thp3
            f4 = f + h * fp3
            fp4 = fp + h * fpp3
            fpp4 = fpp + h * c3
            th4 = th + h * thp3
            thp4 = thp + h * e3
            c4 = 2.0 * fp4 * fp4 - th4 - 3.0 * f4 * fpp4
            e4 = m * f4 * thp4
            f = f + h6 * (fp + 2.0 * fp2 + 2.0 * fp3 + fp4)
            fp = fp + h6 * (fpp + 2.0 * fpp2 + 2.0 * fpp3 + fpp4)
            fpp = fpp + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            th = th + h6 * (thp + 2.0 * thp2 + 2.0 * thp3 + thp4)
            thp = thp + h6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
            if not (lo <= f <= hi and lo <= fp <= hi and lo <= fpp <= hi
                    and lo <= th <= hi and lo <= thp <= hi):
                raise _blown_up(eta + (i + 1) * h)
        out.append((f, fp, fpp, th, thp))
    return out


def _advance_blasius(state, intervals) -> list[tuple[float, ...]]:
    f, fp, fpp = state
    hi = _BLOWUP_LIMIT
    lo = -hi
    out = []
    for eta, h, nsub in intervals:
        hh = 0.5 * h
        h6 = h / 6.0
        for i in range(nsub):
            c1 = -0.5 * f * fpp
            f2 = f + hh * fp
            fp2 = fp + hh * fpp
            fpp2 = fpp + hh * c1
            c2 = -0.5 * f2 * fpp2
            f3 = f + hh * fp2
            fp3 = fp + hh * fpp2
            fpp3 = fpp + hh * c2
            c3 = -0.5 * f3 * fpp3
            f4 = f + h * fp3
            fp4 = fp + h * fpp3
            fpp4 = fpp + h * c3
            c4 = -0.5 * f4 * fpp4
            f = f + h6 * (fp + 2.0 * fp2 + 2.0 * fp3 + fp4)
            fp = fp + h6 * (fpp + 2.0 * fpp2 + 2.0 * fpp3 + fpp4)
            fpp = fpp + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            if not (lo <= f <= hi and lo <= fp <= hi and lo <= fpp <= hi):
                raise _blown_up(eta + (i + 1) * h)
        out.append((f, fp, fpp))
    return out


def _march(advance, state, stops, step: float, *args) -> list[tuple[float, ...]]:
    """RK4 from eta = 0 through each stop in one call of advance; the state at every stop.

    The interval from the last stop (or 0) to the next is split into nsub
    equal sub-steps of h = span / nsub, no longer than step, so every stop
    is hit exactly; a stop not past the last one is an interval of no steps.
    advance(state, intervals, *args) runs the (eta, h, nsub) intervals in
    turn, each from its own eta, where a blow-up is placed, and raises
    BlowUpError on one.
    """
    intervals = []
    eta = 0.0
    for stop in stops:
        span = stop - eta
        if span > 0:
            nsub = math.ceil(span / step - 1e-12) or 1
            intervals.append((eta, span / nsub, nsub))
            eta = stop
        else:
            intervals.append((eta, 0.0, 0))
    return advance([float(v) for v in state], intervals, *args)


def boundary_residual(a: float, b: float, pr: float, cfg: ShootConfig) -> tuple[float, float]:
    """(f'(eta_max), theta(eta_max)) for wall derivatives (a, b); a bad pr raises ValueError."""
    check_prandtl(pr)
    check_wall_values(a, b)
    state = _march(_advance_free_convection, [0.0, 0.0, a, 1.0, b], [cfg.eta_max], cfg.step,
                   pr)[-1]
    return state[1], state[3]


def blasius_boundary_residual(a: float, cfg: ShootConfig) -> float:
    """f'(eta_max) - 1 for the Blasius problem."""
    check_wall_values(a)
    state = _march(_advance_blasius, [0.0, 0.0, a], [cfg.eta_max], cfg.step)[-1]
    return state[1] - 1.0


def shoot_solve(
    pr: float,
    cfg: ShootConfig,
    x0=None,
    problem: Problem = Problem.FREE_CONVECTION,
) -> SolveResult:
    """Newton on the far-boundary mismatch at cfg; returns the oracle (A, B).

    x0 (the problem's default guess where None) starts the seeding levels
    of the module docstring, and they seed the fine stage, Newton at cfg,
    so a returned root meets cfg.tol at cfg.step. The result's iterations
    count the fine stage. A root off the signs A > 0, B < 0 warns, as
    solve_problem's does.
    """
    check_prandtl(pr)
    x = initial_guess(problem, x0)
    if problem is Problem.BLASIUS:
        residual = lambda c: lambda x: (blasius_boundary_residual(x[0], c),)
    else:
        residual = lambda c: lambda x: boundary_residual(x[0], x[1], pr, c)
    jac = []

    def newton(level: ShootConfig, x, rows: list | None) -> tuple[float, ...] | None:
        """The root at level from x, or None with jac emptied where Newton fails."""
        try:
            res = newton_solve(residual(level), x, level, rows)
        except (BlowUpError, NonConvergenceError):
            jac.clear()
            return None
        return (res.a,) if res.b is None else (res.a, res.b)

    c = COARSE_STEP
    middle = coarse = None
    if cfg.eta_max > SHORT_ETA_MAX:
        short = replace(cfg, eta_max=SHORT_ETA_MAX, step=max(SHORT_STEP, cfg.step))
        x = newton(short, x, jac if problem is Problem.BLASIUS else None) or x
    if cfg.step < 2 * c:
        middle = newton(replace(cfg, step=2 * c), x, jac)
        x = middle or x
    if cfg.step < c:
        level = replace(cfg, step=c)
        coarse = (_chord(residual, level, x, jac) if jac else None) or newton(level, x, jac)
        x = coarse or x
    if middle and coarse:
        x = _extrapolate(coarse, middle, c, cfg.step)
        shift = [u - v for u, v in zip(coarse, x)]
        predicted = max((abs(math.fsum(map(mul, row, shift))) for row in jac), default=0.0)
        if cfg.step < c / 2 and predicted > cfg.tol:
            half = _extrapolate(coarse, middle, c, c / 2)
            probe = _chord(residual, replace(cfg, step=c / 2), half, jac)
            if probe is not None:
                x = _extrapolate(probe, coarse, c / 2, cfg.step)
    return check_signs(newton_solve(residual(cfg), x, cfg, jac))


def _extrapolate(fine, coarse, step: float, h: float) -> tuple[float, ...]:
    """The root at step h that the roots at step (fine) and 2 * step
    (coarse) predict, with an error C step^4 in each:
    fine + (fine - coarse) (h^4 - step^4) / (step^4 - (2 step)^4)."""
    r = h / step
    w = (1.0 - r * r * r * r) / 15.0
    return tuple(v + (v - u) * w for v, u in zip(fine, coarse))


def _chord(residual, cfg: ShootConfig, x, jac: list) -> tuple[float, ...] | None:
    """x - J^-1 r(x): one trajectory of residual(cfg) and one chord step
    with the rows jac, unverified; None where the trajectory raises, as a
    Newton stage's would, or the step counts as singular."""
    try:
        step = _step(jac, residual(cfg)(x))
    except (BlowUpError, NonConvergenceError):
        return None
    return None if step is None else tuple(v - s for v, s in zip(x, step))


def tabulate_profile(
    a: float,
    b: float,
    pr: float,
    grid,
    cfg: ShootConfig | None = None,
    problem: Problem = Problem.FREE_CONVECTION,
) -> tuple[tuple[float, float, float, float | None], ...]:
    """(eta, f, f', theta) rows at exactly the requested eta values; theta is None for Blasius.

    One march integrates each inter-grid interval with a whole number of
    sub-steps no larger than cfg.step, so grid points are hit without
    interpolation.
    """
    check_prandtl(pr)
    check_wall_values(a, b)
    cfg = cfg or ShootConfig()
    grid = list(map(float, grid))
    if any(map(le, grid[1:], grid)):
        raise ValueError("grid must be strictly increasing")
    if grid and (grid[0] < 0 or grid[-1] > cfg.eta_max + 1e-12):
        raise ValueError(f"grid must lie within [0, eta_max = {cfg.eta_max}]")

    if problem is Problem.BLASIUS:
        states = _march(_advance_blasius, [0.0, 0.0, a], grid, cfg.step)
        theta = repeat(None)
    else:
        states = _march(_advance_free_convection, [0.0, 0.0, a, 1.0, b], grid, cfg.step, pr)
        theta = map(itemgetter(3), states)
    return tuple(zip(grid, map(itemgetter(0), states), map(itemgetter(1), states), theta))
