"""Classical shooting oracle for the same boundary-value problems.

This module is the independent check on the series pipeline and is kept
deliberately boring: fixed-step classical RK4 on a truncated domain, Newton
on the far-boundary mismatch. Infinity is realized as the truncation point
eta_max, where f'(eta_max) = 0 and theta(eta_max) = 0 (f' = 1 for Blasius)
are imposed; there is no domain mapping.

Newton runs in two stages with one stopping rule (nested iteration). For a
requested step of at most COARSE_STEP / COARSE_FACTOR, the coarse stage
solves at COARSE_STEP from the caller's guess, with at most a quarter of the
RK4 steps per trajectory; the fine stage solves at the requested step from
the coarse root, so a returned root meets tol at that step. Its first
iteration reuses the coarse stage's last Jacobian, which differs from the
fine one only by discretisation error, in place of two forward-difference
trajectories (newton_solve falls back to them where that step fails). A
larger step runs the fine stage alone. When the coarse stage blows up or
does not converge, the fine stage starts from the caller's guess, as if the
coarse stage had not run.

Free convection integrates the first-order system of
(f, f', f'', theta, theta') with

    f''' = 2 (f')^2 - theta - 3 f f''
    theta'' = -3 Pr f theta'

Blasius integrates (f, f', f'') with f''' = -(1/2) f f''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .dtm import Problem, check_prandtl, check_wall_values
from .errors import BlowUpError, NonConvergenceError
from .rootfind import SolveResult, check_stopping, initial_guess, newton_solve

_BLOWUP_LIMIT = 1e8
# the coarse Newton stage runs at COARSE_STEP for every requested step of at
# most COARSE_STEP / COARSE_FACTOR (0.02 exactly in floats); at a coarse step
# of 0.16, Pr 0.5 and 1 blew up
COARSE_STEP = 0.08
COARSE_FACTOR = 4


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
        check_stopping(self.tol, self.max_iter)


def _blown_up(reached: float) -> BlowUpError:
    return BlowUpError(f"trajectory blew up near eta = {reached:.4g}", eta_reached=reached)


# The steppers run nsub classical RK4 steps of length h from eta on local
# floats. No stage calls a right-hand-side function, whose call cost about
# a quarter of a free-convection step: the derivative of f, f' or theta at a
# stage is that stage's own f', f'' or theta', so each stage computes only
# f''' (c) and theta'' (e). Every sum keeps the operand order of the vector
# formula s + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) with stages s + (h / 2) * k,
# so the trajectories match float64 arrays bit for bit. A component outside
# [-_BLOWUP_LIMIT, _BLOWUP_LIMIT], or NaN, after any step raises
# BlowUpError; lo <= x <= hi has the truth value of abs(x) <= hi for
# every float, infinities and NaN included.

def _advance_free_convection(state, eta: float, h: float, nsub: int, pr: float) -> list[float]:
    f, fp, fpp, th, thp = state
    # m = -3 Pr, so m * f * thp groups as the (-3.0 * pr) * f * thp of the ODE
    m = -3.0 * pr
    hh = 0.5 * h
    h6 = h / 6.0
    hi = _BLOWUP_LIMIT
    lo = -hi
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
    return [f, fp, fpp, th, thp]


def _advance_blasius(state, eta: float, h: float, nsub: int) -> list[float]:
    f, fp, fpp = state
    hh = 0.5 * h
    h6 = h / 6.0
    hi = _BLOWUP_LIMIT
    lo = -hi
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
    return [f, fp, fpp]


def _march(advance, state, stops, step: float) -> list[list[float]]:
    """RK4 from eta = 0 through each stop; the state at every stop.

    Each interval between stops is split into equal sub-steps no longer than
    step, so every stop is hit exactly; advance(state, eta, h, nsub) takes
    them in one call and raises BlowUpError on a blow-up.
    """
    state = [float(v) for v in state]
    out = []
    eta = 0.0
    for stop in stops:
        span = stop - eta
        if span > 0:
            nsub = max(1, math.ceil(span / step - 1e-12))
            state = advance(state, eta, span / nsub, nsub)
            eta = stop
        out.append(state)
    return out


def boundary_residual(a: float, b: float, pr: float, cfg: ShootConfig) -> tuple[float, float]:
    """(f'(eta_max), theta(eta_max)) for trial wall derivatives (a, b)."""
    check_wall_values(a, b)
    state = _march(partial(_advance_free_convection, pr=pr), [0.0, 0.0, a, 1.0, b],
                   [cfg.eta_max], cfg.step)[-1]
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
    """Newton on the far-boundary mismatch; returns the oracle (A, B).

    A coarse stage at COARSE_STEP seeds the stage at cfg.step whenever
    cfg.step <= COARSE_STEP / COARSE_FACTOR (see the module docstring); the
    result's iterations count the latter.
    """
    check_prandtl(pr)
    x = initial_guess(problem, x0)
    jac = []
    if cfg.step <= COARSE_STEP / COARSE_FACTOR:
        try:
            root = _newton(pr, replace(cfg, step=COARSE_STEP), x, problem, _last_jacobian=jac)
            x = (root.a,) if root.b is None else (root.a, root.b)
        except (BlowUpError, NonConvergenceError):
            jac = []
    return _newton(pr, cfg, x, problem, jac or None)


def _newton(pr: float, cfg: ShootConfig, x, problem: Problem, *args, **kwargs) -> SolveResult:
    """newton_solve on the boundary residual at cfg.step from x; the
    further arguments go to newton_solve."""
    if problem is Problem.BLASIUS:
        residual = lambda x: (blasius_boundary_residual(x[0], cfg),)
    else:
        residual = lambda x: boundary_residual(x[0], x[1], pr, cfg)
    return newton_solve(residual, x, cfg, *args, **kwargs)


def tabulate_profile(
    a: float,
    b: float,
    pr: float,
    grid,
    cfg: ShootConfig | None = None,
    problem: Problem = Problem.FREE_CONVECTION,
) -> tuple[tuple[float, float, float, float | None], ...]:
    """(eta, f, f', theta) rows at exactly the requested eta values; theta is None for Blasius.

    Each inter-grid interval is integrated with a whole number of sub-steps
    no larger than cfg.step, so grid points are hit without interpolation.
    """
    check_prandtl(pr)
    check_wall_values(a, b)
    cfg = cfg or ShootConfig()
    grid = [float(g) for g in grid]
    if any(g2 <= g1 for g1, g2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid and (grid[0] < 0 or grid[-1] > cfg.eta_max + 1e-12):
        raise ValueError(f"grid must lie within [0, eta_max = {cfg.eta_max}]")

    if problem is Problem.BLASIUS:
        advance, state = _advance_blasius, [0.0, 0.0, a]
    else:
        advance, state = partial(_advance_free_convection, pr=pr), [0.0, 0.0, a, 1.0, b]
    states = _march(advance, state, grid, cfg.step)
    return tuple((eta, s[0], s[1], s[3] if len(s) == 5 else None)
                 for eta, s in zip(grid, states))
