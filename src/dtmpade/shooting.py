"""Classical shooting oracle for the same boundary-value problems.

This module is the independent check on the series pipeline and is kept
deliberately boring: fixed-step classical RK4 on a truncated domain, Newton
on the far-boundary mismatch. Infinity is realized as eta_max plus an
insensitivity check, not a domain mapping.

Free convection integrates the first-order system of
(f, f', f'', theta, theta') with

    f''' = 2 (f')^2 - theta - 3 f f''
    theta'' = -3 Pr f theta'

Blasius integrates (f, f', f'') with f''' = -(1/2) f f''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .dtm import Problem, check_prandtl
from .errors import BlowUpError
from .rootfind import SolveResult, initial_guess, newton_solve

_BLOWUP_LIMIT = 1e8


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
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")


def _rhs_free_convection(f, fp, fpp, th, thp, m):
    # m = -3 Pr, so m * f * thp groups as the (-3.0 * pr) * f * thp of the ODE
    return fp, fpp, 2.0 * fp * fp - th - 3.0 * f * fpp, thp, m * f * thp


def _rhs_blasius(f, fp, fpp):
    return fp, fpp, -0.5 * f * fpp


def _blown_up(reached: float) -> BlowUpError:
    return BlowUpError(f"trajectory blew up near eta = {reached:.4g}", eta_reached=reached)


# The steppers run nsub classical RK4 steps of length h from eta on local
# floats. Every stage sum keeps the operand order of the vector formula
# s + (h / 6) * (k1 + 2 k2 + 2 k3 + k4) with stages s + (h / 2) * k, so the
# trajectories match float64 arrays bit for bit. A component beyond
# _BLOWUP_LIMIT in magnitude, or NaN, after any step raises BlowUpError.

def _advance_free_convection(state, eta: float, h: float, nsub: int, pr: float) -> list[float]:
    f, fp, fpp, th, thp = state
    m = -3.0 * pr
    hh = 0.5 * h
    h6 = h / 6.0
    rhs = _rhs_free_convection
    for i in range(nsub):
        a1, b1, c1, d1, e1 = rhs(f, fp, fpp, th, thp, m)
        a2, b2, c2, d2, e2 = rhs(f + hh * a1, fp + hh * b1, fpp + hh * c1,
                                 th + hh * d1, thp + hh * e1, m)
        a3, b3, c3, d3, e3 = rhs(f + hh * a2, fp + hh * b2, fpp + hh * c2,
                                 th + hh * d2, thp + hh * e2, m)
        a4, b4, c4, d4, e4 = rhs(f + h * a3, fp + h * b3, fpp + h * c3,
                                 th + h * d3, thp + h * e3, m)
        f = f + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        fp = fp + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        fpp = fpp + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        th = th + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        thp = thp + h6 * (e1 + 2.0 * e2 + 2.0 * e3 + e4)
        if not (abs(f) <= _BLOWUP_LIMIT and abs(fp) <= _BLOWUP_LIMIT
                and abs(fpp) <= _BLOWUP_LIMIT and abs(th) <= _BLOWUP_LIMIT
                and abs(thp) <= _BLOWUP_LIMIT):
            raise _blown_up(eta + (i + 1) * h)
    return [f, fp, fpp, th, thp]


def _advance_blasius(state, eta: float, h: float, nsub: int) -> list[float]:
    f, fp, fpp = state
    hh = 0.5 * h
    h6 = h / 6.0
    rhs = _rhs_blasius
    for i in range(nsub):
        a1, b1, c1 = rhs(f, fp, fpp)
        a2, b2, c2 = rhs(f + hh * a1, fp + hh * b1, fpp + hh * c1)
        a3, b3, c3 = rhs(f + hh * a2, fp + hh * b2, fpp + hh * c2)
        a4, b4, c4 = rhs(f + h * a3, fp + h * b3, fpp + h * c3)
        f = f + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        fp = fp + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        fpp = fpp + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        if not (abs(f) <= _BLOWUP_LIMIT and abs(fp) <= _BLOWUP_LIMIT
                and abs(fpp) <= _BLOWUP_LIMIT):
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
    state = _march(partial(_advance_free_convection, pr=pr), [0.0, 0.0, a, 1.0, b],
                   [cfg.eta_max], cfg.step)[-1]
    return state[1], state[3]


def blasius_boundary_residual(a: float, cfg: ShootConfig) -> float:
    """f'(eta_max) - 1 for the Blasius problem."""
    state = _march(_advance_blasius, [0.0, 0.0, a], [cfg.eta_max], cfg.step)[-1]
    return state[1] - 1.0


def shoot_solve(
    pr: float,
    cfg: ShootConfig,
    x0=None,
    problem: Problem = Problem.FREE_CONVECTION,
) -> SolveResult:
    """Newton on the far-boundary mismatch; returns the oracle (A, B)."""
    check_prandtl(pr)
    if problem is Problem.BLASIUS:
        residual = lambda x: (blasius_boundary_residual(x[0], cfg),)
    else:
        residual = lambda x: boundary_residual(x[0], x[1], pr, cfg)
    return newton_solve(residual, initial_guess(problem, x0), cfg)


def tabulate_profile(
    a: float,
    b: float,
    pr: float,
    grid,
    cfg: ShootConfig | None = None,
    problem: Problem = Problem.FREE_CONVECTION,
) -> tuple[tuple[float, float, float, float], ...]:
    """(eta, f, f', theta) rows at exactly the requested eta values.

    Each inter-grid interval is integrated with a whole number of sub-steps
    no larger than cfg.step, so grid points are hit without interpolation.
    """
    check_prandtl(pr)
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
    return tuple((eta, s[0], s[1], s[3] if len(s) == 5 else math.nan)
                 for eta, s in zip(grid, states))
