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


def _rhs_free_convection(state, pr: float) -> tuple[float, ...]:
    f, fp, fpp, th, thp = state
    return fp, fpp, 2.0 * fp * fp - th - 3.0 * f * fpp, thp, -3.0 * pr * f * thp


def _rhs_blasius(state) -> tuple[float, ...]:
    f, fp, fpp = state
    return fp, fpp, -0.5 * f * fpp


def _rk4_step(rhs, state, h: float) -> list[float]:
    # componentwise in numpy's operand order, so Python floats match float64 bit for bit
    k1 = rhs(state)
    k2 = rhs([s + 0.5 * h * k for s, k in zip(state, k1)])
    k3 = rhs([s + 0.5 * h * k for s, k in zip(state, k2)])
    k4 = rhs([s + h * k for s, k in zip(state, k3)])
    return [s + h / 6.0 * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


def _march(rhs, state, stops, step: float) -> list[list[float]]:
    """RK4 from eta = 0 through each stop; the state at every stop.

    Each interval between stops is split into equal sub-steps no longer than
    step, so every stop is hit exactly. A state beyond _BLOWUP_LIMIT in
    magnitude, or not finite, raises BlowUpError.
    """
    state = [float(v) for v in state]
    out = []
    eta = 0.0
    for stop in stops:
        span = stop - eta
        if span > 0:
            nsub = max(1, math.ceil(span / step - 1e-12))
            h = span / nsub
            for i in range(nsub):
                state = _rk4_step(rhs, state, h)
                if not all(abs(v) <= _BLOWUP_LIMIT for v in state):
                    reached = eta + (i + 1) * h
                    raise BlowUpError(f"trajectory blew up near eta = {reached:.4g}",
                                      eta_reached=reached)
            eta = stop
        out.append(state)
    return out


def boundary_residual(a: float, b: float, pr: float, cfg: ShootConfig) -> tuple[float, float]:
    """(f'(eta_max), theta(eta_max)) for trial wall derivatives (a, b)."""
    state = _march(lambda s: _rhs_free_convection(s, pr), [0.0, 0.0, a, 1.0, b],
                   [cfg.eta_max], cfg.step)[-1]
    return state[1], state[3]


def blasius_boundary_residual(a: float, cfg: ShootConfig) -> float:
    """f'(eta_max) - 1 for the Blasius problem."""
    state = _march(_rhs_blasius, [0.0, 0.0, a], [cfg.eta_max], cfg.step)[-1]
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
        rhs, state = _rhs_blasius, [0.0, 0.0, a]
    else:
        rhs, state = (lambda s: _rhs_free_convection(s, pr)), [0.0, 0.0, a, 1.0, b]
    states = _march(rhs, state, grid, cfg.step)
    return tuple((eta, s[0], s[1], s[3] if len(s) == 5 else math.nan)
                 for eta, s in zip(grid, states))
