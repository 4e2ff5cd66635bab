"""Closing the semi-infinite boundary conditions and solving for (A, B).

The far-field conditions f'(inf) = 0 and theta(inf) = 0 are imposed on
diagonal rational approximants of the generated series: the limit of an
[n/n] quotient at infinity is the ratio of its leading coefficients, so
each condition becomes one scalar equation in the unknown initial
derivatives. A damped Newton iteration with a forward-difference Jacobian
solves the resulting 2x2 (free convection) or 1x1 (Blasius) system.

Paper-fidelity mode mirrors the published computation exactly: the f-series
is the order-2n polynomial, so its derivative is one coefficient short of
the 2n needed by the [n/n] fit and is zero-padded, exactly as a finite
polynomial is treated by a CAS. Corrected mode generates order 2n+1 and
uses the true derivative coefficient throughout.

The Blasius series only contains powers 2, 5, 8, ... of the similarity
variable, which makes every diagonal fit in that variable exactly singular.
Its closure therefore compresses to u = eta^3: with f' = eta * g(eta^3),
the condition f'(inf) = 1 becomes lim_u u * g(u)^3 = 1, imposed through an
[n-1/n] fit of g^3 whose numerator is lifted by one degree.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import pade
from .dtm import DtmSolution, Problem, ProblemParams, RecurrenceMode, generate
from .errors import (
    DegenerateApproximantError,
    NonConvergenceError,
    SingularJacobianError,
)
from .series import TruncatedSeries, cauchy_product, differentiate

# Newton starting points; free convection has the physically expected signs A > 0, B < 0
DEFAULT_GUESS = {Problem.FREE_CONVECTION: (0.6, -0.6), Problem.BLASIUS: (0.3,)}
FD_STEP = 1e-7  # forward-difference Jacobian step
DAMPING = 0.5  # step shrink factor when the residual norm does not drop


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs for the closure equations and the Newton stopping rule.

    series_order = None derives the order from the Pade degree: 2n+1 in
    corrected mode, 2n (the published window) in paper-fidelity mode.
    """

    pade_degree: int = 3
    series_order: int | None = None
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.pade_degree < 1:
            raise ValueError("pade_degree must be >= 1")
        if self.series_order is not None and self.series_order < 2 * self.pade_degree:
            raise ValueError(
                f"series_order must be >= {2 * self.pade_degree} for an "
                f"[{self.pade_degree}/{self.pade_degree}] fit"
            )
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")

    def f_order(self, mode: RecurrenceMode) -> int:
        if self.series_order is not None:
            return self.series_order
        n = self.pade_degree
        return 2 * n if mode is RecurrenceMode.PAPER_FIDELITY else 2 * n + 1


@dataclass(frozen=True)
class SolveResult:
    """The root Newton found, its residual infinity-norm and the iterations taken."""

    a: float
    b: float | None
    residual_norm: float
    iterations: int


def _fprime_coeffs(sol: DtmSolution, n: int) -> TruncatedSeries:
    """Series of f' with enough coefficients for the [n/n] fit.

    A short derivative (paper-fidelity window) is padded with zeros: the
    generated polynomial simply has no higher terms.
    """
    d = list(differentiate(sol.f_series, 1).coeffs)
    if len(d) < 2 * n + 1:
        d += [0.0] * (2 * n + 1 - len(d))
    return TruncatedSeries(tuple(d))


def closure_residual(
    a: float,
    b: float,
    pr: float,
    cfg: ClosureConfig,
    mode: RecurrenceMode = RecurrenceMode.CORRECTED,
) -> tuple[float, float]:
    """Free-convection far-field residuals (limit of f'-fit, limit of theta-fit)."""
    n = cfg.pade_degree
    # the recurrence needs order >= 3; validation already keeps f_order >= 2n
    order = max(cfg.f_order(mode), 3)
    sol = generate(
        ProblemParams(Problem.FREE_CONVECTION, pr=pr, a=a, b=b, order=order, mode=mode)
    )
    limits = []
    for label, coeffs in (("f'", _fprime_coeffs(sol, n)), ("theta", sol.theta_series)):
        try:
            limits.append(pade.limit_at_infinity(pade.build(coeffs, n, n)))
        except DegenerateApproximantError as exc:
            raise DegenerateApproximantError(f"{label}-approximant: {exc}") from exc
    return tuple(limits)


def blasius_closure_residual(a: float, cfg: ClosureConfig) -> float:
    """Blasius far-field residual: lim u * g(u)^3 - 1 in the cube variable.

    The series order is fixed by the degree, so cfg.series_order must be None.
    """
    if cfg.series_order is not None:
        raise ValueError("the Blasius closure derives its series order from the Pade degree")
    n = cfg.pade_degree
    order = 6 * n + 2  # f' index 3*(2n)+1 needs f-coefficients up to 6n+2
    sol = generate(ProblemParams(Problem.BLASIUS, a=a, order=order))
    fp = differentiate(sol.f_series, 1).coeffs
    g = TruncatedSeries(tuple(fp[3 * j + 1] for j in range(2 * n + 1)))
    h = cauchy_product(cauchy_product(g, g), g)
    # the cube-variable coefficients decay fast; rescale u = s*v to balance
    # their magnitudes, which keeps the fit's linear system well conditioned.
    # The limit transforms as lim u*H(u) = s * lim v*Ht(v).
    nonzero = [(k, abs(c)) for k, c in enumerate(h.coeffs) if k > 0 and c != 0.0]
    scale_s = 1.0
    if h.coeffs[0] != 0.0 and nonzero:
        k_last, c_last = nonzero[-1]
        scale_s = (abs(h.coeffs[0]) / c_last) ** (1.0 / k_last)
    h_scaled = TruncatedSeries(tuple(c * scale_s**k for k, c in enumerate(h.coeffs)))
    try:
        r = pade.build(h_scaled, n - 1, n)
        # multiply the numerator by v so both degrees are n, then take the limit
        lifted = pade.RationalApproximant((0.0,) + r.numerator, r.denominator)
        limit = scale_s * pade.limit_at_infinity(lifted)
    except DegenerateApproximantError as exc:
        raise DegenerateApproximantError(f"f'-approximant (cube variable): {exc}") from exc
    return limit - 1.0


def initial_guess(problem: Problem, x0: Sequence[float] | None = None) -> tuple[float, ...]:
    """The Newton starting point: x0, or the problem's DEFAULT_GUESS when None.

    Raises ValueError unless x0 holds one finite value per unknown.
    """
    if x0 is None:
        return DEFAULT_GUESS[problem]
    x = tuple(float(v) for v in x0)
    d = len(DEFAULT_GUESS[problem])
    if len(x) != d or not all(math.isfinite(v) for v in x):
        raise ValueError(f"{problem.value} needs a guess of {d} finite value(s), got {x0}")
    return x


def _inf_norm(r: Sequence[float]) -> float:
    """max |r_i|; NaN if any r_i is NaN, so a NaN residual never counts as converged."""
    norm = max(abs(v) for v in r)
    return norm if all(v == v for v in r) else math.nan


def newton_solve(
    residual: Callable[[tuple[float, ...]], Sequence[float]],
    x0: Sequence[float],
    cfg,
) -> SolveResult:
    """Damped Newton with a forward-difference Jacobian (step FD_STEP).

    The iterate is a tuple of floats and residual maps it to a sequence of
    floats; numpy only solves the d x d Jacobian system. cfg is anything with
    tol and max_iter (a ClosureConfig or ShootConfig). Stops when the residual
    infinity-norm drops to cfg.tol. A step that does not decrease the norm is
    shrunk by DAMPING up to 8 times before the iteration is declared stagnant.
    """
    x = tuple(float(v) for v in x0)
    d = len(x)
    r = residual(x)
    norm = _inf_norm(r)

    for it in range(cfg.max_iter + 1):
        if norm <= cfg.tol:
            return SolveResult(x[0], x[1] if d > 1 else None, norm, it)
        if it == cfg.max_iter:
            raise NonConvergenceError(
                f"no convergence in {cfg.max_iter} iterations (norm {norm:.3e})",
                last_iterate=x,
                residual_norm=norm,
                iterations=it,
            )
        columns = []
        for j in range(d):
            xp = list(x)
            xp[j] += FD_STEP
            columns.append([(p - q) / FD_STEP for p, q in zip(residual(tuple(xp)), r)])
        jac = np.array(columns).T

        row_scale = np.max(np.abs(jac), axis=1)
        if np.any(row_scale == 0.0) or abs(np.linalg.det(jac / row_scale[:, None])) < 1e-14:
            raise SingularJacobianError(
                "Jacobian is singular at the current iterate",
                last_iterate=x,
                residual_norm=norm,
                iterations=it,
            )
        step = np.linalg.solve(jac, r).tolist()

        lam = 1.0
        for _ in range(9):
            x_new = tuple(v - lam * s for v, s in zip(x, step))
            r_new = residual(x_new)
            norm_new = _inf_norm(r_new)
            if norm_new < norm:
                break
            lam *= DAMPING
        else:
            raise NonConvergenceError(
                f"stagnated at residual norm {norm:.3e}",
                last_iterate=x,
                residual_norm=norm,
                iterations=it,
            )
        x, r, norm = x_new, r_new, norm_new


def solve_problem(
    problem: Problem,
    pr: float,
    cfg: ClosureConfig,
    x0=None,
    mode: RecurrenceMode = RecurrenceMode.CORRECTED,
) -> SolveResult:
    """Wire the closure residuals into Newton for the chosen problem."""
    x0 = initial_guess(problem, x0)
    if problem is Problem.BLASIUS:
        return newton_solve(lambda x: (blasius_closure_residual(x[0], cfg),), x0, cfg)

    result = newton_solve(lambda x: closure_residual(x[0], x[1], pr, cfg, mode), x0, cfg)
    # the physical branch has A > 0, B < 0; another root is a diagnostic, not an error
    if result.a <= 0 or result.b >= 0:
        warnings.warn(
            f"converged root (A={result.a:.6g}, B={result.b:.6g}) violates the "
            "expected signs A > 0, B < 0",
            stacklevel=2,
        )
    return result
