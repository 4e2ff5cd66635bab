"""Closing the semi-infinite boundary conditions and solving for (A, B).

The far-field conditions f'(inf) = 0 and theta(inf) = 0 are imposed on
diagonal rational approximants of the generated series: the limit of an
[n/n] quotient at infinity is a_n / b_n, however small a_n is, so each
condition becomes one scalar equation in the unknown initial derivatives.
A damped Newton iteration solves the resulting 2x2 free-convection system
with its exact Jacobian: the recurrence and the two fits in forward mode,
taken only at the iterates Newton steps from.

Paper-fidelity mode mirrors the published computation exactly: the f-series
is the order-2n polynomial, so its derivative is one coefficient short of
the 2n needed by the [n/n] fit and is zero-padded, exactly as a finite
polynomial is treated by a CAS. Corrected mode generates order 2n+1 and
uses the true derivative coefficient throughout; no fit reads further.

The Blasius series only contains powers 2, 5, 8, ... of the similarity
variable, which makes every diagonal fit in that variable exactly singular.
Its closure therefore compresses to u = eta^3: with f' = eta * g(eta^3),
the condition f'(inf) = 1 becomes lim_u u * g(u)^3 = 1, imposed as the
limit of the [n/n] fit of u * g^3, whose series is that of g^3 behind a
zero. Toepfer's
scaling f_A(eta) = A^(1/3) f_1(A^(1/3) eta) makes that limit A^2 times its
value L1 at A = 1, so the Blasius root is A = L1^(-1/2) in closed form; one
residual evaluation at that root verifies it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

from . import pade
from .dtm import (
    Problem,
    ProblemParams,
    RecurrenceMode,
    check_mode,
    free_convection_tangents,
    generate,
)
from .errors import (
    DegenerateApproximantError,
    NonConvergenceError,
    SingularJacobianError,
)
from .series import TruncatedSeries, cauchy_product

# Newton starting points; free convection has the physically expected signs A > 0, B < 0
DEFAULT_GUESS = {Problem.FREE_CONVECTION: (0.6, -0.6), Problem.BLASIUS: (0.3,)}
# the forward-difference step for a residual that gives no Jacobian: the
# shooting oracle's (the closures give theirs exactly)
FD_STEP = 1e-7
DAMPING = 0.5  # step shrink factor when the residual norm does not drop
SINGULAR_DET = 1e-14  # |det| of the row-scaled Jacobian below which it counts as singular


def check_stopping(tol: float, max_iter: int) -> None:
    """Newton's stopping rule, shared by ClosureConfig and ShootConfig."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be a positive integer")


# no fit passes pade's condition gate from n ~ 16 on (free convection) or
# n = 10 on (Blasius); a larger degree would only spend its two SVDs' memory
MAX_PADE_DEGREE = 64


@dataclass(frozen=True)
class ClosureConfig:
    """Knobs for the closure equations and the Newton stopping rule.

    series_order = None derives the order from the Pade degree: 2n+1 in
    corrected mode, 2n (the published window) in paper-fidelity mode. The
    fits read F up to 2n+1 at most, so a higher order gives the 2n+1 root.
    """

    pade_degree: int = 3
    series_order: int | None = None
    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if self.pade_degree < 1:
            raise ValueError("pade_degree must be >= 1")
        if self.pade_degree > MAX_PADE_DEGREE:
            raise ValueError(
                f"pade_degree must be at most {MAX_PADE_DEGREE}, got {self.pade_degree}")
        n = self.pade_degree
        if self.series_order is not None and self.series_order < 2 * n:
            raise ValueError(f"series_order must be >= {2 * n} for an [{n}/{n}] fit")
        check_stopping(self.tol, self.max_iter)


class Residual(tuple):
    """Residual values that give their Jacobian rows when jacobian() is called.

    newton_solve calls it only at the iterates it steps from, so a rejected
    damped trial costs its values alone.
    """

    def __new__(cls, values: Sequence[float], jacobian: Callable[[], list]):
        self = super().__new__(cls, values)
        self.jacobian = jacobian
        return self


@dataclass(frozen=True)
class SolveResult:
    """The root, its residual infinity-norm and the Newton iterations taken."""

    a: float
    b: float | None
    residual_norm: float
    iterations: int


def closure_residual(
    a: float,
    b: float,
    pr: float,
    cfg: ClosureConfig,
    mode: RecurrenceMode = RecurrenceMode.CORRECTED,
) -> Residual:
    """Free-convection far-field residuals (limit of f'-fit, limit of theta-fit).

    The one window: F up to top (the series order, at most 2n+1), the last
    that the f' fit reads. Their exact Jacobian in (a, b) comes from the
    recurrence and the fits in forward mode when jacobian() is called.
    """
    n = cfg.pade_degree
    top = min(cfg.series_order or 2 * n + (mode is RecurrenceMode.CORRECTED), 2 * n + 1)
    sol = generate(ProblemParams(  # the recurrence needs order >= 3
        Problem.FREE_CONVECTION, pr=pr, a=a, b=b, order=max(top, 3), mode=mode))

    def derivative(c, zero):  # f' to F(top), zero-padded to the fit's 2n+1 terms
        return [(k + 1) * c[k + 1] for k in range(top)] + [zero] * (2 * n + 1 - top)

    fp = derivative(sol.f_series.coeffs, 0.0)
    fits = pade.build_many((TruncatedSeries(fp), sol.theta_series), n, n)
    limits = []
    # the errors in the order of lone fits: f' fit, f' limit, theta fit, theta limit
    for label, fit in zip(("f'", "theta"), fits):
        try:
            if isinstance(fit, Exception):
                raise fit
            limits.append(pade.limit_at_infinity(fit))
        except DegenerateApproximantError as exc:
            raise type(exc)(f"{label}-approximant: {exc}") from exc

    def jacobian() -> list[tuple[float, float]]:
        # d/dA + i d/dB of the coefficients, of the f' fit's zero padding too
        df, dtheta = free_convection_tangents(sol, pr, mode)
        rows = pade.limit_tangents(fits, (fp, sol.theta_series.coeffs),
                                   (derivative(df, 0j), dtheta))
        return [(z.real, z.imag) for z in rows]

    return Residual(limits, jacobian)


def blasius_closure_residual(a: float, cfg: ClosureConfig) -> float:
    """Blasius far-field residual: lim u * g(u)^3 - 1 in the cube variable.

    The series order is fixed by the degree, so cfg.series_order must be None.
    """
    if cfg.series_order is not None:
        raise ValueError("the Blasius closure derives its series order from the Pade degree")
    n = cfg.pade_degree
    order = 6 * n + 2  # f' index 3*(2n)+1 needs f-coefficients up to 6n+2
    f = generate(ProblemParams(Problem.BLASIUS, a=a, order=order)).f_series.coeffs
    # g_j = (3j+2) F(3j+2), the coefficient of eta^(3j+1) in f' (the nonzero ones)
    g = TruncatedSeries(tuple((3 * j + 2) * f[3 * j + 2] for j in range(2 * n + 1)))
    try:
        h = cauchy_product(cauchy_product(g, g), g)
    except OverflowError as exc:
        raise OverflowError(f"cube-variable series g^3 overflows: {exc}") from exc
    # the cube-variable coefficients decay fast; rescale u = s*v to balance
    # their magnitudes, which keeps the fit's linear system well conditioned.
    # The limit transforms as lim u*H(u) = s * lim v*Ht(v).
    nonzero = [(k, abs(c)) for k, c in enumerate(h.coeffs) if k > 0 and c != 0.0]
    scale_s = 1.0
    if h.coeffs[0] != 0.0 and nonzero:
        k_last, c_last = nonzero[-1]
        scale_s = (abs(h.coeffs[0]) / c_last) ** (1.0 / k_last)
    try:
        h_scaled = TruncatedSeries(tuple(c * scale_s**k for k, c in enumerate(h.coeffs)))
    except OverflowError as exc:
        raise OverflowError(f"cube-variable rescaling by s = {scale_s:.6g} overflows") from exc
    try:
        v_h = TruncatedSeries((0.0,) + h_scaled.coeffs[: 2 * n])  # v * Ht(v)
        limit = scale_s * pade.limit_at_infinity(pade.build(v_h, n, n))
    except DegenerateApproximantError as exc:
        raise type(exc)(f"f'-approximant (cube variable): {exc}") from exc
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


def _step(jac, r) -> list[float] | None:
    """The step s with jac s = r by Cramer's rule; None where jac counts as singular.

    That is a zero row; a row-scaled determinant (each row divided by its
    largest magnitude) not >= SINGULAR_DET, which a NaN or infinite entry
    makes NaN; an unscaled determinant that under- or overflows; or a step
    that is not finite.
    """
    rows = []
    for row in jac:
        scale = _inf_norm(row)
        if scale == 0.0:
            return None
        rows.append([v / scale for v in row])
    if len(jac) == 1:
        det, den, num = abs(rows[0][0]), jac[0][0], [r[0]]
    else:
        (a, b), (c, d) = rows
        det = abs(a * d - b * c)
        (a, b), (c, d) = jac
        den, num = a * d - b * c, [r[0] * d - b * r[1], a * r[1] - c * r[0]]
    if not (det >= SINGULAR_DET and 0.0 < abs(den) < math.inf):
        return None
    step = [v / den for v in num]
    return step if all(math.isfinite(v) for v in step) else None


def _jacobian(at, x: tuple[float, ...], r: list[float]) -> list[tuple[float, ...]]:
    """Forward-difference Jacobian (step FD_STEP), one row per residual."""
    columns = []
    for j in range(len(x)):
        xp = list(x)
        xp[j] += FD_STEP
        columns.append([(p - q) / FD_STEP for p, q in zip(at(tuple(xp))[0], r)])
    return list(zip(*columns))


def newton_solve(
    residual: Callable[[tuple[float, ...]], Sequence[float]],
    x0: Sequence[float],
    cfg,
    jacobian: list | None = None,
) -> SolveResult:
    """Damped Newton on a residual's Jacobian, exact or by forward differences.

    One or two unknowns. The iterate is a tuple of floats and residual maps
    it to a sequence of numbers (a numpy array too), which are taken as
    Python floats. Where that sequence has a jacobian() method (a Residual),
    it gives the rows Newton steps with, and is called only at the iterates
    Newton steps from; otherwise each step takes forward differences (step
    FD_STEP), one more residual per unknown. The step is solved by Cramer's
    rule; a Jacobian whose row-scaled determinant is not >= SINGULAR_DET (a
    NaN or infinite entry included), or a step that is not finite, raises
    SingularJacobianError. cfg is anything with tol and max_iter (a
    ClosureConfig or ShootConfig). Stops when the residual infinity-norm
    drops to cfg.tol. A step that does not decrease the norm is shrunk by
    DAMPING up to 8 times before the iteration is declared stagnant.

    jacobian, a list of rows (one per residual), goes both ways. A copy of
    the rows it holds on entry stands in for the residual's Jacobian at
    iteration 0 only (a chord step), such as the last Jacobian of a solve
    of a nearby problem; where its step counts as singular, or its damped
    trial stagnates, iteration 0 is redone with the residual's Jacobian at
    the same iterate. Each accepted step writes its Jacobian's rows into the
    list, so it holds the last one on return.
    """
    x = tuple(float(v) for v in x0)
    d = len(x)
    if not 1 <= d <= 2:
        raise ValueError(f"newton_solve takes one or two unknowns, got {d}")

    def at(x: tuple[float, ...]):
        """The residual at x and a call that gives its Jacobian rows there."""
        values = residual(x)
        r = [float(v) for v in values]
        exact = getattr(values, "jacobian", None)
        return r, exact or (lambda: _jacobian(at, x, r))

    r, jacobian_at = at(x)
    norm = _inf_norm(r)

    for it in range(cfg.max_iter + 1):
        if norm <= cfg.tol:
            return SolveResult(x[0], x[1] if d > 1 else None, norm, it)
        if it == cfg.max_iter:
            raise _failure(f"no convergence in {cfg.max_iter} iterations (norm {norm:.3e})",
                           x, norm, it)
        trial = None
        if it == 0 and jacobian:
            jac = [tuple(row) for row in jacobian]
            step = _step(jac, r)
            if step is not None:
                trial = _damped_trial(at, x, step, norm)
        if trial is None:
            jac = jacobian_at()
            step = _step(jac, r)
            if step is None:
                raise _failure("Jacobian is singular at the current iterate", x, norm, it,
                               SingularJacobianError)
            trial = _damped_trial(at, x, step, norm)
            if trial is None:
                raise _failure(f"stagnated at residual norm {norm:.3e}", x, norm, it)
        if jacobian is not None:
            jacobian[:] = jac
        x, (r, jacobian_at), norm = trial


def _failure(message: str, x: tuple[float, ...], norm: float, iterations: int,
             error: type[NonConvergenceError] = NonConvergenceError) -> NonConvergenceError:
    """A Newton-level failure with its last iterate, residual norm and iteration count."""
    return error(message, last_iterate=x, residual_norm=norm, iterations=iterations)


def check_signs(result: SolveResult) -> SolveResult:
    """result, warned of at the solver's caller where a free-convection root is
    off the physical branch A > 0, B < 0 (a diagnostic, not an error); a
    Blasius root (b None) passes."""
    if result.b is not None and (result.a <= 0 or result.b >= 0):
        warnings.warn(f"converged root (A={result.a:.6g}, B={result.b:.6g}) violates the "
                      "expected signs A > 0, B < 0", stacklevel=3)
    return result


def _damped_trial(at, x: tuple[float, ...], step: list[float], norm: float):
    """(x_new, at(x_new), norm_new) of the first of x - lam * step, lam = 1,
    DAMPING, ..., DAMPING**8, whose residual norm is below norm; None if none is."""
    lam = 1.0
    for _ in range(9):
        x_new = tuple(v - lam * s for v, s in zip(x, step))
        evaluated = at(x_new)
        norm_new = _inf_norm(evaluated[0])
        if norm_new < norm:
            return x_new, evaluated, norm_new
        lam *= DAMPING
    return None


def solve_problem(
    problem: Problem,
    pr: float,
    cfg: ClosureConfig,
    x0=None,
    mode: RecurrenceMode = RecurrenceMode.CORRECTED,
) -> SolveResult:
    """The Blasius root in closed form, or Newton on the free-convection closure.

    Raises ValueError for a Blasius x0, since that root takes no guess, and
    for a free-convection x0 that initial_guess refuses.
    """
    check_mode(problem, mode)
    if problem is Problem.BLASIUS:
        if x0 is not None:
            raise ValueError("the Blasius DTM-Pade root is in closed form and takes no guess")
        a = (blasius_closure_residual(1.0, cfg) + 1.0) ** -0.5
        norm = abs(blasius_closure_residual(a, cfg))
        if not norm <= cfg.tol:
            raise _failure(f"closed-form root A = {a:.10g} has closure residual {norm:.3e} > tol",
                           (a,), norm, 0)
        return SolveResult(a, None, norm, 0)

    return check_signs(newton_solve(lambda x: closure_residual(x[0], x[1], pr, cfg, mode),
                                    initial_guess(problem, x0), cfg))
