"""Taylor-coefficient recurrences for the registered boundary-layer problems.

The free-convection system

    f''' + 3 f f'' - 2 (f')^2 + theta = 0
    theta'' + 3 Pr f theta' = 0

turns into an algebraic recurrence on the Taylor coefficients F(k), Theta(k)
once the unknown initial derivatives A = f''(0) and B = theta'(0) are
supplied. Two recurrence variants ship: the corrected one follows the
standard transform product rule; the paper-fidelity one divides the third
sum's summand by r!, which is what the published series and root values
were actually computed with. The two agree for F(k), k <= 4, and for every
Theta(k).

The Blasius extension uses the standard form f''' + (1/2) f f'' = 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from operator import mul

from .series import TruncatedSeries

# r! as a float, the divisor of the paper-fidelity sum (dividing by this
# float equals dividing by the int r!). Past r = 170, r! exceeds every float
# and the summand is taken as 0.
_FACTORIALS = tuple(float(math.factorial(r)) for r in range(171))
# a larger series order is refused, as MAX_RK4_STEPS bounds a trajectory:
# the recurrence is O(m^2) (order 3 000 takes ~1 s), so past 10**4 a
# series would take 10 s or more
MAX_ORDER = 10**4


class RecurrenceMode(Enum):
    CORRECTED = "corrected"
    PAPER_FIDELITY = "paper"


class Problem(Enum):
    FREE_CONVECTION = "free-convection"
    BLASIUS = "blasius"


def check_prandtl(pr: float) -> None:
    if not (math.isfinite(pr) and pr > 0):
        raise ValueError(f"Prandtl number must be finite and positive, got {pr}")


def check_wall_values(a: float, b: float = 0.0) -> None:
    """Blasius, which has no theta, passes a alone."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("initial derivatives a, b must be finite")


def check_mode(problem: Problem, mode: RecurrenceMode) -> None:
    if problem is Problem.BLASIUS and mode is RecurrenceMode.PAPER_FIDELITY:
        raise ValueError("paper mode is free convection only; Blasius has one recurrence")


@dataclass(frozen=True)
class ProblemParams:
    """Everything needed to run the recurrence for one numeric (A, B).

    a is f''(0); b is theta'(0) and is ignored by Blasius. order is the
    series truncation m (coefficients 0..m are produced). The f-recurrence
    advances three indices at a time, hence order >= 3; an order above
    MAX_ORDER raises ValueError before any step runs.
    """

    problem: Problem = Problem.FREE_CONVECTION
    pr: float = 1.0
    a: float = 0.0
    b: float = 0.0
    order: int = 6
    mode: RecurrenceMode = RecurrenceMode.CORRECTED

    def __post_init__(self):
        if self.order < 3:
            raise ValueError(f"order must be >= 3, got {self.order}")
        if self.order > MAX_ORDER:
            raise ValueError(f"order must be at most {MAX_ORDER:,}, got {self.order}")
        check_prandtl(self.pr)
        check_mode(self.problem, self.mode)
        check_wall_values(self.a, self.b)


@dataclass(frozen=True)
class DtmSolution:
    f_series: TruncatedSeries
    theta_series: TruncatedSeries | None


def init_transforms(params: ProblemParams) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Transform equivalents of the wall boundary conditions.

    f(0) = f'(0) = 0 and f''(0) = A give the f-prefix (0, 0, A/2);
    theta(0) = 1 and theta'(0) = B give the theta-prefix (1, B).
    Blasius has no temperature equation, so its theta-prefix is empty.
    """
    f_prefix = (0.0, 0.0, params.a / 2.0)
    if params.problem is Problem.BLASIUS:
        return f_prefix, ()
    return f_prefix, (1.0, params.b)


class Coefficients:
    """The coefficients so far, with the scaled copies the recurrence sums read.

    d1[j] = j F(j), d2[j] = j (j-1) F(j) and t1[j] = j Theta(j) carry the
    derivative weights, so that every sum is a plain Cauchy product. g[j] is
    F(j)/j! in paper-fidelity mode, up to j = 170 (past it j! exceeds every
    float and the summand is taken as 0), and F itself in corrected mode.
    """

    __slots__ = ("f", "d1", "d2", "g", "theta", "t1")

    def __init__(self, f_prefix, theta_prefix, mode: RecurrenceMode):
        self.f, self.d1, self.d2, self.theta, self.t1 = [], [], [], [], []
        self.g = [] if mode is RecurrenceMode.PAPER_FIDELITY else self.f
        for x in f_prefix:
            self.push_f(x)
        for x in theta_prefix:
            self.push_theta(x)

    def push_f(self, x: float) -> None:
        j = len(self.f)
        self.f.append(x)
        self.d1.append(j * x)
        self.d2.append(j * (j - 1) * x)
        if self.g is not self.f and j < len(_FACTORIALS):
            self.g.append(x / _FACTORIALS[j])

    def push_theta(self, x: float) -> None:
        self.t1.append(len(self.theta) * x)
        self.theta.append(x)


# Each sum is one dot product that map and sum run in C over the scaled
# lists: s3 = sum g[r] d2[k+2-r] and s2 = sum F(r) t1[k+1-r] for r = 2..k in
# that order, the terms r = 0, 1 being exact zeros (F(0) = F(1) = 0). s1 =
# sum d1[r+1] d1[k-r+1] is symmetric in r <-> k-r, so it is twice the sum
# over r+1 < k-r+1 plus, for even k, the middle square d1[k/2+1]^2: half the
# products. In paper mode, g stops at j = 170 and map stops with it.
# Blasius' F(j) is an exact zero unless j = 2 (mod 3), so a summand
# F(r) d2[k+2-r] of its sum is nonzero only when r and k+2-r are both 2
# (mod 3), that is, on the steps k = 2 (mod 3) at r = 2, 5, ..., k. The
# strided dot product over those equals the full sum bit for bit: the zero
# summands it skips leave a float sum unchanged.


def free_convection_f(c: Coefficients, k: int) -> float:
    """F(k+3) from F(0..k) and Theta(k): step k of the f-recurrence.

    In paper-fidelity mode the summand of the third sum carries an extra
    1/r! factor.
    """
    d1 = c.d1
    mid = (k + 3) // 2
    s1 = 2.0 * sum(map(mul, d1[2:mid], d1[k:k + 2 - mid:-1]))
    if k % 2 == 0:
        s1 += d1[mid] * d1[mid]
    s3 = sum(map(mul, c.g[2:k + 1], c.d2[k:1:-1]))
    return (2.0 * s1 - c.theta[k] - 3.0 * s3) / ((k + 1) * (k + 2) * (k + 3))


def free_convection_theta(c: Coefficients, k: int, pr: float) -> float:
    """Theta(k+2) from F(0..k) and Theta(0..k-1): step k of the theta-recurrence."""
    # at k = 0 the F slice is empty and map stops before the t1 slice
    s2 = sum(map(mul, c.f[2:k + 1], c.t1[k - 1:0:-1]))
    # 0.0 - x keeps an exact zero +0.0, where -3.0 * pr * s2 gave -0.0
    return 0.0 - 3.0 * pr * s2 / ((k + 1) * (k + 2))


def blasius_f(c: Coefficients, k: int) -> float:
    """F(k+3) of the Blasius recurrence for f''' = -(1/2) f f''.

    Only the steps k = 2 (mod 3) sum, over r = 2, 5, ..., k; on the others
    the sum 0 gives the -0.0 that the full sum of zeros gave.
    """
    s = sum(map(mul, c.f[2:k + 1:3], c.d2[k:1:-3])) if k % 3 == 2 else 0
    return -0.5 * s / ((k + 1) * (k + 2) * (k + 3))


@functools.cache
def _tangent_weights(n: int, mode: RecurrenceMode) -> tuple[tuple[float, ...], ...]:
    """For each step k < n, the weights of dF(s) F(k+2-s), s = 2..k+2, in
    the derivative of 2 s1 - 3 s3.

    s1's weight (r+1)(k-r+1) is symmetric in r and k-r, so 2 s1 gives
    4 s(k+2-s) (s = r+1); s3 gives (k+2-s)(k+1-s) / s! from its first
    factor (s = r) and s(s-1) / (k+2-s)! from its second (s = k+2-r), the
    factorials being 1 in corrected mode.
    """
    div = (1.0,) * (n + 2)
    if mode is RecurrenceMode.PAPER_FIDELITY:
        div = _FACTORIALS[:n + 2] + (math.inf,) * (n + 2 - len(_FACTORIALS))
    return tuple(
        tuple(4.0 * s * (k + 2 - s)
              - 3.0 * ((k + 2 - s) * (k + 1 - s) / div[s] + s * (s - 1) / div[k + 2 - s])
              for s in range(2, k + 3))
        for k in range(n)
    )


def free_convection_tangents(
    sol: DtmSolution, pr: float, mode: RecurrenceMode
) -> tuple[list[complex], list[complex]]:
    """The derivatives of sol's F and Theta coefficients in A and in B.

    The recurrence in forward mode over the steps generate took for sol (F
    and Theta to its order m, F under the same k + 3 <= m rule), reading its
    values: a step's F derivative is one dot product over dF(s) F(k+2-s),
    and its Theta derivative the two of s2. The derivatives are real-linear
    in the tangents, so one complex pass carries both: d/dA in the real
    part, d/dB in the imaginary part. Returns the lists dF and dTheta; a
    derivative past the float range reads inf or NaN instead of raising.
    """
    f, theta = sol.f_series.coeffs, sol.theta_series.coeffs
    m = sol.f_series.order
    desc = tuple(map(float, range(m - 1, 0, -1)))
    weights = _tangent_weights(m - 1, mode)
    # F(2) = A/2 and Theta(1) = B; the other wall values are constants
    df, dth = [0j, 0j, 0.5 + 0j], [0j, 1j]
    for k in range(m - 1):
        if k + 3 <= m:
            ds = sum(map(mul, map(mul, weights[k], f[k::-1]), df[2:]))
            df.append((ds - dth[k]) / ((k + 1) * (k + 2) * (k + 3)))
        lin = desc[-k - 1:]
        ds2 = (sum(map(mul, map(mul, lin, theta[k + 1:0:-1]), df))
               + sum(map(mul, map(mul, lin, f), dth[k + 1:0:-1])))
        dth.append(-3.0 * pr * ds2 / ((k + 1) * (k + 2)))
    return df, dth


def _finite(x: float, name: str, index: int) -> float:
    if not math.isfinite(x):
        raise OverflowError(f"non-finite {name}-coefficient at index {index}")
    return x


def generate(params: ProblemParams) -> DtmSolution:
    """Run the recurrence up to params.order and return the series pair.

    Raises OverflowError naming the first index whose coefficient leaves the
    finite range (which happens for wild (A, B) at high order).
    """
    c = Coefficients(*init_transforms(params), params.mode)
    m = params.order
    if params.problem is Problem.BLASIUS:
        for k in range(m - 2):
            c.push_f(_finite(blasius_f(c, k), "f", k + 3))
        return DtmSolution(TruncatedSeries(c.f), None)

    for k in range(m - 1):
        if k + 3 <= m:  # the last step's F(m+1) would lie past the order
            c.push_f(_finite(free_convection_f(c, k), "f", k + 3))
        c.push_theta(_finite(free_convection_theta(c, k, params.pr), "theta", k + 2))
    return DtmSolution(TruncatedSeries(c.f), TruncatedSeries(c.theta))
