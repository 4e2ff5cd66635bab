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
from operator import mul, truediv
from typing import NamedTuple

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


class Weights(NamedTuple):
    """The convolution weights of the steps k < n, as exact small-integer floats.

    The last k+1 entries of desc are k+1, k, ..., 1 (the weight k-r+1 for
    r = 0..k) and those of pair are (k+1)(k+2), ..., 1*2 (the weight
    (k-r+1)(k-r+2)); asc is 1, 2, ..., n. divisors is r! (inf past r = 170)
    in paper-fidelity mode and None in corrected mode.
    """

    asc: tuple[float, ...]
    desc: tuple[float, ...]
    pair: tuple[float, ...]
    divisors: tuple[float, ...] | None


def recurrence_weights(n: int, mode: RecurrenceMode = RecurrenceMode.CORRECTED) -> Weights:
    """The weights of the steps k < n; generate builds them once per call."""
    desc = tuple(map(float, range(n, 0, -1)))
    pair = tuple(map(mul, desc, map(float, range(n + 1, 1, -1))))
    divisors = None
    if mode is RecurrenceMode.PAPER_FIDELITY:
        divisors = _FACTORIALS[:n] + (math.inf,) * (n - len(_FACTORIALS))
    return Weights(desc[::-1], desc, pair, divisors)


# Each sum is a dot product run by map and sum in C: the summand
# weight * f[r] * f[k-r+...] (divided by r! in paper mode) in the order
# r = 0..k, as a term-by-term sum would take it. An exact float weight
# rounds the product as the int weight does, so the coefficients are bit for
# bit those of the term-by-term sum on the same interpreter.


def advance_free_convection(
    f: list[float],
    theta: list[float],
    k: int,
    pr: float,
    weights: Weights,
) -> tuple[float, float]:
    """One recurrence step: compute F(k+3) and Theta(k+2) from lower coefficients.

    Needs f[0..k+2], theta[0..k+1] and the weights of some n > k. In
    paper-fidelity mode the summand of the third sum carries an extra 1/r!
    factor.
    """
    asc, desc, pair, divisors = weights
    lin, quad = desc[-k - 1:], pair[-k - 1:]
    s1 = sum(map(mul, map(mul, map(mul, asc, lin), f[1:k + 2]), f[k + 1:0:-1]))
    terms = map(mul, map(mul, quad, f), f[k + 2:1:-1])
    if divisors is not None:
        terms = map(truediv, terms, divisors)
    s3 = sum(terms)
    f_next = (2.0 * s1 - theta[k] - 3.0 * s3) / ((k + 1) * (k + 2) * (k + 3))

    s2 = sum(map(mul, map(mul, lin, f), theta[k + 1:0:-1]))
    # 0.0 - x keeps an exact zero +0.0, where -3.0 * pr * s2 gave -0.0
    theta_next = 0.0 - 3.0 * pr * s2 / ((k + 1) * (k + 2))
    return f_next, theta_next


def advance_blasius(f: list[float], k: int, weights: Weights) -> float:
    """One step of the Blasius recurrence for f''' = -(1/2) f f''."""
    s = sum(map(mul, map(mul, weights.pair[-k - 1:], f), f[k + 2:1:-1]))
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
    div = recurrence_weights(n + 2, mode).divisors or (1.0,) * (n + 2)
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
    desc = recurrence_weights(m - 1).desc
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


def generate(params: ProblemParams) -> DtmSolution:
    """Run the recurrence up to params.order and return the series pair.

    Raises OverflowError naming the first index whose coefficient leaves the
    finite range (which happens for wild (A, B) at high order).
    """
    f_prefix, theta_prefix = init_transforms(params)
    f = list(f_prefix)
    theta = list(theta_prefix)
    m = params.order
    weights = recurrence_weights(m, params.mode)

    if params.problem is Problem.BLASIUS:
        for k in range(m - 2):
            f.append(advance_blasius(f, k, weights))
            if not math.isfinite(f[-1]):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
        return DtmSolution(TruncatedSeries(f), None)

    for k in range(m - 1):
        f_next, theta_next = advance_free_convection(f, theta, k, params.pr, weights)
        if k + 3 <= m:  # the last step's F(m+1) lies past the order
            if not math.isfinite(f_next):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
            f.append(f_next)
        if not math.isfinite(theta_next):
            raise OverflowError(f"non-finite theta-coefficient at index {k + 2}")
        theta.append(theta_next)
    return DtmSolution(TruncatedSeries(f), TruncatedSeries(theta))
