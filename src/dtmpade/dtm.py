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

import math
from dataclasses import dataclass
from enum import Enum

from .series import TruncatedSeries

# r! as a float, the divisor of the paper-fidelity sum (dividing by this
# float equals dividing by the int r!). Past r = 170, r! exceeds every float
# and the summand is taken as 0.
_FACTORIALS = tuple(float(math.factorial(r)) for r in range(171))


class RecurrenceMode(Enum):
    CORRECTED = "corrected"
    PAPER_FIDELITY = "paper"


class Problem(Enum):
    FREE_CONVECTION = "free-convection"
    BLASIUS = "blasius"


def check_prandtl(pr: float) -> None:
    if not (math.isfinite(pr) and pr > 0):
        raise ValueError(f"Prandtl number must be finite and positive, got {pr}")


def check_mode(problem: Problem, mode: RecurrenceMode) -> None:
    if problem is Problem.BLASIUS and mode is RecurrenceMode.PAPER_FIDELITY:
        raise ValueError("paper mode is free convection only; Blasius has one recurrence")


@dataclass(frozen=True)
class ProblemParams:
    """Everything needed to run the recurrence for one numeric (A, B).

    a is f''(0); b is theta'(0) and is ignored by Blasius. order is the
    series truncation m (coefficients 0..m are produced). The f-recurrence
    advances three indices at a time, hence order >= 3.
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
        check_prandtl(self.pr)
        check_mode(self.problem, self.mode)
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("initial derivatives a, b must be finite")


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


def advance_free_convection(
    f: list[float],
    theta: list[float],
    k: int,
    pr: float,
    mode: RecurrenceMode,
) -> tuple[float, float]:
    """One recurrence step: compute F(k+3) and Theta(k+2) from lower coefficients.

    Needs f[0..k+2] and theta[0..k+1]. In paper-fidelity mode the summand of
    the third sum carries an extra 1/r! factor.
    """
    s1 = sum((r + 1) * (k - r + 1) * f[r + 1] * f[k - r + 1] for r in range(k + 1))
    if mode is RecurrenceMode.PAPER_FIDELITY:
        s3 = sum(
            (k - r + 1) * (k - r + 2) * f[r] * f[k - r + 2]
            / (_FACTORIALS[r] if r < len(_FACTORIALS) else math.inf)
            for r in range(k + 1)
        )
    else:
        s3 = sum((k - r + 1) * (k - r + 2) * f[r] * f[k - r + 2] for r in range(k + 1))
    f_next = (2.0 * s1 - theta[k] - 3.0 * s3) / ((k + 1) * (k + 2) * (k + 3))

    s2 = sum((k - r + 1) * f[r] * theta[k - r + 1] for r in range(k + 1))
    theta_next = -3.0 * pr * s2 / ((k + 1) * (k + 2))
    return f_next, theta_next


def advance_blasius(f: list[float], k: int) -> float:
    """One step of the Blasius recurrence for f''' = -(1/2) f f''."""
    s = sum((k - r + 1) * (k - r + 2) * f[r] * f[k - r + 2] for r in range(k + 1))
    return -0.5 * s / ((k + 1) * (k + 2) * (k + 3))


def generate(params: ProblemParams) -> DtmSolution:
    """Run the recurrence up to params.order and return the series pair.

    Raises OverflowError naming the first index whose coefficient leaves the
    finite range (which happens for wild (A, B) at high order).
    """
    f_prefix, theta_prefix = init_transforms(params)
    f = list(f_prefix)
    theta = list(theta_prefix)
    m = params.order

    if params.problem is Problem.BLASIUS:
        for k in range(m - 2):
            f.append(advance_blasius(f, k))
            if not math.isfinite(f[-1]):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
        return DtmSolution(TruncatedSeries(f), None)

    for k in range(m - 1):
        f_next, theta_next = advance_free_convection(f, theta, k, params.pr, params.mode)
        if k + 3 <= m:  # the last step's F(m+1) lies past the order
            if not math.isfinite(f_next):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
            f.append(f_next)
        if not math.isfinite(theta_next):
            raise OverflowError(f"non-finite theta-coefficient at index {k + 2}")
        theta.append(theta_next)
    return DtmSolution(TruncatedSeries(f), TruncatedSeries(theta))
