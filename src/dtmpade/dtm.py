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
    and its Theta derivative the two of s2. As in generate, each sum reads
    whole lists, the reversed operand kept in the order the sum reads it and
    grown by one insert at its front per step; the products and their order
    are those of the same sums over slices, so every derivative keeps its
    bits. The derivatives are real-linear in the tangents, so one complex
    pass carries both: d/dA in the real part, d/dB in the imaginary part.
    Returns the lists dF and dTheta; a derivative past the float range reads
    inf or NaN instead of raising.
    """
    f, theta = sol.f_series.coeffs, sol.theta_series.coeffs
    m = sol.f_series.order
    weights = _tangent_weights(m - 1, mode)
    # F(2) = A/2 and Theta(1) = B; the other wall values are constants
    df, dth = [0j, 0j, 0.5 + 0j], [0j, 1j]
    df2 = df[2:]
    # at step k: rf = F(k)..F(0), rt1 = j Theta(j) and lin = j for
    # j = k+1..1, rdth = dTheta(k+1)..dTheta(1)
    rf, rt1, lin, rdth = [], [], [], [1j]
    for k in range(m - 1):
        rf.insert(0, f[k])
        rt1.insert(0, (k + 1) * theta[k + 1])
        lin.insert(0, float(k + 1))
        if k + 3 <= m:
            ds = sum(map(mul, map(mul, weights[k], rf), df2))
            x = (ds - dth[k]) / ((k + 1) * (k + 2) * (k + 3))
            df.append(x)
            df2.append(x)
        ds2 = sum(map(mul, rt1, df)) + sum(map(mul, map(mul, lin, f), rdth))
        y = -3.0 * pr * ds2 / ((k + 1) * (k + 2))
        dth.append(y)
        rdth.insert(0, y)
    return df, dth


# generate keeps the coefficients next to scaled copies that carry the
# derivative weights, so that every sum is a plain Cauchy product:
# d1[j] = j F(j), d2[j] = j (j-1) F(j), t1[j] = j Theta(j), and g[j] = F(j)/j!
# in paper-fidelity mode (up to j = 170; past it j! exceeds every float and
# the summand is taken as 0), F itself in corrected mode.
#
# Each sum is one dot product that map and sum run in C over whole lists:
# a forward one from index 2 (f2, g2) and a reversed one that holds its
# operand in the order the sum reads it (rd1, rd2, rt1), grown by one
# insert(0, x) per step, a memmove of pointers where a slice copied and
# counted a reference to each of its items. map stops at the shorter list.
# s3 = sum g[r] d2[k+2-r] and s2 = sum F(r) t1[k+1-r] for r = 2..k in that
# order, the terms r = 0, 1 being exact zeros (F(0) = F(1) = 0): rd2 holds
# d2[k]..d2[2] and rt1 t1[k-1]..t1[1]. s1 = sum d1[r+1] d1[k-r+1] is
# symmetric in r <-> k-r, so it is twice the sum over r+1 < k-r+1 plus, for
# even k, the middle square d1[k/2+1]^2: half the products, whose range is
# the one slice left. In paper mode, g2 stops at j = 170 and map with it.
# The sums take the products of the slice form in its order, bit for bit.
# Blasius' F(j) is an exact zero unless j = 2 (mod 3), so a summand
# F(r) d2[k+2-r] of its sum is nonzero only when r and k+2-r are both 2
# (mod 3), that is, on the steps k = 2 (mod 3) at r = 2, 5, ..., k, over
# F(2), F(5), .., F(k) and d2[k], d2[k-3], .., d2[2]. That dot product
# equals the full sum bit for bit: the zero summands it skips leave a float
# sum unchanged; on the other steps the sum 0 gives the -0.0 that the full
# sum of zeros gave.


def generate(params: ProblemParams) -> DtmSolution:
    """Run the recurrence up to params.order and return the series pair.

    Step k gives F(k+3) of the f-recurrence (in paper-fidelity mode the
    summand of its third sum carries an extra 1/r! factor), then Theta(k+2)
    of the theta-recurrence; F stops at the order. Raises OverflowError
    naming the first index whose coefficient leaves the finite range (which
    happens for wild (A, B) at high order).
    """
    f_prefix, theta_prefix = init_transforms(params)
    m = params.order
    isfinite = math.isfinite
    f = list(f_prefix)
    if params.problem is Problem.BLASIUS:
        f3, rd2 = [], []  # F(j) and, reversed, j (j-1) F(j) at j = 2 (mod 3)
        for k in range(m - 2):
            s = 0
            if k % 3 == 2:
                f3.append(f[k])
                rd2.insert(0, k * (k - 1) * f[k])
                s = sum(map(mul, f3, rd2))
            x = -0.5 * s / ((k + 1) * (k + 2) * (k + 3))
            if not isfinite(x):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
            f.append(x)
        return DtmSolution(TruncatedSeries(f), None)

    theta = list(theta_prefix)
    d1 = [j * x for j, x in enumerate(f)]
    paper = params.mode is RecurrenceMode.PAPER_FIDELITY
    f2 = f[2:]
    g2 = [f[2] / _FACTORIALS[2]] if paper else f2
    rd1, rd2, rt1 = [], [], []
    pr3 = 3.0 * params.pr
    for k in range(m - 1):
        rd1.insert(0, d1[k])
        if k >= 2:
            rd2.insert(0, k * (k - 1) * f[k])
            rt1.insert(0, (k - 1) * theta[k - 1])
        if k + 3 <= m:  # the last step's F(m+1) would lie past the order
            mid = (k + 3) // 2
            s1 = 2.0 * sum(map(mul, d1[2:mid], rd1))
            if k % 2 == 0:
                s1 += d1[mid] * d1[mid]
            s3 = sum(map(mul, g2, rd2))
            x = (2.0 * s1 - theta[k] - 3.0 * s3) / ((k + 1) * (k + 2) * (k + 3))
            if not isfinite(x):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
            f.append(x)
            f2.append(x)
            d1.append((k + 3) * x)
            if paper and k + 3 < len(_FACTORIALS):
                g2.append(x / _FACTORIALS[k + 3])
        # at k = 0, 1 rt1 is empty; 0.0 - x keeps an exact zero +0.0, where
        # -3.0 * pr * s2 gave -0.0
        y = 0.0 - pr3 * sum(map(mul, f2, rt1)) / ((k + 1) * (k + 2))
        if not isfinite(y):
            raise OverflowError(f"non-finite theta-coefficient at index {k + 2}")
        theta.append(y)
    return DtmSolution(TruncatedSeries(f), TruncatedSeries(theta))
