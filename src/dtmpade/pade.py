"""Rational [L/M] approximants matched to a truncated series at the origin.

The denominator is normalized to b0 = 1. The b-coefficients come from the
M x M linear system that zeroes the series coefficients of degrees
L+1..L+M of (denominator * series - numerator); the a-coefficients then
fall out by convolution. Pade systems are notoriously ill-conditioned, so
a condition estimate beyond 1e12 raises instead of returning noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateApproximantError, DegenerateLimitError, PoleError
from .series import TruncatedSeries

COND_THRESHOLD = 1e12
MATCH_TOLERANCE = 1e-10
# below this (relative to the largest |b_j|) the approximant is effectively
# of lower degree and its limit at infinity is meaningless
LEADING_COEFF_FLOOR = 1e-10


@dataclass(frozen=True)
class RationalApproximant:
    """numerator a0..aL over denominator 1, b1..bM."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        num = tuple(float(a) for a in self.numerator)
        den = tuple(float(b) for b in self.denominator)
        if not all(math.isfinite(v) for v in num + den):
            raise ValueError("approximant coefficients must be finite")
        if den[0] != 1.0:
            raise ValueError("denominator must be normalized to b0 = 1")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def degrees(self) -> tuple[int, int]:
        return len(self.numerator) - 1, len(self.denominator) - 1


def build(c: TruncatedSeries, L: int, M: int) -> RationalApproximant:
    """Construct the [L/M] approximant of a series with order >= L + M."""
    if L < 0 or M < 0:
        raise ValueError("degrees must be nonnegative")
    if c.order < L + M:
        raise ValueError(f"series order {c.order} is below L + M = {L + M}")
    cc = c.coeffs

    if not any(cc[L + 1 : L + M + 1]):
        # b = 0 satisfies the matching conditions exactly; this covers
        # degenerate blocks such as a constant series, where the Toeplitz
        # system is singular but the approximant is trivially a polynomial
        return RationalApproximant(cc[: L + 1], (1.0,) + (0.0,) * M)

    A = np.array([[cc[L + k - j] if L + k - j >= 0 else 0.0 for j in range(1, M + 1)]
                  for k in range(1, M + 1)])
    rhs = np.array([-cc[L + k] for k in range(1, M + 1)])

    try:
        cond = np.linalg.cond(A)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > COND_THRESHOLD:
        raise DegenerateApproximantError(
            f"[{L}/{M}] linear system is rank-deficient (condition estimate {cond:.3g})"
        )
    b_tail = np.linalg.solve(A, rhs)
    # two rounds of iterative refinement with an extended-precision residual;
    # Pade systems lose digits fast and the refinement is nearly free
    A_ext = A.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    for _ in range(2):
        resid = rhs_ext - A_ext @ b_tail.astype(np.longdouble)
        b_tail = b_tail + np.linalg.solve(A, resid.astype(float))
    b = (1.0,) + tuple(b_tail.tolist())
    a = tuple(sum(b[j] * cc[i - j] for j in range(min(i, M) + 1)) for i in range(L + 1))
    result = RationalApproximant(a, b)

    # the condition estimate alone does not guarantee the matching conditions
    # were actually met; verify the expansion against the input and fail loudly
    scale = max(1.0, max(abs(v) for v in cc[: L + M + 1]))
    mismatch = max(
        abs(p - q) for p, q in zip(_expand(result, L + M), cc[: L + M + 1])
    )
    if mismatch > MATCH_TOLERANCE * scale:
        raise DegenerateApproximantError(
            f"[{L}/{M}] approximant only matches its series to {mismatch:.3g}; "
            "the system is numerically rank-deficient"
        )
    return result


def _expand(r: RationalApproximant, order: int) -> list[float]:
    """Taylor coefficients of numerator/denominator up to the given degree."""
    num = list(r.numerator) + [0.0] * (order + 1)
    den = list(r.denominator) + [0.0] * (order + 1)
    out: list[float] = []
    for k in range(order + 1):
        out.append(num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1)))
    return out


def evaluate(r: RationalApproximant, x: float) -> float:
    """Horner(numerator, x) / Horner(denominator, x)."""
    num = 0.0
    for a in reversed(r.numerator):
        num = num * x + a
    den = 0.0
    for b in reversed(r.denominator):
        den = den * x + b
    if abs(den) <= 1e-300:
        raise PoleError(f"denominator vanishes at x = {x}")
    return num / den


def limit_at_infinity(r: RationalApproximant) -> float:
    """Limit of a degree-balanced approximant: ratio of leading coefficients.

    Only L == M is supported; that is the only case the infinity boundary
    conditions need.
    """
    L, M = r.degrees
    if L != M:
        raise DegenerateApproximantError(
            f"limit at infinity needs equal degrees, got [{L}/{M}]"
        )
    # effective degrees: trailing coefficients below the floor mean the
    # quotient sits in a lower-degree block of the approximant table
    den_scale = max(abs(b) for b in r.denominator)  # >= 1 since b0 = 1
    deg_den = max(
        j for j, b in enumerate(r.denominator) if abs(b) >= LEADING_COEFF_FLOOR * den_scale
    )
    num_scale = max(abs(a) for a in r.numerator)
    if num_scale == 0.0:
        return 0.0
    deg_num = max(
        i for i, a in enumerate(r.numerator) if abs(a) >= LEADING_COEFF_FLOOR * num_scale
    )
    if deg_num < deg_den:
        return 0.0
    if deg_num > deg_den:
        raise DegenerateLimitError(
            f"effective degrees [{deg_num}/{deg_den}] diverge at infinity"
        )
    return r.numerator[deg_num] / r.denominator[deg_den]
