"""Truncated power-series arithmetic about the origin.

A series is a finite coefficient vector c0..cm of powers of the expansion
variable. Mixed-order arithmetic truncates to the shorter operand rather
than zero-padding: padding would invent coefficients no recurrence ever
produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c0..cm of a power series; a non-finite one is an overflow."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise OverflowError(f"non-finite coefficient at index {k}: {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def cauchy_product(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Convolution product, truncated to the shorter order."""
    a, b = s.coeffs, t.coeffs
    n = min(len(a), len(b))
    return TruncatedSeries(tuple(sum(map(mul, a[:k + 1], b[k::-1])) for k in range(n)))


def differentiate(s: TruncatedSeries) -> TruncatedSeries:
    """Derivative: coefficient k of the result is (k+1) * c_{k+1}.

    Raises ValueError for an order-0 series, which has no order to lose.
    """
    if s.order < 1:
        raise ValueError(f"cannot differentiate an order-{s.order} series")
    return TruncatedSeries(tuple((k + 1) * s.coeffs[k + 1] for k in range(s.order)))


def evaluate(s: TruncatedSeries, x: float) -> float:
    """Horner evaluation of the truncated partial sum at x."""
    if not math.isfinite(x):
        raise ValueError("evaluation point must be finite")
    acc = 0.0
    for c in reversed(s.coeffs):
        acc = acc * x + c
    return acc
