"""Truncated power-series arithmetic about the origin.

A series is a finite coefficient vector c0..cm of powers of the expansion
variable. Mixed-order arithmetic truncates to the shorter operand rather
than zero-padding: padding would invent coefficients no recurrence ever
produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class TruncatedSeries:
    """Coefficients c0..cm of a power series, all finite."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        for k, c in enumerate(coeffs):
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient at index {k}: {c!r}")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)


def series(coeffs: Iterable[float]) -> TruncatedSeries:
    """Convenience constructor from any iterable of coefficients."""
    return TruncatedSeries(tuple(coeffs))


def cauchy_product(s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
    """Convolution product, truncated to the shorter order."""
    n = min(len(s.coeffs), len(t.coeffs))
    out = []
    for k in range(n):
        out.append(sum(s.coeffs[r] * t.coeffs[k - r] for r in range(k + 1)))
    return TruncatedSeries(tuple(out))


def differentiate(s: TruncatedSeries, n: int = 1) -> TruncatedSeries:
    """n-th derivative: coefficient k of the result is (k+n)!/k! * c_{k+n}.

    Raises ValueError when the series is too short to lose n orders.
    """
    if n < 1:
        raise ValueError("derivative order must be a positive integer")
    if s.order < n:
        raise ValueError(f"cannot differentiate an order-{s.order} series {n} times")
    out = []
    for k in range(s.order - n + 1):
        fac = math.factorial(k + n) // math.factorial(k)
        out.append(fac * s.coeffs[k + n])
    return TruncatedSeries(tuple(out))


def evaluate(s: TruncatedSeries, x: float) -> float:
    """Horner evaluation of the truncated partial sum at x."""
    if not math.isfinite(x):
        raise ValueError("evaluation point must be finite")
    acc = 0.0
    for c in reversed(s.coeffs):
        acc = acc * x + c
    return acc
