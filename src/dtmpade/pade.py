"""Rational [L/M] approximants matched to a truncated series at the origin.

The denominator is normalized to b0 = 1. The b-coefficients come from the
M x M linear system that zeroes the series coefficients of degrees
L+1..L+M of (denominator * series - numerator); the a-coefficients then
fall out by convolution. Pade systems are notoriously ill-conditioned, so
a condition estimate beyond 1e12 raises instead of returning noise.

numpy solves that system and is imported by build_many() alone, so the
commands that never build an approximant start without it. build_many
fits several series of one degree pair as one stack of systems (the
closure's f' and theta fits), and build is its one-series case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .errors import DegenerateApproximantError, DegenerateLimitError, PoleError
from .series import TruncatedSeries

COND_THRESHOLD = 1e12
MATCH_TOLERANCE = 1e-10
# relative floors: a denominator coefficient below this is taken as zero,
# lowering its effective degree d; a numerator coefficient above degree d
# and above this makes the limit at infinity diverge
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
    (fit,) = build_many((c,), L, M)
    if isinstance(fit, Exception):
        raise fit
    return fit


def build_many(
    series: Sequence[TruncatedSeries], L: int, M: int
) -> list[RationalApproximant | Exception]:
    """The [L/M] approximant of each series, or the error build raises for it.

    The series share one numpy call per step: the gather, the condition
    estimate, the solve and each refinement round. LAPACK treats each
    matrix of a stack as it treats that matrix alone, so every member gets
    the bits of its own build.
    """
    if L < 0 or M < 0:
        raise ValueError("degrees must be nonnegative")
    for c in series:
        if c.order < L + M:
            raise ValueError(f"series order {c.order} is below L + M = {L + M}")
    fits: list = [None] * len(series)
    live = []
    for i, c in enumerate(series):
        if any(c.coeffs[L + 1 : L + M + 1]):
            live.append(i)
        else:
            # b = 0 satisfies the matching conditions exactly; this covers
            # degenerate blocks such as a constant series, where the Toeplitz
            # system is singular but the approximant is trivially a polynomial
            fits[i] = RationalApproximant(c.coeffs[: L + 1], (1.0,) + (0.0,) * M)
    if not live:
        return fits

    import numpy as np

    # row k, column j of the block is c[L+k-j] (1-based), zero below c0: the
    # coefficients behind M zeros, gathered through one index array
    padded = np.array([(0.0,) * M + series[i].coeffs[: L + M + 1] for i in live])
    A = padded[:, _toeplitz_index(L, M)]
    rhs = -padded[:, L + M + 1 :, None]

    solvable = []
    for j, (i, cond) in enumerate(zip(live, _condition_numbers(A))):
        if cond <= COND_THRESHOLD:
            solvable.append(j)
        else:
            fits[i] = DegenerateApproximantError(
                f"[{L}/{M}] linear system is rank-deficient (condition estimate {cond:.3g})"
            )
    if not solvable:
        return fits

    if len(solvable) < len(live):
        A, rhs = A[solvable], rhs[solvable]
    tails = _each_matrix(_refined_solve, A, rhs)
    for j, b_tail in zip(solvable, tails):
        i = live[j]
        try:
            fits[i] = b_tail if isinstance(b_tail, Exception) else _finish(
                series[i].coeffs, L, M, b_tail)
        except DegenerateApproximantError as exc:
            fits[i] = exc
    return fits


@functools.cache
def _toeplitz_index(L: int, M: int):
    """Index of c[L+k-j] among M zeros followed by c0..c(L+M), for k, j < M."""
    import numpy as np

    k = np.arange(M)
    return L + M + k[:, None] - k


def _condition_numbers(A) -> list[float]:
    """s_max / s_min of each matrix of a stack from one SVD call: the value
    np.linalg.cond gives, inf for a singular matrix and where the SVD fails."""
    import numpy as np

    return [
        math.inf if isinstance(s, Exception) or s[-1] == 0.0 else s[0] / s[-1]
        for s in _each_matrix(lambda A: np.linalg.svd(A, compute_uv=False).tolist(), A)
    ]


def _each_matrix(fn, *stacks) -> list:
    """fn's list of per-matrix results for stacks of matrices, in one call.

    numpy fails a whole stack for one singular or unconverged matrix; then
    each runs alone, and a failing matrix's entry is its LinAlgError.
    """
    import numpy as np

    try:
        return fn(*stacks)
    except np.linalg.LinAlgError as exc:
        if len(stacks[0]) == 1:
            return [exc]
        return [r for j in range(len(stacks[0]))
                for r in _each_matrix(fn, *(s[j : j + 1] for s in stacks))]


def _refined_solve(A, rhs) -> list[list[float]]:
    """The b-tails of a stack of systems A b = rhs (rhs shaped (k, M, 1)).

    Two rounds of iterative refinement with an extended-precision residual;
    Pade systems lose digits fast and the refinement is nearly free. A tiny
    pivot (a subnormal one passes the condition gate of a 1x1 system) can
    overflow the solve, which the refinement turns into NaN: quietly, since
    _finish's finiteness check reports it.
    """
    import numpy as np

    b_tail = np.linalg.solve(A, rhs)
    A_ext = A.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            resid = rhs_ext - A_ext @ b_tail.astype(np.longdouble)
            b_tail = b_tail + np.linalg.solve(A, resid.astype(float))
    return b_tail[:, :, 0].tolist()


def _finish(cc: tuple[float, ...], L: int, M: int, b_tail: list[float]) -> RationalApproximant:
    """The approximant with denominator 1, b_tail; raises unless it is finite
    and matches its series cc."""
    b = (1.0,) + tuple(b_tail)
    a = tuple(sum(map(mul, b, cc[i::-1])) for i in range(L + 1))
    if not all(math.isfinite(v) for v in a + b):
        raise DegenerateApproximantError(f"[{L}/{M}] approximant coefficients overflow")
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
    den = list(r.denominator[1:]) + [0.0] * (order + 1)  # b1, b2, ... then zeros
    out: list[float] = []
    for k in range(order + 1):
        # b_j * out[k-j] for j = 1..k, zero-padded b_j included
        out.append(num[k] - sum(map(mul, den, reversed(out))))
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
    """Limit of a degree-balanced approximant at infinity: a_d / b_d.

    d is the denominator's effective degree, n unless b_n is below the
    floor; a numerator term above d that exceeds it diverges. Only
    L == M is supported; the infinity boundary conditions need no other.
    """
    L, M = r.degrees
    if L != M:
        raise DegenerateApproximantError(
            f"limit at infinity needs equal degrees, got [{L}/{M}]"
        )
    den_scale = max(abs(b) for b in r.denominator)  # >= 1 since b0 = 1
    d = max(
        j for j, b in enumerate(r.denominator) if abs(b) >= LEADING_COEFF_FLOOR * den_scale
    )
    num_floor = LEADING_COEFF_FLOOR * max(abs(a) for a in r.numerator)
    if any(abs(a) > num_floor for a in r.numerator[d + 1 :]):
        raise DegenerateLimitError(
            f"numerator outgrows effective denominator degree {d}: the limit diverges"
        )
    return r.numerator[d] / r.denominator[d]
