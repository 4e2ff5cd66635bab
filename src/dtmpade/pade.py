"""Rational [L/M] approximants matched to a truncated series at the origin.

The denominator is normalized to b0 = 1. The b-coefficients come from the
M x M linear system that zeroes the series coefficients of degrees
L+1..L+M of (denominator * series - numerator); the a-coefficients then
fall out by convolution. One SVD of the system gives both its solution
and its condition number; Pade systems are notoriously ill-conditioned,
so a condition number beyond 1e12 raises instead of returning noise.

numpy factors that system and is imported by build_many() alone, so the
commands that never build an approximant start without it. build_many
fits several series of one degree pair as one stack of systems (the
closure's f' and theta fits), and build is its one-series case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul, sub
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
        num = tuple(map(float, self.numerator))
        den = tuple(map(float, self.denominator))
        if not (all(map(math.isfinite, num)) and all(map(math.isfinite, den))):
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

    The series share one numpy call per step: the gather, the SVD that
    gives each block's condition number and solution, and each refinement
    round. LAPACK and matmul treat each matrix of a stack as they treat
    that matrix alone, so every member gets the bits of its own build.
    A member whose SVD fails, in the stack and alone, is degenerate.
    """
    if L < 0 or M < 0:
        raise ValueError("degrees must be nonnegative")
    for c in series:
        if c.order < L + M:
            raise ValueError(f"series order {c.order} is below L + M = {L + M}")
    fits: list = [
        # b = 0 satisfies the matching conditions exactly; this covers
        # degenerate blocks such as a constant series, where the Toeplitz
        # system is singular but the approximant is trivially a polynomial
        None if any(c.coeffs[L + 1 : L + M + 1])
        else RationalApproximant(c.coeffs[: L + 1], (1.0,) + (0.0,) * M)
        for c in series
    ]
    live = [i for i, fit in enumerate(fits) if fit is None]
    if not live:
        return fits

    padded, A = _matching_blocks([series[i].coeffs for i in live], L, M)
    rhs = -padded[:, L + M + 1 :, None]
    for i, solved in zip(live, _svd_solve(A, rhs)):
        try:
            if isinstance(solved, Exception):
                raise DegenerateApproximantError(f"[{L}/{M}] {solved}")
            cond, b_tail = solved
            if not cond <= COND_THRESHOLD:
                raise DegenerateApproximantError(
                    f"[{L}/{M}] linear system is rank-deficient (condition estimate {cond:.3g})"
                )
            fits[i] = _finish(series[i].coeffs, L, M, b_tail)
        except DegenerateApproximantError as exc:
            fits[i] = exc
    return fits


def _matching_blocks(coeffs: Sequence[Sequence[float]], L: int, M: int):
    """The coefficients c0..c(L+M) behind M zeros, one row per series, and
    the stack of their M x M blocks: row k, column j is c[L+k-j] (1-based),
    zero below c0, gathered through one index array."""
    import numpy as np

    padded = np.array([(0.0,) * M + tuple(c[: L + M + 1]) for c in coeffs])
    return padded, padded[:, _toeplitz_index(L, M)]


@functools.cache
def _toeplitz_index(L: int, M: int):
    """Index of c[L+k-j] among M zeros followed by c0..c(L+M), for k, j < M."""
    import numpy as np

    k = np.arange(M)
    return L + M + k[:, None] - k


def _svd_solve(A, rhs) -> list[tuple[float, list[float]] | Exception]:
    """(condition, b-tail) of each system of a stack A b = rhs (rhs shaped
    (k, M, 1)), from one SVD A = U S V^T per matrix.

    numpy fails a whole stack where one matrix's SVD does not converge;
    then each is solved alone, and one that fails alone gets its LinAlgError.

    The condition is s_max / s_min, the value np.linalg.cond gives, inf for
    a singular matrix. The b-tail is V S^-1 U^T rhs, refined by two rounds
    through the same factors with an extended-precision residual: Pade
    systems lose digits fast and the refinement is nearly free. A zero or
    tiny singular value makes the solution non-finite: quietly, since the
    condition gate or _finish's finiteness check reports it.
    """
    import numpy as np

    try:
        U, s, Vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:
        if len(A) == 1:
            return [exc]
        return [r for j in range(len(A)) for r in _svd_solve(A[j : j + 1], rhs[j : j + 1])]
    V, Ut, s_col = Vt.swapaxes(1, 2), U.swapaxes(1, 2), s[:, :, None]
    A_ext = A.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    with np.errstate(all="ignore"):
        b_tail = V @ (Ut @ rhs / s_col)
        for _ in range(2):
            resid = rhs_ext - A_ext @ b_tail.astype(np.longdouble)
            b_tail = b_tail + V @ (Ut @ resid.astype(float) / s_col)
    return [(math.inf if t[-1] == 0.0 else t[0] / t[-1], x)
            for t, x in zip(s.tolist(), b_tail[:, :, 0].tolist())]


def _finish(cc: tuple[float, ...], L: int, M: int, b_tail: list[float]) -> RationalApproximant:
    """The approximant with denominator 1, b_tail; raises unless it is
    finite and matches its series cc."""
    b = [1.0, *b_tail]
    try:  # the constructor's finiteness check is the only one
        result = RationalApproximant([sum(map(mul, b, cc[i::-1])) for i in range(L + 1)], b)
    except ValueError:
        raise DegenerateApproximantError(
            f"[{L}/{M}] approximant coefficients overflow") from None

    # the condition estimate alone does not guarantee the matching conditions
    # were actually met; verify the expansion against the input and fail loudly
    window = cc[: L + M + 1]
    scale = max(1.0, max(map(abs, window)))
    mismatch = max(map(abs, map(sub, _expand(result, L + M), window)))
    if mismatch > MATCH_TOLERANCE * scale:
        raise DegenerateApproximantError(
            f"[{L}/{M}] approximant only matches its series to {mismatch:.3g}; "
            "the system is numerically rank-deficient"
        )
    return result


def _expand(r: RationalApproximant, order: int) -> list[float]:
    """Taylor coefficients of numerator/denominator up to the given degree."""
    num = list(r.numerator) + [0.0] * (order + 1)
    den = r.denominator[1:]  # b1..bM
    out: list[float] = []
    for k in range(order + 1):
        # b_j * out[k-j] for j = 1..min(k, M): the zero b_j past M add zero
        # products, which leave a finite sum unchanged; past an entry that
        # overflows, one may read inf where 0 * inf made nan, and _finish's
        # largest mismatch is the same either way
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
    num, den = r.numerator, r.denominator
    d = _effective_degree(den)
    if d < L:
        num_floor = LEADING_COEFF_FLOOR * max(map(abs, num))
        if any(map(num_floor.__lt__, map(abs, num[d + 1 :]))):
            raise DegenerateLimitError(
                f"numerator outgrows effective denominator degree {d}: the limit diverges"
            )
    return num[d] / den[d]


def _effective_degree(den: tuple[float, ...]) -> int:
    """The highest j whose |b_j| is at least LEADING_COEFF_FLOOR times the largest,
    scanned down from the top; the largest itself passes, so the scan stops."""
    floor = LEADING_COEFF_FLOOR * max(map(abs, den))
    d = len(den) - 1
    while not abs(den[d]) >= floor:
        d -= 1
    return d


def limit_tangents(
    fits: Sequence[RationalApproximant],
    series: Sequence[Sequence[float]],
    tangents: Sequence[Sequence[complex]],
) -> list[complex]:
    """The derivative of each fit's limit at infinity along its series' tangent.

    fits[i] is the [n/n] approximant that build_many fitted to the
    coefficients series[i], and tangents[i] holds their derivatives; a
    complex tangent carries two directions, in its real and imaginary parts,
    since every step is real-linear in it. The b-tail's tangent db solves
    C db = -(dc_hi + dC b), C the fit's matching block: one stacked LU
    solve (np.linalg.solve) for every fit, apart from the value solve, the
    SVD in build_many. The limit a_d / b_d then moves by
    (da_d - limit * db_d) / b_d at the effective degree d. Where numpy
    cannot solve, every derivative is NaN.
    """
    import numpy as np

    L, M = fits[0].degrees
    _, C = _matching_blocks(series, L, M)
    # coefficients L+1..L+M of b * dc, which the tangent of b * c - a must cancel
    rhs = [[-sum(map(mul, fit.denominator, dc[L + k :: -1])) for k in range(1, M + 1)]
           for fit, dc in zip(fits, tangents)]
    try:
        tails = np.linalg.solve(C, np.array(rhs)[:, :, None])[:, :, 0].tolist()
    except np.linalg.LinAlgError:
        return [complex(math.nan, math.nan)] * len(fits)
    out = []
    for fit, c, dc, tail in zip(fits, series, tangents, tails):
        a, b = fit.numerator, fit.denominator
        d = _effective_degree(b)
        db = [0j] + tail
        da = sum(map(mul, b, dc[d::-1])) + sum(map(mul, db, c[d::-1]))
        out.append((da - a[d] / b[d] * db[d]) / b[d])
    return out
