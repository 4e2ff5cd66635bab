import math
import random
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from dtmpade import pade
from dtmpade.errors import DegenerateApproximantError, DegenerateLimitError, PoleError
from dtmpade.pade import (
    RationalApproximant,
    _expand,
    _svd_solve,
    build,
    build_many,
    evaluate,
    limit_at_infinity,
)
from dtmpade.series import TruncatedSeries


def expand_quotient(r, order):
    """Taylor expansion of num/den by series division, independent of build."""
    num = list(r.numerator) + [0.0] * (order + 1)
    den = list(r.denominator) + [0.0] * (order + 1)
    out = []
    for k in range(order + 1):
        acc = num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1))
        out.append(acc / den[0])
    return out


def test_geometric_series_is_exact():
    r = build(TruncatedSeries([1, 1, 1, 1]), 1, 1)
    assert r.numerator == pytest.approx((1.0, 0.0), abs=1e-14)
    assert r.denominator == pytest.approx((1.0, -1.0), abs=1e-14)


def test_exponential_one_one():
    # b1 solves c1*b1 + c2 = 0 with c = [1, 1, 1/2]: b1 = -1/2
    r = build(TruncatedSeries([1, 1, 0.5]), 1, 1)
    assert r.denominator[1] == pytest.approx(-0.5, abs=1e-14)
    assert r.numerator == pytest.approx((1.0, 0.5), abs=1e-14)


def test_zero_denominator_degree_is_taylor():
    r = build(TruncatedSeries([2, 3, 4, 5]), 2, 0)
    assert r.numerator == (2.0, 3.0, 4.0)
    assert r.denominator == (1.0,)


def test_build_requires_enough_coefficients():
    with pytest.raises(ValueError):
        build(TruncatedSeries([1, 1]), 2, 2)


@pytest.mark.parametrize("L, M", [(-1, 1), (1, -1)])
def test_build_rejects_negative_degrees(L, M):
    with pytest.raises(ValueError, match="degrees must be nonnegative"):
        build(TruncatedSeries([1, 1, 1]), L, M)


def test_build_degenerate_system_raises():
    # even series: the [1/1] system has c1 = 0 on its diagonal
    with pytest.raises(DegenerateApproximantError):
        build(TruncatedSeries([1, 0, 1]), 1, 1)


def test_evaluate_examples():
    geo = build(TruncatedSeries([1, 1, 1, 1]), 1, 1)
    assert evaluate(geo, 0.5) == pytest.approx(2.0, abs=1e-14)
    exp11 = build(TruncatedSeries([1, 1, 0.5]), 1, 1)
    assert evaluate(exp11, 0.0) == 1.0  # a0, since b0 = 1
    assert evaluate(exp11, 1.0) == pytest.approx(3.0, abs=1e-13)


def test_evaluate_pole_raises():
    geo = build(TruncatedSeries([1, 1, 1, 1]), 1, 1)  # 1/(1-x)
    with pytest.raises(PoleError):
        evaluate(geo, 1.0)


def test_limit_at_infinity_examples():
    exp11 = build(TruncatedSeries([1, 1, 0.5]), 1, 1)  # (1 + x/2)/(1 - x/2)
    assert limit_at_infinity(exp11) == pytest.approx(-1.0, abs=1e-14)

    # zero leading numerator with a healthy denominator: the limit is just 0
    geo = build(TruncatedSeries([1, 1, 1, 1]), 1, 1)
    assert limit_at_infinity(geo) == pytest.approx(0.0, abs=1e-14)

    r = RationalApproximant((1.0, 0.0, 3.0), (1.0, 0.0, 0.5))  # (3x^2+1)/(x^2/2+1)
    assert limit_at_infinity(r) == pytest.approx(6.0, abs=1e-14)

    # a tiny leading numerator coefficient is still the limit, not a flush to 0
    r = RationalApproximant((1.0, 1.0, 1e-12), (1.0, 1.0, 1.0))
    assert limit_at_infinity(r) == 1e-12

    # both sides one degree short: the [1/1] block's ratio
    r = RationalApproximant((1.0, 2.0, 0.0), (1.0, 1.0, 0.0))
    assert limit_at_infinity(r) == 2.0


def test_limit_requires_diagonal():
    r = RationalApproximant((1.0,), (1.0, 2.0))
    with pytest.raises(DegenerateApproximantError):
        limit_at_infinity(r)


def test_limit_rejects_vanishing_leading_denominator():
    r = RationalApproximant((1.0, 1.0), (1.0, 1e-14))
    with pytest.raises(DegenerateLimitError):
        limit_at_infinity(r)


def test_normalization_enforced():
    with pytest.raises(ValueError):
        RationalApproximant((1.0,), (2.0, 1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_approximant_coefficients_must_be_finite(bad):
    for num, den in (((bad,), (1.0,)), ((1.0,), (1.0, bad))):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            RationalApproximant(num, den)


def test_reconstruction_order_randomized():
    rnd = random.Random(7)
    checked = 0
    while checked < 40:
        L = rnd.randint(0, 4)
        M = rnd.randint(1, 4)
        c = [rnd.uniform(-1, 1) for _ in range(L + M + 1)]
        try:
            r = build(TruncatedSeries(c), L, M)
        except DegenerateApproximantError:
            continue
        back = expand_quotient(r, L + M)
        scale = max(1.0, max(abs(x) for x in c))
        assert all(abs(a - b) <= 1e-10 * scale for a, b in zip(back, c))
        checked += 1


def test_exact_recovery_of_rational_functions():
    rnd = random.Random(11)
    recovered = 0
    while recovered < 20:
        L = rnd.randint(1, 3)
        M = rnd.randint(1, 3)
        num = [rnd.uniform(-1, 1) for _ in range(L + 1)]
        den = [1.0] + [rnd.uniform(-0.5, 0.5) for _ in range(M)]
        truth = RationalApproximant(tuple(num), tuple(den))
        c = expand_quotient(truth, L + M + 2)
        try:
            r = build(TruncatedSeries(c), L, M)
        except DegenerateApproximantError:
            continue
        assert np.allclose(r.numerator, truth.numerator, atol=1e-10)
        assert np.allclose(r.denominator, truth.denominator, atol=1e-10)
        recovered += 1


def test_limit_agrees_with_far_evaluation():
    rnd = random.Random(3)
    checked = 0
    while checked < 30:
        n = rnd.randint(1, 3)
        c = [rnd.uniform(-1, 1) for _ in range(2 * n + 1)]
        try:
            r = build(TruncatedSeries(c), n, n)
            lim = limit_at_infinity(r)
        except DegenerateApproximantError:
            continue
        # skip cases with a pole (or near-pole) beyond x = 1e3
        roots = np.roots(list(reversed(r.denominator)))
        if np.any(np.abs(roots) > 1e3):
            continue
        far = evaluate(r, 1e6)
        assert abs(far - lim) <= 1e-4 * max(1e-12, abs(lim))
        checked += 1


def reference_expand(r, order):
    """pade._expand in its term-by-term form, verbatim."""
    num = list(r.numerator) + [0.0] * (order + 1)
    den = list(r.denominator) + [0.0] * (order + 1)
    out: list[float] = []
    for k in range(order + 1):
        out.append(num[k] - sum(den[j] * out[k - j] for j in range(1, k + 1)))
    return out


coefficients = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12)


@given(coefficients, coefficients, st.integers(0, 30))
def test_expand_equals_term_by_term_reference(num, den_tail, order):
    r = RationalApproximant(tuple(num), (1.0,) + tuple(den_tail))
    # large coefficients overflow to inf and nan, which hex() spells out too
    assert [c.hex() for c in _expand(r, order)] == [c.hex() for c in reference_expand(r, order)]


def reference_finish(cc, L, M, b_tail):
    """pade._finish in its generator-expression form, verbatim."""
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
    if mismatch > pade.MATCH_TOLERANCE * scale:
        raise DegenerateApproximantError(
            f"[{L}/{M}] approximant only matches its series to {mismatch:.3g}; "
            "the system is numerically rank-deficient"
        )
    return result


def reference_limit_at_infinity(r):
    """pade.limit_at_infinity in its generator-expression form, verbatim."""
    L, M = r.degrees
    if L != M:
        raise DegenerateApproximantError(
            f"limit at infinity needs equal degrees, got [{L}/{M}]"
        )
    d = reference_effective_degree(r.denominator)
    num_floor = pade.LEADING_COEFF_FLOOR * max(abs(a) for a in r.numerator)
    if any(abs(a) > num_floor for a in r.numerator[d + 1 :]):
        raise DegenerateLimitError(
            f"numerator outgrows effective denominator degree {d}: the limit diverges"
        )
    return r.numerator[d] / r.denominator[d]


def reference_effective_degree(den):
    """pade._effective_degree as a max over every qualifying j, verbatim."""
    den_scale = max(abs(b) for b in den)  # >= 1 since b0 = 1
    return max(j for j, b in enumerate(den) if abs(b) >= pade.LEADING_COEFF_FLOOR * den_scale)


def outcome(fn, *args):
    """A fit's or a limit's bits, or the error's class and message."""
    try:
        value = fn(*args)
    except (DegenerateApproximantError, ValueError) as exc:
        return type(exc), str(exc)
    return value.hex() if isinstance(value, float) else fit_bits(value)


# signed zeros, and magnitudes from tiny to past the 1e10 floor around b0 = 1
mixed = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-20, 20)),
)


def largest_mismatch(expansion, window):
    """_finish's match measure: max |expansion - window|, which skips a NaN."""
    return max(abs(p - q) for p, q in zip(expansion, window))


# tails past 1e100, whose expansions overflow within a few terms
overflowing = st.one_of(mixed, st.builds(lambda sign, e: sign * 10.0**e,
                                         st.sampled_from([-1.0, 1.0]), st.floats(100, 300)))


@given(st.integers(0, 6).flatmap(lambda L: st.integers(1, 6).flatmap(lambda M: st.tuples(
    st.lists(overflowing, min_size=L + 1, max_size=L + 1),
    st.lists(overflowing, min_size=M, max_size=M),
    st.lists(mixed, min_size=L + M + 1, max_size=L + M + 1)))))
# 1 / (1 + 1e300 x): 1, -1e300, inf, -inf, then inf where the zero-padded
# form read -inf + 0 * inf = nan
@example(([1.0], [1e300], [1.0, 0.0]))
def test_match_check_reads_the_mismatch_of_the_padded_expansion(case):
    # _expand stops each sum at b_M; the zero-padded reference also adds
    # 0 * out[k-j] for j > M. Both agree up to the first non-finite entry,
    # and past it the largest mismatch is the same: inf where that entry is
    # inf, and where it is nan, b1 makes every later entry nan in both
    num, tail, window = case
    r = RationalApproximant(tuple(num), (1.0, *tail))
    order = len(window) + 2
    got, want = _expand(r, order), reference_expand(r, order)
    first = next((k for k, v in enumerate(want) if not math.isfinite(v)), order)
    assert [v.hex() for v in got[:first + 1]] == [v.hex() for v in want[:first + 1]]
    window = [*window, 0.0, 0.0, 0.0]
    assert largest_mismatch(got, window).hex() == largest_mismatch(want, window).hex()


@st.composite
def finish_inputs(draw):
    """(cc, L, M, b_tail): a series and a denominator tail that may or may
    not match it; the matching ones come from expanding a rational function."""
    L, M = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    tail = st.one_of(mixed, st.sampled_from([1e300, -1e300, math.inf, math.nan]))
    b_tail = draw(st.lists(tail, min_size=M, max_size=M))
    if draw(st.booleans()) or not all(map(math.isfinite, b_tail)):
        cc = draw(st.lists(mixed, min_size=L + M + 1, max_size=L + M + 1))
    else:
        num = draw(st.lists(mixed, min_size=L + 1, max_size=L + 1))
        cc = reference_expand(RationalApproximant(num, [1.0] + b_tail), L + M)
        assume(all(map(math.isfinite, cc)))
    return tuple(cc), L, M, b_tail


@given(finish_inputs())
# a denominator whose largest |b_j| puts the floor above b0 = 1; b1 = 0.5
# against 1, 1, 1, which its expansion misses; a b-tail that overflows a
@example(((1.0, 2.0, 3.0, -0.0, 0.0), 2, 2, [5e10, 2e11]))
@example(((1.0, 1.0, 1.0), 1, 1, [0.5]))
@example(((1.0, 1e300, 0.0), 1, 1, [1e300]))
def test_finish_and_limit_equal_their_references(case):
    cc, L, M, b_tail = case
    fit = outcome(pade._finish, cc, L, M, b_tail)
    assert fit == outcome(reference_finish, cc, L, M, b_tail)
    if not isinstance(fit[0], type):
        r = pade._finish(cc, L, M, b_tail)
        assert outcome(limit_at_infinity, r) == outcome(reference_limit_at_infinity, r)


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(mixed, min_size=n + 1, max_size=n + 1), st.lists(mixed, min_size=n, max_size=n))))
# trivially polynomial fits, as build_many gives a series whose block is zero
@example(([0.5, -0.0, 0.0], [0.0, -0.0]))
@example(([0.5, -0.0, 0.25], [-0.0, 0.0]))
# the floor lies above b0 = 1 and b2: the effective degree is 1, and a2 outgrows it
@example(([1.0, 1.0, 1.0], [2e11, 1.0]))
@example(([1.0, 1.0, 1e-12], [2e11, 1.0]))
@example(([1.0, 2.0, 3.0], [5e10, 2e11]))
# b1 at the floor exactly counts: the effective degree is 1
@example(([1.0, 1.0], [1e-10]))
def test_limit_equals_its_reference(case):
    num, den_tail = case
    r = RationalApproximant(num, [1.0] + den_tail)
    assert outcome(limit_at_infinity, r) == outcome(reference_limit_at_infinity, r)
    assert pade._effective_degree(r.denominator) == reference_effective_degree(r.denominator)


@given(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9), st.integers(0, 4),
       st.integers(0, 4))
# a subnormal 1x1 block: the solution overflows and build rejects the fit as degenerate
@example([2.2e-309, 1.0] + [0.0] * 7, 0, 1)
def test_build_numerator_equals_term_by_term_convolution(c, L, M):
    if not any(c[L + 1:L + M + 1]):
        return  # a polynomial: build copies the numerator without a convolution
    try:
        r = build(TruncatedSeries(c), L, M)
    except DegenerateApproximantError:
        return
    b = r.denominator
    a = tuple(sum(b[j] * c[i - j] for j in range(min(i, M) + 1)) for i in range(L + 1))
    assert [x.hex() for x in r.numerator] == [x.hex() for x in a]


def reference_build(c, L, M):
    """build as one lone fit: an SVD of the one system gives its condition
    and its solution V S^-1 U^T rhs, refined twice through the same factors."""
    from operator import mul

    cc = c.coeffs
    if not any(cc[L + 1 : L + M + 1]):
        return RationalApproximant(cc[: L + 1], (1.0,) + (0.0,) * M)
    A = np.array([[cc[L + k - j] if L + k - j >= 0 else 0.0 for j in range(1, M + 1)]
                  for k in range(1, M + 1)])
    rhs = np.array([[-cc[L + k]] for k in range(1, M + 1)])
    try:
        U, s, Vt = np.linalg.svd(A)
    except np.linalg.LinAlgError as exc:  # as pade.build_many wraps it
        raise DegenerateApproximantError(f"[{L}/{M}] {exc}") from exc
    cond = math.inf if s[-1] == 0.0 else float(s[0]) / float(s[-1])
    if not cond <= 1e12:
        raise DegenerateApproximantError(
            f"[{L}/{M}] linear system is rank-deficient (condition estimate {cond:.3g})")
    A_ext = A.astype(np.longdouble)
    rhs_ext = rhs.astype(np.longdouble)
    with np.errstate(all="ignore"):
        b_tail = Vt.T @ (U.T @ rhs / s[:, None])
        for _ in range(2):
            resid = rhs_ext - A_ext @ b_tail.astype(np.longdouble)
            b_tail = b_tail + Vt.T @ (U.T @ resid.astype(float) / s[:, None])
    b_tail = b_tail[:, 0]
    b = (1.0,) + tuple(b_tail.tolist())
    a = tuple(sum(map(mul, b, cc[i::-1])) for i in range(L + 1))
    if not all(np.isfinite(v) for v in a + b):
        raise DegenerateApproximantError(f"[{L}/{M}] approximant coefficients overflow")
    result = RationalApproximant(a, b)
    scale = max(1.0, max(abs(v) for v in cc[: L + M + 1]))
    mismatch = max(abs(p - q) for p, q in zip(_expand(result, L + M), cc[: L + M + 1]))
    if mismatch > 1e-10 * scale:
        raise DegenerateApproximantError(
            f"[{L}/{M}] approximant only matches its series to {mismatch:.3g}; "
            "the system is numerically rank-deficient")
    return result


def fit_bits(fit):
    """An approximant's coefficients as hex, or an error's class and message."""
    if isinstance(fit, Exception):
        return type(fit), str(fit)
    return [v.hex() for v in fit.numerator], [v.hex() for v in fit.denominator]


def lone_bits(c, L, M):
    try:
        return fit_bits(reference_build(c, L, M))
    except DegenerateApproximantError as exc:
        return fit_bits(exc)


def stacks(L, M):
    """(L, M, one to four coefficient lists of length L + M + 1)."""
    coeffs = st.lists(st.floats(-1e3, 1e3), min_size=L + M + 1, max_size=L + M + 1)
    return st.tuples(st.just(L), st.just(M), st.lists(coeffs, min_size=1, max_size=4))


U = 2.2250738585e-313  # subnormal


@given(st.integers(1, 11).flatmap(lambda L: st.integers(1, 11).flatmap(lambda M: stacks(L, M))))
# a subnormal block of condition 4.05 whose LU factorization meets an
# exact zero pivot; its SVD solves it (test_subnormal_block_solves)
@example((1, 3, [[U, 0.0, U, U, 0.0]]))
def test_build_many_gives_each_member_its_lone_build(case):
    L, M, coeffs = case
    stack = [TruncatedSeries(c) for c in coeffs]
    assert [fit_bits(f) for f in build_many(stack, L, M)] == [lone_bits(c, L, M) for c in stack]


def mixed_members(L):
    """[L/2] series that take each branch of build: (coefficients, message fragment)."""
    return [
        ([1.0] * (L + 1) + [0.0, 0.0], None),  # zero block: a polynomial
        ([0.0] * (L + 2) + [1.0], "condition estimate inf"),  # zero matrix
        # a block of condition ~4e10 whose ~1e10 solution matches to ~1e-6 only
        ([0.0] * (L - 1) + [1.0, 1.0, 1.0 - 1e-10, 0.0], "only matches its series"),
        ([0.0] * L + [1e-300, 0.0, 1e300], "coefficients overflow"),  # b2 = -1e600
    ]


@given(st.integers(1, 9), st.permutations(range(5)),
       st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
def test_mixed_stack_members_match_their_lone_builds(L, order, generic):
    members = mixed_members(L) + [(generic[: L + 3], None)]
    stack = [TruncatedSeries(members[i][0]) for i in order]
    fits = build_many(stack, L, 2)
    assert [fit_bits(f) for f in fits] == [lone_bits(c, L, 2) for c in stack]
    assert [fit_bits(build_many([c], L, 2)[0]) for c in stack] == [fit_bits(f) for f in fits]
    for i, fit in zip(order, fits):
        fragment = members[i][1]
        if fragment is not None:
            assert isinstance(fit, DegenerateApproximantError) and fragment in str(fit)
        elif i == 0:
            assert fit.denominator == (1.0, 0.0, 0.0)


def test_build_raises_what_build_many_returns():
    c = TruncatedSeries([0.0, 0.0, 1.0])
    assert isinstance(build_many([c], 1, 1)[0], DegenerateApproximantError)
    with pytest.raises(DegenerateApproximantError, match="condition estimate inf"):
        build(c, 1, 1)
    assert build_many([], 1, 1) == []
    with pytest.raises(ValueError):
        build_many([TruncatedSeries([1.0, 1.0, 1.0]), TruncatedSeries([1.0, 1.0])], 1, 1)


def toeplitz(c, L, M):
    return [[c[L + k - j] if L + k - j >= 0 else 0.0 for j in range(1, M + 1)]
            for k in range(1, M + 1)]


def toeplitz_stack(coeff_lists, L, M):
    """The [L/M] blocks and right-hand sides of coefficient lists, shaped for _svd_solve."""
    return (np.array([toeplitz(c, L, M) for c in coeff_lists]),
            np.array([[[-c[L + k]] for k in range(1, M + 1)] for c in coeff_lists]))


@given(st.integers(0, 10), st.integers(1, 11), st.data())
def test_condition_numbers_match_np_linalg_cond(L, M, data):
    # singular values with vectors differ from compute_uv=False in the last
    # bits, so the conditions agree to rounding, not bit for bit
    coeffs = st.lists(st.floats(-1e3, 1e3), min_size=L + M + 1, max_size=L + M + 1)
    blocks, rhs = toeplitz_stack(data.draw(st.lists(coeffs, min_size=1, max_size=4)), L, M)
    for (cond, _), A in zip(_svd_solve(blocks, rhs), blocks):
        expected = float(np.linalg.cond(A))
        if math.isfinite(expected) and expected < 1e15:
            assert cond == pytest.approx(expected, rel=1e-12)
        else:  # 0/0 or a rounding-level smallest singular value
            assert not cond <= 1e12


def test_condition_numbers_of_singular_and_subnormal_blocks():
    blocks, rhs = toeplitz_stack([[0.0] * 5,  # zero: 0/0 in np.linalg.cond
                                  [0.0, 1.0, 1.0, 1.0, 1.0],  # rank one
                                  [1.0, 2.0, 1.0, 0.5, 0.0]], 2, 2)
    with np.errstate(all="raise"):  # the solve of a singular block stays quiet
        conds = [cond for cond, _ in _svd_solve(blocks, rhs)]
    assert conds[0] == math.inf
    assert not conds[1] <= 1e12
    assert conds[2] == pytest.approx(float(np.linalg.cond(blocks[2])), rel=1e-12)
    # a subnormal 1x1 block is perfectly conditioned
    assert [cond for cond, _ in _svd_solve(np.array([[[2.2e-309]]]), np.array([[[1.0]]]))] == [1.0]


@given(st.integers(0, 6), st.integers(1, 8), st.data())
def test_svd_solve_matches_np_linalg_solve_on_well_conditioned_blocks(L, M, data):
    # magnitudes of 1e-3 to 1, so that no well-conditioned solution overflows
    unit = st.floats(1e-3, 1.0).flatmap(lambda v: st.sampled_from((v, -v)))
    coeffs = st.lists(unit, min_size=L + M + 1, max_size=L + M + 1)
    blocks, rhs = toeplitz_stack(data.draw(st.lists(coeffs, min_size=1, max_size=4)), L, M)
    for (cond, b_tail), A, r in zip(_svd_solve(blocks, rhs), blocks, rhs):
        if cond <= 100:
            expected = np.linalg.solve(A, r)[:, 0]
            scale = max(1e-300, float(np.max(np.abs(expected))))
            assert np.max(np.abs(np.array(b_tail) - expected)) <= 1e-12 * scale


def test_subnormal_block_solves():
    # U (1 + v) / (1 + v - v^2 - 2 v^3) matches U (1, 0, 1, 1, 0) exactly;
    # the block's LU factorization meets an exact zero pivot, its SVD does not
    fit = build(TruncatedSeries([U, 0.0, U, U, 0.0]), 1, 3)
    assert fit.denominator == pytest.approx((1.0, 1.0, -1.0, -2.0), abs=1e-8)
    assert fit.numerator == pytest.approx((U, U), rel=1e-8)


def test_stacked_build_factors_once(monkeypatch):
    calls = {"svd": 0, "solve": 0}
    svd, solve = np.linalg.svd, np.linalg.solve

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
    stack = [TruncatedSeries([1.0, 0.5 * k, 0.25, -0.125, 0.3, 0.1, -0.2]) for k in (1, 2, 3)]
    fits = build_many(stack, 3, 3)
    assert all(isinstance(fit, RationalApproximant) for fit in fits)
    assert calls == {"svd": 1, "solve": 0}


def test_svd_solve_runs_members_alone_when_the_stack_svd_fails():
    # numpy's SVD does not converge on a NaN matrix and fails the whole stack
    A = np.array([[[2.0, 1.0], [1.0, 3.0]], [[np.nan, 1.0], [1.0, 1.0]], [[4.0, 0.0], [1.0, 5.0]]])
    rhs = np.array([[[1.0], [2.0]], [[1.0], [1.0]], [[3.0], [1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(A)
    got = _svd_solve(A, rhs)
    assert isinstance(got[1], np.linalg.LinAlgError)
    assert [got[0], got[2]] == [_svd_solve(A[:1], rhs[:1])[0], _svd_solve(A[2:], rhs[2:])[0]]


def test_svd_failure_is_a_degenerate_approximant(monkeypatch):
    # numpy's LinAlgError subclasses ValueError, which the CLI reads as a
    # usage error; build names the degrees and numpy's message instead
    def unconverged(A):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", unconverged)
    c = TruncatedSeries([1.0, 0.5, 0.25, 0.125])
    with pytest.raises(DegenerateApproximantError, match=r"^\[1/1\] SVD did not converge$"):
        build(c, 1, 1)
    assert all(isinstance(fit, DegenerateApproximantError) for fit in build_many([c, c], 1, 1))


def test_svd_failure_of_one_member_leaves_the_others_their_lone_builds(monkeypatch):
    bad = TruncatedSeries([1.0, -0.7, 0.45, 0.2, -0.3])  # its block's A[0, 0] is c2 = 0.45
    good = [TruncatedSeries([1.0, 0.3, -0.2, 0.7, 0.1]), TruncatedSeries([0.5, -1.0, 0.4, 0.2, 0.9])]
    svd = np.linalg.svd

    def fails_on_bad(A):
        if 0.45 in A[:, 0, 0]:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(A)

    lone = [fit_bits(build(c, 2, 2)) for c in good]
    monkeypatch.setattr(np.linalg, "svd", fails_on_bad)
    fits = build_many([good[0], bad, good[1]], 2, 2)
    assert fit_bits(fits[1]) == (DegenerateApproximantError, "[2/2] SVD did not converge")
    assert [fit_bits(fits[0]), fit_bits(fits[2])] == lone


def test_limit_tangents_of_a_rational_series():
    # (1 + p x) / (1 + q x) has c0 = 1, c_k = (p - q)(-q)^(k-1) and limit
    # p / q; the complex tangent carries d/dp and d/dq as its two parts
    p, q = 0.7, -1.3
    c = TruncatedSeries([1.0, p - q, (p - q) * -q])
    dc = [0j, 1 - 1j, complex(-q, 2 * q - p)]
    fits = build_many([c, c], 1, 1)
    assert [limit_at_infinity(fit) for fit in fits] == pytest.approx([p / q] * 2, abs=1e-15)
    (z, w) = pade.limit_tangents(fits, [c.coeffs] * 2, [dc, [v.real for v in dc]])
    assert (z.real, z.imag) == pytest.approx((1 / q, -p / q**2), abs=1e-14)
    assert (w.real, w.imag) == pytest.approx((1 / q, 0.0), abs=1e-14)


def test_limit_tangent_of_a_singular_block_is_nan():
    # a constant series is its own polynomial fit; its matching block is
    # zero, so the tangent has no solve and reads NaN
    c = TruncatedSeries([1.0] + [0.0] * 6)
    (z,) = pade.limit_tangents([build(c, 3, 3)], [c.coeffs], [[0j, 1 + 1j] + [0j] * 5])
    assert math.isnan(z.real) and math.isnan(z.imag)
