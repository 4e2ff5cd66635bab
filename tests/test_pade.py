import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

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
