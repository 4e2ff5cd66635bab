import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from dtmpade.errors import DegenerateApproximantError, DegenerateLimitError, PoleError
from dtmpade.pade import RationalApproximant, _expand, build, evaluate, limit_at_infinity
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
# a subnormal pivot: the solve overflows and build rejects the fit as degenerate
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
