import math

import pytest
from hypothesis import given, strategies as st

from dtmpade.series import (
    TruncatedSeries,
    cauchy_product,
    differentiate,
    evaluate,
)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
short_series = st.lists(coeff, min_size=1, max_size=8).map(TruncatedSeries)


def test_cauchy_product_binomial():
    # (1+x)^2 begins 1 + 2x
    assert cauchy_product(TruncatedSeries([1, 1]), TruncatedSeries([1, 1])).coeffs == (1.0, 2.0)


def test_cauchy_product_telescoping():
    geom = TruncatedSeries([1, 1, 1, 1])
    one_minus_x = TruncatedSeries([1, -1, 0, 0])
    assert cauchy_product(geom, one_minus_x).coeffs == (1.0, 0.0, 0.0, 0.0)


def test_differentiate_once():
    assert differentiate(TruncatedSeries([1, 1, 1])).coeffs == (1.0, 2.0)


def test_differentiate_order_too_small():
    with pytest.raises(ValueError):
        differentiate(TruncatedSeries([1]))


def test_evaluate_examples():
    assert evaluate(TruncatedSeries([1, 2, 3]), 0) == 1.0
    assert evaluate(TruncatedSeries([0, 1]), 5) == 5.0
    # truncated exponential at 1, summed by hand: 1 + 1 + 1/2 + 1/6 = 8/3
    assert evaluate(TruncatedSeries([1, 1, 0.5, 1 / 6]), 1) == pytest.approx(8 / 3, abs=1e-15)


def test_constructor_rejects_nan():
    with pytest.raises(OverflowError):
        TruncatedSeries((1.0, math.nan))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("index", [0, 2, 4])
def test_constructor_names_the_first_non_finite_index(bad, index):
    # the first, a middle and the last position
    coeffs = [1.0, -0.0, 0.5, 0.0, -2.0]
    coeffs[index] = bad
    with pytest.raises(OverflowError, match=f"^non-finite coefficient at index {index}: {bad!r}$"):
        TruncatedSeries(coeffs)
    # the first one is named where several are non-finite
    with pytest.raises(OverflowError, match=f"^non-finite coefficient at index {index}: {bad!r}$"):
        TruncatedSeries(coeffs + [math.nan, -math.inf])


def test_constructor_rejects_an_empty_series():
    with pytest.raises(ValueError, match="at least the constant coefficient"):
        TruncatedSeries(())


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_evaluate_rejects_a_non_finite_point(x):
    with pytest.raises(ValueError, match="evaluation point must be finite"):
        evaluate(TruncatedSeries([1, 2, 3]), x)


@given(short_series, short_series)
def test_min_order_contract(s, t):
    assert cauchy_product(s, t).order == min(s.order, t.order)


@given(short_series, short_series)
def test_cauchy_product_commutes(s, t):
    p, q = cauchy_product(s, t), cauchy_product(t, s)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(p.coeffs, q.coeffs))


@given(short_series, short_series, short_series)
def test_cauchy_product_distributes_over_add(s, t, u):
    # componentwise sums, truncated to the shorter operand
    left = cauchy_product(s, TruncatedSeries(a + b for a, b in zip(t.coeffs, u.coeffs))).coeffs
    right = [a + b for a, b in zip(cauchy_product(s, t).coeffs, cauchy_product(s, u).coeffs)]
    assert all(abs(a - b) <= 1e-14 for a, b in zip(left, right))


@given(st.lists(coeff, min_size=2, max_size=8).map(TruncatedSeries),
       st.floats(min_value=-0.9, max_value=0.9))
def test_derivative_matches_central_difference(s, x):
    h = 1e-6
    fd = (evaluate(s, x + h) - evaluate(s, x - h)) / (2 * h)
    exact = evaluate(differentiate(s), x)
    assert abs(fd - exact) <= 1e-7 + 1e-6 * abs(exact)


# The term-by-term forms that the C-level dot products replaced, verbatim.
def reference_cauchy_product(s, t):
    n = min(len(s.coeffs), len(t.coeffs))
    out = []
    for k in range(n):
        out.append(sum(s.coeffs[r] * t.coeffs[k - r] for r in range(k + 1)))
    return TruncatedSeries(tuple(out))


def reference_differentiate(s):
    out = []
    for k in range(s.order):
        fac = math.factorial(k + 1) // math.factorial(k)
        out.append(fac * s.coeffs[k + 1])
    return TruncatedSeries(tuple(out))


def hex_or_overflow(run, *args):
    try:
        return [c.hex() for c in run(*args).coeffs]
    except OverflowError as exc:
        return f"OverflowError: {exc}"


# magnitudes up to 1e200, so that some products overflow
wide_series = st.lists(st.floats(-1e200, 1e200), min_size=1, max_size=40).map(TruncatedSeries)


@given(wide_series, wide_series)
def test_cauchy_product_equals_term_by_term_reference(s, t):
    assert hex_or_overflow(cauchy_product, s, t) == hex_or_overflow(reference_cauchy_product, s, t)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=200).map(TruncatedSeries))
def test_differentiate_equals_factorial_ratio_reference(s):
    assert hex_or_overflow(differentiate, s) == hex_or_overflow(reference_differentiate, s)
