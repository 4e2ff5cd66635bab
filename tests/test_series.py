import math

import pytest
from hypothesis import given, strategies as st

from dtmpade.series import (
    TruncatedSeries,
    cauchy_product,
    differentiate,
    evaluate,
    series,
)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
short_series = st.lists(coeff, min_size=1, max_size=8).map(series)


def test_cauchy_product_binomial():
    # (1+x)^2 begins 1 + 2x
    assert cauchy_product(series([1, 1]), series([1, 1])).coeffs == (1.0, 2.0)


def test_cauchy_product_telescoping():
    geom = series([1, 1, 1, 1])
    one_minus_x = series([1, -1, 0, 0])
    assert cauchy_product(geom, one_minus_x).coeffs == (1.0, 0.0, 0.0, 0.0)


def test_differentiate_once():
    assert differentiate(series([1, 1, 1]), 1).coeffs == (1.0, 2.0)


def test_differentiate_twice():
    assert differentiate(series([0, 0, 0.5]), 2).coeffs == (1.0,)


def test_differentiate_order_too_small():
    with pytest.raises(ValueError):
        differentiate(series([1, 2]), 2)


def test_evaluate_examples():
    assert evaluate(series([1, 2, 3]), 0) == 1.0
    assert evaluate(series([0, 1]), 5) == 5.0
    # truncated exponential at 1, summed by hand: 1 + 1 + 1/2 + 1/6 = 8/3
    assert evaluate(series([1, 1, 0.5, 1 / 6]), 1) == pytest.approx(8 / 3, abs=1e-15)


def test_constructor_rejects_nan():
    with pytest.raises(ValueError):
        TruncatedSeries((1.0, math.nan))


@given(short_series, short_series)
def test_min_order_contract(s, t):
    assert len(cauchy_product(s, t)) == min(len(s), len(t))


@given(short_series, short_series)
def test_cauchy_product_commutes(s, t):
    p, q = cauchy_product(s, t), cauchy_product(t, s)
    assert all(abs(a - b) <= 1e-14 for a, b in zip(p.coeffs, q.coeffs))


@given(short_series, short_series, short_series)
def test_cauchy_product_distributes_over_add(s, t, u):
    # componentwise sums, truncated to the shorter operand
    left = cauchy_product(s, series(a + b for a, b in zip(t.coeffs, u.coeffs))).coeffs
    right = [a + b for a, b in zip(cauchy_product(s, t).coeffs, cauchy_product(s, u).coeffs)]
    assert all(abs(a - b) <= 1e-14 for a, b in zip(left, right))


@given(st.lists(coeff, min_size=2, max_size=8).map(series),
       st.floats(min_value=-0.9, max_value=0.9))
def test_derivative_matches_central_difference(s, x):
    h = 1e-6
    fd = (evaluate(s, x + h) - evaluate(s, x - h)) / (2 * h)
    exact = evaluate(differentiate(s, 1), x)
    assert abs(fd - exact) <= 1e-7 + 1e-6 * abs(exact)


def test_differentiate_composes():
    s = series([1, 2, 3, 4, 5])
    twice = differentiate(differentiate(s, 1), 1)
    assert twice.coeffs == differentiate(s, 2).coeffs
