import math

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from dtmpade.dtm import (
    MAX_ORDER,
    Coefficients,
    DtmSolution,
    Problem,
    ProblemParams,
    RecurrenceMode,
    blasius_f,
    free_convection_f,
    free_convection_tangents,
    free_convection_theta,
    generate,
    init_transforms,
)
from dtmpade.series import TruncatedSeries

CORRECTED = RecurrenceMode.CORRECTED
FIDELITY = RecurrenceMode.PAPER_FIDELITY


def ansatz_coefficients(order, problem=Problem.FREE_CONVECTION):
    """Independent oracle: substitute a generic polynomial into the ODE itself.

    Solves for the Taylor coefficients symbolically, one degree at a time,
    never touching the transform recurrence.
    """
    eta = sympy.Symbol("eta")
    A, B = sympy.symbols("A B")
    c = [sympy.Integer(0), sympy.Integer(0), A / 2]
    c += [sympy.Symbol(f"c{k}") for k in range(3, order + 1)]
    f = sum(ck * eta**k for k, ck in enumerate(c))
    if problem is Problem.BLASIUS:
        residual = sympy.expand(f.diff(eta, 3) + sympy.Rational(1, 2) * f * f.diff(eta, 2))
        unknown_sets = [c[3:]]
        residuals = [residual]
    else:
        d = [sympy.Integer(1), B] + [sympy.Symbol(f"d{k}") for k in range(2, order + 1)]
        theta = sum(dk * eta**k for k, dk in enumerate(d))
        residuals = [
            sympy.expand(f.diff(eta, 3) + 3 * f * f.diff(eta, 2) - 2 * f.diff(eta) ** 2 + theta),
            sympy.expand(theta.diff(eta, 2) + 3 * f * theta.diff(eta)),
        ]
        unknown_sets = [c[3:], d[2:]]
    solution = {}
    for degree in range(order - 2):
        for residual, unknowns in zip(residuals, unknown_sets):
            eq = residual.coeff(eta, degree).subs(solution)
            target = unknowns[degree]
            solution[target] = sympy.solve(eq, target)[0]
    subs_c = [expr.subs(solution) for expr in c]
    if problem is Problem.BLASIUS:
        return subs_c, None
    subs_d = [expr.subs(solution) for expr in d]
    return subs_c, subs_d


def test_init_transforms_free_convection():
    f, t = init_transforms(ProblemParams(a=1.0, b=-0.5671))
    assert f == (0.0, 0.0, 0.5)
    assert t == (1.0, -0.5671)


def test_init_transforms_zero_a():
    f, _ = init_transforms(ProblemParams(a=0.0))
    assert f == (0.0, 0.0, 0.0)


def test_init_transforms_blasius_has_no_theta():
    f, t = init_transforms(ProblemParams(problem=Problem.BLASIUS, a=1.0))
    assert f == (0.0, 0.0, 0.5)
    assert t == ()


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(order=2)
    # the bound is checked before any recurrence step; no order past it runs
    ProblemParams(order=MAX_ORDER)
    for problem in Problem:
        with pytest.raises(ValueError, match="^order must be at most 10,000, got 10001$"):
            ProblemParams(problem=problem, order=MAX_ORDER + 1)
    with pytest.raises(ValueError):
        ProblemParams(pr=0.0)
    with pytest.raises(ValueError):
        ProblemParams(pr=-1.0)


@pytest.mark.parametrize("mode", [CORRECTED, FIDELITY])
def test_advance_first_steps(mode):
    # F(3) = -Theta(0)/6 regardless of mode; F(4) = -B/24
    b = 0.7
    c = Coefficients([0.0, 0.0, 0.5], [1.0, b], mode)
    f3 = free_convection_f(c, 0)
    assert f3 == pytest.approx(-1 / 6, abs=1e-15)
    c.push_f(f3)
    c.push_theta(free_convection_theta(c, 0, 1.0))
    # the scaled copies: d1[j] = j F(j), d2[j] = j (j-1) F(j), t1[j] = j Theta(j)
    assert c.d1 == [0.0, 0.0, 1.0, 3 * f3] and c.d2 == [0.0, 0.0, 1.0, 6 * f3]
    assert c.t1 == [0.0, b, 0.0]
    # F(j)/j! in paper mode, F itself in corrected mode
    assert c.g == (c.f if mode is CORRECTED else [0.0, 0.0, 0.25, f3 / 6])
    assert free_convection_f(c, 1) == pytest.approx(-b / 24, abs=1e-15)


def test_f5_mode_split():
    a = 0.8
    for mode, expected in ((FIDELITY, a**2 / 48), (CORRECTED, a**2 / 120)):
        sol = generate(ProblemParams(a=a, b=0.3, order=5, mode=mode))
        assert sol.f_series.coeffs[5] == pytest.approx(expected, abs=1e-15)


def test_f5_f6_corrected_against_ansatz_oracle():
    c, _ = ansatz_coefficients(6)
    A = sympy.Symbol("A")
    a, b = 0.37, -0.81
    sol = generate(ProblemParams(a=a, b=b, order=6, mode=CORRECTED))
    # oracle says c5 = A^2/120 and c6 = 0 along the corrected route
    assert sympy.simplify(c[5] - A**2 / 120) == 0
    assert sympy.simplify(c[6]) == 0
    assert sol.f_series.coeffs[5] == pytest.approx(a**2 / 120, abs=1e-16)
    assert sol.f_series.coeffs[6] == 0.0


def test_theta4_both_modes():
    a, b = 0.55, -0.86
    for mode in (CORRECTED, FIDELITY):
        sol = generate(ProblemParams(a=a, b=b, order=4, mode=mode))
        assert sol.theta_series.coeffs[4] == pytest.approx(-a * b / 8, abs=1e-15)


def test_published_series_at_unit_constants():
    sol = generate(ProblemParams(a=1.0, b=1.0, order=6, mode=FIDELITY))
    f_expected = [0, 0, 1 / 2, -1 / 6, -1 / 24, 1 / 48, -7 / 720]
    t_expected = [1, 1, 0, 0, -1 / 8, 1 / 40, 1 / 240]
    for got, want in zip(sol.f_series.coeffs, f_expected):
        assert got == pytest.approx(want, abs=1e-15)
    for got, want in zip(sol.theta_series.coeffs, t_expected):
        assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("mode", [CORRECTED, FIDELITY])
@pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.6421, -0.5671)])
def test_theta_exact_zeros_are_positive(mode, a, b):
    # Theta(2) and Theta(3) are exact zeros (f(0) = f'(0) = 0); the step
    # 0.0 - 3 Pr s2 / ... keeps them +0.0 where -3 Pr s2 / ... gave -0.0
    theta = generate(ProblemParams(a=a, b=b, order=6, mode=mode)).theta_series.coeffs
    for k in (2, 3):
        assert math.copysign(1.0, theta[k]) == 1.0


def test_zero_b_freezes_theta():
    sol = generate(ProblemParams(a=0.0, b=0.0, order=10, mode=CORRECTED))
    assert sol.theta_series.coeffs == (1.0,) + (0.0,) * 10


def test_blasius_zero_prefix_propagates():
    sol = generate(ProblemParams(problem=Problem.BLASIUS, a=0.0, order=9))
    assert all(c == 0.0 for c in sol.f_series.coeffs)


def test_tangent_pass_against_ansatz_derivatives():
    # the order of a corrected [4/4] closure: F and Theta up to 9 (the theta
    # fit reads Theta up to 8), against the A- and B-derivatives of the
    # symbolic coefficients, which order 10 solves up to index 9
    c, d = ansatz_coefficients(10)
    A, B = sympy.symbols("A B")
    for a, b in ((0.6421, -0.5671), (-0.37, 1.3)):
        sol = generate(ProblemParams(a=a, b=b, order=9, mode=CORRECTED))
        df, dtheta = free_convection_tangents(sol, 1.0, CORRECTED)
        assert len(df) == 10 and len(dtheta) == 10
        for got, expr in zip(df + dtheta, c[:10] + d[:10]):
            want = [float(expr.diff(v).subs({A: a, B: b})) for v in (A, B)]
            assert got.real == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got.imag == pytest.approx(want[1], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("order", [3, 4, 9])
@pytest.mark.parametrize("mode", [FIDELITY, CORRECTED])
def test_tangent_pass_against_symbolic_recurrence(mode, order):
    # the paper recurrence does not satisfy the ODE, so the ansatz cannot
    # check it: run the recurrence with its weights on symbols A and B
    # instead, with generate's k + 3 <= m rule, and differentiate that
    A, B = sympy.symbols("A B")
    f, theta = [sympy.Integer(0), sympy.Integer(0), A / 2], [sympy.Integer(1), B]
    div = sympy.factorial if mode is FIDELITY else (lambda r: 1)
    for k in range(order - 1):
        s1 = sum((r + 1) * (k - r + 1) * f[r + 1] * f[k - r + 1] for r in range(k + 1))
        s3 = sum((k - r + 1) * (k - r + 2) * f[r] * f[k - r + 2] / div(r) for r in range(k + 1))
        s2 = sum((k - r + 1) * f[r] * theta[k - r + 1] for r in range(k + 1))
        if k + 3 <= order:
            f.append(sympy.expand((2 * s1 - theta[k] - 3 * s3) / ((k + 1) * (k + 2) * (k + 3))))
        theta.append(sympy.expand(-3 * 0.72 * s2 / ((k + 1) * (k + 2))))
    for a, b in ((0.6421, -0.5671), (0.8, -1.2), (-0.37, 1.3)):
        sol = generate(ProblemParams(pr=0.72, a=a, b=b, order=order, mode=mode))
        df, dtheta = free_convection_tangents(sol, 0.72, mode)
        assert len(df) == len(f) == order + 1 and len(dtheta) == len(theta) == order + 1
        for got, expr in zip(df + dtheta, f + theta):
            want = [float(expr.diff(v).subs({A: a, B: b})) for v in (A, B)]
            assert got.real == pytest.approx(want[0], rel=1e-12, abs=1e-15)
            assert got.imag == pytest.approx(want[1], rel=1e-12, abs=1e-15)


def test_blasius_f3_zero_and_f5():
    a = 0.47
    assert blasius_f(Coefficients([0.0, 0.0, a / 2], (), CORRECTED), 0) == 0.0
    sol = generate(ProblemParams(problem=Problem.BLASIUS, a=a, order=5))
    # ansatz oracle on f''' = -f f''/2 gives c5 = -A^2/240
    c, _ = ansatz_coefficients(5, Problem.BLASIUS)
    A = sympy.Symbol("A")
    assert sympy.simplify(c[5] + A**2 / 240) == 0
    assert sol.f_series.coeffs[5] == pytest.approx(-(a**2) / 240, abs=1e-16)


def ode_residual_coefficients(f, theta, pr=1.0):
    """Coefficients of the two ODE residual polynomials for a series pair."""
    m = len(f) - 1
    d1 = [(k + 1) * f[k + 1] for k in range(m)]
    d2 = [(k + 1) * (k + 2) * f[k + 2] for k in range(m - 1)]
    d3 = [(k + 1) * (k + 2) * (k + 3) * f[k + 3] for k in range(m - 2)]
    td1 = [(k + 1) * theta[k + 1] for k in range(m)]
    td2 = [(k + 1) * (k + 2) * theta[k + 2] for k in range(m - 1)]
    r1 = [
        d3[k]
        + 3 * sum(f[r] * d2[k - r] for r in range(k + 1))
        - 2 * sum(d1[r] * d1[k - r] for r in range(k + 1))
        + theta[k]
        for k in range(m - 2)
    ]
    r2 = [
        td2[k] + 3 * pr * sum(f[r] * td1[k - r] for r in range(k + 1))
        for k in range(m - 1)
    ]
    return r1, r2


def test_corrected_series_satisfies_ode(rng_points=8):
    import random

    rnd = random.Random(42)
    for _ in range(rng_points):
        a, b = rnd.uniform(-1, 1), rnd.uniform(-1, 1)
        sol = generate(ProblemParams(a=a, b=b, order=12, mode=CORRECTED))
        r1, r2 = ode_residual_coefficients(list(sol.f_series.coeffs), list(sol.theta_series.coeffs))
        assert max(abs(x) for x in r1) < 1e-12
        assert max(abs(x) for x in r2) < 1e-12


def test_mode_agreement_low_orders():
    # the 1/r! factor first bites at F(5); it feeds the theta recurrence two
    # indices later, so theta agrees between modes through index 6 only
    a, b = 0.9, -0.4
    s_c = generate(ProblemParams(a=a, b=b, order=10, mode=CORRECTED))
    s_f = generate(ProblemParams(a=a, b=b, order=10, mode=FIDELITY))
    for k in range(5):
        assert s_c.f_series.coeffs[k] == s_f.f_series.coeffs[k]
    for k in range(7):
        assert s_c.theta_series.coeffs[k] == s_f.theta_series.coeffs[k]
    assert s_c.f_series.coeffs[5] != s_f.f_series.coeffs[5]


def test_theta_scaling_in_b_at_zero_a():
    # along A = 0: theta(4) vanishes, theta(5) is linear in B and theta(6)
    # quadratic (the published series has a B^2/240 term with no A factor)
    for mode in (CORRECTED, FIDELITY):
        one = generate(ProblemParams(a=0.0, b=0.25, order=10, mode=mode))
        two = generate(ProblemParams(a=0.0, b=0.5, order=10, mode=mode))
        for k in (1, 5):
            assert two.theta_series.coeffs[k] == pytest.approx(
                2 * one.theta_series.coeffs[k], rel=1e-13
            )
        assert one.theta_series.coeffs[4] == 0.0
        assert two.theta_series.coeffs[6] == pytest.approx(
            4 * one.theta_series.coeffs[6], rel=1e-13
        )


def test_prandtl_scales_theta_recurrence():
    base = generate(ProblemParams(a=0.5, b=-0.5, order=4, pr=1.0))
    scaled = generate(ProblemParams(a=0.5, b=-0.5, order=4, pr=2.0))
    # theta(2) = -3*pr*f... with the same prefix, theta(2) doubles with pr
    assert scaled.theta_series.coeffs[2] == pytest.approx(
        2 * base.theta_series.coeffs[2], rel=1e-14
    )


def test_generate_overflow_reports_index():
    with pytest.raises(OverflowError, match="index"):
        generate(ProblemParams(a=1e150, b=1e150, order=12))
    # theta first, f first in paper mode, and Blasius: the same message as the reference
    for params, index in (
        (ProblemParams(a=1e-3, b=1e200, order=12), "theta-coefficient at index 6"),
        (ProblemParams(a=1e40, b=-1e30, order=60, mode=FIDELITY), "f-coefficient at index 23"),
        (ProblemParams(Problem.BLASIUS, a=1e60, order=40), "f-coefficient at index 17"),
    ):
        for run in (generate, reference_generate):
            with pytest.raises(OverflowError, match=f"^non-finite {index}$"):
                run(params)


def test_coefficient_past_the_order_is_not_checked():
    # the last free-convection step would also yield F(m+1), which overflows
    # here while every coefficient up to the order is finite; generate skips it
    sol = generate(ProblemParams(a=1e90, b=0.0, order=10))
    low = generate(ProblemParams(a=1e90, b=0.0, order=9))
    for s, lo in ((sol.f_series, low.f_series), (sol.theta_series, low.theta_series)):
        assert len(s.coeffs) == 11 and all(map(math.isfinite, s.coeffs))
        assert [c.hex() for c in s.coeffs[:10]] == [c.hex() for c in lo.coeffs]


def test_blasius_has_no_paper_mode():
    with pytest.raises(ValueError, match="free convection only"):
        ProblemParams(Problem.BLASIUS, mode=FIDELITY)


def test_generated_length_matches_order():
    sol = generate(ProblemParams(a=0.1, b=0.1, order=9))
    assert len(sol.f_series.coeffs) == 10
    assert len(sol.theta_series.coeffs) == 10
    assert not any(map(math.isnan, sol.f_series.coeffs))


def test_paper_mode_beyond_float_factorials():
    # r! leaves the float range past r = 170; those summands are 0
    params = dict(a=0.55, b=-0.86, mode=FIDELITY)
    high = generate(ProblemParams(order=300, **params))
    low = generate(ProblemParams(order=172, **params))
    for hi_s, lo_s in ((high.f_series, low.f_series), (high.theta_series, low.theta_series)):
        assert all(map(math.isfinite, hi_s.coeffs))
        assert [c.hex() for c in hi_s.coeffs[:173]] == [c.hex() for c in lo_s.coeffs]


# The recurrence as generator-expression sums over the same scaled products
# (j F(j), j (j-1) F(j), j Theta(j), F(r)/r!) in the same order as the
# kernel's dot products, which must equal it bit for bit on each interpreter.
_FACTORIALS = tuple(float(math.factorial(r)) for r in range(171))


def reference_free_convection_f(f, theta, k: int, mode: RecurrenceMode) -> float:
    # s1 is symmetric in r <-> k - r: twice the pairs r < k - r, then the middle
    s1 = 2.0 * sum((r + 1) * f[r + 1] * ((k - r + 1) * f[k - r + 1])
                   for r in range(1, (k + 1) // 2))
    if k % 2 == 0:
        s1 += (k // 2 + 1) * f[k // 2 + 1] * ((k // 2 + 1) * f[k // 2 + 1])
    if mode is RecurrenceMode.PAPER_FIDELITY:
        # r! leaves the float range past r = 170, where the summand is 0
        s3 = sum(f[r] / _FACTORIALS[r] * ((k - r + 2) * (k - r + 1) * f[k - r + 2])
                 for r in range(2, min(k, 170) + 1))
    else:
        s3 = sum(f[r] * ((k - r + 2) * (k - r + 1) * f[k - r + 2]) for r in range(2, k + 1))
    return (2.0 * s1 - theta[k] - 3.0 * s3) / ((k + 1) * (k + 2) * (k + 3))


def reference_free_convection_theta(f, theta, k: int, pr: float) -> float:
    s2 = sum(f[r] * ((k - r + 1) * theta[k - r + 1]) for r in range(2, k + 1))
    return 0.0 - 3.0 * pr * s2 / ((k + 1) * (k + 2))


def reference_blasius_f(f, k: int) -> float:
    s = sum(f[r] * ((k - r + 2) * (k - r + 1) * f[k - r + 2]) for r in range(2, k + 1))
    return -0.5 * s / ((k + 1) * (k + 2) * (k + 3))


def reference_generate(params: ProblemParams) -> DtmSolution:
    f_prefix, theta_prefix = init_transforms(params)
    f = list(f_prefix)
    theta = list(theta_prefix)
    m = params.order

    if params.problem is Problem.BLASIUS:
        for k in range(m - 2):
            f.append(reference_blasius_f(f, k))
            if not math.isfinite(f[-1]):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
        return DtmSolution(TruncatedSeries(f), None)

    for k in range(m - 1):
        if k + 3 <= m:  # the last step's F(m+1) would lie past the order
            f_next = reference_free_convection_f(f, theta, k, params.mode)
            if not math.isfinite(f_next):
                raise OverflowError(f"non-finite f-coefficient at index {k + 3}")
            f.append(f_next)
        theta_next = reference_free_convection_theta(f, theta, k, params.pr)
        if not math.isfinite(theta_next):
            raise OverflowError(f"non-finite theta-coefficient at index {k + 2}")
        theta.append(theta_next)
    return DtmSolution(TruncatedSeries(f), TruncatedSeries(theta))


def hex_coefficients(run, params):
    """Every coefficient's hex, or the overflow message."""
    try:
        sol = run(params)
    except OverflowError as exc:
        return f"OverflowError: {exc}"
    theta = sol.theta_series and [c.hex() for c in sol.theta_series.coeffs]
    return [c.hex() for c in sol.f_series.coeffs], theta


# wall values from small to ones that overflow within a few dozen orders
wall_value = st.one_of(
    st.floats(-2.0, 2.0),
    st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-3, 40)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(Problem.FREE_CONVECTION, CORRECTED), (Problem.FREE_CONVECTION, FIDELITY),
                     (Problem.BLASIUS, CORRECTED)]),
    st.floats(1e-3, 1e3),
    wall_value,
    wall_value,
    st.one_of(st.integers(3, 40), st.integers(3, 301)),
)
# paper mode across the last float r! (r = 170 enters at order 172, r = 171 at 173)
@example((Problem.FREE_CONVECTION, FIDELITY), 1.0, 0.55, -0.86, 170)
@example((Problem.FREE_CONVECTION, FIDELITY), 0.72, 0.6, -0.5, 171)
@example((Problem.FREE_CONVECTION, FIDELITY), 1.0, 0.55, -0.86, 172)
@example((Problem.FREE_CONVECTION, FIDELITY), 7.0, -1.3, 0.4, 173)
# Blasius sums only on the steps k = 2 (mod 3): orders 3-5 hold its first
# zero steps and first summing one; signed zero walls, and one that overflows
@example((Problem.BLASIUS, CORRECTED), 1.0, 0.332, 0.0, 3)
@example((Problem.BLASIUS, CORRECTED), 1.0, 0.332, 0.0, 4)
@example((Problem.BLASIUS, CORRECTED), 1.0, 0.332, 0.0, 5)
@example((Problem.BLASIUS, CORRECTED), 1.0, 0.332, 0.0, 301)
@example((Problem.BLASIUS, CORRECTED), 1.0, 0.0, 0.0, 301)
@example((Problem.BLASIUS, CORRECTED), 1.0, -0.0, 0.0, 301)
@example((Problem.BLASIUS, CORRECTED), 1.0, -1e30, 0.0, 301)
def test_generate_equals_term_by_term_reference(case, pr, a, b, order):
    problem, mode = case
    params = ProblemParams(problem, pr, a, b, order, mode)
    assert hex_coefficients(generate, params) == hex_coefficients(reference_generate, params)



def decimal_recurrence(params: ProblemParams):
    """The recurrence with its weights, at 60 significant digits from the same
    float wall values: F and Theta (None for Blasius) as Decimals."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        k_max = params.order - 2 if params.problem is Problem.BLASIUS else params.order - 1
        f = [Decimal(0), Decimal(0), Decimal(params.a) / 2]
        theta = [Decimal(1), Decimal(params.b)]
        paper = params.mode is FIDELITY
        for k in range(k_max):
            s3 = sum((k - r + 1) * (k - r + 2) * f[r] * f[k - r + 2]
                     / (math.factorial(r) if paper else 1) for r in range(k + 1))
            if params.problem is Problem.BLASIUS:
                f.append(-s3 / 2 / ((k + 1) * (k + 2) * (k + 3)))
                continue
            s1 = sum((r + 1) * (k - r + 1) * f[r + 1] * f[k - r + 1] for r in range(k + 1))
            s2 = sum((k - r + 1) * f[r] * theta[k - r + 1] for r in range(k + 1))
            if k + 3 <= params.order:
                f.append((2 * s1 - theta[k] - 3 * s3) / ((k + 1) * (k + 2) * (k + 3)))
            theta.append(-3 * Decimal(params.pr) * s2 / ((k + 1) * (k + 2)))
        return f, (None if params.problem is Problem.BLASIUS else theta)


@pytest.mark.parametrize("order", [40, 101])
@pytest.mark.parametrize("problem, mode, a, b, bound", [
    (Problem.FREE_CONVECTION, CORRECTED, 0.6421, -0.5671, 1e-14),
    (Problem.FREE_CONVECTION, FIDELITY, 0.6421, -0.5671, 5e-13),
    (Problem.BLASIUS, CORRECTED, 0.332, 0.0, 1e-14),
])
def test_generate_against_decimal_recurrence(problem, mode, a, b, bound, order):
    # at the Pr 1 table root and Blasius' wall value: every coefficient within
    # bound of the 60-digit recurrence, relative, and the exact zeros (F(1),
    # Theta(2), Theta(3), corrected F(6) and two of three Blasius F) near 0.
    # Order 101 measured 1.6e-15 corrected, 6.5e-14 paper and 2.3e-15 Blasius
    # (the weighted kernel before the scaled lists: 3.0e-15, 3.1e-14, 2.3e-15)
    from decimal import Decimal

    params = ProblemParams(problem, 1.0, a, b, order, mode)
    sol = generate(params)
    want_f, want_theta = decimal_recurrence(params)
    pairs = [(sol.f_series.coeffs, want_f)]
    if want_theta is not None:
        pairs.append((sol.theta_series.coeffs, want_theta))
    for got, want in pairs:
        assert len(got) == len(want) == order + 1
        scale = max(map(abs, got))
        for x, d in zip(got, want):
            if d == 0:
                assert abs(x) <= bound * scale
            else:
                assert float(abs(Decimal(x) - d) / abs(d)) <= bound
