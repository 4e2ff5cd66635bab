import math

import pytest
import sympy

from dtmpade.dtm import (
    Problem,
    ProblemParams,
    RecurrenceMode,
    advance_blasius,
    advance_free_convection,
    generate,
    init_transforms,
)

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
    with pytest.raises(ValueError):
        ProblemParams(pr=0.0)
    with pytest.raises(ValueError):
        ProblemParams(pr=-1.0)


@pytest.mark.parametrize("mode", [CORRECTED, FIDELITY])
def test_advance_first_steps(mode):
    # F(3) = -Theta(0)/6 regardless of mode; F(4) = -B/24
    b = 0.7
    f = [0.0, 0.0, 0.5]
    theta = [1.0, b]
    f3, t2 = advance_free_convection(f, theta, 0, 1.0, mode)
    assert f3 == pytest.approx(-1 / 6, abs=1e-15)
    f.append(f3)
    theta.append(t2)
    f4, t3 = advance_free_convection(f, theta, 1, 1.0, mode)
    assert f4 == pytest.approx(-b / 24, abs=1e-15)


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


def test_zero_b_freezes_theta():
    sol = generate(ProblemParams(a=0.0, b=0.0, order=10, mode=CORRECTED))
    assert sol.theta_series.coeffs == (1.0,) + (0.0,) * 10


def test_blasius_zero_prefix_propagates():
    sol = generate(ProblemParams(problem=Problem.BLASIUS, a=0.0, order=9))
    assert all(c == 0.0 for c in sol.f_series.coeffs)


def test_blasius_f3_zero_and_f5():
    a = 0.47
    assert advance_blasius([0.0, 0.0, a / 2], 0) == 0.0
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
