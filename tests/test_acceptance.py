"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with `pytest -s` or on failure). Tolerances are pinned here and
nowhere else.
"""

import random

import numpy as np
import pytest

from dtmpade.dtm import Problem, ProblemParams, RecurrenceMode, generate
from dtmpade.errors import DegenerateApproximantError
from dtmpade.pade import build, evaluate as pade_eval, limit_at_infinity
from dtmpade.rootfind import ClosureConfig, blasius_closure_residual, solve_problem
from dtmpade.series import TruncatedSeries, evaluate as series_eval
from dtmpade.shooting import ShootConfig, shoot_solve, tabulate_profile

from test_dtm import ode_residual_coefficients
from test_pade import expand_quotient

PAPER_A = 0.5506447081
PAPER_B = -0.8654409691


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_published_series():
    sol = generate(ProblemParams(a=1.0, b=1.0, order=6, mode=RecurrenceMode.PAPER_FIDELITY))
    f_want = [0, 0, 1 / 2, -1 / 6, -1 / 24, 1 / 48, -7 / 720]
    t_want = [1, 1, 0, 0, -1 / 8, 1 / 40, 1 / 240]
    ok = all(abs(g - w) <= 1e-14 for g, w in zip(sol.f_series.coeffs, f_want))
    ok = ok and all(abs(g - w) <= 1e-14 for g, w in zip(sol.theta_series.coeffs, t_want))
    report(1, ok, "fidelity-mode order-6 series at A=B=1 matches the published coefficients")


def test_criterion_2_published_root():
    res = solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=3),
                        mode=RecurrenceMode.PAPER_FIDELITY)
    ok = (abs(res.a - PAPER_A) <= 1e-6 and abs(res.b - PAPER_B) <= 1e-6
          and res.residual_norm <= 1e-10)
    report(2, ok, f"paper-mode [3/3] root ({res.a:.10f}, {res.b:.10f}) matches the published pair")


def test_criterion_3_oracle_reproduction():
    base = shoot_solve(1.0, ShootConfig())
    halved = shoot_solve(1.0, ShootConfig(step=0.005), x0=(base.a, base.b))
    wider = shoot_solve(1.0, ShootConfig(eta_max=12.0), x0=(base.a, base.b))
    ok = abs(base.a - 0.6421) <= 5e-4 and abs(base.b - (-0.5671)) <= 5e-4
    ok = ok and abs(halved.a - base.a) < 1e-5 and abs(halved.b - base.b) < 1e-5
    ok = ok and abs(wider.a - base.a) < 1e-5 and abs(wider.b - base.b) < 1e-5
    report(3, ok, f"shooting oracle ({base.a:.6f}, {base.b:.6f}) reproduces the reference "
                  "values and is insensitive to step halving and domain widening")


def test_criterion_4_corrected_mode_validity():
    rnd = random.Random(2024)
    ok = True
    for _ in range(20):
        a, b = rnd.uniform(-1, 1), rnd.uniform(-1, 1)
        sol = generate(ProblemParams(a=a, b=b, order=12, mode=RecurrenceMode.CORRECTED))
        r1, r2 = ode_residual_coefficients(list(sol.f_series.coeffs),
                                           list(sol.theta_series.coeffs))
        ok = ok and max(abs(x) for x in r1) < 1e-12 and max(abs(x) for x in r2) < 1e-12
    a = 0.77
    sol = generate(ProblemParams(a=a, b=0.31, order=6, mode=RecurrenceMode.CORRECTED))
    ok = ok and sol.f_series.coeffs[5] == a * a / 120 and sol.f_series.coeffs[6] == 0.0
    report(4, ok, "corrected order-12 series satisfy the governing equations; "
                  "F(5)=A^2/120 and F(6)=0")


def test_criterion_5_pade_properties():
    rnd = random.Random(99)
    ok = True
    reconstructed = 0
    while reconstructed < 100:
        L, M = rnd.randint(0, 4), rnd.randint(0, 4)
        c = [rnd.uniform(-1, 1) for _ in range(L + M + 1)]
        try:
            r = build(TruncatedSeries(c), L, M)
        except DegenerateApproximantError:
            continue
        back = expand_quotient(r, L + M)
        scale = max(1.0, max(abs(x) for x in c))
        ok = ok and all(abs(p - q) <= 1e-10 * scale for p, q in zip(back, c))
        reconstructed += 1

    recovered = 0
    while recovered < 20:
        L, M = rnd.randint(1, 3), rnd.randint(1, 3)
        num = tuple(rnd.uniform(-1, 1) for _ in range(L + 1))
        den = (1.0,) + tuple(rnd.uniform(-0.5, 0.5) for _ in range(M))
        from dtmpade.pade import RationalApproximant
        truth = RationalApproximant(num, den)
        try:
            r = build(TruncatedSeries(expand_quotient(truth, L + M + 2)), L, M)
        except DegenerateApproximantError:
            continue
        ok = ok and np.allclose(r.numerator, num, atol=1e-10)
        ok = ok and np.allclose(r.denominator, den, atol=1e-10)
        recovered += 1

    limits = 0
    while limits < 30:
        n = rnd.randint(1, 3)
        c = [rnd.uniform(-1, 1) for _ in range(2 * n + 1)]
        try:
            r = build(TruncatedSeries(c), n, n)
            lim = limit_at_infinity(r)
        except DegenerateApproximantError:
            continue
        if np.any(np.abs(np.roots(list(reversed(r.denominator)))) > 1e3):
            continue
        ok = ok and abs(pade_eval(r, 1e6) - lim) <= 1e-4 * max(1e-12, abs(lim))
        limits += 1
    report(5, ok, "reconstruction through degree L+M, exact rational recovery, "
                  "and diagonal limits agreeing with far evaluation")


def test_criterion_6_series_vs_integrator():
    oracle = shoot_solve(1.0, ShootConfig())
    sol = generate(ProblemParams(a=oracle.a, b=oracle.b, order=14,
                                 mode=RecurrenceMode.CORRECTED))
    grid = [0.05 * k for k in range(1, 11)]
    prof = tabulate_profile(oracle.a, oracle.b, 1.0, grid, 0.005)
    worst = 0.0
    for eta, f, _, theta in prof:
        worst = max(worst,
                    abs(series_eval(sol.f_series, eta) - f),
                    abs(series_eval(sol.theta_series, eta) - theta))
    ok = worst <= 1e-6
    report(6, ok, f"corrected series matches the RK4 profile on [0, 0.5] "
                  f"(worst deviation {worst:.2e})")


def test_criterion_7_profile_shape():
    grid = [round(0.1 * k, 10) for k in range(11)]
    ok = True
    for a, b in ((PAPER_A, PAPER_B), (0.6421, -0.5671)):
        prof = tabulate_profile(a, b, 1.0, grid)
        ok = ok and len(prof) == 11
        ok = ok and prof[0] == (0.0, 0.0, 0.0, 1.0)
        fs = [row[1] for row in prof]
        thetas = [row[3] for row in prof]
        ok = ok and all(y >= x for x, y in zip(fs, fs[1:]))
        ok = ok and all(y <= x for x, y in zip(thetas, thetas[1:]))
    report(7, ok, "11 profile rows on [0,1], exact boundary row, f nondecreasing "
                  "and theta nonincreasing for both parameter pairs")


def test_criterion_8_blasius_extension():
    oracle = shoot_solve(1.0, ShootConfig(eta_max=12.0), problem=Problem.BLASIUS)
    refined = shoot_solve(1.0, ShootConfig(eta_max=12.0, step=0.005),
                          x0=(oracle.a,), problem=Problem.BLASIUS)
    ok = abs(refined.a - oracle.a) < 1e-5

    best = None
    for n in range(2, 7):
        try:
            res = solve_problem(Problem.BLASIUS, 1.0, ClosureConfig(pade_degree=n))
        except DegenerateApproximantError:
            continue
        gap = abs(res.a - oracle.a)
        if best is None or gap < best[0]:
            best = (gap, n, res.a)
    ok = ok and best is not None and best[0] <= 0.05
    if best is not None:
        ok = ok and abs(blasius_closure_residual(best[2], ClosureConfig(pade_degree=best[1]))) <= 1e-8
    report(8, ok, f"Blasius oracle A={oracle.a:.6f} stable under step halving; "
                  f"best swept degree gives A={best[2]:.6f} (gap {best[0]:.2e})")
