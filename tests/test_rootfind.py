import itertools
import math

import numpy as np
import pytest

from dtmpade import rootfind
from dtmpade.dtm import Problem, RecurrenceMode
from dtmpade.errors import (
    DegenerateApproximantError,
    NonConvergenceError,
    SingularJacobianError,
)
from dtmpade.rootfind import (
    ClosureConfig,
    blasius_closure_residual,
    closure_residual,
    newton_solve,
    solve_problem,
)
from dtmpade.shooting import ShootConfig

PAPER_A = 0.5506447081
PAPER_B = -0.8654409691


def test_config_validation():
    with pytest.raises(ValueError):
        ClosureConfig(pade_degree=0)
    with pytest.raises(ValueError):
        ClosureConfig(pade_degree=3, series_order=5)
    with pytest.raises(ValueError):
        ClosureConfig(tol=0.0)


def test_newton_decoupled_system():
    res = newton_solve(
        lambda x: np.array([x[0] ** 2 - 2.0, x[1] - 1.0]),
        (1.0, 1.0),
        ClosureConfig(tol=1e-12),
    )
    assert res.a == pytest.approx(np.sqrt(2), abs=1e-9)
    assert res.b == pytest.approx(1.0, abs=1e-9)


def test_newton_linear_one_step():
    res = newton_solve(lambda x: np.array([x[0]]), (5.0,), ClosureConfig(tol=1e-12))
    assert abs(res.a) < 1e-9
    assert res.iterations <= 2


def test_newton_singular_jacobian():
    # identical residual components: Jacobian rows coincide exactly
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda x: np.array([x[0] + x[1] + 1.0, x[0] + x[1] + 1.0]),
                     (0.0, 0.0), ClosureConfig())


def test_newton_reports_stagnation():
    # no root: |x| + 1 cannot reach zero
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(lambda x: np.array([abs(x[0]) + 1.0]), (2.0,), ClosureConfig())
    assert info.value.last_iterate is not None
    assert info.value.residual_norm >= 1.0


def test_newton_converging_on_the_last_iteration():
    # the last allowed step is still checked for convergence
    res = newton_solve(lambda x: (x[0] - 1.0,), (0.0,), ShootConfig(tol=1e-8, max_iter=1))
    assert res.iterations == 1 and abs(res.a - 1.0) <= 1e-8
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(lambda x: (x[0] - 1.0,), (0.0,), ShootConfig(tol=1e-10, max_iter=1))
    assert info.value.iterations == 1


def test_newton_iterates_and_reports_are_plain_floats():
    seen = []

    def residual(x):
        seen.append(x)
        return closure_residual(x[0], x[1], 1.0, ClosureConfig(pade_degree=3),
                                RecurrenceMode.PAPER_FIDELITY)

    with pytest.raises(NonConvergenceError) as info:
        newton_solve(residual, (5.0, -9.0), ClosureConfig(pade_degree=3, max_iter=1))
    assert all(type(x) is tuple and all(type(v) is float for v in x) for x in seen)
    assert all(type(v) is float for v in info.value.last_iterate)
    assert type(info.value.residual_norm) is float


def test_newton_nan_residual_never_converges():
    # a NaN after a zero must not vanish from the norm
    with pytest.raises(NonConvergenceError):
        newton_solve(lambda x: [0.0, math.nan], (1.0, 1.0), ClosureConfig())


def test_closure_residual_small_at_paper_root():
    cfg = ClosureConfig(pade_degree=3)
    r1, r2 = closure_residual(PAPER_A, PAPER_B, 1.0, cfg, RecurrenceMode.PAPER_FIDELITY)
    assert np.hypot(r1, r2) < 1e-6


def test_closure_constant_theta_limit_is_one():
    # at (A, B) = (0, 0) theta freezes at 1, whose diagonal fit is the
    # constant; the f'-side degenerates there, so probe the theta side alone
    from dtmpade import pade
    from dtmpade.dtm import ProblemParams, generate

    sol = generate(ProblemParams(a=0.0, b=0.0, order=6,
                                 mode=RecurrenceMode.PAPER_FIDELITY))
    r = pade.build(sol.theta_series, 3, 3)
    assert pade.limit_at_infinity(r) == pytest.approx(1.0, abs=1e-14)
    from dtmpade.errors import DegenerateApproximantError
    with pytest.raises(DegenerateApproximantError, match="f'"):
        closure_residual(0.0, 0.0, 1.0, ClosureConfig(pade_degree=3),
                         RecurrenceMode.PAPER_FIDELITY)


def test_paper_mode_solve_matches_published_root():
    res = solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=3),
                        mode=RecurrenceMode.PAPER_FIDELITY)
    assert res.a == pytest.approx(PAPER_A, abs=1e-6)
    assert res.b == pytest.approx(PAPER_B, abs=1e-6)
    assert res.residual_norm <= 1e-10


def test_solve_result_is_idempotent():
    cfg = ClosureConfig(pade_degree=3)
    res = solve_problem(Problem.FREE_CONVECTION, 1.0, cfg, mode=RecurrenceMode.PAPER_FIDELITY)
    r = closure_residual(res.a, res.b, 1.0, cfg, RecurrenceMode.PAPER_FIDELITY)
    assert max(abs(v) for v in r) <= cfg.tol


def test_basin_robustness_paper_settings():
    cfg = ClosureConfig(pade_degree=3)
    roots = []
    for a0, b0 in itertools.product((0.4, 0.6, 0.8), (-0.4, -0.6, -0.8)):
        try:
            res = solve_problem(Problem.FREE_CONVECTION, 1.0, cfg, x0=(a0, b0),
                                mode=RecurrenceMode.PAPER_FIDELITY)
        except (NonConvergenceError, DegenerateApproximantError):
            continue  # loud failure is acceptable; silent divergence is not
        roots.append((res.a, res.b))
    assert roots, "no initial guess converged"
    for ra, rb in roots:
        assert abs(ra - roots[0][0]) < 1e-5
        assert abs(rb - roots[0][1]) < 1e-5


def test_jacobian_forward_vs_central():
    cfg = ClosureConfig(pade_degree=3)
    h = rootfind.FD_STEP
    x = np.array([0.55, -0.75])

    def res(v):
        return np.array(closure_residual(v[0], v[1], 1.0, cfg, RecurrenceMode.CORRECTED))

    base = res(x)
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        forward = (res(x + e) - base) / h
        central = (res(x + e) - res(x - e)) / (2 * h)
        assert np.all(np.abs(forward - central) <= 10 * h * np.maximum(1.0, np.abs(central)))


def test_corrected_mode_solve_runs():
    res = solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=5))
    assert res.residual_norm <= 1e-10
    # degree-5 corrected root should already sit near the oracle values
    assert res.a == pytest.approx(0.6421, abs=0.05)
    assert res.b == pytest.approx(-0.5671, abs=0.05)


def test_sign_violation_warns():
    with pytest.warns(UserWarning, match="expected signs"):
        # force a sign flip through a synthetic solve on the closed-form residual
        from dtmpade import rootfind

        result = rootfind.SolveResult(-1.0, 1.0, 0.0, 0)
        orig = rootfind.newton_solve
        try:
            rootfind.newton_solve = lambda *a, **k: result
            rootfind.solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig())
        finally:
            rootfind.newton_solve = orig


def test_blasius_closure_and_solve():
    res = solve_problem(Problem.BLASIUS, 1.0, ClosureConfig(pade_degree=4))
    assert res.b is None
    assert abs(blasius_closure_residual(res.a, ClosureConfig(pade_degree=4))) <= 1e-8
    assert res.a == pytest.approx(0.33206, abs=0.05)
