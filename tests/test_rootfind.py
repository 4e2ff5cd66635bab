import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dtmpade import pade, rootfind
from dtmpade.dtm import Problem, ProblemParams, RecurrenceMode, generate
from dtmpade.errors import (
    DegenerateApproximantError,
    DegenerateLimitError,
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
from dtmpade.series import differentiate
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


def test_newton_starting_jacobian_stands_in_for_iteration_0_only():
    calls = []

    def residual(x):
        calls.append(x)
        return (2.0 * x[0] + x[1] - 3.0, x[0] - x[1])

    cfg, exact = ClosureConfig(tol=1e-12), [(2.0, 1.0), (1.0, -1.0)]
    # the exact Jacobian of a linear system: the residual and one trial step,
    # and the list holds the Jacobian of the accepted step on return
    jac = list(exact)
    res = newton_solve(residual, (5.0, -4.0), cfg, jac)
    assert (res.a, res.b, res.residual_norm, res.iterations) == (1.0, 1.0, 0.0, 1)
    assert len(calls) == 2 and jac == exact
    # twice the Jacobian halves the first step; each later iteration takes
    # forward differences (two more evaluations) and writes them into the list
    calls.clear()
    jac = [(4.0, 2.0), (2.0, -2.0)]
    res = newton_solve(residual, (5.0, -4.0), cfg, jac)
    assert calls[:2] == [(5.0, -4.0), (3.0, -1.5)]
    assert res.iterations > 1 and len(calls) == 2 + 3 * (res.iterations - 1)
    assert np.allclose(jac, exact, atol=1e-6)
    # an empty list hands on nothing: forward differences from iteration 0
    calls.clear()
    jac = []
    res = newton_solve(residual, (5.0, -4.0), cfg, jac)
    assert calls[1] == (5.0 + 1e-7, -4.0) and len(calls) == 1 + 3 * res.iterations
    assert np.allclose(jac, exact, atol=1e-6)


def test_newton_asks_for_a_jacobian_only_where_it_steps():
    evaluated, asked = [], []

    def residual(x):
        evaluated.append(x)
        return rootfind.Residual(
            (x[0] ** 2 - 2.0, x[1] - 1.0),
            lambda: asked.append(x) or [(2.0 * x[0], 0.0), (0.0, 1.0)])

    # undamped: each iteration costs one residual and one Jacobian, taken
    # at the iterate it steps from
    res = newton_solve(residual, (1.0, 1.0), ClosureConfig(tol=1e-12))
    assert res.iterations > 1 and res.a == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert len(evaluated) == res.iterations + 1 and asked == evaluated[:-1]


def test_rejected_damped_trials_never_ask_for_a_jacobian():
    evaluated, asked = [], []

    def residual(x):
        evaluated.append(x)
        return rootfind.Residual(
            (math.atan(x[0]),), lambda: asked.append(x) or [(1.0 / (1.0 + x[0] ** 2),)])

    # from 2 the full Newton step overshoots to about -3.5, where |atan| is larger
    res = newton_solve(residual, (2.0,), ClosureConfig(tol=1e-12))
    rejected = [x for x in evaluated[1:-1] if x not in asked]
    assert rejected and not set(rejected) & set(asked)
    assert len(asked) == res.iterations and asked[0] == (2.0,)
    assert len(evaluated) == 1 + res.iterations + len(rejected)


def test_newton_on_a_non_finite_exact_jacobian():
    for jac in ([(math.nan,)], [(math.inf,)]):
        with pytest.raises(SingularJacobianError) as info:
            newton_solve(lambda x: rootfind.Residual((x[0] - 1.0,), lambda: jac),
                         (2.0,), ClosureConfig())
        assert info.value.iterations == 0 and info.value.last_iterate == (2.0,)


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

    # a residual that returns numpy scalars is read as Python floats
    seen.clear()

    def array_residual(x):
        seen.append(x)
        return np.array([x[0] ** 2 - 2.0, x[1] - 1.0])

    res = newton_solve(array_residual, (1.0, 1.0), ClosureConfig(tol=1e-12))
    assert all(type(v) is float for v in (res.a, res.b, res.residual_norm))
    assert all(type(v) is float for x in seen for v in x)
    with pytest.raises(NonConvergenceError) as info:
        newton_solve(lambda x: np.array([x[0] ** 2 + 1.0]), (0.5,), ClosureConfig(max_iter=3))
    assert all(type(v) is float for v in info.value.last_iterate)
    assert type(info.value.residual_norm) is float


def test_newton_nan_residual_never_converges():
    # a NaN after a zero must not vanish from the norm
    with pytest.raises(NonConvergenceError):
        newton_solve(lambda x: [0.0, math.nan], (1.0, 1.0), ClosureConfig())


nan, inf = math.nan, math.inf


# Jacobians with a zero row or column, a NaN or infinite entry, or entries
# whose products pass the largest float: each is singular at the start,
# before any step is taken. The last case is a linear residual with
# entries near 1e300 and a well-scaled row-scaled determinant (1.06).
@pytest.mark.parametrize("residual, x0, outcome", [
    (lambda x: (1.0 if x[1] == 1.0 else nan, 1.0 + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (x[1], 2.0 * x[1] + 1.0), (0.0, 1.0), SingularJacobianError),
    (lambda x: (1.0, x[0] + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (1.0 if x[1] == 1.0 else nan, x[0] + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (x[1] if x[0] == 0.0 else nan, x[0] + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (x[1] + (inf if x[0] != 0.0 else 0.0), x[0] + x[1]), (0.0, 1.0),
     SingularJacobianError),
    (lambda x: (x[0] - 1.0 if x[0] == 2.0 else nan,), (2.0,), SingularJacobianError),
    (lambda x: (x[0] - 1.0 if x[0] == 2.0 else inf,), (2.0,), SingularJacobianError),
    (lambda x: (x[1] - (inf if x[0] != 0.0 else 0.0), x[0] + x[1]), (0.0, 1.0),
     SingularJacobianError),
    (lambda x: (x[0] - 1.0 if x[0] == 2.0 else -inf,), (2.0,), SingularJacobianError),
    (lambda x: (8.56946940637837e+299 * x[0] + 1.7691690118380745e+299 * x[1]
                - 1.438580456162081e+300,
                -1.3004483345192076e+299 * x[0] + 4.1568015438477796e+299 * x[1]
                + 2.183098473862801e+299), (0.0, 0.0), SingularJacobianError),
])
def test_newton_on_degenerate_jacobians(residual, x0, outcome):
    with pytest.raises(outcome) as info:
        newton_solve(residual, x0, ClosureConfig())
    assert type(info.value) is outcome
    diagnostics = info.value.last_iterate, info.value.residual_norm, info.value.iterations
    assert diagnostics == (x0, max(abs(v) for v in residual(x0)), 0)


moderate = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def systems(draw):
    """A 1x1 or 2x2 Jacobian and right-hand side; some 2x2 rows nearly parallel."""
    d = draw(st.sampled_from((1, 2)))
    jac = [[draw(moderate) for _ in range(d)] for _ in range(d)]
    if d == 2 and draw(st.booleans()):
        t, f = draw(moderate), draw(st.floats(1e-13, 1e-1))
        jac[1] = [t * jac[0][0] * (1.0 + f), t * jac[0][1]]
    return jac, [draw(moderate) for _ in range(d)]


@settings(max_examples=400, deadline=None)
@given(systems())
def test_step_solves_the_system_to_rounding(system):
    # exact arithmetic: the residual of the float step, cond(J) and the
    # row-scaled determinant, which must clear SINGULAR_DET with room to spare
    jac, r = system
    J = [[Fraction(v) for v in row] for row in jac]
    scales = [max(abs(v) for v in row) for row in J]
    assume(all(scales))
    if len(J) == 1:
        inv, scaled_det = [[1 / J[0][0]]], 1
    else:
        (a, b), (c, d) = J
        det = a * d - b * c
        assume(det != 0)
        inv = [[d / det, -b / det], [-c / det, a / det]]
        scaled_det = abs(det) / (scales[0] * scales[1])
    assume(scaled_det >= 2 * rootfind.SINGULAR_DET)
    step = rootfind._step(jac, r)
    assert step is not None
    norm_j = max(sum(abs(v) for v in row) for row in J)
    cond = norm_j * max(sum(abs(v) for v in row) for row in inv)
    miss = max(abs(sum(v * Fraction(s) for v, s in zip(row, step)) - Fraction(ri))
               for row, ri in zip(J, r))
    size = norm_j * max(abs(Fraction(s)) for s in step) + max(abs(Fraction(v)) for v in r)
    assert miss <= 4 * cond * Fraction(math.ulp(1.0)) * size


def test_step_singular_threshold():
    # row-scaled determinants of 8.9e-15, 1.1e-14, 9.99e-15 and 3.0e-14,
    # either side of SINGULAR_DET = 1e-14; the unscaled step of the two that
    # pass is finite
    cases = [
        ([[1.0, 1.0], [1.0, 1.0000000000000089]], [1.0, 2.0], True),
        ([[1.0, 1.0], [1.0, 1.000000000000011]], [1.0, 2.0], False),
        ([[1000.0, 2000.0], [0.001, 0.00200000000000004]], [1.0, 1.0], True),
        ([[1000.0, 2000.0], [0.001, 0.0020000000000001197]], [1.0, 1.0], False),
    ]
    for jac, r, singular in cases:
        step = rootfind._step(jac, r)
        assert (step is None) is singular
        assert singular or all(math.isfinite(v) for v in step)


def test_step_outside_the_float_range_is_singular():
    # well-scaled systems whose unscaled determinant overflows (the step
    # would read 0 instead of 0.05) or underflows to 0, and whose step overflows
    for jac, r in (([[2e154, 0.0], [0.0, 1e155]], [1e153, 0.0]),
                   ([[1e-170, 0.0], [0.0, 1e-170]], [1.0, 1.0]),
                   ([[1e-200, 0.0], [0.0, 1.0]], [1e200, 0.0]),
                   ([[1e-200]], [1e200])):
        assert rootfind._step(jac, r) is None


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


@pytest.mark.parametrize("order", [None, "2n", "2n+1", "4n+3"])
@pytest.mark.parametrize("mode", list(RecurrenceMode))
@pytest.mark.parametrize("n", [3, 5, 9])
@pytest.mark.parametrize("pr", [0.72, 1.0, 1.5])
def test_closure_jacobian_against_central_differences(pr, n, mode, order):
    # a point where every fit of the stencil passes its gates, on each rung
    # and each window: the zero-padded 2n, the full 2n+1 and an order past it
    # (at (0.8, -1.2) the corrected [9/9] f' fit of the 2n window fails the match check)
    series_order = {None: None, "2n": 2 * n, "2n+1": 2 * n + 1, "4n+3": 4 * n + 3}[order]
    cfg, x, h = ClosureConfig(pade_degree=n, series_order=series_order), (0.9, -1.2), 1e-5
    exact = closure_residual(*x, pr, cfg, mode).jacobian()
    for j in range(2):
        e = [0.0, 0.0]
        e[j] = h
        plus = closure_residual(x[0] + e[0], x[1] + e[1], pr, cfg, mode)
        minus = closure_residual(x[0] - e[0], x[1] - e[1], pr, cfg, mode)
        for i, row in enumerate(exact):
            central = (plus[i] - minus[i]) / (2 * h)
            assert abs(row[j] - central) <= 1e-5 * max(abs(v) for v in row)


def test_closure_at_b_zero_has_a_singular_jacobian():
    # B = 0 makes every Theta(k >= 1) zero: the theta fit is its own
    # polynomial, with an all-zero matching block, so its limit 1 has no
    # derivative there and a Newton start at B = 0 stops at once
    r = closure_residual(0.6, 0.0, 1.0, ClosureConfig())
    assert r[1] == 1.0
    assert all(math.isnan(v) for row in r.jacobian() for v in row)
    with pytest.raises(SingularJacobianError) as info:
        solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(), x0=(0.6, 0.0))
    assert info.value.iterations == 0 and info.value.last_iterate == (0.6, 0.0)


def test_closure_residual_is_a_tuple_of_floats_with_its_jacobian():
    cfg = ClosureConfig(pade_degree=5)
    r = closure_residual(0.6, -0.6, 1.0, cfg)
    assert isinstance(r, tuple) and len(r) == 2 and all(type(v) is float for v in r)
    jac = r.jacobian()
    assert len(jac) == 2 and all(len(row) == 2 and all(type(v) is float for v in row)
                                 for row in jac)


def test_corrected_mode_solve_runs():
    res = solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=5))
    assert res.residual_norm <= 1e-10
    # degree-5 corrected root should already sit near the oracle values
    assert res.a == pytest.approx(0.6421, abs=0.05)
    assert res.b == pytest.approx(-0.5671, abs=0.05)


def test_corrected_roots_report_their_unflushed_residual():
    cfg = {n: ClosureConfig(pade_degree=n) for n in (3, 5, 9)}
    roots = {n: solve_problem(Problem.FREE_CONVECTION, 1.0, c) for n, c in cfg.items()}
    for res in roots.values():
        assert 0.0 < res.residual_norm <= 1e-10
    # no plateau around the root: a 1e-9 move in A shows in both components
    root = roots[9]
    at_root = closure_residual(root.a, root.b, 1.0, cfg[9])
    moved = closure_residual(root.a + 1e-9, root.b, 1.0, cfg[9])
    assert all(m != r for m, r in zip(moved, at_root))


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


# the Blasius roots damped Newton found from A = 0.3 before the closed form
NEWTON_BLASIUS_ROOTS = {1: 0.25000000000000044, 2: 0.437991706195133,
                        3: 0.31117439013579123, 4: 0.32779775583118215,
                        5: 0.3211073682495318, 6: 0.33728007858650844}


@pytest.mark.parametrize("n", range(1, 13))
def test_blasius_rung_in_closed_form(n):
    cfg = ClosureConfig(pade_degree=n)
    if n >= 9:  # the cube-variable fit fails the condition gate
        with pytest.raises(DegenerateApproximantError, match="cube variable"):
            solve_problem(Problem.BLASIUS, 1.0, cfg)
        return
    a = (blasius_closure_residual(1.0, cfg) + 1.0) ** -0.5
    if n >= 7:  # the verifying residual exceeds tol
        with pytest.raises(NonConvergenceError, match="closed-form root") as exc:
            solve_problem(Problem.BLASIUS, 1.0, cfg)
        assert exc.value.iterations == 0 and exc.value.last_iterate == (a,)
        assert exc.value.residual_norm == abs(blasius_closure_residual(a, cfg)) > cfg.tol
        return
    res = solve_problem(Problem.BLASIUS, 1.0, cfg)
    assert res.a == a and res.b is None and res.iterations == 0
    assert res.residual_norm == abs(blasius_closure_residual(a, cfg)) <= cfg.tol
    assert abs(res.a - NEWTON_BLASIUS_ROOTS[n]) <= 2e-11


def test_blasius_rung_never_enters_newton(monkeypatch):
    def newton(*args, **kwargs):
        raise AssertionError("the Blasius rung ran Newton")

    monkeypatch.setattr(rootfind, "newton_solve", newton)
    for n in range(2, 7):
        res = solve_problem(Problem.BLASIUS, 1.0, ClosureConfig(pade_degree=n))
        assert abs(res.a - NEWTON_BLASIUS_ROOTS[n]) <= 2e-11


def _outcome(pr, n, mode):
    try:
        solve_problem(Problem.FREE_CONVECTION, pr, ClosureConfig(pade_degree=n), mode=mode)
    except NonConvergenceError:
        return "nonconvergence"
    except DegenerateLimitError:
        return "limit"
    except DegenerateApproximantError:
        return "build"
    return "ok"


# the outcome of each free-convection rung n = 1..10 at each Pr of the benchmark round
LADDER_OUTCOMES = {
    RecurrenceMode.CORRECTED: {
        0.72: ("limit", "build", "ok", "build", "ok",
               "build", "ok", "build", "nonconvergence", "build"),
        1.0: ("limit", "build", "ok", "nonconvergence", "ok",
              "build", "build", "build", "ok", "build"),
        1.5: ("limit", "build", "ok", "build", "ok",
              "build", "build", "build", "build", "build"),
    },
    RecurrenceMode.PAPER_FIDELITY: {
        0.72: ("limit", "build", "ok", "build", "build",
               "build", "build", "build", "build", "build"),
        1.0: ("limit", "build", "ok", "nonconvergence", "build",
              "ok", "build", "build", "build", "build"),
        1.5: ("limit", "build", "ok", "build", "build",
              "build", "build", "build", "build", "build"),
    },
}


@pytest.mark.parametrize("mode", list(LADDER_OUTCOMES))
def test_free_convection_ladder_outcome_classes(mode):
    outcomes = {pr: tuple(_outcome(pr, n, mode) for n in range(1, 11))
                for pr in LADDER_OUTCOMES[mode]}
    assert outcomes == LADDER_OUTCOMES[mode]


@pytest.mark.parametrize("mode, series_order, label", [
    # one window: the f' fit of (0, A, 0) is its own polynomial, whose limit diverges
    (RecurrenceMode.PAPER_FIDELITY, None, "f'"),
    (RecurrenceMode.PAPER_FIDELITY, 2, "f'"),
    (RecurrenceMode.CORRECTED, 2, "f'"),
    # with 3 F(3) in the f' fit, its limit is finite and theta's diverges
    (RecurrenceMode.PAPER_FIDELITY, 3, "theta"),
    (RecurrenceMode.CORRECTED, 3, "theta"),
    (RecurrenceMode.CORRECTED, None, "theta"),
])
def test_n1_window_decides_which_limit_diverges(mode, series_order, label):
    cfg = ClosureConfig(pade_degree=1, series_order=series_order)
    with pytest.raises(DegenerateLimitError, match=f"^{label}-approximant: numerator outgrows"):
        solve_problem(Problem.FREE_CONVECTION, 1.0, cfg, mode=mode)


def count_orders(monkeypatch) -> list[int]:
    """The order of every generate call the closures make from here on."""
    orders = []
    monkeypatch.setattr(rootfind, "generate",
                        lambda params: orders.append(params.order) or generate(params))
    return orders


def test_order_200_gives_the_default_root(monkeypatch):
    # the [3/3] fits read F up to 2n+1 = 7, so the recurrence stops there
    default = solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=3))
    orders = count_orders(monkeypatch)
    past = solve_problem(Problem.FREE_CONVECTION, 1.0,
                         ClosureConfig(pade_degree=3, series_order=200))
    assert orders and max(orders) == 7
    assert (past.a.hex(), past.b.hex(), past.iterations) == (
        default.a.hex(), default.b.hex(), default.iterations)


@pytest.mark.parametrize("mode", list(RecurrenceMode))
def test_orders_past_the_window_change_nothing(monkeypatch, mode):
    orders = count_orders(monkeypatch)
    full, past = (closure_residual(0.6, -0.6, 1.0, ClosureConfig(pade_degree=3, series_order=m),
                                   mode) for m in (7, 200))
    assert orders == [7, 7]
    assert [v.hex() for v in past] == [v.hex() for v in full]
    assert ([v.hex() for row in past.jacobian() for v in row]
            == [v.hex() for row in full.jacobian() for v in row])


def test_limit_error_keeps_its_class_through_the_closure():
    # the n = 1 rung's limit diverges; the closure labels the error, keeping its class
    with pytest.raises(DegenerateLimitError, match="-approximant: numerator outgrows") as exc:
        solve_problem(Problem.FREE_CONVECTION, 1.0, ClosureConfig(pade_degree=1))
    assert type(exc.value.__cause__) is DegenerateLimitError


def test_closure_errors_in_the_order_of_lone_fits():
    # at A = 0 the f' fit succeeds but its limit diverges, and the theta fit
    # fails its condition gate: the stacked fits report the f' limit first
    a, b, pr, n = 0.0, 0.61, 1.5, 3
    sol = generate(ProblemParams(Problem.FREE_CONVECTION, pr=pr, a=a, b=b, order=2 * n + 1))
    fp = pade.build(differentiate(sol.f_series), n, n)
    with pytest.raises(DegenerateLimitError):
        pade.limit_at_infinity(fp)
    with pytest.raises(DegenerateApproximantError, match="condition estimate inf"):
        pade.build(sol.theta_series, n, n)
    with pytest.raises(DegenerateLimitError, match="^f'-approximant: numerator outgrows"):
        closure_residual(a, b, pr, ClosureConfig(pade_degree=n))
