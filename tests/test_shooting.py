import math
import warnings
from functools import partial

import numpy as np
import pytest

from dtmpade import shooting
from dtmpade.dtm import Problem, ProblemParams, RecurrenceMode, generate
from dtmpade.errors import BlowUpError, NonConvergenceError, SingularJacobianError
from dtmpade.rootfind import DEFAULT_GUESS, SolveResult, newton_solve
from dtmpade.series import evaluate as series_eval
from dtmpade.shooting import (
    _BLOWUP_LIMIT,
    ShootConfig,
    _advance_blasius,
    _advance_free_convection,
    _march,
    blasius_boundary_residual,
    boundary_residual,
    shoot_solve,
    tabulate_profile,
)

OSTRACH_A = 0.6421
OSTRACH_B = -0.5671


def test_config_validation():
    with pytest.raises(ValueError):
        ShootConfig(eta_max=3.0)
    with pytest.raises(ValueError):
        ShootConfig(step=0.0)


def test_config_bounds_the_rk4_steps_per_trajectory():
    # eta_max 12 at step 0.0025, the finest documented case, is 4 800 steps
    ShootConfig(eta_max=12.0, step=0.0025)
    ShootConfig(eta_max=10.0, step=1e-6)
    for eta_max, step in ((10.0, 9.9e-7), (1e300, 1e-300), (8.0, 5e-324)):
        with pytest.raises(ValueError, match="at most 10,000,000 RK4 steps"):
            ShootConfig(eta_max=eta_max, step=step)


def test_profile_requires_increasing_eta():
    for grid in ([0.0, 0.5, 0.5], [0.0, 0.5, 0.2]):
        with pytest.raises(ValueError, match="strictly increasing"):
            tabulate_profile(0.5, -0.5, 1.0, grid)


# reference: the classical vector formula on float64 arrays, with the array
# right-hand sides the steppers replaced; a stepper must reproduce it exactly
def _array_rhs_free_convection(state, pr):
    f, fp, fpp, th, thp = state
    return np.array([fp, fpp, 2.0 * fp * fp - th - 3.0 * f * fpp, thp, -3.0 * pr * f * thp])


def _array_rhs_blasius(state):
    f, fp, fpp = state
    return np.array([fp, fpp, -0.5 * f * fpp])


def _vector_rk4_step(rhs, state, h):
    state = np.array(state, dtype=float)
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


STEPPERS = {
    "free_convection": (partial(_advance_free_convection, pr=0.72),
                        partial(_array_rhs_free_convection, pr=0.72), 5),
    "blasius": (_advance_blasius, _array_rhs_blasius, 3),
}


def test_rk4_self_test_exponential():
    # a tiny perturbation of a frozen flow obeys y' = y in one component:
    # Blasius f''' = -0.5 f f'' with f = -2, and the free-convection
    # theta'' = -3 Pr f theta' with Pr = 1, f = -1/3. Ten classical RK4 steps
    # of 0.1 land on e to about 2e-6; the coupling moves it by ~eps only
    eps = 1e-9
    fpp = _advance_blasius([-2.0, 0.0, eps], 0.0, 0.1, 10)[2]
    thp = _advance_free_convection([-1.0 / 3.0, 0.0, 0.0, 0.0, eps], 0.0, 0.1, 10, 1.0)[4]
    for y in (fpp, thp):
        assert y / eps == pytest.approx(math.e, abs=3e-6)


def test_rk4_fourth_order_slope():
    # error at eta = 2 against a 64x finer run; halving h divides it by 2^4
    for advance, state in ((partial(_advance_free_convection, pr=1.0),
                            [0.0, 0.0, OSTRACH_A, 1.0, OSTRACH_B]),
                           (_advance_blasius, [0.0, 0.0, 0.332])):
        ref = _march(advance, state, [2.0], 0.05 / 64)[-1]
        errors = [max(abs(v - r) for v, r in zip(_march(advance, state, [2.0], h)[-1], ref))
                  for h in (0.2, 0.1, 0.05)]
        for e1, e2 in zip(errors, errors[1:]):
            assert math.log(e1 / e2) / math.log(2.0) == pytest.approx(4.0, abs=0.2)


@pytest.mark.parametrize("problem", ["free_convection", "blasius"])
def test_rk4_step_matches_numpy_vector_form(problem):
    # one call of nsub steps equals nsub vector steps, each fed the last; the
    # span nsub * h stays below 0.2 so that no random start blows up
    advance, rhs, dim = STEPPERS[problem]
    rng = np.random.default_rng(7)
    for nsub in (1, 2, 7):
        for _ in range(200):
            state, h = rng.normal(scale=3.0, size=dim), rng.uniform(1e-3, 0.2) / nsub
            want = state
            for _ in range(nsub):
                want = _vector_rk4_step(rhs, want, h)
            assert advance(state.tolist(), 0.0, h, nsub) == want.tolist()


def test_step_halving_error_ratio_on_problem():
    coarse = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig(step=0.02))
    fine = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig(step=0.01))
    # both runs are far below the truncation effect; they must agree closely
    assert abs(coarse[0] - fine[0]) < 1e-7
    assert abs(coarse[1] - fine[1]) < 1e-7


def test_trajectory_exists_and_theta_decays():
    grid = [round(0.01 * k, 10) for k in range(801)]
    prof = tabulate_profile(OSTRACH_A, OSTRACH_B, 1.0, grid, ShootConfig())
    thetas = [row[3] for row in prof]
    assert thetas[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(thetas, thetas[1:]))
    assert abs(thetas[-1]) < 5e-3


def test_boundary_residual_at_reference_values():
    r1, r2 = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig())
    assert abs(r1) < 5e-3
    assert abs(r2) < 5e-3


def test_zero_guess_freezes_theta_then_blows_up():
    # with f''(0) = theta'(0) = 0 the temperature stays pinned at 1 while f
    # turns increasingly negative, and the trajectory leaves the representable
    # range before eta = 5, so the full-domain residual is unreachable
    state = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    state = _march(partial(_advance_free_convection, pr=1.0), state, [1.0], 0.01)[-1]
    assert state[0] == pytest.approx(-1.0 / 6.0, abs=1e-3)
    assert state[1] == pytest.approx(-0.5, abs=1e-3)
    assert state[3] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(BlowUpError):
        boundary_residual(0.0, 0.0, 1.0, ShootConfig(eta_max=5.0))


def test_boundary_residual_continuity():
    cfg = ShootConfig()
    base = boundary_residual(0.6, -0.6, 1.0, cfg)
    bumped = boundary_residual(0.6 + 1e-6, -0.6, 1.0, cfg)
    assert abs(bumped[0] - base[0]) < 1e-3
    assert abs(bumped[1] - base[1]) < 1e-3


def test_blow_up_reports_eta():
    # the free-convection zero guess and a Blasius f''(0) < 0 both leave the
    # limit before eta = 5; eta_reached is the end of the failing step
    for advance, state in ((partial(_advance_free_convection, pr=1.0), [0.0, 0.0, 0.0, 1.0, 0.0]),
                           (_advance_blasius, [0.0, 0.0, -10.0])):
        with pytest.raises(BlowUpError) as info:
            _march(advance, state, [8.0], 0.05)
        reached = info.value.eta_reached
        assert 1.0 < reached < 5.0
        assert reached == round(reached / 0.05) * 0.05


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", ["a", "b"])
def test_non_finite_wall_values_blow_up_at_first_step(bad, position):
    # the stepper itself, below the library's up-front check
    wall = {"a": OSTRACH_A, "b": OSTRACH_B, position: bad}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as info:
            _march(partial(_advance_free_convection, pr=1.0),
                   [0.0, 0.0, wall["a"], 1.0, wall["b"]], [8.0], 0.01)
    assert info.value.eta_reached == 0.01


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", ["a", "b"])
def test_non_finite_wall_values_are_a_value_error(bad, position):
    # the library rejects a bad input the way dtm.ProblemParams does, for
    # Blasius too, whose theta'(0) is ignored but checked like the DTM side's
    wall = {"a": OSTRACH_A, "b": OSTRACH_B, position: bad}
    match = "^initial derivatives a, b must be finite$"
    with pytest.raises(ValueError, match=match):
        boundary_residual(wall["a"], wall["b"], 1.0, ShootConfig())
    for problem in Problem:
        with pytest.raises(ValueError, match=match):
            tabulate_profile(wall["a"], wall["b"], 1.0, [0.0, 1.0], problem=problem)
    if position == "a":
        with pytest.raises(ValueError, match=match):
            blasius_boundary_residual(bad, ShootConfig())


@pytest.mark.parametrize("position", range(3))
def test_blow_up_check_sees_nan_in_any_position(position):
    # every comparison with nan is false, so a NaN anywhere ends the march at the first step
    state = [math.nan if i == position else v for i, v in enumerate([0.0, 1.0, 0.332])]
    with pytest.raises(BlowUpError) as info:
        _march(_advance_blasius, state, [1.0], 0.1)
    assert info.value.eta_reached == 0.1


L = _BLOWUP_LIMIT


# each component in turn starts on the limit, or on minus the limit, and
# one step of h takes it, and only it, past that bound; the vector step
# confirms that
@pytest.mark.parametrize("problem, component, start, h", [
    ("free_convection", 0, [L, 1.0, 0.0, 0.0, 0.0], 1e-6),
    ("free_convection", 1, [0.0, L, 0.0, 0.0, 0.0], 1e-9),
    ("free_convection", 2, [0.0, 1.0, L, 0.0, 0.0], 1e-6),
    ("free_convection", 3, [0.0, 0.0, 0.0, L, 1.0], 1e-6),
    ("free_convection", 4, [-1.0, 0.0, 0.0, 0.0, L], 1e-6),
    ("blasius", 0, [L, 1.0, 0.0], 1e-6),
    ("blasius", 1, [0.0, L, 1.0], 1e-6),
    ("blasius", 2, [-1.0, 0.0, L], 1e-6),
    ("free_convection", 0, [-L, -1.0, 0.0, 0.0, 0.0], 1e-6),
    ("free_convection", 1, [0.0, -L, -5e7, 0.0, 0.0], 1e-9),
    ("free_convection", 2, [0.0, 0.0, -L, 1e5, 0.0], 1e-6),
    ("free_convection", 3, [0.0, 0.0, 0.0, -L, -1.0], 1e-6),
    ("free_convection", 4, [-1.0, 0.0, 0.0, 0.0, -L], 1e-6),
    ("blasius", 0, [-L, -1.0, 0.0], 1e-6),
    ("blasius", 1, [0.0, -L, -1.0], 1e-6),
    ("blasius", 2, [-1.0, 0.0, -L], 1e-6),
])
def test_blow_up_check_sees_each_component(problem, component, start, h):
    advance, rhs, dim = STEPPERS[problem]
    after = _vector_rk4_step(rhs, start, h)
    assert [abs(v) > L for v in after] == [i == component for i in range(dim)]
    with pytest.raises(BlowUpError) as info:
        _march(advance, start, [h], h)
    assert info.value.eta_reached == h


def test_residuals_pinned_bit_for_bit():
    # exact values of the RK4 trajectories; any change to the operand order
    # of a step or of the right-hand sides shows here
    assert boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig()) == (
        -0.00023685018547082664, -0.0001570421290990859)
    assert boundary_residual(OSTRACH_A, OSTRACH_B, 0.72, ShootConfig(step=0.03)) == (
        0.6319496161626309, -0.160541434853559)
    assert blasius_boundary_residual(0.332, ShootConfig()) == -0.0001188470731889879


def test_bench_shoot_roots_pinned_bit_for_bit():
    # the roots at the benchmark's shoot_oracle settings, from the default guess;
    # any change to a trajectory or to Newton's path shows here. The coarse
    # stage at step 0.08 leaves the stage at 0.02 one iteration at Pr = 1 and
    # none for Blasius; one-stage Newton took 7 and 3 to roots that stay close.
    # The Pr = 1 iteration steps with the coarse stage's last Jacobian; with
    # forward differences it gave the second pair of literals
    cfg = ShootConfig(eta_max=8.0, step=0.02, tol=1e-8)
    res = shoot_solve(1.0, cfg)
    assert (res.a, res.b, res.iterations) == (0.6421787637326019, -0.5671373995932919, 1)
    for a, b in ((0.6421787637328251, -0.5671373996003624),
                 (0.6421787637344606, -0.5671373996114442)):
        assert abs(res.a - a) < 1e-9 and abs(res.b - b) < 1e-9
    res = shoot_solve(1.0, cfg, problem=Problem.BLASIUS)
    assert (res.a, res.iterations) == (0.33205919549331037, 0)
    # the coarse root already meets tol at 0.02, within tol / |d residual / dA| of the old one
    assert abs(res.a - 0.3320591917502373) < 5e-9


def test_bench_shoot_roots_at_the_default_step_pinned_bit_for_bit():
    # at step 0.01 the coarse stage runs at 0.08 too, as at 0.02, so Pr = 1
    # takes one chord iteration from the same coarse root, and the Blasius
    # coarse root already meets tol at 0.01: the 0.02 root, bit for bit. The
    # second literals are the roots of a coarse stage at 4 * 0.01 = 0.04
    cfg = ShootConfig(eta_max=8.0, step=0.01, tol=1e-8)
    res = shoot_solve(1.0, cfg)
    assert (res.a, res.b, res.iterations) == (0.6421787646222189, -0.5671373992405486, 1)
    assert abs(res.a - 0.6421787646224484) < 5e-9 and abs(res.b + 0.5671373992469261) < 5e-9
    res = shoot_solve(1.0, cfg, problem=Problem.BLASIUS)
    assert (res.a, res.iterations) == (0.33205919549331037, 0)
    assert abs(res.a - 0.3320591919776551) < 5e-9


def _record_steps(monkeypatch) -> list[float]:
    """The step of every trajectory shoot_solve runs from here on."""
    steps = []
    for name in ("boundary_residual", "blasius_boundary_residual"):
        def recorded(*args, _original=getattr(shooting, name)):
            steps.append(args[-1].step)
            return _original(*args)
        monkeypatch.setattr(shooting, name, recorded)
    return steps


@pytest.mark.parametrize("pr", [0.5, 0.72, 1.0])
@pytest.mark.parametrize("step", [0.01, 0.02, 0.005])
def test_fine_stage_steps_with_the_coarse_jacobian(monkeypatch, pr, step):
    # the fine stage's one iteration runs the residual and the trial step;
    # the coarse stage's last Jacobian stands in for two forward differences
    steps = _record_steps(monkeypatch)
    assert shoot_solve(pr, ShootConfig(step=step)).iterations == 1
    assert steps.count(step) == 2


def _bad_handed_on_jacobian(monkeypatch, bad):
    """shoot_solve from here on hands bad(coarse Jacobian) to its fine stage;
    the coarse stage's list is empty on entry and hands on nothing."""
    original = shooting.newton_solve

    def solve(residual, x0, cfg, jacobian=None):
        if jacobian:
            jacobian = bad(jacobian)
        return original(residual, x0, cfg, jacobian)

    monkeypatch.setattr(shooting, "newton_solve", solve)


# fine-stage trajectories: the residual, the 9 damped trials of a stagnating
# step, the two forward-difference columns and the trial of their step
@pytest.mark.parametrize("bad, fine_trajectories", [
    (lambda jac: [(0.0, 0.0), (0.0, 0.0)], 1 + 2 + 1),  # singular: no step to try
    (lambda jac: [(math.nan,) * 2] * 2, 1 + 2 + 1),
    (lambda jac: [tuple(-v for v in row) for row in jac], 1 + 9 + 2 + 1),  # an ascent step
])
def test_bad_handed_on_jacobian_falls_back_to_forward_differences(monkeypatch, bad,
                                                                 fine_trajectories):
    # iteration 0 is redone with forward differences at the coarse root, so
    # the fine stage returns the root it returned without the hand-off
    _bad_handed_on_jacobian(monkeypatch, bad)
    steps = _record_steps(monkeypatch)
    res = shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert (res.a, res.b, res.iterations) == (0.6421787637328251, -0.5671373996003624, 1)
    assert steps.count(0.02) == fine_trajectories


@pytest.mark.parametrize("step, stages", [(0.02, [0.08, 0.02]), (0.0175, [0.08, 0.0175]),
                                          (0.03, [0.08, 0.03]), (0.05, [0.08, 0.05]),
                                          (0.01, [0.08, 0.01]), (0.005, [0.08, 0.005]),
                                          (0.08, [0.08])])
def test_coarse_stage_runs_up_to_the_cap(monkeypatch, step, stages):
    # every step below 0.08 gets a coarse stage at 0.08, and 0.08 or a
    # larger one none; the first trajectory is the coarse stage's, the last
    # the requested step's
    steps = _record_steps(monkeypatch)
    shoot_solve(1.0, ShootConfig(step=step))
    assert sorted(set(steps), reverse=True) == stages
    assert steps[0] == stages[0] and steps[-1] == step


def test_step_above_cap_keeps_one_stage_newton_bits():
    # roots of the one-stage Newton, which the coarse step and the steps
    # above it have always run (Pr = 1 blows up at step 0.1)
    assert shoot_solve(1.0, ShootConfig(step=0.08)) == SolveResult(
        0.642178516207393, -0.5671374979022337, 9.032272383502219e-11, 7)
    assert shoot_solve(0.72, ShootConfig(step=0.08)) == SolveResult(
        0.67597808298671, -0.504617848222868, 5.281792866029984e-14, 7)
    assert shoot_solve(0.72, ShootConfig(step=0.1)) == SolveResult(
        0.6759777111229627, -0.504617987068177, 5.065095918914148e-14, 7)
    assert shoot_solve(1.0, ShootConfig(step=0.08), problem=Problem.BLASIUS) == SolveResult(
        0.33205919549331037, None, 7.327471962526033e-15, 3)
    assert shoot_solve(1.0, ShootConfig(step=0.1), problem=Problem.BLASIUS) == SolveResult(
        0.3320592007581807, None, 6.8833827526759706e-15, 3)


def test_coarse_stage_failure_falls_back_to_the_callers_guess(monkeypatch):
    # at eta_max = 12 the coarse stage (step 0.08) blows up; the stage at 0.01
    # then starts from the default guess and returns the one-stage Newton's
    # root, the reverse-flow one (pinned before the coarse stage existed)
    with pytest.raises(BlowUpError):
        shoot_solve(1.0, ShootConfig(eta_max=12.0, step=0.08))
    steps = _record_steps(monkeypatch)
    assert shoot_solve(1.0, ShootConfig(eta_max=12.0)) == SolveResult(
        0.6391764853781349, -0.5539269253734782, 1.5523536878419685e-09, 10)
    assert 0.08 in steps


def test_coarse_stage_failure_keeps_the_physical_root_at_pr_0_1():
    # at Pr = 0.1, eta_max = 6 the coarse stage blows up and the stage at
    # 0.01 from the default guess (one-stage Newton) returns a physical root:
    # f' stays nonnegative. The only such rescue in a sweep of Pr 0.01-100,
    # eta_max 5-20 and steps 0.005-0.02; the other fallbacks that converge
    # return reverse-flow roots (ROADMAP item 3)
    cfg = ShootConfig(eta_max=6.0, step=0.01)
    with pytest.raises(BlowUpError):
        shoot_solve(0.1, ShootConfig(eta_max=6.0, step=0.08))
    res = shoot_solve(0.1, cfg)
    assert (res.a, res.b, res.iterations) == (0.8333271852059588, -0.24998883424723176, 7)
    one_stage = newton_solve(lambda x: boundary_residual(x[0], x[1], 0.1, cfg),
                             DEFAULT_GUESS[Problem.FREE_CONVECTION], cfg)
    assert abs(res.a - one_stage.a) < 1e-9 and abs(res.b - one_stage.b) < 1e-9
    grid = [round(0.05 * i, 12) for i in range(121)]
    assert min(row[2] for row in tabulate_profile(res.a, res.b, 0.1, grid, cfg)) > -1e-8


@pytest.mark.parametrize("error", [BlowUpError, NonConvergenceError, SingularJacobianError])
def test_each_coarse_stage_error_falls_back(monkeypatch, error):
    # a coarse trajectory that raises stands in for a coarse Newton that does;
    # the stage at 0.02 then returns the benchmark root of one-stage Newton
    original = shooting.boundary_residual

    def coarse_fails(a, b, pr, cfg):
        if cfg.step == 0.08:
            raise error("coarse")
        return original(a, b, pr, cfg)

    monkeypatch.setattr(shooting, "boundary_residual", coarse_fails)
    res = shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert (res.a, res.b, res.iterations) == (0.6421787637344606, -0.5671373996114442, 7)


def test_coarse_stage_failing_after_a_step_hands_on_no_jacobian(monkeypatch):
    # the coarse stage accepts its first step (trajectories 1-10: residual,
    # two columns, seven damped trials), then blows up in the next Jacobian;
    # the stage at 0.02 starts from the default guess with forward
    # differences, as one-stage Newton did
    original, coarse_calls = shooting.boundary_residual, []

    def coarse_fails_late(a, b, pr, cfg):
        if cfg.step == 0.08:
            coarse_calls.append(a)
            if len(coarse_calls) == 11:
                raise BlowUpError("coarse", eta_reached=1.0)
        return original(a, b, pr, cfg)

    monkeypatch.setattr(shooting, "boundary_residual", coarse_fails_late)
    res = shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert (res.a, res.b, res.iterations) == (0.6421787637344606, -0.5671373996114442, 7)


@pytest.mark.parametrize("pr, eta_max, reached", [(7.0, 8.0, 4.87), (0.1, 8.0, 4.75),
                                                  (1.0, 10.0, 9.97), (0.72, 12.0, 5.95)])
def test_both_stages_failing_raise_the_one_stage_error(pr, eta_max, reached):
    # each case blew up at this eta with the one-stage Newton at step 0.01
    with pytest.raises(BlowUpError, match=f"near eta = {reached}$") as info:
        shoot_solve(pr, ShootConfig(eta_max=eta_max))
    assert info.value.eta_reached == reached


def test_pr_1_5_blows_up_on_the_default_domain_and_converges_at_eta_max_7():
    # from the default guess the oracle blows up at Pr 1.5, eta_max 8 (so
    # compare --pr 1.5 exits 3 while every DTM-Pade rung answers); a shorter
    # domain converges. A physical gate or continuation should move these
    with pytest.raises(BlowUpError, match="near eta = 6.34$") as info:
        shoot_solve(1.5, ShootConfig())
    assert ShootConfig().eta_max == 8.0 and info.value.eta_reached == 6.34
    res = shoot_solve(1.5, ShootConfig(eta_max=7.0))
    assert (res.a, res.b, res.iterations) == (0.6004829360311521, -0.6515002792121631, 1)


@pytest.mark.parametrize("problem, pr, eta_max, step", [
    (Problem.FREE_CONVECTION, 0.5, 8.0, 0.02),
    (Problem.FREE_CONVECTION, 0.72, 6.0, 0.01),
    (Problem.FREE_CONVECTION, 1.0, 8.0, 0.005),
    (Problem.FREE_CONVECTION, 2.0, 5.0, 0.015),
    (Problem.BLASIUS, 1.0, 10.0, 0.02),
    # steps between 0.02 and 0.08 gained the coarse stage
    (Problem.FREE_CONVECTION, 0.72, 8.0, 0.03),
    (Problem.FREE_CONVECTION, 1.0, 6.0, 0.05),
    (Problem.BLASIUS, 1.0, 8.0, 0.04),
])
def test_two_stage_root_meets_tol_at_the_requested_step(problem, pr, eta_max, step):
    cfg = ShootConfig(eta_max=eta_max, step=step)
    res = shoot_solve(pr, cfg, problem=problem)
    if problem is Problem.BLASIUS:
        residual = lambda x: (blasius_boundary_residual(x[0], cfg),)
    else:
        residual = lambda x: boundary_residual(x[0], x[1], pr, cfg)
    got = (res.a,) if res.b is None else (res.a, res.b)
    assert max(abs(v) for v in residual(got)) <= cfg.tol
    one_stage = newton_solve(residual, DEFAULT_GUESS[problem], cfg)
    assert abs(res.a - one_stage.a) < 1e-8 and abs((res.b or 0.0) - (one_stage.b or 0.0)) < 1e-8


def test_tabulate_blow_up_matches_boundary_residual():
    # the zero-guess trajectory leaves the representable range near eta = 4.29;
    # a profile over it must fail there too, not return huge rows
    with pytest.raises(BlowUpError):
        tabulate_profile(0.0, 0.0, 1.0, [0.0, 4.29])
    with pytest.raises(BlowUpError) as residual_info:
        boundary_residual(0.0, 0.0, 1.0, ShootConfig())
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(BlowUpError) as profile_info:
            tabulate_profile(0.0, 0.0, 1.0, [0.0, 4.5])
    assert profile_info.value.eta_reached < 4.5
    assert profile_info.value.eta_reached == residual_info.value.eta_reached


def test_residuals_and_profile_share_one_trajectory():
    # 8 is not a multiple of 0.03: both entry points must take the same equal sub-steps
    cfg = ShootConfig(step=0.03)
    r1, r2 = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, cfg)
    (row,) = tabulate_profile(OSTRACH_A, OSTRACH_B, 1.0, [8.0], cfg)
    assert (r1, r2) == (row[2], row[3])
    (row,) = tabulate_profile(0.332, 0.0, 1.0, [8.0], cfg, problem=Problem.BLASIUS)
    assert blasius_boundary_residual(0.332, cfg) == row[2] - 1.0


def test_shoot_reproduces_reference_values():
    res = shoot_solve(1.0, ShootConfig())
    assert res.a == pytest.approx(OSTRACH_A, abs=5e-4)
    assert res.b == pytest.approx(OSTRACH_B, abs=5e-4)


def test_shoot_insensitive_to_step_and_domain():
    base = shoot_solve(1.0, ShootConfig())
    halved = shoot_solve(1.0, ShootConfig(step=0.005), x0=(base.a, base.b))
    wider = shoot_solve(1.0, ShootConfig(eta_max=12.0), x0=(base.a, base.b))
    assert abs(halved.a - base.a) < 1e-5 and abs(halved.b - base.b) < 1e-5
    assert abs(wider.a - base.a) < 1e-5 and abs(wider.b - base.b) < 1e-5


def test_blasius_oracle():
    res = shoot_solve(1.0, ShootConfig(eta_max=12.0), problem=Problem.BLASIUS)
    assert res.b is None
    assert res.a == pytest.approx(0.33206, abs=5e-4)
    refined = shoot_solve(1.0, ShootConfig(eta_max=12.0, step=0.005),
                          x0=(res.a,), problem=Problem.BLASIUS)
    assert abs(refined.a - res.a) < 1e-5


def test_tabulate_single_origin():
    prof = tabulate_profile(0.5, -0.5, 1.0, [0.0])
    assert prof == ((0.0, 0.0, 0.0, 1.0),)


def test_tabulate_profile_shape():
    grid = [round(0.1 * k, 10) for k in range(11)]
    prof = tabulate_profile(0.5506447081, -0.8654409691, 1.0, grid)
    assert len(prof) == 11
    fs = [row[1] for row in prof]
    thetas = [row[3] for row in prof]
    assert all(b >= a for a, b in zip(fs, fs[1:]))
    assert all(b <= a for a, b in zip(thetas, thetas[1:]))


def test_tabulate_rejects_out_of_domain():
    with pytest.raises(ValueError):
        tabulate_profile(0.5, -0.5, 1.0, [0.0, 9.0])


def test_series_matches_integrator_inside_radius():
    res = shoot_solve(1.0, ShootConfig())
    sol = generate(ProblemParams(a=res.a, b=res.b, order=14, mode=RecurrenceMode.CORRECTED))
    grid = [0.1 * k for k in range(1, 11)]
    prof = tabulate_profile(res.a, res.b, 1.0, grid, ShootConfig(step=0.005))
    for (eta, f, _, theta) in prof:
        if eta > 1.0 + 1e-9:
            continue
        tol = 1e-4 if eta > 0.5 else 1e-6
        assert abs(series_eval(sol.f_series, eta) - f) < tol
        assert abs(series_eval(sol.theta_series, eta) - theta) < tol
