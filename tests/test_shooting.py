import math
import warnings
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from dtmpade import shooting
from dtmpade.dtm import Problem, ProblemParams, RecurrenceMode, generate
from dtmpade.errors import BlowUpError, NonConvergenceError, SingularJacobianError
from dtmpade.rootfind import DEFAULT_GUESS, Residual, SolveResult, newton_solve
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
    (fpp_state,) = _advance_blasius([-2.0, 0.0, eps], [(0.0, 0.1, 10)])
    (thp_state,) = _advance_free_convection([-1.0 / 3.0, 0.0, 0.0, 0.0, eps], [(0.0, 0.1, 10)],
                                            1.0)
    fpp, thp = fpp_state[2], thp_state[4]
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
    # one interval of nsub steps equals nsub vector steps, each fed the last,
    # and so does each interval of a march of several, at its end; the whole
    # span stays below 0.2 so that no random start blows up
    advance, rhs, dim = STEPPERS[problem]
    rng = np.random.default_rng(7)
    for nsub in (1, 2, 7):
        for _ in range(200):
            state, h = rng.normal(scale=3.0, size=dim), rng.uniform(1e-3, 0.2) / nsub
            want = state
            for _ in range(nsub):
                want = _vector_rk4_step(rhs, want, h)
            assert advance(state.tolist(), [(0.0, h, nsub)]) == [tuple(want.tolist())]
    for _ in range(200):
        start = state = rng.normal(scale=3.0, size=dim)
        intervals, want, eta = [], [], 0.0
        for nsub in rng.permutation([1, 2, 7]).tolist():
            h = rng.uniform(1e-3, 0.2) / (3 * nsub)
            intervals.append((eta, h, nsub))
            eta += nsub * h
            for _ in range(nsub):
                state = _vector_rk4_step(rhs, state, h)
            want.append(tuple(state.tolist()))
        assert advance(start.tolist(), intervals) == want


def test_step_halving_error_ratio_on_problem():
    coarse = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig(step=0.02))
    fine = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, ShootConfig(step=0.01))
    # both runs are far below the truncation effect; they must agree closely
    assert abs(coarse[0] - fine[0]) < 1e-7
    assert abs(coarse[1] - fine[1]) < 1e-7


def test_trajectory_exists_and_theta_decays():
    grid = [round(0.01 * k, 10) for k in range(801)]
    prof = tabulate_profile(OSTRACH_A, OSTRACH_B, 1.0, grid)
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
        # through a stop at 1, the same steps of 0.05 (1 / 20 and 7 / 140 are
        # that float) blow up in the second interval, counted from its eta
        with pytest.raises(BlowUpError) as info:
            _march(advance, state, [1.0, 8.0], 0.05)
        assert info.value.eta_reached == 1.0 + round((reached - 1.0) / 0.05) * 0.05
        assert info.value.eta_reached == pytest.approx(reached, abs=1e-12)


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


@pytest.mark.parametrize("pr", [math.nan, math.inf, 0.0, -1.0])
def test_boundary_residual_rejects_a_bad_prandtl_number(pr):
    # as shoot_solve, tabulate_profile and ProblemParams do, before any RK4 step
    match = "^Prandtl number must be finite and positive"
    with pytest.raises(ValueError, match=match):
        boundary_residual(0.6, -0.6, pr, ShootConfig())
    with pytest.raises(ValueError, match=match):
        ProblemParams(pr=pr)


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
    # in a later interval of a march of several stops (the first has no
    # steps, the third is never reached), the same step blows up at the same eta
    with pytest.raises(BlowUpError) as later:
        _march(advance, start, [0.0, h, 2 * h], h)
    assert later.value.eta_reached == info.value.eta_reached


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
    # any change to a trajectory or to Newton's path shows here. The short
    # stage (eta_max 6, step 0.32) seeds the middle stage at 0.16, and one
    # chord step from the middle root is the coarse root at 0.08, bit for
    # bit the coarse Newton stage's; at Pr = 1 one chord step from the
    # Richardson extrapolation of their roots to 0.04 (the probe) seeds the stage at
    # 0.02, and the extrapolation to 0.02 from the coarse and probe roots
    # meets tol there: no iteration. Blasius runs no probe, and the
    # extrapolation of the middle and coarse roots meets tol; its middle
    # stage starts from the short stage's Jacobian (the first older Blasius
    # literal is the root with forward differences there). One-stage
    # Newton took 7 and 3 iterations to roots that stay close. The older
    # literals: one chord iteration from the coarse root with the coarse
    # Jacobian (1, and 0 for Blasius from the coarse root), then with the
    # short stage at 0.16 and no middle stage, then also without the short
    # stage, then also with forward differences in the fine stage, then
    # one-stage Newton
    cfg = ShootConfig(eta_max=8.0, step=0.02, tol=1e-8)
    res = shoot_solve(1.0, cfg)
    assert (res.a, res.b, res.iterations) == (0.642178763965301, -0.5671373995284787, 0)
    for a, b in ((0.6421787637293898, -0.5671373995939012),
                 (0.6421787637325477, -0.5671373995978505),
                 (0.6421787637326019, -0.5671373995932919),
                 (0.6421787637328251, -0.5671373996003624),
                 (0.6421787637344606, -0.5671373996114442)):
        assert abs(res.a - a) < 1e-9 and abs(res.b - b) < 1e-9
    res = shoot_solve(1.0, cfg, problem=Problem.BLASIUS)
    assert (res.a, res.iterations) == (0.3320591920105522, 0)
    for a in (0.3320591920104239, 0.33205919549314233, 0.3320591954888135,
              0.33205919549331037):
        assert abs(res.a - a) < 5e-9
    # within tol / |d residual / dA| of the root that Newton at 0.02 converges to
    assert abs(res.a - 0.3320591917502373) < 5e-9


def test_bench_shoot_roots_at_the_default_step_pinned_bit_for_bit():
    # at step 0.01 the short, middle and coarse stages and the probe at 0.04
    # run as at 0.02, and the seed extrapolated to 0.01 meets tol: no
    # iteration for Pr = 1 or Blasius. The older literals: Blasius with
    # forward differences in the middle stage, then one chord iteration
    # from the coarse root (Blasius: the coarse root, the 0.02
    # root bit for bit), then with the short stage at 0.16 and no middle
    # stage, then also without the short stage, then with a coarse stage
    # at 4 * 0.01 = 0.04
    cfg = ShootConfig(eta_max=8.0, step=0.01, tol=1e-8)
    res = shoot_solve(1.0, cfg)
    assert (res.a, res.b, res.iterations) == (0.6421787648763924, -0.5671373991683242, 0)
    for a, b in ((0.6421787646189954, -0.5671373992411605),
                 (0.6421787646221649, -0.5671373992451232),
                 (0.6421787646222189, -0.5671373992405486),
                 (0.6421787646224484, -0.5671373992469261)):
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9
    res = shoot_solve(1.0, cfg, problem=Problem.BLASIUS)
    assert (res.a, res.iterations) == (0.3320591919977485, 0)
    for a in (0.3320591919976192, 0.33205919549314233, 0.3320591954888135,
              0.33205919549331037, 0.3320591919776551):
        assert abs(res.a - a) < 5e-9


def _record_trajectories(monkeypatch) -> list[tuple[float, float]]:
    """The (eta_max, step) of every trajectory shoot_solve runs from here on."""
    trajectories = []
    for name in ("boundary_residual", "blasius_boundary_residual"):
        def recorded(*args, _original=getattr(shooting, name)):
            trajectories.append((args[-1].eta_max, args[-1].step))
            return _original(*args)
        monkeypatch.setattr(shooting, name, recorded)
    return trajectories


@pytest.mark.parametrize("pr", [0.5, 0.72, 1.0])
@pytest.mark.parametrize("step", [0.01, 0.02, 0.005])
def test_fine_stage_is_one_trajectory_from_the_probe_seed(monkeypatch, pr, step):
    # the probe runs one trajectory at 0.04, and the seed extrapolated from
    # it and the coarse root meets tol at the requested step: the fine stage
    # runs its residual alone. Before the probe, one chord iteration with
    # the coarse Jacobian ran the residual and the trial step
    trajectories = _record_trajectories(monkeypatch)
    assert shoot_solve(pr, ShootConfig(step=step)).iterations == 0
    assert trajectories.count((8.0, 0.04)) == 1
    assert trajectories.count((8.0, step)) == 1


# the trajectories per stage, and the RK4 steps in all, of a request at each
# benchmark shoot_oracle case (eta_max 8, tol 1e-8) from the default guess.
# Each seeding stage halves the step, so the damped Newton trials run at
# 0.32 on eta_max 6 and at 0.16 (50 steps), where the free-convection
# middle stage starts with forward differences and the Blasius one with the
# short stage's Jacobian; the coarse level at 0.08 is one chord trajectory
# from the middle root, the probe at 0.04 one trajectory (free convection
# only) and the fine stage one. While the coarse stage ran Newton (its
# residual and one chord trial) and Blasius' middle stage started with
# forward differences (5 trajectories), the requests took 2 004 / 1 854 /
# 1 797 / 1 383 RK4 steps at step 0.01 and 1 604 / 1 454 / 1 397 / 983 at
# 0.02. With the short stage's Jacobian handed on for free convection too
# and no probe the middle stage ran 8 / 9 / 10 / 4 trajectories and the fine stage
# 2 (1 for Blasius): 2 504 / 2 554 / 2 547 / 1 333 RK4 steps at step 0.01
# and 1 704 / 1 754 / 1 747 / 933 at 0.02. With the short stage at 0.16
# and no middle stage the free-convection requests took 3 008 / 3 108 /
# 2 894 at step 0.01 and 2 208 / 2 308 / 2 094 at 0.02, and Blasius 1 466
# and 1 066
@pytest.mark.parametrize("problem, pr, short, middle, probe, rk4_steps", [
    (Problem.FREE_CONVECTION, 0.5, 16, 10, 1, {0.01: 1904, 0.02: 1504}),
    (Problem.FREE_CONVECTION, 0.72, 16, 7, 1, {0.01: 1754, 0.02: 1354}),
    (Problem.FREE_CONVECTION, 1.0, 13, 7, 1, {0.01: 1697, 0.02: 1297}),
    (Problem.BLASIUS, 1.0, 7, 4, 0, {0.01: 1233, 0.02: 833}),
])
@pytest.mark.parametrize("step", [0.01, 0.02])
def test_benchmark_requests_count_rk4_steps_and_trajectories(monkeypatch, problem, pr, short,
                                                             middle, probe, rk4_steps, step):
    steps = []
    for name in ("_advance_free_convection", "_advance_blasius"):
        def counted(state, intervals, *args, _original=getattr(shooting, name)):
            steps.extend(nsub for _, _, nsub in intervals)
            return _original(state, intervals, *args)
        monkeypatch.setattr(shooting, name, counted)
    trajectories = _record_trajectories(monkeypatch)
    shoot_solve(pr, ShootConfig(eta_max=8.0, step=step, tol=1e-8), problem=problem)
    want = {(6.0, 0.32): short, (8.0, 0.16): middle, (8.0, 0.08): 1, (8.0, 0.04): probe,
            (8.0, step): 1}
    assert dict(Counter(trajectories)) == {k: n for k, n in want.items() if n}
    assert sum(steps) == rk4_steps[step]


def _change_handed_on_jacobian(monkeypatch, stage, change):
    """shoot_solve from here on hands change(rows) in place of the Jacobian
    rows that the stage at (eta_max, step) = stage is handed, which must be
    there: its previous stage converged."""
    original = shooting.newton_solve

    def solve(residual, x0, cfg, jacobian=None):
        if (cfg.eta_max, cfg.step) == stage:
            assert jacobian
            jacobian[:] = change(jacobian)
        return original(residual, x0, cfg, jacobian)

    monkeypatch.setattr(shooting, "newton_solve", solve)


def _first_trajectory_raises(monkeypatch, stage, error):
    """The first free-convection trajectory at (eta_max, step) = stage from
    here on raises error: at COARSE_STEP the coarse chord step's, at
    COARSE_STEP / 2 the probe's."""
    original = shooting.boundary_residual
    raised = []

    def residual(a, b, pr, cfg):
        if (cfg.eta_max, cfg.step) == stage and not raised:
            raised.append(cfg)
            raise error("chord")
        return original(a, b, pr, cfg)

    monkeypatch.setattr(shooting, "boundary_residual", residual)


def _singular_chord(monkeypatch, step):
    """The chord step at step (COARSE_STEP, or the probe's COARSE_STEP / 2)
    counts as singular from here on: after its trajectory it steps with
    rows of zeros."""
    original = shooting._chord

    def chord(residual, cfg, x, jac):
        if cfg.step == step:
            jac = [(0.0,) * len(x)] * len(jac)
        return original(residual, cfg, x, jac)

    monkeypatch.setattr(shooting, "_chord", chord)


# the root at Pr 1, eta_max 8, step 0.05 when the fine stage is handed no
# Jacobian; with the coarse Jacobian it is 0.6421787272009267,
# -0.5671374140959526 in 1 iteration
FINE_FD_ROOT = (0.6421787272008463, -0.5671374140958082, 1)


# the stage's extra trajectories: none where its step counts as singular,
# the 9 damped trials of a stagnating step for an ascent step
@pytest.mark.parametrize("bad, extra", [
    (lambda jac: [(0.0, 0.0), (0.0, 0.0)], 0),  # singular: no step to try
    (lambda jac: [(math.nan,) * 2] * 2, 0),
    (lambda jac: [tuple(-v for v in row) for row in jac], 9),  # an ascent step
])
# the fine stage steps at 0.05, where no probe runs and the two-level seed
# misses tol; below 0.04 the probe's seed leaves it no step to take
@pytest.mark.parametrize("stage, step", [((8.0, 0.08), 0.02), ((8.0, 0.05), 0.05)],
                         ids=["coarse", "fine"])
def test_bad_handed_on_jacobian_falls_back_to_forward_differences(monkeypatch, bad, extra,
                                                                 stage, step):
    # iteration 0 is redone with forward differences at the stage's first
    # iterate, so shoot_solve returns, bit for bit, the root it returns when
    # that stage is handed no Jacobian. At 0.08 the chord step's trajectory
    # blows up, so that the coarse Newton stage runs
    cfg = ShootConfig(eta_max=8.0, step=step, tol=1e-8)
    chord_blows_up = stage[1] == shooting.COARSE_STEP
    with monkeypatch.context() as m:
        if chord_blows_up:
            _first_trajectory_raises(m, stage, BlowUpError)
        _change_handed_on_jacobian(m, stage, lambda jac: [])
        trajectories = _record_trajectories(m)
        want = shoot_solve(1.0, cfg)
        want_count = trajectories.count(stage)
    if stage == (8.0, 0.05):
        # the residual, the two forward-difference columns and the trial of their step
        assert (want.a, want.b, want.iterations) == FINE_FD_ROOT
        assert want_count == 1 + 2 + 1
    if chord_blows_up:
        _first_trajectory_raises(monkeypatch, stage, BlowUpError)
    _change_handed_on_jacobian(monkeypatch, stage, bad)
    trajectories = _record_trajectories(monkeypatch)
    assert shoot_solve(1.0, cfg) == want
    assert trajectories.count(stage) == want_count + extra


def test_middle_stage_starts_with_forward_differences(monkeypatch):
    # for free convection the short stage hands on its root alone: its last
    # Jacobian, from eta_max 6, cost the middle stage on eta_max 8 more
    # trajectories than forward differences (a benchmark round: 1 808.1
    # against 1 785.4 RK4 steps per request before the probe). For Blasius
    # it saves the middle stage one trajectory (1 283 -> 1 233 RK4 steps at
    # step 0.01), so the Blasius short stage is handed the list too. The
    # coarse level is one chord step with the middle stage's rows, run
    # outside newton_solve, and the fine stage is handed those rows
    handed = {}

    def solve(residual, x0, cfg, jacobian=None):
        handed[(cfg.eta_max, cfg.step)] = None if jacobian is None else len(jacobian)
        return newton_solve(residual, x0, cfg, jacobian)

    monkeypatch.setattr(shooting, "newton_solve", solve)
    shoot_solve(1.0, ShootConfig(step=0.02))
    assert handed == {(6.0, 0.32): None, (8.0, 0.16): 0, (8.0, 0.02): 2}
    handed.clear()
    shoot_solve(1.0, ShootConfig(step=0.02), problem=Problem.BLASIUS)
    assert handed == {(6.0, 0.32): 0, (8.0, 0.16): 1, (8.0, 0.02): 1}


# a requested step of 0.2, from the short stage's root: the root the stage
# converges to, and the residual norm at which the short stage's own last
# Jacobian would stagnate at its first step
@pytest.mark.parametrize("pr, eta_max, a, b, stagnant", [
    (1.5, 10.0, 0.6004909780477994, -0.6515380759716992, "3.287e-04"),
    (2.0, 12.0, 0.5712533660221133, -0.7164698487433209, "2.834e-04"),
])
def test_short_stage_jacobian_would_stagnate(pr, eta_max, a, b, stagnant):
    # before the short stage's hand-off was dropped, the requested stage's
    # chord step with the eta_max 6 Jacobian stagnated here, and iteration
    # 0 was redone with forward differences at the same iterate. The stage
    # now starts there, so its root and 2 iterations are the same bit for bit
    cfg = ShootConfig(eta_max=eta_max, step=0.2)
    res = shoot_solve(pr, cfg)
    assert (res.a, res.b, res.iterations) == (a, b, 2)
    short = replace(cfg, eta_max=6.0, step=0.32)
    jac = []
    x0 = newton_solve(lambda x: boundary_residual(x[0], x[1], pr, short),
                      DEFAULT_GUESS[Problem.FREE_CONVECTION], short, jac)
    chord = lambda x: Residual(boundary_residual(x[0], x[1], pr, cfg), lambda: jac)
    with pytest.raises(NonConvergenceError,
                       match=f"stagnated at residual norm {stagnant}") as info:
        newton_solve(chord, (x0.a, x0.b), cfg)
    assert info.value.iterations == 0


def test_unphysical_oracle_root_warns():
    # a step as long as the domain converges to B > 0; the root is returned,
    # with the closure's sign warning. The older literal, in 5 iterations,
    # is the root when the short stage's Jacobian was handed on
    with pytest.warns(UserWarning, match="violates the expected signs") as caught:
        res = shoot_solve(1.0, ShootConfig(step=10.0))
    assert len(caught) == 1
    assert (res.a, res.b, res.iterations) == (0.42935952991467935, 0.004720720314068964, 4)
    assert abs(res.a - 0.42935952991467913) < 1e-15 and abs(res.b - 0.0047207203140689664) < 1e-15


@pytest.mark.parametrize("step", [0.01, 0.02])
@pytest.mark.parametrize("problem, pr", [(Problem.FREE_CONVECTION, 0.5),
                                         (Problem.FREE_CONVECTION, 0.72),
                                         (Problem.FREE_CONVECTION, 1.0),
                                         (Problem.BLASIUS, 1.0)])
def test_benchmark_shaped_oracle_roots_do_not_warn(problem, pr, step):
    cfg = ShootConfig(eta_max=8.0, step=step, tol=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jitter in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
            shoot_solve(pr, cfg, x0=[v * jitter for v in DEFAULT_GUESS[problem]],
                        problem=problem)


@pytest.mark.parametrize("eta_max, step, stages", [
    (8.0, 0.02, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04), (8.0, 0.02)]),
    (8.0, 0.0175, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04), (8.0, 0.0175)]),
    (8.0, 0.03, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04), (8.0, 0.03)]),
    # at 0.04, half the coarse step, and above it no probe runs
    (8.0, 0.04, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04)]),
    (8.0, 0.05, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.05)]),
    (8.0, 0.01, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04), (8.0, 0.01)]),
    (8.0, 0.005, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08), (8.0, 0.04), (8.0, 0.005)]),
    (8.0, 0.08, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.08)]),
    (8.0, 0.1, [(6.0, 0.32), (8.0, 0.16), (8.0, 0.1)]),
    (8.0, 0.16, [(6.0, 0.32), (8.0, 0.16)]),
    (8.0, 0.2, [(6.0, 0.32), (8.0, 0.2)]),
    (6.5, 0.01, [(6.0, 0.32), (6.5, 0.16), (6.5, 0.08), (6.5, 0.04), (6.5, 0.01)]),
    (12.0, 0.01, [(6.0, 0.32), (12.0, 0.16), (12.0, 0.08), (12.0, 0.04), (12.0, 0.01)]),
    # eta_max 6 or less runs no short stage
    (6.0, 0.02, [(6.0, 0.16), (6.0, 0.08), (6.0, 0.04), (6.0, 0.02)]),
    (6.0, 0.08, [(6.0, 0.16), (6.0, 0.08)]),
    (5.0, 0.01, [(5.0, 0.16), (5.0, 0.08), (5.0, 0.04), (5.0, 0.01)]),
    (6.0, 0.16, [(6.0, 0.16)]),
    # a requested step coarser than 0.32 runs the short stage at that step
    (8.0, 0.4, [(6.0, 0.4), (8.0, 0.4)]),
])
def test_coarse_stage_runs_up_to_the_cap(monkeypatch, eta_max, step, stages):
    # every eta_max above 6 gets a short stage on eta_max 6 first; the full
    # domain then runs a middle stage at 0.16 for every step below 0.16 and
    # a coarse stage at 0.08 for every step below 0.08, and at Pr 1 the
    # probe at 0.04 for every step below 0.04; the stages run in this
    # order, the requested one last
    trajectories = _record_trajectories(monkeypatch)
    shoot_solve(1.0, ShootConfig(eta_max=eta_max, step=step))
    assert list(dict.fromkeys(trajectories)) == stages
    assert trajectories[-1] == stages[-1]


def test_step_at_or_above_cap_roots_pinned_bit_for_bit():
    # a step of 0.08 or more runs no coarse stage; on eta_max 8 the short
    # stage seeds the middle stage at 0.16, which starts with forward
    # differences (Blasius: with the short stage's Jacobian) and leaves the
    # requested one a single iteration. The roots stay within 5e-9 of the
    # older literals: Blasius with forward differences in the middle stage,
    # the middle stage handed the short stage's Jacobian (free convection
    # too), then the short stage alone seeding the
    # requested one (3 and 2 iterations), then one-stage Newton. Pr = 1 and
    # 2 at step 0.1 blew up without the short stage
    assert shoot_solve(1.0, ShootConfig(step=0.08)) == SolveResult(
        0.6421785161484674, -0.5671374974904932, 3.1577751732157614e-09, 1)
    assert shoot_solve(0.72, ShootConfig(step=0.08)) == SolveResult(
        0.6759780830401841, -0.5046178474708307, 6.014044977091618e-09, 1)
    assert shoot_solve(0.72, ShootConfig(step=0.1)) == SolveResult(
        0.6759777111731448, -0.5046179864081342, 5.277172449057445e-09, 1)
    assert shoot_solve(1.0, ShootConfig(step=0.1)) == SolveResult(
        0.6421781533262882, -0.5671376417749855, 2.6921894345434985e-09, 1)
    assert shoot_solve(2.0, ShootConfig(step=0.1)) == SolveResult(
        0.5712560094953999, -0.716453394740492, 2.5309688961270573e-09, 1)
    assert shoot_solve(1.0, ShootConfig(step=0.08), problem=Problem.BLASIUS) == SolveResult(
        0.33205919549314233, None, 3.4505731605349865e-13, 1)
    assert shoot_solve(1.0, ShootConfig(step=0.1), problem=Problem.BLASIUS) == SolveResult(
        0.3320592007580311, None, 3.078648447285559e-13, 1)
    for pr, step, a, b in ((1.0, 0.08, 0.6421785161474405, -0.567137497535021),
                           (0.72, 0.08, 0.6759780829982968, -0.5046178477420363),
                           (0.72, 0.1, 0.6759777111351752, -0.504617986654227),
                           (1.0, 0.1, 0.6421781533253567, -0.567137641815309),
                           (2.0, 0.1, 0.5712560095097322, -0.7164533948138471),
                           (1.0, 0.08, 0.6421785162057587, -0.56713749789079),
                           (1.0, 0.08, 0.642178516207393, -0.5671374979022337),
                           (0.72, 0.08, 0.6759780829910935, -0.5046178482857858),
                           (0.72, 0.08, 0.67597808298671, -0.504617848222868),
                           (0.72, 0.1, 0.675977711127337, -0.5046179871309188),
                           (0.72, 0.1, 0.6759777111229627, -0.504617987068177),
                           (1.0, 0.1, 0.6421781533730846, -0.567137642116067),
                           (2.0, 0.1, 0.5712560096862684, -0.7164533952734372)):
        res = shoot_solve(pr, ShootConfig(step=step))
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9
    for step, a in ((0.08, 0.3320591954933048), (0.1, 0.33205920075817735),
                    (0.08, 0.3320591954888135), (0.08, 0.33205919549331037),
                    (0.1, 0.3320592007536827), (0.1, 0.3320592007581807)):
        assert abs(shoot_solve(1.0, ShootConfig(step=step), problem=Problem.BLASIUS).a - a) < 5e-9


def test_eta_max_6_roots_pinned_bit_for_bit():
    # no short stage and no coarse stage: the middle stage at 0.16 seeds the
    # requested one, whose roots stay within 5e-9 of the one-stage Newton's
    # (the older literals, in 4, 5 and 3 iterations)
    assert shoot_solve(1.0, ShootConfig(eta_max=6.0, step=0.08)) == SolveResult(
        0.6420082246692536, -0.5670376758037127, 2.4510237001086014e-09, 1)
    assert shoot_solve(0.72, ShootConfig(eta_max=6.0, step=0.1)) == SolveResult(
        0.675509681300069, -0.5045939765415619, 7.405300548116167e-10, 1)
    assert shoot_solve(1.0, ShootConfig(eta_max=6.0, step=0.08),
                       problem=Problem.BLASIUS) == SolveResult(
        0.33256594110331134, None, 8.01581023779363e-14, 1)
    for pr, step, a, b in ((1.0, 0.08, 0.6420082246309354, -0.5670376766273787),
                           (0.72, 0.1, 0.6755096813001116, -0.5045939766529004)):
        res = shoot_solve(pr, ShootConfig(eta_max=6.0, step=step))
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9
    res = shoot_solve(1.0, ShootConfig(eta_max=6.0, step=0.08), problem=Problem.BLASIUS)
    assert abs(res.a - 0.33256594110334026) < 5e-9


def _min_f_prime(res, pr, cfg) -> float:
    """min f' of the root's profile on a 0.05 grid over [0, eta_max]."""
    grid = [round(0.05 * i, 12) for i in range(round(cfg.eta_max / 0.05) + 1)]
    return min(row[2] for row in tabulate_profile(res.a, res.b, pr, grid, cfg.step))


def test_eta_max_12_returns_the_physical_root(monkeypatch):
    # at eta_max = 12 the coarse stage at 0.08 blew up from the default
    # guess, and the stage at 0.01 then returned a reverse-flow root
    # (A = 0.6391764853781349, f' ~ -0.08 at eta = 6). Seeded from the short
    # stage, the middle and coarse stages converge and no stage falls back,
    # and the probe's seed meets tol at 0.01. The older literals: the coarse
    # Newton stage from the middle root in place of one chord step (2e-11
    # away), then one chord iteration from the coarse root, then the root
    # with the short stage at 0.16 and no middle stage
    trajectories = _record_trajectories(monkeypatch)
    cfg = ShootConfig(eta_max=12.0)
    res = shoot_solve(1.0, cfg)
    assert res == SolveResult(0.6421881399391184, -0.5671464740569134, 2.073746109069082e-09, 0)
    for a, b in ((0.6421881399191578, -0.5671464739675601),
                 (0.6421881396682823, -0.567146474069262),
                 (0.6421881396644465, -0.5671464740400749)):
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9
    assert abs(res.a - 0.6391764853781349) > 1e-3
    assert trajectories.count((12.0, 0.04)) == 1
    assert trajectories.count((12.0, 0.01)) == 1
    assert _min_f_prime(res, 1.0, cfg) > -1e-8


def test_coarse_stage_failure_keeps_the_physical_root_at_pr_0_1():
    # at Pr = 0.1, eta_max = 6 the middle and coarse stages blow up and the
    # stage at 0.01 from the default guess (one-stage Newton) returns a
    # physical root: f' stays nonnegative. No short stage runs on eta_max 6.
    # The only such rescue in a sweep of Pr 0.01-100, eta_max 5-20 and steps
    # 0.005-0.02 before the short stage; the other fallbacks that converged
    # returned reverse-flow roots, which the short stage replaced by
    # physical ones
    cfg = ShootConfig(eta_max=6.0, step=0.01)
    with pytest.raises(BlowUpError):
        shoot_solve(0.1, ShootConfig(eta_max=6.0, step=0.08))
    res = shoot_solve(0.1, cfg)
    assert (res.a, res.b, res.iterations) == (0.8333271852059588, -0.24998883424723176, 7)
    one_stage = newton_solve(lambda x: boundary_residual(x[0], x[1], 0.1, cfg),
                             DEFAULT_GUESS[Problem.FREE_CONVECTION], cfg)
    assert abs(res.a - one_stage.a) < 1e-9 and abs(res.b - one_stage.b) < 1e-9
    assert _min_f_prime(res, 0.1, cfg) > -1e-8


# the root at eta_max 8, step 0.02 with these stages failing. From the
# default guess the middle stage blows up, so without the short stage the
# coarse stage starts from the guess: the two-stage root, and without the
# short and coarse stages it is one-stage Newton's benchmark root. Without
# the middle and coarse stages, the stage at 0.02 starts from the short
# root with forward differences. With the middle or the coarse stage
# failing no seed is extrapolated, and the stage at 0.02 starts from the
# last converged root. Without the coarse stage the root was
# 0.6421787637420138, -0.5671373999014597 while the middle stage was
# handed the short stage's Jacobian
FALLBACK_ROOTS = {
    "short": (0.6421787637326019, -0.5671373995932919, 1),
    "middle": (0.6421787637327376, -0.5671373995892772, 1),
    "coarse": (0.6421787637420014, -0.5671373999014508, 1),
    "short+coarse": (0.6421787637344606, -0.5671373996114442, 7),
    "middle+coarse": (0.6421787637416093, -0.5671373996497694, 2),
    "short+middle+coarse": (0.6421787637344606, -0.5671373996114442, 7),
}
STAGES = {"short": (6.0, 0.32), "middle": (8.0, 0.16), "coarse": (8.0, 0.08)}


@pytest.mark.parametrize("failing", list(FALLBACK_ROOTS))
@pytest.mark.parametrize("error", [BlowUpError, NonConvergenceError, SingularJacobianError])
def test_each_stage_error_falls_back(monkeypatch, error, failing):
    # a stage's trajectory that raises stands in for a stage's Newton that
    # does; the next stage starts from the last converged root, or the guess
    original = shooting.boundary_residual
    failing_stages = [STAGES[name] for name in failing.split("+")]

    def stage_fails(a, b, pr, cfg):
        if (cfg.eta_max, cfg.step) in failing_stages:
            raise error("stage")
        return original(a, b, pr, cfg)

    monkeypatch.setattr(shooting, "boundary_residual", stage_fails)
    res = shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert (res.a, res.b, res.iterations) == FALLBACK_ROOTS[failing]


@pytest.mark.parametrize("failing", ["short", "middle", "coarse"])
def test_stage_failing_after_a_step_hands_on_no_jacobian(monkeypatch, failing):
    # the stage accepts its first step, which writes its Jacobian into the
    # list (the short stage is handed none), then stops with
    # NonConvergenceError; the next stage starts as if the failing stage had
    # raised at once, with no Jacobian handed on. The coarse stage's first
    # step meets tol 1e-8, so no stage stops at tol; it runs Newton because
    # the chord step's trajectory blows up
    if failing == "coarse":
        _first_trajectory_raises(monkeypatch, STAGES["coarse"], BlowUpError)
    original = shooting.newton_solve

    def stops_after_one_step(residual, x0, cfg, jacobian=None):
        if (cfg.eta_max, cfg.step) != STAGES[failing]:
            return original(residual, x0, cfg, jacobian)
        with pytest.raises(NonConvergenceError, match="in 1 iterations"):
            original(residual, x0, replace(cfg, max_iter=1, tol=1e-300), jacobian)
        assert jacobian is None if failing == "short" else jacobian
        raise NonConvergenceError("stage")

    monkeypatch.setattr(shooting, "newton_solve", stops_after_one_step)
    res = shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert (res.a, res.b, res.iterations) == FALLBACK_ROOTS[failing]


# the short stage's trajectories before the rest raise: with 3, its first
# step is accepted and writes one row into the list before it fails
@pytest.mark.parametrize("before", [0, 3])
@pytest.mark.parametrize("error", [BlowUpError, NonConvergenceError])
def test_failing_blasius_short_stage_hands_on_no_rows(monkeypatch, error, before):
    # the Blasius short stage is the one stage off the full domain that is
    # handed the list; failing, it empties it, so the middle stage starts
    # from the guess with forward differences, and the chord step at 0.08
    # and the fine stage take the middle stage's row
    original = shooting.blasius_boundary_residual
    calls, handed = [], {}

    def short_fails(a, cfg):
        if (cfg.eta_max, cfg.step) == STAGES["short"]:
            calls.append(a)
            if len(calls) > before:
                raise error("short")
        return original(a, cfg)

    def solve(residual, x0, cfg, jacobian=None):
        handed[(cfg.eta_max, cfg.step)] = len(jacobian)
        return newton_solve(residual, x0, cfg, jacobian)

    monkeypatch.setattr(shooting, "blasius_boundary_residual", short_fails)
    monkeypatch.setattr(shooting, "newton_solve", solve)
    res = shoot_solve(1.0, ShootConfig(step=0.02), problem=Problem.BLASIUS)
    assert (res.a, res.iterations) == (0.33205919201042505, 0)
    assert handed == {(6.0, 0.32): 0, (8.0, 0.16): 0, (8.0, 0.02): 1}


def test_middle_stage_converged_at_its_guess_hands_on_no_rows(monkeypatch):
    # from the middle stage's own root the middle stage takes no step and
    # writes no rows, so the 0.08 level runs Newton by forward differences
    # (no chord step) and hands its rows to the probe's chord step at 0.04
    middle = ShootConfig(eta_max=6.0, step=0.16)
    x0 = (0.6420045711342044, -0.567039125178548)
    root = newton_solve(lambda x: boundary_residual(x[0], x[1], 1.0, middle),
                        DEFAULT_GUESS[Problem.FREE_CONVECTION], middle)
    assert (root.a, root.b) == x0
    iterations, chords = {}, []
    solve, chord = shooting.newton_solve, shooting._chord

    def solved(residual, x, cfg, jacobian=None):
        rows = len(jacobian)
        res = solve(residual, x, cfg, jacobian)
        iterations[(cfg.eta_max, cfg.step)] = (rows, res.iterations)
        return res

    def chorded(residual, cfg, x, jac):
        chords.append((cfg.step, len(jac)))
        return chord(residual, cfg, x, jac)

    monkeypatch.setattr(shooting, "newton_solve", solved)
    monkeypatch.setattr(shooting, "_chord", chorded)
    res = shoot_solve(1.0, ShootConfig(eta_max=6.0, step=0.01), x0=x0)
    assert res == SolveResult(0.6420084744549008, -0.5670375774989788, 7.42404071017708e-10, 0)
    assert iterations == {(6.0, 0.16): (0, 0), (6.0, 0.08): (0, 1), (6.0, 0.01): (2, 0)}
    assert chords == [(0.04, 2)]


@pytest.mark.parametrize("pr, eta_max, reached", [(7.0, 8.0, 4.87), (0.1, 8.0, 4.75)])
def test_both_stages_failing_raise_the_one_stage_error(pr, eta_max, reached):
    # each case blew up at this eta with the one-stage Newton at step 0.01;
    # the short and coarse stages fail too, and the error is the last stage's
    with pytest.raises(BlowUpError, match=f"near eta = {reached}$") as info:
        shoot_solve(pr, ShootConfig(eta_max=eta_max))
    assert info.value.eta_reached == reached


# A, B of the collocation table (ROADMAP.md)
COLLOCATION = {0.72: (0.6760195302, -0.5046341858), 1.0: (0.6421881644, -0.5671465085)}


@pytest.mark.parametrize("pr, eta_max", [(1.5, 8.0), (2.0, 8.0), (1.0, 10.0), (1.0, 12.0),
                                         (0.72, 12.0)])
def test_short_stage_reaches_physical_roots(pr, eta_max):
    # each case blew up from the default guess, or at eta_max 12 returned a
    # reverse-flow root, before the short stage seeded the coarse one
    cfg = ShootConfig(eta_max=eta_max, step=0.01)
    res = shoot_solve(pr, cfg)
    assert max(abs(v) for v in boundary_residual(res.a, res.b, pr, cfg)) <= cfg.tol
    assert _min_f_prime(res, pr, cfg) > -1e-8
    if pr in COLLOCATION:
        a, b = COLLOCATION[pr]
        assert abs(res.a - a) < 1e-4 and abs(res.b - b) < 1e-4


def test_pr_1_5_converges_on_the_default_domain_and_at_eta_max_7():
    # from the default guess the oracle blew up at Pr 1.5, eta_max 8 (near
    # eta = 6.34), so compare --pr 1.5 exited 3 while every DTM-Pade rung
    # answered; the short stage seeds a root there. At eta_max 7 it
    # converged already. The older literals: one chord iteration from the
    # coarse root, then with the short stage at 0.16 and no middle stage,
    # then at eta_max 7 also without the short stage
    res = shoot_solve(1.5, ShootConfig())
    assert ShootConfig().eta_max == 8.0
    assert (res.a, res.b, res.iterations) == (0.6004966240264992, -0.6515257758339316, 0)
    for a, b in ((0.6004966239616517, -0.6515257759554697),
                 (0.6004966239713835, -0.6515257759969173)):
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9
    res = shoot_solve(1.5, ShootConfig(eta_max=7.0))
    assert (res.a, res.b, res.iterations) == (0.6004829357182391, -0.6515002792373629, 0)
    for a, b in ((0.6004829360278263, -0.6515002792320201),
                 (0.6004829360322651, -0.6515002792411994),
                 (0.6004829360311521, -0.6515002792121631)):
        assert abs(res.a - a) < 5e-9 and abs(res.b - b) < 5e-9


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


def _record_stages(monkeypatch) -> list[list]:
    """[cfg, x0, root] of every Newton stage and every chord step (the
    coarse level's and the probe's) that shoot_solve runs from here on, in
    order; root stays None where the stage raises or the chord fails."""
    stages = []
    solve, chord = shooting.newton_solve, shooting._chord

    def solved(residual, x0, cfg, jacobian=None):
        stage = [cfg, tuple(x0), None]
        stages.append(stage)
        res = solve(residual, x0, cfg, jacobian)
        stage[2] = (res.a,) if res.b is None else (res.a, res.b)
        return res

    def chorded(residual, cfg, x, jac):
        stage = [cfg, tuple(x), None]
        stages.append(stage)
        stage[2] = chord(residual, cfg, x, jac)
        return stage[2]

    monkeypatch.setattr(shooting, "newton_solve", solved)
    monkeypatch.setattr(shooting, "_chord", chorded)
    return stages


def _no_probe_ran(stages) -> bool:
    """No chord step at the probe's step COARSE_STEP / 2 seeded the last stage."""
    return all(s[0].step != shooting.COARSE_STEP / 2 for s in stages[:-1])


def _assert_two_level_seed(stages, step):
    """The levels at 0.16 and 0.08 gave x_m and x_c, no probe gave a root,
    and the last stage ran at step from
    x(step) = x_c + (x_c - x_m) (step^4 - c^4) / (c^4 - (2c)^4),
    c = COARSE_STEP, to within 1e-15 (the probe's seed is ~1e-8 away)."""
    c = shooting.COARSE_STEP
    roots = {s[0].step: s[2] for s in stages[:-1]}  # at 0.08, the last to run
    cfg, x0, _ = stages[-1]
    assert cfg.step == step and roots.get(c / 2) is None
    xm, xc = roots[2 * c], roots[c]
    want = [v + (v - u) * ((step**4 - c**4) / (c**4 - (2 * c) ** 4)) for u, v in zip(xm, xc)]
    assert max(abs(u - v) for u, v in zip(x0, want)) < 1e-15


@pytest.mark.parametrize("spoil", [
    partial(_first_trajectory_raises, stage=(8.0, shooting.COARSE_STEP / 2), error=BlowUpError),
    partial(_singular_chord, step=shooting.COARSE_STEP / 2),
], ids=["blow-up", "singular"])
@pytest.mark.parametrize("pr, step", [(0.5, 0.02), (1.0, 0.01), (0.72, 0.005), (2.0, 0.03)])
def test_failed_probe_falls_back_to_the_two_level_seed(monkeypatch, spoil, pr, step):
    # a probe that blows up, or whose chord step counts as singular, is
    # skipped: the fine stage starts from the extrapolation of the middle
    # and coarse roots, and converges at the requested step as with the probe
    cfg = ShootConfig(step=step)
    with_probe = shoot_solve(pr, cfg)
    spoil(monkeypatch)
    trajectories = _record_trajectories(monkeypatch)
    stages = _record_stages(monkeypatch)
    res = shoot_solve(pr, cfg)
    assert trajectories.count((8.0, 0.04)) == 1
    _assert_two_level_seed(stages, step)
    assert max(map(abs, boundary_residual(res.a, res.b, pr, cfg))) <= cfg.tol
    assert abs(res.a - with_probe.a) < 1e-8 and abs(res.b - with_probe.b) < 1e-8


@pytest.mark.parametrize("problem, pr, step", [
    # the coarse Jacobian predicts a residual below tol at the two-level seed
    (Problem.BLASIUS, 1.0, 0.01),
    (Problem.BLASIUS, 1.0, 0.0025),
    # at and above half the coarse step no probe runs
    (Problem.FREE_CONVECTION, 1.0, 0.04),
    (Problem.FREE_CONVECTION, 0.72, 0.05),
    (Problem.FREE_CONVECTION, 0.5, 0.07),
])
def test_no_probe_for_blasius_or_from_half_the_coarse_step(monkeypatch, problem, pr, step):
    stages = _record_stages(monkeypatch)
    res = shoot_solve(pr, ShootConfig(step=step), problem=problem)
    assert _no_probe_ran(stages)
    _assert_two_level_seed(stages, step)
    assert res.residual_norm <= 1e-8


@pytest.mark.parametrize("failing", ["middle", "coarse"])
def test_failed_seeding_stage_turns_extrapolation_off(monkeypatch, failing):
    # the stage at the requested step starts from the last converged root,
    # unextrapolated, and no probe runs
    original = shooting.boundary_residual

    def stage_fails(a, b, pr, cfg):
        if (cfg.eta_max, cfg.step) == STAGES[failing]:
            raise BlowUpError("stage")
        return original(a, b, pr, cfg)

    monkeypatch.setattr(shooting, "boundary_residual", stage_fails)
    stages = _record_stages(monkeypatch)
    shoot_solve(1.0, ShootConfig(eta_max=8.0, step=0.02, tol=1e-8))
    assert _no_probe_ran(stages)
    converged = [s for s in stages[:-1] if s[2] is not None]
    assert STAGES[failing] not in [(s[0].eta_max, s[0].step) for s in converged]
    assert stages[-1][1] == converged[-1][2]


# the roots from the coarse Newton stage, before the coarse level became
# one chord step, and that stage's trajectories at 0.08: at Pr 1 the
# chord's root is the same bit for bit; at Pr 3, eta_max 16, step 0.0025
# the Newton stage took a second iteration (residual, trial, two forward
# differences, trial), and the chord's root is 1.6e-10 away, the largest
# move of the 1 020-case sweep
NEWTON_COARSE_ROOTS = {
    (1.0, 8.0, 0.02): ((0.642178763965301, -0.5671373995284787, 0), 2),
    (3.0, 16.0, 0.0025): ((0.5308708056223159, -0.8155449739460507, 0), 5),
}


@pytest.mark.parametrize("spoil", ["blow-up", "no-convergence", "singular"])
@pytest.mark.parametrize("pr, eta_max, step", list(NEWTON_COARSE_ROOTS))
def test_failed_coarse_chord_runs_the_newton_stage(monkeypatch, spoil, pr, eta_max, step):
    # a chord trajectory that raises, or a chord step that counts as
    # singular, leaves the coarse level to Newton from the middle root with
    # the middle stage's Jacobian, which returns the coarse Newton stage's root
    stage = (eta_max, shooting.COARSE_STEP)
    if spoil == "singular":
        _singular_chord(monkeypatch, shooting.COARSE_STEP)
    else:
        error = BlowUpError if spoil == "blow-up" else NonConvergenceError
        _first_trajectory_raises(monkeypatch, stage, error)
    trajectories = _record_trajectories(monkeypatch)
    stages = _record_stages(monkeypatch)
    res = shoot_solve(pr, ShootConfig(eta_max=eta_max, step=step))
    root, newton_trajectories = NEWTON_COARSE_ROOTS[pr, eta_max, step]
    assert (res.a, res.b, res.iterations) == root
    chord, newton = [s for s in stages if s[0].step == shooting.COARSE_STEP]
    assert chord[2] is None and newton[2] is not None and chord[1] == newton[1]
    assert trajectories.count(stage) == 1 + newton_trajectories


@pytest.mark.parametrize("step", [0.005, 0.02, 0.03, 0.05])
@pytest.mark.parametrize("eta_max", [6.0, 8.0, 10.0])
@pytest.mark.parametrize("problem, pr", [(Problem.FREE_CONVECTION, 0.5),
                                         (Problem.FREE_CONVECTION, 1.0),
                                         (Problem.FREE_CONVECTION, 2.0),
                                         (Problem.BLASIUS, 1.0)])
def test_every_returned_root_meets_tol_at_the_requested_step(problem, pr, eta_max, step):
    # the seed, extrapolated or not, is verified by the stage at the
    # requested step: the returned root's residual there is within tol
    cfg = ShootConfig(eta_max=eta_max, step=step)
    res = shoot_solve(pr, cfg, problem=problem)
    if problem is Problem.BLASIUS:
        r = (blasius_boundary_residual(res.a, cfg),)
    else:
        r = boundary_residual(res.a, res.b, pr, cfg)
    assert max(map(abs, r)) == res.residual_norm <= cfg.tol


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
    # 8 is not a multiple of 0.03: both entry points must take the same equal
    # sub-steps. A profile is not bounded by the oracle's eta_max: its row at
    # 12 is the trajectory on eta_max = 12
    for eta_max in (8.0, 12.0):
        cfg = ShootConfig(eta_max=eta_max, step=0.03)
        r1, r2 = boundary_residual(OSTRACH_A, OSTRACH_B, 1.0, cfg)
        (row,) = tabulate_profile(OSTRACH_A, OSTRACH_B, 1.0, [eta_max], cfg.step)
        assert (r1, r2) == (row[2], row[3])
        (row,) = tabulate_profile(0.332, 0.0, 1.0, [eta_max], cfg.step, problem=Problem.BLASIUS)
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


def test_tabulate_rejects_out_of_domain(monkeypatch):
    # a profile marches from 0 to its grid's end, at most 10**7 RK4 steps
    # of a finite positive step, checked before any step runs
    marched = []
    monkeypatch.setattr(shooting, "_march", lambda *args: marched.append(args) or [])
    for problem in Problem:
        tabulate_profile(0.5, -0.5, 1.0, [0.0, 10.0], 1e-6, problem=problem)
        with pytest.raises(ValueError, match="at most 10,000,000 RK4 steps"):
            tabulate_profile(0.5, -0.5, 1.0, [0.0, 10.0], 9.9e-7, problem=problem)
        with pytest.raises(ValueError, match="at most 10,000,000 RK4 steps"):
            tabulate_profile(0.5, -0.5, 1.0, [0.0, 1e9], problem=problem)
        for step in (0.0, -0.01, math.inf, math.nan):
            with pytest.raises(ValueError, match="step must be finite and positive"):
                tabulate_profile(0.5, -0.5, 1.0, [0.0, 1.0], step, problem=problem)
        with pytest.raises(ValueError, match="grid must start at eta >= 0"):
            tabulate_profile(0.5, -0.5, 1.0, [-1.0, 1.0], problem=problem)
    assert len(marched) == len(Problem)


def test_series_matches_integrator_inside_radius():
    res = shoot_solve(1.0, ShootConfig())
    sol = generate(ProblemParams(a=res.a, b=res.b, order=14, mode=RecurrenceMode.CORRECTED))
    grid = [0.1 * k for k in range(1, 11)]
    prof = tabulate_profile(res.a, res.b, 1.0, grid, 0.005)
    for (eta, f, _, theta) in prof:
        if eta > 1.0 + 1e-9:
            continue
        tol = 1e-4 if eta > 0.5 else 1e-6
        assert abs(series_eval(sol.f_series, eta) - f) < tol
        assert abs(series_eval(sol.theta_series, eta) - theta) < tol
