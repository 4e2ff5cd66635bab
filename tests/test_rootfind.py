import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from dtmpade.shooting import ShootConfig, blasius_boundary_residual, boundary_residual

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


# Jacobians with a zero or non-finite entry: a zero row or column is
# singular; a NaN entry makes its row's scale NaN, not 0, and the NaN step
# stagnates; an infinite pivot gives a zero multiplier. The first case has a
# NaN determinant, which passes the SINGULAR_DET test, and then an exact
# zero pivot in the LU (numpy's LinAlgError("Singular matrix")); it is the
# same SingularJacobianError, raised before any step is taken.
@pytest.mark.parametrize("residual, x0, outcome", [
    (lambda x: (1.0 if x[1] == 1.0 else nan, 1.0 + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (x[1], 2.0 * x[1] + 1.0), (0.0, 1.0), SingularJacobianError),
    (lambda x: (1.0, x[0] + x[1]), (0.0, 1.0), SingularJacobianError),
    (lambda x: (1.0 if x[1] == 1.0 else nan, x[0] + x[1]), (0.0, 1.0), NonConvergenceError),
    (lambda x: (x[1] if x[0] == 0.0 else nan, x[0] + x[1]), (0.0, 1.0), NonConvergenceError),
    (lambda x: (x[1] + (inf if x[0] != 0.0 else 0.0), x[0] + x[1]), (0.0, 1.0), None),
    (lambda x: (x[0] - 1.0 if x[0] == 2.0 else nan,), (2.0,), NonConvergenceError),
    (lambda x: (x[0] - 1.0 if x[0] == 2.0 else inf,), (2.0,), NonConvergenceError),
])
def test_newton_on_degenerate_jacobians(residual, x0, outcome):
    if outcome is None:
        assert newton_solve(residual, x0, ClosureConfig()) == rootfind.SolveResult(0.0, 0.0, 0.0, 2)
        return
    with pytest.raises(outcome) as info:
        newton_solve(residual, x0, ClosureConfig())
    assert type(info.value) is outcome
    if outcome is SingularJacobianError:  # met at the start, before any step
        diagnostics = info.value.last_iterate, info.value.residual_norm, info.value.iterations
        assert diagnostics == (x0, max(abs(v) for v in residual(x0)), 0)


# numpy.linalg.solve and |det| of the row-scaled matrix, captured from
# numpy 2.4.6 with its OpenBLAS 0.3.31 (Haswell kernels). They are pinned,
# not compared live, because another BLAS kernel may round differently.
# Cases: d = 1, no swap, a swap, a tie |a21| == |a11| (no swap), a
# determinant either side of SINGULAR_DET, extreme entries, and
# forward-difference Jacobians of the real residuals.
SOLVE_PINS = [
    ([[3.0]], [1.0], [0.3333333333333333], 1.0),
    ([[-0.7]], [2.5], [-3.5714285714285716], 1.0),
    ([[0.001]], [0.1], [100.0], 1.0),
    ([[2.0, 1.0], [1.0, 3.0]], [1.0, 2.0], [0.2, 0.6], 0.8333333333333334),
    ([[0.1, 0.2], [0.03, 0.7]], [1 / 3, 2 / 3],
     [1.5624999999999993, 0.8854166666666667], 0.45714285714285713),
    ([[0.3, 1.7], [2.9, -0.4]], [0.1, -0.7],
     [-0.2277227722772277, 0.09900990099009901], 1.024340770791075),
    ([[-0.05, 7.0], [0.6, 0.11]], [0.9, -0.3],
     [-0.522886695993342, 0.12483652360004756], 1.0013095238095238),
    ([[1.5, 0.2], [-1.5, 0.9]], [0.3, 0.4],
     [0.11515151515151516, 0.6363636363636362], 0.7333333333333333),
    ([[0.7, -0.1], [0.7, 0.6]], [-0.2, 0.5], [-0.14285714285714288, 1.0], 1.0),
    ([[0.001, 2.0], [0.001, 10000.0]], [1e-05, 3.0],
     [-0.5901180236047209, 0.00030005901180236045], 0.0004999000000000003),
    ([[1.0, 1.0], [1.0, 1.0000000000000089]], [1.0, 2.0],
     [-112589990684261.4, 112589990684262.4], 8.881784197001224e-15),
    ([[1.0, 1.0], [1.0, 1.000000000000011]], [1.0, 2.0],
     [-90071992547408.92, 90071992547409.92], 1.1102230246251597e-14),
    ([[1000.0, 2000.0], [0.001, 0.00200000000000004]], [1.0, 1.0],
     [-5.012697181240619e+16, 2.5063485906203096e+16], 9.992007221626415e-15),
    ([[1000.0, 2000.0], [0.001, 0.0020000000000001197]], [1.0, 1.0],
     [-1.6708990604135396e+16, 8354495302067698.0], 2.9920510513648e-14),
    ([[0.9, -0.90000000000009], [-0.4, 0.4]], [0.5, 0.25],
     [-11814999022423.223, -11814999022422.598], 9.992007221626427e-14),
    # entries near 1e300, a right-hand side near 1e-295, a subnormal pivot
    # (left unswapped), and an infinite and a NaN pivot
    ([[8.56946940637837e+299, 1.7691690118380745e+299],
      [-1.3004483345192076e+299, 4.1568015438477796e+299]],
     [1.438580456162081e+300, -2.183098473862801e+299],
     [1.6787275710341252, 4.432826625159155e-16], 1.064587608372261),
    ([[1.434352542334553, 0.9671479570429176], [0.29519356556569665, 1.7698011351082013]],
     [1.6098478621098963e-295, 3.313109688229587e-296],
     [1.122351593904318e-295, 1.6578379017606e-311], 0.8875344714243991),
    ([[0.0, 1.0], [1e-310, 0.0]], [0.0, -1.0], [-inf, 1e-310], 1.0),
    ([[inf, 1.0], [-inf, 2.0]], [1.0, 3.0], [-0.0, 1.5], nan),
    ([[nan, 2.0], [1.0, 5.0]], [1.0, 1.0], [nan, 0.0], nan),
]
JACOBIAN_PINS = [
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=3),
                                RecurrenceMode.CORRECTED), (0.6, -0.6),
     [0.11632547074126706, -0.060452569278602514], 0.9693048090575761),
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=3),
                                RecurrenceMode.CORRECTED), (0.55, -0.75),
     [0.04026110318414474, -0.3175209279273387], 1.0819771161775649),
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=3),
                                RecurrenceMode.PAPER_FIDELITY), (0.6, -0.6),
     [-0.02212425779973655, 0.7702454084792771], 0.4383622717797516),
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=3),
                                RecurrenceMode.PAPER_FIDELITY), (0.55, -0.75),
     [-0.008557415852911282, 0.17510204685124156], 0.797513962845502),
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=5),
                                RecurrenceMode.CORRECTED), (0.6, -0.6),
     [-0.013417273095238361, -0.02570698457479783], 1.1318496387314763),
    (lambda x: closure_residual(*x, 1.0, ClosureConfig(pade_degree=5),
                                RecurrenceMode.CORRECTED), (0.55, -0.75),
     [-0.1263571615668817, -0.32167669700320284], 0.8367880131779944),
    (lambda x: boundary_residual(*x, 1.0, ShootConfig()), (0.6, -0.6),
     [-0.04514298827404197, 0.3500665664020593], 0.029704044829465724),
    (lambda x: boundary_residual(*x, 1.0, ShootConfig()), (0.64, -0.57),
     [-0.002191914647310538, -0.00279607741968021], 0.9443434893152155),
    (lambda x: boundary_residual(*x, 0.72, ShootConfig()), (0.6, -0.6),
     [-0.0764361157692037, 0.12010925191440042], 0.12446760542102174),
    (lambda x: boundary_residual(*x, 0.72, ShootConfig()), (0.64, -0.57),
     [-0.03904827200194514, -0.04907699822883296], 0.8933280800749499),
    (lambda x: (blasius_closure_residual(*x, ClosureConfig(pade_degree=4)),), (0.3,),
     [-0.029085576743877337], 1.0),
    (lambda x: (blasius_boundary_residual(*x, ShootConfig()),), (0.3,),
     [-0.03151279455972102], 1.0),
    (lambda x: (blasius_closure_residual(*x, ClosureConfig(pade_degree=4)),), (0.33,),
     [0.0021948981917217325], 1.0),
    (lambda x: (blasius_boundary_residual(*x, ShootConfig()),), (0.33,),
     [-0.0020570538109833825], 1.0),
]


def test_float_solve_pinned_bit_for_bit():
    cases = list(SOLVE_PINS)
    for residual, x0, step, det in JACOBIAN_PINS:
        r = list(residual(x0))
        cases.append((rootfind._jacobian(residual, x0, r), r, step, det))
    assert len(cases) == 34
    for jac, r, step, det in cases:
        # repr tells -0.0 from 0.0 and matches NaN
        assert repr(rootfind._solve(jac, r)) == repr(step)
        assert repr(rootfind._row_scaled_det(jac)) == repr(det)
    assert [det < rootfind.SINGULAR_DET for *_, det in SOLVE_PINS[10:14]] == [
        True, False, True, False]


finite = st.floats(allow_nan=False, allow_infinity=False)  # subnormals and extremes too


@st.composite
def fma_operands(draw):
    a, b = draw(finite), draw(finite)
    # -(a * b) cancels all but the rounding error of the product
    near = [st.just(-(a * b))] if math.isfinite(a * b) else []
    return a, b, draw(st.one_of(finite, *near))


@settings(max_examples=400, deadline=None)
@given(fma_operands())
def test_fma_rounds_the_exact_sum_once(operands):
    a, b, c = operands
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if exact == 0:
        want = a * b + c  # exact in floats too, with the IEEE sign of zero
    else:
        try:
            want = float(exact)
        except OverflowError:
            want = inf if exact > 0 else -inf
    assert repr(rootfind._fma(a, b, c)) == repr(want)


def test_fma_edge_cases():
    fma = rootfind._fma
    assert repr(fma(-0.1, 4.0, 0.4)) == "0.0"  # exact cancellation
    assert fma(2.0, 1.5e308, -1.5e308) == 1.5e308  # a * b alone overflows
    assert fma(1e308, 10.0, 1.0) == inf and fma(-1e308, 10.0, 1.0) == -inf
    for a, b, c in ((inf, 2.0, 1.0), (-inf, 0.5, 3.0), (inf, 0.0, 1.0), (nan, 1.0, 1.0),
                    (1.0, -inf, inf), (0.0, nan, 2.0), (-0.0, 5.0, -0.0)):
        assert repr(fma(a, b, c)) == repr(a * b + c)
    # a finite product with a non-finite c is c, also where a * b overflows
    for c in (inf, -inf, nan):
        assert repr(fma(1e308, 10.0, c)) == repr(c)
        assert repr(fma(3.0, -0.25, c)) == repr(c)


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
