"""DTM-Pade solver for boundary-layer problems on semi-infinite domains.

Taylor-coefficient recurrences turn the nonlinear boundary-value problem
into series with unknown initial derivatives; diagonal rational
approximants make the boundary conditions at infinity algebraic; Newton
closes the system. A classical shooting integrator serves as the
independent oracle.
"""

__version__ = "0.1.0"

from .dtm import DtmSolution, Problem, ProblemParams, RecurrenceMode, generate
from .pade import RationalApproximant, build, limit_at_infinity
from .rootfind import ClosureConfig, SolveResult, closure_residual, newton_solve, solve_problem
from .series import TruncatedSeries
from .shooting import ShootConfig, boundary_residual, shoot_solve, tabulate_profile

__all__ = [
    "__version__",
    "TruncatedSeries",
    "Problem",
    "ProblemParams",
    "RecurrenceMode",
    "DtmSolution",
    "generate",
    "RationalApproximant",
    "build",
    "limit_at_infinity",
    "ClosureConfig",
    "SolveResult",
    "closure_residual",
    "newton_solve",
    "solve_problem",
    "ShootConfig",
    "boundary_residual",
    "shoot_solve",
    "tabulate_profile",
]
