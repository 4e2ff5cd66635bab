"""Exception hierarchy shared across the solver modules."""


class DtmPadeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateApproximantError(DtmPadeError):
    """The Pade linear system is singular or numerically rank-deficient."""


class DegenerateLimitError(DegenerateApproximantError):
    """A numerator term outgrows the denominator's effective degree: the limit diverges."""


class PoleError(DtmPadeError):
    """Evaluation requested at (or too close to) a pole of the approximant."""


class NonConvergenceError(DtmPadeError):
    """Newton iteration stagnated or ran out of iterations.

    Carries the last iterate and residual norm for diagnostics.
    """

    def __init__(self, message, last_iterate=None, residual_norm=None, iterations=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual_norm = residual_norm
        self.iterations = iterations


class SingularJacobianError(NonConvergenceError):
    """Newton's Jacobian (exact or by forward differences) is singular at the current iterate."""


class BlowUpError(DtmPadeError):
    """The IVP trajectory left the representable range before eta_max."""

    def __init__(self, message, eta_reached=None):
        super().__init__(message)
        self.eta_reached = eta_reached
