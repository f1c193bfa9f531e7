"""Exception types shared across the package."""


class BecnloError(Exception):
    """Base class for every error this package raises on purpose."""


class ValidationError(BecnloError):
    """Invalid physical parameters, configuration data, or field values."""


class LossNotConfiguredError(ValidationError):
    """A loss-channel quantity was requested while Im(a12) is zero."""


class GridError(BecnloError):
    """A radial grid is unusable, or an evaluation point lies outside its valid range."""


class ConvergenceError(BecnloError):
    """An iterative solver stopped without meeting its tolerance.

    Attributes
    ----------
    residual : float or None
        Last value of the quantity the solver drives below its tolerance
        (for the GPE solver, the stationary residual ||H u - mu u||/(|mu - min V| ||u||)).
    iterations : int or None
        Number of iterations performed before giving up.
    """

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
