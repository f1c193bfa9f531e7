"""Exception types shared across the package, and its one range rule for closed forms.

A closed form of a finite config that leaves double range is refused with ValidationError:
each is computed through `_pointwise`, which also refuses the inf or nan that floats give quietly,
except the values a record checks where it is built: `SystemConfig.trap_k` and `DerivedScales`.
"""

import math
import numbers


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


def _all_finite(values) -> bool:
    # a float sum stays inf or nan once a term is, so only an overflowing sum needs the full check
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


def _pointwise(f, *args, what="a closed form"):
    """f at one point (numbers in, a float out), or mapped over sequences (a tuple out).

    A closed form that leaves double range raises ValidationError naming `what`, where
    Python's floats raise OverflowError or ZeroDivisionError or give inf or nan.
    """
    scalar = isinstance(args[0], numbers.Real)
    try:
        out = f(*args) if scalar else tuple(map(f, *args))
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what} is out of floating-point range") from exc
    if not _all_finite((out,) if scalar else out):
        raise ValidationError(f"{what} is out of floating-point range")
    return out
