"""Uniform radial grids and spherical quadrature."""

from __future__ import annotations

import math
from functools import cached_property

from ._record import record
from .errors import GridError

MIN_POINTS = 16
# a table or an oracle solve holds about 0.6-0.75 KB per point, so this keeps either under about 0.8 GB
MAX_POINTS = 2**20


@record
class RadialGrid:
    """n_points equally spaced radii covering [0, r_max]."""

    r_max: float  # m
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.r_max < math.inf:
            raise GridError(f"r_max must be positive and finite, got {self.r_max}")
        if self.n_points < MIN_POINTS:
            raise GridError(f"need at least {MIN_POINTS} grid points, got {self.n_points}")
        if self.n_points > MAX_POINTS:
            raise GridError(f"at most {MAX_POINTS} grid points are allowed, got {self.n_points}")
        if not self.spacing > 0:
            raise GridError(f"grid spacing underflows: r_max={self.r_max:g} m")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    @cached_property
    def r(self) -> tuple:
        """i*spacing, with the last radius exactly r_max: numpy.linspace's values."""
        step = self.spacing
        return (*[i * step for i in range(self.n_points - 1)], self.r_max)


def radial_integral(r, values) -> float:
    """4*pi * integral of r^2 * f(r) dr by composite Simpson on >= 3 equally spaced r.

    An even point count adds Cartwright's rule for the last interval, as
    scipy.integrate.simpson does since scipy 1.11.
    """
    y = [x * x * f for x, f in zip(r, values)]
    n = len(y)
    h = (r[-1] - r[0]) / (n - 1)
    m = n - 1 + n % 2  # the 1-4-2-...-4-1 rule covers the first m (odd) points
    total = y[0] + 4.0 * sum(y[1 : m - 1 : 2]) + 2.0 * sum(y[2 : m - 2 : 2]) + y[m - 1]
    total *= h / 3.0
    if m < n:
        total += h * (5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - 1.0 / 12.0 * y[-3])
    return 4.0 * math.pi * float(total)
