"""Uniform radial grids, sampled radial fields, and spherical quadrature."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError

# unit tags for RadialField
DENSITY = "m^-3"
WAVEFUNCTION = "m^-3/2"
ENERGY = "J"

MIN_POINTS = 16


@dataclass(frozen=True)
class RadialGrid:
    """n_points equally spaced radii covering [0, r_max]."""

    r_max: float  # m
    n_points: int

    def __post_init__(self):
        if not self.r_max > 0:
            raise GridError(f"r_max must be positive, got {self.r_max}")
        if self.n_points < MIN_POINTS:
            raise GridError(f"need at least {MIN_POINTS} grid points, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    @property
    def r(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_points)


@dataclass(frozen=True)
class RadialField:
    """Values of a spherically symmetric quantity on a RadialGrid.

    The array is copied and frozen; densities must be non-negative and every
    entry finite.
    """

    grid: RadialGrid
    values: np.ndarray
    unit: str

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (self.grid.n_points,):
            raise ValidationError(
                f"field shape {values.shape} does not match grid ({self.grid.n_points},)"
            )
        if not np.all(np.isfinite(values)):
            raise ValidationError("field contains non-finite values")
        if self.unit == DENSITY and np.any(values < 0.0):
            raise ValidationError("density field has negative entries")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def r(self) -> np.ndarray:
        return self.grid.r


def radial_integral(r, values) -> float:
    """4*pi * integral of r^2 * f(r) dr by composite Simpson on >= 3 equally spaced r.

    An even point count adds Cartwright's rule for the last interval, as
    scipy.integrate.simpson does since scipy 1.11.
    """
    r = np.asarray(r, dtype=float)
    y = r**2 * np.asarray(values, dtype=float)
    h = (r[-1] - r[0]) / (r.size - 1)
    m = y.size - 1 + y.size % 2  # the 1-4-2-...-4-1 rule covers the first m (odd) points
    total = y[0] + 4.0 * y[1 : m - 1 : 2].sum() + 2.0 * y[2 : m - 2 : 2].sum() + y[m - 1]
    total *= h / 3.0
    if m < y.size:
        total += h * (5.0 / 12.0 * y[-1] + 2.0 / 3.0 * y[-2] - 1.0 / 12.0 * y[-3])
    return 4.0 * np.pi * float(total)
