"""Host ground state in the strong-interaction limit: inverted-parabola density.

Dropping the kinetic term from the stationary equation gives
n1(r) = max(0, (mu - V(r)) / U11) with mu fixed by the atom number.  For the
isotropic harmonic trap the normalization closes to
mu = (hbar*omega/2) * (15 * N * a11 / d)^(2/5) and the cloud ends at
R = sqrt(2*mu/(m*omega^2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError
from .grids import DENSITY, RadialField, RadialGrid, radial_integral
from .params import DerivedScales, SystemConfig, tf_radius

DEFAULT_GRID_POINTS = 4096
GRID_SPAN_FACTOR = 1.5  # host grid reaches this multiple of the cloud radius


@dataclass(frozen=True)
class TfSolution:
    """Chemical potential, cloud radius, and sampled density of the host."""

    mu: float  # J
    radius: float  # m
    density: RadialField  # m^-3

    @property
    def grid(self) -> RadialGrid:
        return self.density.grid


def tf_chemical_potential(config: SystemConfig, scales: DerivedScales) -> float:
    """Closed form mu = (e_trap/2)*(15*N*a11/d)^(2/5)."""
    return 0.5 * scales.e_trap * (15.0 * config.n_host * config.species.a11 / scales.d) ** 0.4


def tf_chemical_potential_numeric(
    config: SystemConfig,
    scales: DerivedScales,
    n_points: int = 65537,
) -> float:
    """Root-find mu from the normalization integral (cross-check, no closed form).

    The defect 4*pi*int r^2 n1(r; mu) dr - N is monotone in mu; brentq on a
    geometrically grown bracket pins it down to machine precision.
    """
    from scipy.optimize import brentq
    target = float(config.n_host)

    # root-find in units of e_trap: the root in J is smaller than brentq's
    # default absolute xtol, so the bare scale would "converge" instantly
    def defect(x):
        mu = x * scales.e_trap
        r = np.linspace(0.0, tf_radius(config, mu), n_points)
        n1 = (mu - config.trap_potential(r)) / scales.u11
        return radial_integral(r, np.clip(n1, 0.0, None)) - target

    lo = 1e-6
    hi = 1.0
    while defect(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError("could not bracket the chemical potential")
    return brentq(defect, lo, hi, rtol=1e-14, maxiter=200) * scales.e_trap


def tf_density_at(config: SystemConfig, scales: DerivedScales, mu: float, r):
    """Clipped parabola (mu - V(r))/U11; scalar or array r."""
    n1 = (mu - config.trap_potential(np.asarray(r, dtype=float))) / scales.u11
    return np.clip(n1, 0.0, None)


def tf_density(
    config: SystemConfig, scales: DerivedScales, mu: float, grid: RadialGrid
) -> TfSolution:
    """Sample the host profile on a grid; the grid must contain the cloud."""
    radius = tf_radius(config, mu)
    if grid.r_max < radius:
        raise GridError(
            f"grid truncates the cloud: r_max={grid.r_max:g} m < R={radius:g} m"
        )
    field = RadialField(grid, tf_density_at(config, scales, mu, grid.r), DENSITY)
    return TfSolution(mu=mu, radius=radius, density=field)


def tf_host(
    config: SystemConfig,
    scales: DerivedScales,
    grid_points: int = DEFAULT_GRID_POINTS,
    span: float = GRID_SPAN_FACTOR,
) -> TfSolution:
    """The closed-form host on a grid reaching `span` cloud radii."""
    mu = tf_chemical_potential(config, scales)
    grid = RadialGrid(span * tf_radius(config, mu), grid_points)
    return tf_density(config, scales, mu, grid)


def tf_density_with_back_action(
    config: SystemConfig,
    scales: DerivedScales,
    mu: float,
    stored_density: RadialField,
) -> RadialField:
    """Host profile with the stored mean field included: (mu - V - U12*n2)/U11.

    mu is kept at its unperturbed value since the stored component carries a
    negligible fraction of the atoms; the result shows the dip the stored
    atoms dig into the host.  If the dip would drive the center negative the
    stored component is too dense for this linear response and we refuse.
    """
    grid = stored_density.grid
    raw = (
        mu - config.trap_potential(grid.r) - scales.u12 * stored_density.values
    ) / scales.u11
    if raw[0] < 0.0:
        raise ValidationError(
            "stored component too dense: host density would go negative at the center"
        )
    return RadialField(grid, np.clip(raw, 0.0, None), DENSITY)
