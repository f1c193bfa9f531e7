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
from .grids import DENSITY, RadialField, RadialGrid
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
