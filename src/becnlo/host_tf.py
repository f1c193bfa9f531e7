"""Host ground state in the strong-interaction limit: inverted-parabola density.

Dropping the kinetic term from the stationary equation gives
n1(r) = max(0, (mu - V(r)) / U11) with mu fixed by the atom number.  For the
isotropic harmonic trap the normalization closes to
mu = (hbar*omega/2) * (15 * N * a11 / d)^(2/5) and the cloud ends at
R = sqrt(2*mu/(m*omega^2)).
"""

from __future__ import annotations

from ._record import record
from .errors import GridError, ValidationError
from .grids import RadialGrid, _pointwise
from .params import DerivedScales, SystemConfig, tf_chemical_potential, tf_radius


@record
class TfSolution:
    """Chemical potential and cloud radius of the host; tf_density_at gives its density."""

    mu: float  # J
    radius: float  # m
    config: SystemConfig
    scales: DerivedScales


def tf_density_at(config: SystemConfig, scales: DerivedScales, mu: float, r):
    """Clipped parabola max((mu - V(r))/U11, 0) at one radius or a sequence of radii."""
    k = config.trap_potential(1.0)  # V(r) = k*r^2, inlined with no max(): this runs per grid point
    u11 = scales.u11

    def n1(x):
        n = (mu - k * (x * x)) / u11
        return 0.0 if n < 0.0 else n

    return _pointwise(n1, r)


def tf_density(
    config: SystemConfig, scales: DerivedScales, mu: float, grid: RadialGrid
) -> TfSolution:
    """The host at chemical potential mu, checked against a grid that must contain the cloud."""
    radius = tf_radius(config, mu)
    if grid.r_max < radius:
        raise GridError(
            f"grid truncates the cloud: r_max={grid.r_max:g} m < R={radius:g} m"
        )
    return TfSolution(mu=mu, radius=radius, config=config, scales=scales)


def tf_host(config: SystemConfig, scales: DerivedScales) -> TfSolution:
    """The closed-form host at the chemical potential that holds its atom number."""
    mu = tf_chemical_potential(config, scales)
    return TfSolution(mu=mu, radius=tf_radius(config, mu), config=config, scales=scales)


def tf_density_with_back_action(config: SystemConfig, scales: DerivedScales, mu: float, r, n2) -> tuple:
    """Host density max((mu - V - U12*n2)/U11, 0) at the radii r, given the stored density n2 there.

    mu is kept at its unperturbed value since the stored component carries a
    negligible fraction of the atoms; the result shows the dip the stored
    atoms dig into the host.  If the dip would drive the center (r[0]) negative
    the stored component is too dense for this linear response and we refuse.
    """
    if len(n2) != len(r):
        raise ValidationError(f"stored density has {len(n2)} values for {len(r)} radii")
    k = config.trap_potential(1.0)  # V(r) = k*r^2, as in tf_density_at
    raw = _pointwise(lambda x, n: (mu - k * (x * x) - scales.u12 * n) / scales.u11, r, n2)
    if raw[0] < 0.0:
        raise ValidationError(
            "stored component too dense: host density would go negative at the center"
        )
    return tuple(max(n1, 0.0) for n1 in raw)
