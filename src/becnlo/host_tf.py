"""Host ground state in the strong-interaction limit: inverted-parabola density.

Dropping the kinetic term from the stationary equation gives
n1(r) = max(0, (mu - V(r)) / U11) with mu fixed by the atom number.  For the
isotropic harmonic trap the normalization closes to
mu = (hbar*omega/2) * (15 * N * a11 / d)^(2/5) and the cloud ends at
R = sqrt(mu/k), where the trap V(r) = k*r^2 reaches mu.
"""

from __future__ import annotations

from ._record import record
from .errors import GridError, _pointwise
from .params import DerivedScales, SystemConfig, tf_chemical_potential, tf_radius


@record
class TfSolution:
    """Chemical potential and cloud radius of the host; tf_density_at gives its density."""

    mu: float  # J
    radius: float  # m


def tf_density_at(config: SystemConfig, scales: DerivedScales, mu: float, r):
    """Clipped parabola max((mu - V(r))/U11, 0) at one radius or a sequence of radii."""
    k = config.trap_k  # V(r) = k*r^2, inlined with no max(): this runs per grid point
    u11 = scales.u11

    def n1(x):
        n = (mu - k * (x * x)) / u11
        return 0.0 if n < 0.0 else n

    return _pointwise(n1, r)


def tf_density(config: SystemConfig, scales: DerivedScales, mu: float, grid) -> TfSolution:
    """The host at chemical potential mu, checked against a RadialGrid that must hold the cloud; scales is unread."""
    radius = tf_radius(config, mu)
    if grid.r_max < radius:
        raise GridError(
            f"grid truncates the cloud: r_max={grid.r_max:g} m < R={radius:g} m"
        )
    return TfSolution(mu=mu, radius=radius)


def tf_host(config: SystemConfig, scales: DerivedScales) -> TfSolution:
    """The closed-form host at the chemical potential that holds its atom number."""
    mu = tf_chemical_potential(config, scales)
    return TfSolution(mu=mu, radius=tf_radius(config, mu))

