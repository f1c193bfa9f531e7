"""Independent numerical references for results of the package.

Each routine reaches a result by another route (root finding, adaptive
quadrature, finite differences or a dense eigensolver from scipy), so a test
can compare the two.
They serve the tests only: no command of the package needs them, and the
package itself imports neither scipy nor numpy.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq

from becnlo import (
    HBAR,
    DerivedScales,
    GpeProblem,
    GridError,
    StoredMode,
    SystemConfig,
    TfSolution,
    ValidationError,
    kinetic_correction,
    radial_integral,
    tf_density_at,
    tf_radius,
)
from becnlo.errors import _pointwise
from becnlo.validity import EDGE_FRACTION

FD_STEP = 1e-4  # finite-difference step of kinetic_correction_fd, in cloud radii


def tf_chemical_potential_numeric(
    config: SystemConfig,
    scales: DerivedScales,
    n_points: int = 65537,
) -> float:
    """Root-find mu from the normalization integral (cross-check, no closed form).

    The defect 4*pi*int r^2 n1(r; mu) dr - N is monotone in mu; brentq on a
    geometrically grown bracket pins it down to machine precision.
    """
    target = float(config.n_host)

    # root-find in units of e_trap: the root in J is smaller than brentq's
    # default absolute xtol, so the bare scale would "converge" instantly
    def defect(x):
        mu = x * scales.e_trap
        r = np.linspace(0.0, tf_radius(config, mu), n_points)
        n1 = (mu - config.trap_k * (r * r)) / scales.u11
        return radial_integral(r, np.clip(n1, 0.0, None)) - target

    lo = 1e-6
    hi = 1.0
    while defect(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError("could not bracket the chemical potential")
    return brentq(defect, lo, hi, rtol=1e-14, maxiter=200) * scales.e_trap


def kinetic_crossing_radius(config: SystemConfig, host: TfSolution) -> float:
    """Radius where K(r) catches up with the collisional energy U11*n1 = mu - V."""

    # scan in units of R so brentq's absolute xtol is meaningful
    def gap(x):
        r = x * host.radius
        return float(kinetic_correction(config, host, r) - (host.mu - config.trap_k * (r * r)))

    hi = EDGE_FRACTION * (1.0 - 1e-9)
    lo = 0.5
    if gap(lo) >= 0.0 or gap(hi) <= 0.0:
        raise ValidationError("no kinetic/collisional crossing inside (R/2, R)")
    return brentq(gap, lo, hi, xtol=1e-14, rtol=1e-13, maxiter=200) * host.radius


def kinetic_correction_fd(config: SystemConfig, scales: DerivedScales, host: TfSolution, r):
    """K(r) by central differences on sqrt(n1): cross-check of the closed form.

    Uses lap(psi) = psi'' + 2*psi'/r, with the r -> 0 limit 3*psi''(0).  Like
    the closed form, it refuses r >= EDGE_FRACTION*R.
    """
    limit = EDGE_FRACTION * host.radius
    h = FD_STEP * host.radius

    def psi(shift):  # sqrt(n1) at |r + shift|: the density is even in r
        radii = _pointwise(lambda x: abs(x + shift), r)
        return _pointwise(math.sqrt, tf_density_at(config, scales, host.mu, radii))

    def kinetic(x, p0, pp, pm):
        if not 0.0 <= x < limit:
            raise GridError(f"finite-difference stencil needs 0 <= r < {limit:g} m")
        d2 = (pp - 2.0 * p0 + pm) / h**2
        d1 = (pp - pm) / (2.0 * h)
        lap = d2 + 2.0 * (d1 / x) if x > 0.0 else 3.0 * d2
        return -(HBAR**2 / (2.0 * config.mass)) * lap / p0

    return _pointwise(kinetic, r, psi(0.0), psi(h), psi(-h))


def mode_host_overlap_quad(config: SystemConfig, scales: DerivedScales, mu: float, mode: StoredMode) -> float:
    """4*pi*int_0^R r^2 phi^2 n1 dr by adaptive quadrature (cross-check of the closed form).

    The integrand multiplies the mode's density and the clipped parabola, each
    evaluated at one radius; quad runs in x = r/s up to the cloud edge, where
    n1 has its kink.
    """
    s = mode.s

    def integrand(x):
        r = x * s
        return 4.0 * math.pi * r * r * mode.density(r) * tf_density_at(config, scales, mu, r) * s

    value, _ = quad(integrand, 0.0, tf_radius(config, mu) / s, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def energy_shift_bruteforce(n: int, mode: StoredMode, scales: DerivedScales) -> float:
    """Pair count times U22_tilde times the quartic overlap of the mode.

    The overlap 4*pi*int r^2 phi^4 dr is done by adaptive quadrature in the
    scaled variable x = r/s (the integrand is a pure Gaussian peak near x=1,
    invisible to a quadrature rule on an unscaled infinite interval).
    """
    if n < 0:
        raise ValidationError(f"occupation must be non-negative, got {n}")
    pairs = math.comb(n, 2)
    s = mode.s

    def integrand(x):
        r = x * s
        return 4.0 * math.pi * r**2 * mode.profile(r) ** 4 * s

    quartic, _ = quad(integrand, 0.0, 20.0)
    return pairs * scales.u22_tilde * quartic


def lowest_eigenpair(problem: GpeProblem, psi):
    """Lowest eigenvalue of H[u] with the density psi^2 frozen, and its eigenvector's overlap with u.

    H[u] is rebuilt here from its definition, the three-point stencil plus
    V + g*psi^2 on the interior points, and diagonalized by LAPACK, so nothing
    of the solver's iteration is reused.  The overlap is |<v, u>|/(|v| |u|);
    at the ground state the eigenvalue is mu and the overlap is 1.
    """
    grid = problem.grid
    kin = HBAR**2 / (2.0 * problem.mass * grid.spacing**2)
    psi = np.asarray(psi, dtype=float)[1:-1]
    diag = 2.0 * kin + np.asarray(problem.potential)[1:-1] + problem.g * psi**2
    values, vectors = eigh_tridiagonal(diag, np.full(diag.size - 1, -kin), select="i", select_range=(0, 0))
    u = np.asarray(grid.r)[1:-1] * psi
    return float(values[0]), abs(float(vectors[:, 0] @ u)) / float(np.linalg.norm(u))
