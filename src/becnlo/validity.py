"""Consistency checks on the approximations behind the phase-gate estimate.

Two levels are probed, each at two points:

* single component: the host parabola is trusted where the kinetic
  correction K(r) = -(hbar^2/2m) lap(sqrt(n1))/sqrt(n1) stays small against
  the collisional energy U11*n1, and the mean field is trusted where the
  quantum depletion stays small against n1;
* two components: the host response transfers a fraction U12/U11 of K into
  the stored component's energy balance, to be compared with the stored
  self-interaction U22_tilde*n*phi^2, and the host's density fluctuations in
  a cell are to be compared with the stored density itself.

For the clipped parabola the kinetic correction has the closed form
K(r) = 3*hbar^2*omega^2/(4*f) + hbar^2*m*omega^4*r^2/(8*f^2),  f = mu - V(r),
which diverges at the cloud edge; evaluation is refused inside the last two
grid spacings before R, where the parabola itself is wrong anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, ValidationError
from .grids import MIN_POINTS, RadialGrid
from .host_tf import TfSolution, tf_density_at, tf_host
from .params import DEFAULT_GRID_POINTS, DerivedScales, SystemConfig, derive_scales
from .stored_mode import StoredMode

DEPLETION_COEFF = 8.0 / (3.0 * math.sqrt(math.pi))
RATIO_THRESHOLD = 1.0
FD_STEP = 1e-4  # finite-difference step of kinetic_correction_fd, in cloud radii
SCAN_POINTS = 257  # radii the validity report scans over 0 <= r <= R/2
FIGURE_SPAN = 0.95  # profiles are tabulated out to this fraction of R


def _edge_limit(host: TfSolution) -> float:
    return host.radius - 2.0 * host.grid.spacing


def kinetic_correction(config: SystemConfig, host: TfSolution, r):
    """Closed-form K(r) for the clipped parabola, J per host atom."""
    r = np.asarray(r, dtype=float)
    limit = _edge_limit(host)
    if np.any(r < 0.0) or np.any(r >= limit):
        raise GridError(
            f"kinetic correction is only evaluated on 0 <= r < {limit:g} m "
            "(the parabola breaks down at the cloud edge)"
        )
    hbar = config.hbar
    m = config.species.mass
    omega = config.trap.omega
    f = host.mu - config.trap_potential(r)
    return 3.0 * hbar**2 * omega**2 / (4.0 * f) + hbar**2 * m * omega**4 * r**2 / (8.0 * f**2)


def kinetic_correction_fd(config: SystemConfig, scales: DerivedScales, host: TfSolution, r):
    """K(r) by central differences on sqrt(n1): cross-check of the closed form.

    Uses lap(psi) = psi'' + 2*psi'/r, with the r -> 0 limit 3*psi''(0).
    """
    r = np.asarray(r, dtype=float)
    limit = _edge_limit(host)
    if np.any(r < 0.0) or np.any(r >= limit):
        raise GridError(f"finite-difference stencil needs 0 <= r < {limit:g} m")
    h = FD_STEP * host.radius

    def psi(x):
        return np.sqrt(tf_density_at(config, scales, host.mu, x))

    p0 = psi(r)
    pp = psi(r + h)
    pm = psi(np.abs(r - h))  # density is even in r
    d2 = (pp - 2.0 * p0 + pm) / h**2
    d1 = (pp - pm) / (2.0 * h)
    d1_over_r = np.divide(d1, r, out=np.zeros_like(d1), where=r > 0.0)
    lap = np.where(r > 0.0, d2 + 2.0 * d1_over_r, 3.0 * d2)
    return -(config.hbar**2 / (2.0 * config.species.mass)) * lap / p0


def rescaled_kinetic(kinetic, scales: DerivedScales):
    """Host kinetic correction as seen by the stored component: K * U12/U11."""
    return kinetic * (scales.u12 / scales.u11)


def stored_self_energy(
    mode: StoredMode, n_stored: int, scales: DerivedScales, r, effective: bool = True
):
    """Collisional self-energy U*n*phi(r)^2 of the stored mode, J per atom.

    `effective` selects the host-screened coupling U22_tilde (the one that
    sets the phase rate); otherwise the bare U22.
    """
    if n_stored < 0:
        raise ValidationError(f"n_stored must be non-negative, got {n_stored}")
    u = scales.u22_tilde if effective else scales.u22
    return u * n_stored * mode.profile(r) ** 2


def quantum_depletion(config: SystemConfig, scales: DerivedScales, mu: float, r):
    """Local-density depletion (8/(3*sqrt(pi))) * sqrt(n1*a11^3) * n1, m^-3."""
    n1 = tf_density_at(config, scales, mu, r)
    return DEPLETION_COEFF * np.sqrt(n1 * config.species.a11**3) * n1


def density_std(
    config: SystemConfig,
    scales: DerivedScales,
    mu: float,
    r,
    cell_volume: float | None = None,
):
    """Std of the host density coarse-grained over a cell, m^-3.

    With N_c = n1*cell condensed and N_dep = n_dep*cell depleted atoms in the
    cell, the particle-number variance is 2*N_c*N_dep; dividing the std by the
    cell gives sqrt(2*n1*n_dep), so the returned density std does not depend
    on the cell size (the default cell is d^3).
    """
    cell = scales.d**3 if cell_volume is None else cell_volume
    if not cell > 0:
        raise ValidationError(f"cell volume must be positive, got {cell}")
    n1 = tf_density_at(config, scales, mu, r)
    n_dep = quantum_depletion(config, scales, mu, r)
    return np.sqrt(2.0 * (n1 * cell) * (n_dep * cell)) / cell


@dataclass(frozen=True)
class EnergyProfile:
    """Per-atom energy curves sampled on a grid (all J)."""

    grid: RadialGrid
    trap_e: np.ndarray  # V(r)
    host_coll_e: np.ndarray  # U11*n1
    cross_coll_e: np.ndarray  # U12*n2, felt by a host atom
    kinetic_e: np.ndarray  # K(r)
    rescaled_kinetic_e: np.ndarray  # K*U12/U11, felt by a stored atom
    stored_self_e: np.ndarray  # U22_tilde*n*phi^2


def energy_profile(
    config: SystemConfig, scales: DerivedScales, host: TfSolution, grid: RadialGrid
) -> EnergyProfile:
    """Energy curves for a full stored mode of n_stored_max atoms."""
    n = config.n_stored_max
    mode = StoredMode.from_scales(scales)
    r = grid.r
    kin = kinetic_correction(config, host, r)
    return EnergyProfile(
        grid=grid,
        trap_e=config.trap_potential(r),
        host_coll_e=scales.u11 * tf_density_at(config, scales, host.mu, r),
        cross_coll_e=scales.u12 * mode.density(r, n),
        kinetic_e=kin,
        rescaled_kinetic_e=rescaled_kinetic(kin, scales),
        stored_self_e=stored_self_energy(mode, n, scales, r),
    )


@dataclass(frozen=True)
class DensityProfile:
    """Host, stored, depletion, and fluctuation densities on a grid (all m^-3).

    The fluctuations are coarse-grained over a cell of d^3.
    """

    grid: RadialGrid
    host_density: np.ndarray
    stored_density: np.ndarray
    depletion_density: np.ndarray
    density_std: np.ndarray


def density_profile(
    config: SystemConfig, scales: DerivedScales, host: TfSolution, grid: RadialGrid
) -> DensityProfile:
    """Density curves for a full stored mode of n_stored_max atoms."""
    n = config.n_stored_max
    mode = StoredMode.from_scales(scales)
    r = grid.r
    return DensityProfile(
        grid=grid,
        host_density=tf_density_at(config, scales, host.mu, r),
        stored_density=mode.density(r, n),
        depletion_density=quantum_depletion(config, scales, host.mu, r),
        density_std=density_std(config, scales, host.mu, r),
    )


def _log10(values):
    with np.errstate(divide="ignore"):
        return np.log10(values)


def figure_data(
    config: SystemConfig,
    fig: int,
    *,
    n_rows: int = 512,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> dict:
    """Columns of the energy- or density-budget tables, keyed by name.

    fig 2: per-host-atom energies; fig 3: per-stored-atom energies; fig 4:
    densities per d^3.  Energies come out in units of hbar*omega, radii in
    units of d, and every physical column gets a log10 companion.
    """
    if fig not in (2, 3, 4):
        raise ValidationError(f"figure must be 2, 3, or 4, got {fig!r}")
    if n_rows < MIN_POINTS:
        raise ValidationError(f"figures need at least {MIN_POINTS} rows, got {n_rows}")
    scales = derive_scales(config)
    host = tf_host(config, scales, grid_points)
    grid = RadialGrid(FIGURE_SPAN * host.radius, n_rows)
    cols: dict[str, np.ndarray] = {"r_over_d": grid.r / scales.d}
    if fig in (2, 3):
        ep = energy_profile(config, scales, host, grid)
        e0 = scales.e_trap
        if fig == 2:
            cols["trap_hw"] = ep.trap_e / e0
            cols["host_coll_hw"] = ep.host_coll_e / e0
            cols["cross_coll_hw"] = ep.cross_coll_e / e0
            cols["kinetic_hw"] = ep.kinetic_e / e0
        else:
            cols["rescaled_kinetic_hw"] = ep.rescaled_kinetic_e / e0
            cols["stored_self_hw"] = ep.stored_self_e / e0
    else:
        dp = density_profile(config, scales, host, grid)
        d3 = scales.d**3
        cols["host_per_d3"] = dp.host_density * d3
        cols["stored_per_d3"] = dp.stored_density * d3
        cols["depletion_per_d3"] = dp.depletion_density * d3
        cols["std_per_d3"] = dp.density_std * d3
    for name in [k for k in cols if k != "r_over_d"]:
        cols["log10_" + name] = _log10(cols[name])
    return cols


def _json_ratio(ratio: float):
    return ratio if math.isfinite(ratio) else None


@dataclass(frozen=True)
class ValidityReport:
    """Worst-case ratios over 0 <= r <= R/2 and their pass flags (ratio < 1).

    The two-component mean-field check has two diagnostics (depletion and
    density std, each against the stored density) and passes only if both do.
    """

    single_tf_ratio: float  # K / (U11*n1)
    single_mf_ratio: float  # n_dep / n1
    two_tf_ratio: float  # K*U12/U11 / (U22_tilde*n*phi^2)
    two_mf_depletion_ratio: float  # n_dep / n2
    two_mf_std_ratio: float  # density std per cell / n2
    single_component_tf_ok: bool
    single_component_mf_ok: bool
    two_component_tf_ok: bool
    two_component_mf_ok: bool
    scan_radius: float  # m
    n_stored: int

    @property
    def flags(self) -> tuple:
        return (
            self.single_component_tf_ok,
            self.single_component_mf_ok,
            self.two_component_tf_ok,
            self.two_component_mf_ok,
        )

    def to_dict(self) -> dict:
        """Plain JSON: the two-component ratios of an empty mode (inf) become None."""
        return {
            "single_tf": {"ratio": self.single_tf_ratio, "ok": self.single_component_tf_ok},
            "single_mf": {"ratio": self.single_mf_ratio, "ok": self.single_component_mf_ok},
            "two_tf": {"ratio": _json_ratio(self.two_tf_ratio), "ok": self.two_component_tf_ok},
            "two_mf": {
                "depletion_ratio": _json_ratio(self.two_mf_depletion_ratio),
                "std_ratio": _json_ratio(self.two_mf_std_ratio),
                "ok": self.two_component_mf_ok,
            },
            "scan_radius_m": self.scan_radius,
            "n_stored": self.n_stored,
        }


def validity_report(config: SystemConfig, *, grid_points: int = DEFAULT_GRID_POINTS) -> ValidityReport:
    """Evaluate all four checks where the stored mode lives (r up to R/2)."""
    scales = derive_scales(config)
    host = tf_host(config, scales, grid_points)
    n = config.n_stored_max
    mode = StoredMode.from_scales(scales)
    r = np.linspace(0.0, 0.5 * host.radius, SCAN_POINTS)

    host_coll = scales.u11 * tf_density_at(config, scales, host.mu, r)
    kin = kinetic_correction(config, host, r)
    single_tf = float(np.max(kin / host_coll))

    n1 = tf_density_at(config, scales, host.mu, r)
    n_dep = quantum_depletion(config, scales, host.mu, r)
    single_mf = float(np.max(n_dep / n1))

    if n == 0:
        two_tf = math.inf
        two_mf_dep = math.inf
        two_mf_std = math.inf
    else:
        n2 = mode.density(r, n)
        # where a narrow mode underflows to 0 the ratios are inf (nan if U12 is 0 too): null, flag fails
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            two_tf = float(np.max(rescaled_kinetic(kin, scales) / stored_self_energy(mode, n, scales, r)))
            two_mf_dep = float(np.max(n_dep / n2))
            two_mf_std = float(np.max(density_std(config, scales, host.mu, r) / n2))

    return ValidityReport(
        single_tf_ratio=single_tf,
        single_mf_ratio=single_mf,
        two_tf_ratio=two_tf,
        two_mf_depletion_ratio=two_mf_dep,
        two_mf_std_ratio=two_mf_std,
        single_component_tf_ok=single_tf < RATIO_THRESHOLD,
        single_component_mf_ok=single_mf < RATIO_THRESHOLD,
        two_component_tf_ok=two_tf < RATIO_THRESHOLD,
        two_component_mf_ok=two_mf_dep < RATIO_THRESHOLD and two_mf_std < RATIO_THRESHOLD,
        scan_radius=float(r[-1]),
        n_stored=n,
    )
