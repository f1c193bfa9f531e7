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

figure_data gives the energy and density budgets (the paper's Figs. 2-4) as
table columns; validity_report's five ratios are ratios of the same columns
over 0 <= r <= R/2, where it draws the four verdicts.  Both evaluate the
pointwise closed forms below directly.

For the clipped parabola the kinetic correction has the closed form
K(r) = 3*hbar^2*omega^2/(4*f) + hbar^2*m*omega^4*r^2/(8*f^2),  f = mu - V(r),
which diverges at the cloud edge; evaluation is refused for
r >= EDGE_FRACTION*R, where the parabola itself is wrong anyway.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import GridError, ValidationError, _pointwise
from .grids import MAX_POINTS, MIN_POINTS, RadialGrid
from .host_tf import TfSolution, tf_density_at, tf_host
from .params import HBAR, DerivedScales, SystemConfig, derive_scales
from .stored_mode import StoredMode

EDGE_FRACTION = 0.999  # kinetic_correction refuses r >= this fraction of R
DEPLETION_COEFF = 8.0 / (3.0 * math.sqrt(math.pi))
RATIO_THRESHOLD = 1.0
SCAN_POINTS = 257  # radii the validity report scans over 0 <= r <= R/2
FIGURE_SPAN = 0.95  # profiles are tabulated out to this fraction of R


def kinetic_correction(config: SystemConfig, host: TfSolution, r):
    """Closed-form K(r) for the clipped parabola, J per host atom; one radius or a sequence."""
    limit = EDGE_FRACTION * host.radius
    k = config.trap_k  # V(r) = k*r^2
    # the factors that do not depend on r, once (as ValidationError if they leave double range)
    c1 = _pointwise(lambda omega: 3.0 * HBAR**2 * omega**2, config.omega)
    c2 = _pointwise(lambda omega: HBAR**2 * config.mass * omega**4, config.omega)

    def kinetic(x):
        if not 0.0 <= x < limit:
            raise GridError(
                f"kinetic correction is only evaluated on 0 <= r < {limit:g} m "
                "(the parabola breaks down at the cloud edge)"
            )
        f = host.mu - k * (x * x)
        return c1 / (4.0 * f) + c2 * (x * x) / (8.0 * (f * f))

    return _pointwise(kinetic, r)


def rescaled_kinetic(kinetic, scales: DerivedScales):
    """Host kinetic correction as seen by the stored component: K * U12/U11."""
    return _pointwise(lambda k: k * (scales.u12 / scales.u11), kinetic)


def _budget(config: SystemConfig, scales: DerivedScales, host: TfSolution, r, figs) -> dict:
    """Columns of the tables in figs (see figure_data) at the radii r, in SI units, without unit suffixes.

    Each of n1, n2 and K is computed once, and only if a table in figs needs it.
    """
    n2 = StoredMode(scales.s).density(r, config.n_stored_max)
    n1 = tf_density_at(config, scales, host.mu, r) if figs & {2, 4} else None
    kin = kinetic_correction(config, host, r) if figs & {2, 3} else None
    cols = {}
    if 2 in figs:
        k = config.trap_k  # V(r) = k*r^2
        cols.update(trap=_pointwise(lambda x: k * (x * x), r),
                    host_coll=_pointwise(lambda n: scales.u11 * n, n1),
                    cross_coll=_pointwise(lambda n: scales.u12 * n, n2),
                    kinetic=kin)
    if 3 in figs:
        cols.update(rescaled_kinetic=rescaled_kinetic(kin, scales),
                    stored_self=_pointwise(lambda n: scales.u22_tilde * n, n2))
    if 4 in figs:
        # depletion (8/(3*sqrt(pi)))*sqrt(n1*a11^3)*n1; std sqrt(2*N_c*N_dep)/cell for the atoms in a cell
        cell = scales.d**3
        n_dep = _pointwise(lambda n: DEPLETION_COEFF * math.sqrt(n * config.a11**3) * n, n1)
        std = _pointwise(lambda n, dep: math.sqrt(2.0 * (n * cell) * (dep * cell)) / cell, n1, n_dep)
        cols.update(host=n1, stored=n2, depletion=n_dep, std=std)
    return cols


def _log10(x: float) -> float:
    return -math.inf if x == 0.0 else math.log10(x)


def figure_data(
    config: SystemConfig,
    fig: int,
    *,
    n_rows: int = 512,
) -> dict:
    """Columns of the energy- or density-budget tables, keyed by name, as lists.

    Each table samples n_rows radii out to FIGURE_SPAN*R for a full stored
    mode of n_stored_max atoms and computes only the columns it prints.  Radii
    come out in units of d (r_over_d), and every physical column gets a log10_
    companion.

    * fig 2, per-host-atom energies in units of hbar*omega: trap_hw V(r),
      host_coll_hw U11*n1, cross_coll_hw U12*n2 (felt by a host atom) and
      kinetic_hw K(r);
    * fig 3, per-stored-atom energies in units of hbar*omega:
      rescaled_kinetic_hw K*U12/U11 (felt by a stored atom) and
      stored_self_hw U22_tilde*n2;
    * fig 4, densities in atoms per d^3: host_per_d3 n1, stored_per_d3 n2,
      depletion_per_d3 the quantum depletion and std_per_d3 the density std,
      coarse-grained over a cell of d^3.
    """
    if fig not in (2, 3, 4):
        raise ValidationError(f"figure must be 2, 3, or 4, got {fig!r}")
    if n_rows < MIN_POINTS:
        raise ValidationError(f"figures need at least {MIN_POINTS} rows, got {n_rows}")
    if n_rows > MAX_POINTS:
        raise ValidationError(f"figures take at most {MAX_POINTS} rows, got {n_rows}")
    scales = derive_scales(config)
    host = tf_host(config, scales)
    r = RadialGrid(FIGURE_SPAN * host.radius, n_rows).r
    r_over_d = list(_pointwise(lambda x: x / scales.d, r))
    d3 = scales.d**3
    in_units = (lambda n: n * d3) if fig == 4 else (lambda e: e / scales.e_trap)
    suffix = "_per_d3" if fig == 4 else "_hw"
    physical = {name + suffix: list(_pointwise(in_units, values))
                for name, values in _budget(config, scales, host, r, {fig}).items()}
    logs = {"log10_" + name: [_log10(x) for x in values] for name, values in physical.items()}
    return {"r_over_d": r_over_d, **physical, **logs}


def _json_ratio(ratio: float):
    return ratio if math.isfinite(ratio) else None


def _check(ratio: float) -> dict:
    return {"ratio": _json_ratio(ratio), "ok": ratio < RATIO_THRESHOLD}


@record
class ValidityReport:
    """Worst-case ratios over 0 <= r <= R/2; a check passes where its ratio is below 1.

    The two-component mean-field check has two diagnostics (depletion and
    density std, each against the stored density) and passes only if both do.
    """

    single_tf_ratio: float  # K / (U11*n1)
    single_mf_ratio: float  # n_dep / n1
    two_tf_ratio: float  # K*U12/U11 / (U22_tilde*n*phi^2)
    two_mf_depletion_ratio: float  # n_dep / n2
    two_mf_std_ratio: float  # density std per cell / n2
    scan_radius: float  # m
    n_stored: int

    def to_dict(self) -> dict:
        """Plain JSON: a ratio that is not finite (an empty or underflowing mode) becomes None and fails."""
        dep, std = self.two_mf_depletion_ratio, self.two_mf_std_ratio
        return {
            "single_tf": _check(self.single_tf_ratio),
            "single_mf": _check(self.single_mf_ratio),
            "two_tf": _check(self.two_tf_ratio),
            "two_mf": {
                "depletion_ratio": _json_ratio(dep),
                "std_ratio": _json_ratio(std),
                "ok": dep < RATIO_THRESHOLD and std < RATIO_THRESHOLD,
            },
            "scan_radius_m": self.scan_radius,
            "n_stored": self.n_stored,
        }


def _worst(numerators, denominators) -> float:
    """Largest ratio as numpy.max of a/b gives it: inf where b is 0 (nan for 0/0), nan if any is nan."""
    ratios = [a / b if b else (math.inf if a else math.nan) for a, b in zip(numerators, denominators)]
    return math.nan if any(map(math.isnan, ratios)) else max(ratios)


def validity_report(config: SystemConfig) -> ValidityReport:
    """Evaluate all four checks where the stored mode lives (r up to R/2)."""
    scales = derive_scales(config)
    host = tf_host(config, scales)
    r = RadialGrid(0.5 * host.radius, SCAN_POINTS).r
    cols = _budget(config, scales, host, r, {2, 3, 4})
    # an empty mode, or one that underflows to 0, gives inf ratios (nan if U12 is 0 too): null, flag fails
    return ValidityReport(
        single_tf_ratio=_worst(cols["kinetic"], cols["host_coll"]),
        single_mf_ratio=_worst(cols["depletion"], cols["host"]),
        two_tf_ratio=_worst(cols["rescaled_kinetic"], cols["stored_self"]),
        two_mf_depletion_ratio=_worst(cols["depletion"], cols["stored"]),
        two_mf_std_ratio=_worst(cols["std"], cols["stored"]),
        scan_radius=r[-1],
        n_stored=config.n_stored_max,
    )
