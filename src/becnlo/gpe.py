"""Spherically symmetric ground-state solver for the Gross-Pitaevskii equation.

This module is deliberately independent of the closed-form results elsewhere
in the package so it can serve as a numerical cross-check.  The substitution
u(r) = r*psi(r) maps the radial problem onto a 1-d Schrodinger-like equation
on [0, r_max] with Dirichlet ends,

    mu u = -(hbar^2/2m) u'' + V(r) u + g (u/r)^2 u,

discretized once: H[u] is the tridiagonal matrix of the three-point stencil
plus V + g*(u/r)^2 on the diagonal, and every sum is the inner product
<a, b> = 4*pi*dr*sum(a_i*b_i).  Each step of the backward-Euler normalized
gradient flow (Bao & Du, SIAM J. Sci. Comput. 25, 1674 (2004)) solves
(I + (dt/hbar) H[u_n]) u_{n+1} = u_n and renormalizes to <u, u> = N.  The
energies come from the same matrix, E_kin = <u, T u> =
4*pi*dr*(hbar^2/2m dr^2)*sum (u_{i+1} - u_i)^2, E_pot = <u, V u>,
E_int = (g/2)*<u, (u/r)^2 u>, so mu = (E_kin + E_pot + 2*E_int)/N is the
Rayleigh quotient <u, H[u] u>/<u, u> and H[u] u = mu u holds at the fixed
point, which does not depend on dt.  Convergence is declared when mu moves by
less than `tol` (relative) in one step; the energy must never increase.  A
state whose density in the outer tenth of the box exceeds CLIP_DENSITY of its
peak raises GridError: the wall at r_max is squeezing the cloud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .errors import ConvergenceError, GridError, ValidationError
from .grids import ENERGY, WAVEFUNCTION, RadialField, RadialGrid, radial_integral
from .host_tf import DEFAULT_GRID_POINTS, GRID_SPAN_FACTOR, tf_density_at, tf_host
from .params import HBAR, DerivedScales, SystemConfig, derive_scales
from .stored_mode import StoredMode

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200_000
DT_TRAP_PERIODS = 1e-4  # default imaginary-time step, in curvature periods
ENERGY_SLACK = 1e-11  # relative rise of E tolerated as round-off at the plateau
CLIP_DENSITY = 1e-4  # largest density, relative to the peak, in the outer tenth of the box


@dataclass(frozen=True)
class GpeProblem:
    """One ground-state problem: external potential, coupling, atom number."""

    potential: RadialField  # J on the solver grid
    g: float  # J*m^3, contact coupling (>= 0)
    atom_count: float
    mass: float  # kg
    hbar: float = HBAR

    def __post_init__(self):
        if self.potential.unit != ENERGY:
            raise ValidationError(f"potential must carry unit {ENERGY!r}, got {self.potential.unit!r}")
        if self.g < 0:
            raise ValidationError(f"attractive coupling not supported, got g={self.g}")
        if not self.atom_count >= 1:
            raise ValidationError(f"atom_count must be >= 1, got {self.atom_count}")
        if not self.mass > 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")

    @property
    def grid(self) -> RadialGrid:
        return self.potential.grid


@dataclass(frozen=True)
class GpeSolution:
    """Converged ground state and its energy budget."""

    wavefunction: RadialField  # m^-3/2, normalized to the atom number
    mu: float  # J
    e_kinetic: float  # J (total, not per atom)
    e_potential: float  # J
    e_interaction: float  # J
    iterations: int
    mu_residual: float  # last relative mu change

    @property
    def energy(self) -> float:
        return self.e_kinetic + self.e_potential + self.e_interaction

    def central_density(self) -> float:
        return float(self.wavefunction.values[0] ** 2)


def virial_residual(solution: GpeSolution) -> float:
    """|2 E_kin - 2 E_pot + 3 E_int| / E_tot; zero for a harmonic trap."""
    val = 2.0 * solution.e_kinetic - 2.0 * solution.e_potential + 3.0 * solution.e_interaction
    return abs(val) / abs(solution.energy)


def harmonic_potential_field(config: SystemConfig, grid: RadialGrid) -> RadialField:
    return RadialField(grid, config.trap_potential(grid.r), ENERGY)


def host_problem(config: SystemConfig, scales: DerivedScales, grid: RadialGrid) -> GpeProblem:
    """The host gas: bare trap, U11, N host atoms."""
    return GpeProblem(
        potential=harmonic_potential_field(config, grid),
        g=scales.u11,
        atom_count=float(config.n_host),
        mass=config.species.mass,
        hbar=config.hbar,
    )


def stored_problem(
    config: SystemConfig,
    scales: DerivedScales,
    mu: float,
    grid: RadialGrid,
    idealized: bool = False,
) -> GpeProblem:
    """The stored component inside the host.

    The full potential is V(r) + U12*n1(r) with the clipped-parabola host;
    `idealized` keeps only the cancellation, i.e. the effective harmonic trap
    V(r)*(1 - U12/U11) with no cloud edge (plus an irrelevant constant).
    """
    r = grid.r
    if idealized:
        v = scales.eff_trap_factor * config.trap_potential(r)
    else:
        v = config.trap_potential(r) + scales.u12 * tf_density_at(config, scales, mu, r)
    return GpeProblem(
        potential=RadialField(grid, v, ENERGY),
        g=scales.u22,
        atom_count=float(max(config.n_stored_max, 1)),
        mass=config.species.mass,
        hbar=config.hbar,
    )


def _curvature_frequency(problem: GpeProblem):
    """Harmonic frequency matching the potential's curvature at the origin."""
    grid = problem.grid
    v = problem.potential.values
    vpp = 2.0 * (v[1] - v[0]) / grid.spacing**2
    if vpp <= 0.0:
        return None
    return math.sqrt(vpp / problem.mass)


def default_time_step(problem: GpeProblem) -> float:
    """DT_TRAP_PERIODS trap periods of the curvature-matched frequency."""
    omega = _curvature_frequency(problem)
    if omega is None:
        raise ValidationError(
            "cannot infer a time step from a flat potential; pass dt explicitly"
        )
    return DT_TRAP_PERIODS * 2.0 * math.pi / omega


def _inner(dr, a, b) -> float:
    """<a, b> = 4*pi*dr*sum(a_i*b_i), the solver's one quadrature."""
    return 4.0 * math.pi * dr * float(np.dot(a, b))


def _normalize(u, dr, atom_count):
    u *= math.sqrt(atom_count / _inner(dr, u, u))


def _initial_guess(problem: GpeProblem) -> np.ndarray:
    """Starting psi: strong-interaction profile smoothed at the edge, or a Gaussian for g=0."""
    grid = problem.grid
    r = grid.r
    v = problem.potential.values
    if problem.g > 0.0:
        # work in units of e_ref: the root sits at ~1e-30 J, far below
        # brentq's default absolute xtol
        volume = 4.0 * math.pi * grid.r_max**3 / 3.0
        e_ref = max(float(v.max() - v.min()), problem.g * problem.atom_count / volume)

        def defect(x):
            dens = np.clip((x * e_ref - v) / problem.g, 0.0, None)
            return radial_integral(r, dens) - problem.atom_count

        lo = float(v.min()) / e_ref  # defect(lo) = -N < 0
        hi = lo + 1.0
        span = 1.0
        while defect(hi) < 0.0:
            hi += span
            span *= 2.0
        mu_guess = brentq(defect, lo, hi, rtol=1e-12, maxiter=200) * e_ref
        f = mu_guess - v
        eps = 0.05 * (mu_guess - float(v.min()))
        psi = np.sqrt((f + np.sqrt(f * f + eps * eps)) / (2.0 * problem.g))
    else:
        omega = _curvature_frequency(problem)
        if omega is not None:
            width = math.sqrt(problem.hbar / (problem.mass * omega))
        else:
            width = grid.r_max / 6.0
        psi = np.exp(-0.5 * (r / width) ** 2)
    return psi


def solve_ground_state(
    problem: GpeProblem,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dt: float | None = None,
    initial_guess: np.ndarray | None = None,
) -> GpeSolution:
    """Imaginary-time propagation until mu stalls to `tol` (relative).

    Raises ConvergenceError if the iteration budget runs out or the energy
    rises by more than round-off, either of which means the step size or the
    grid is unsuitable, and GridError if the converged cloud reaches the wall.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    grid = problem.grid
    r = grid.r
    dr = grid.spacing
    v = problem.potential.values
    hbar = problem.hbar
    atom_count = problem.atom_count
    if dt is None:
        dt = default_time_step(problem)
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")

    if initial_guess is None:
        initial_guess = _initial_guess(problem)
    psi0 = np.asarray(initial_guess, dtype=float)
    if psi0.shape != r.shape:
        raise ValidationError(f"initial guess shape {psi0.shape} does not match grid ({r.size},)")
    u = r * psi0
    u[0] = 0.0
    u[-1] = 0.0
    _normalize(u, dr, atom_count)

    kin = hbar**2 / (2.0 * problem.mass * dr**2)
    lam = dt / hbar
    u_in = u[1:-1]  # view: the ends stay zero
    r_in = r[1:-1]
    v_in = v[1:-1]
    ab = np.zeros((3, grid.n_points - 2))
    ab[0, 1:] = -lam * kin
    ab[2, :-1] = -lam * kin

    dens_in = (u_in / r_in) ** 2
    mu = math.inf
    residual = math.inf
    e_prev = math.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        ab[1, :] = 1.0 + lam * (2.0 * kin + v_in + problem.g * dens_in)
        u_in[:] = solve_banded((1, 1), ab, u_in, check_finite=False)
        _normalize(u, dr, atom_count)

        dens_in = (u_in / r_in) ** 2
        du = np.diff(u)
        e_kin = kin * _inner(dr, du, du)
        e_pot = _inner(dr, v, u * u)
        e_int = 0.5 * problem.g * _inner(dr, dens_in, u_in * u_in)
        e_tot = e_kin + e_pot + e_int
        if e_tot > e_prev + abs(e_prev) * ENERGY_SLACK:
            raise ConvergenceError(
                f"energy rose from {e_prev:.12e} to {e_tot:.12e} J at step {iterations}; "
                "reduce dt",
                residual=residual,
                iterations=iterations,
            )
        e_prev = e_tot
        mu_new = (e_kin + e_pot + 2.0 * e_int) / atom_count
        residual = abs(mu_new - mu) / abs(mu_new)
        mu = mu_new
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"no convergence after {iterations} steps (last relative mu change "
            f"{residual:.3e}, tol {tol:.3e})",
            residual=residual,
            iterations=iterations,
        )

    psi = np.empty_like(u)
    psi[1:] = u[1:] / r[1:]
    psi[0] = (4.0 * psi[1] - psi[2]) / 3.0
    density = psi**2
    edge = float(density[r >= 0.9 * grid.r_max].max()) / float(density.max())
    if edge > CLIP_DENSITY:
        raise GridError(
            f"the ground state reaches the box wall: density in the outer tenth of "
            f"r_max={grid.r_max:g} m is {edge:.1e} of its peak (limit {CLIP_DENSITY:g}); "
            "enlarge the box"
        )
    return GpeSolution(
        wavefunction=RadialField(grid, psi, WAVEFUNCTION),
        mu=mu,
        e_kinetic=e_kin,
        e_potential=e_pot,
        e_interaction=e_int,
        iterations=iterations,
        mu_residual=residual,
    )


@dataclass(frozen=True)
class TfGpeComparison:
    """Side-by-side of the closed-form host parabola and the full ground state."""

    mu_tf: float
    mu_gpe: float
    mu_rel_err: float
    central_density_tf: float
    central_density_gpe: float
    central_density_rel_err: float
    l2_density_err: float  # relative L2 norm of the density difference
    virial: float
    iterations: int

    def to_dict(self) -> dict:
        return {
            "mu_tf_J": self.mu_tf,
            "mu_gpe_J": self.mu_gpe,
            "mu_rel_err": self.mu_rel_err,
            "central_density_tf_m3": self.central_density_tf,
            "central_density_gpe_m3": self.central_density_gpe,
            "central_density_rel_err": self.central_density_rel_err,
            "l2_density_err": self.l2_density_err,
            "virial_residual": self.virial,
            "iterations": self.iterations,
        }


def compare_tf_vs_gpe(
    config: SystemConfig,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    r_max_factor: float = GRID_SPAN_FACTOR,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dt: float | None = None,
) -> TfGpeComparison:
    """Solve the host numerically and quantify the clipped-parabola error."""
    scales = derive_scales(config)
    host = tf_host(config, scales, grid_points, r_max_factor)
    solution = solve_ground_state(
        host_problem(config, scales, host.grid), tol=tol, max_iters=max_iters, dt=dt
    )
    r = host.grid.r
    n_gpe = solution.wavefunction.values**2
    n_tf = host.density.values
    central_tf = host.mu / scales.u11
    central_gpe = solution.central_density()
    diff2 = radial_integral(r, (n_gpe - n_tf) ** 2)
    ref2 = radial_integral(r, n_tf**2)
    return TfGpeComparison(
        mu_tf=host.mu,
        mu_gpe=solution.mu,
        mu_rel_err=abs(solution.mu - host.mu) / host.mu,
        central_density_tf=central_tf,
        central_density_gpe=central_gpe,
        central_density_rel_err=abs(central_gpe - central_tf) / central_tf,
        l2_density_err=math.sqrt(diff2 / ref2),
        virial=virial_residual(solution),
        iterations=solution.iterations,
    )


@dataclass(frozen=True)
class StoredComparison:
    """Numerical stored-component ground state against the Gaussian ansatz."""

    overlap: float  # |<phi|psi>|^2 with both normalized to one
    mode_length: float  # m, the Gaussian width s
    solution: GpeSolution


def solve_stored_in_host(
    config: SystemConfig,
    *,
    idealized: bool = False,
    grid_points: int = DEFAULT_GRID_POINTS,
    r_max_factor: float = GRID_SPAN_FACTOR,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dt: float | None = None,
) -> StoredComparison:
    """Ground state of the stored component and its overlap with the Gaussian."""
    scales = derive_scales(config)
    host = tf_host(config, scales, grid_points, r_max_factor)
    problem = stored_problem(config, scales, host.mu, host.grid, idealized=idealized)
    solution = solve_ground_state(problem, tol=tol, max_iters=max_iters, dt=dt)
    mode = StoredMode.from_scales(scales)
    r = host.grid.r
    ov = radial_integral(r, mode.profile(r) * solution.wavefunction.values)
    return StoredComparison(
        overlap=float(ov**2 / problem.atom_count),
        mode_length=scales.s,
        solution=solution,
    )
