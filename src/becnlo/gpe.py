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
(I + (dt/hbar) (H[u_n] - min V)) u_{n+1} = u_n by cyclic reduction and
renormalizes to <u, u> = N; the shift by min V leaves the ground state
unchanged and makes the matrix strictly diagonally dominant.  dt starts at
`default_time_step` and doubles each step up to DT_GROWTH_CAP times that
start.  The energies come from the same matrix,
E_kin = <u, T u> = 4*pi*dr*(hbar^2/2m dr^2)*sum (u_{i+1} - u_i)^2,
E_pot = <u, V u>, E_int = (g/2)*<u, (u/r)^2 u>, so mu = (E_kin + E_pot +
2*E_int)/N is the Rayleigh quotient <u, H[u] u>/<u, u>.  The loop stops when
the stationary residual ||H[u] u - mu u||/||mu u|| falls below `tol`, or below
its round-off floor eps*(4*T + max|V| + g*max n)/|mu| (T = hbar^2/2m dr^2) if
that is larger; the energy must never increase.  A state whose density in
the outer tenth of the box exceeds CLIP_DENSITY of its peak raises GridError:
the wall at r_max is squeezing the cloud.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import record
from .errors import ConvergenceError, GridError, ValidationError
from .grids import ENERGY, WAVEFUNCTION, RadialField, RadialGrid, radial_integral
from .host_tf import tf_density_at, tf_host
from .params import DEFAULT_GRID_POINTS, GRID_SPAN_FACTOR, HBAR, DerivedScales, SystemConfig, derive_scales
from .stored_mode import StoredMode

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITERS = 200_000
DT_TRAP_PERIODS = 1e-4  # default first imaginary-time step, in curvature periods
DT_GROWTH_CAP = 1e3  # the step doubles each iteration up to this multiple of the first
EPS = float(np.finfo(float).eps)
ENERGY_SLACK = 1e-11  # relative rise of E tolerated as round-off at the plateau
CLIP_DENSITY = 1e-4  # largest density, relative to the peak, in the outer tenth of the box


@record
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


@record
class GpeSolution:
    """Converged ground state and its energy budget."""

    grid: RadialGrid
    psi: np.ndarray  # m^-3/2 on the grid, normalized to the atom number; read-only
    mu: float  # J
    e_kinetic: float  # J (total, not per atom)
    e_potential: float  # J
    e_interaction: float  # J
    iterations: int
    residual: float  # ||H[u] u - mu u|| / ||mu u|| at the returned state

    @property
    def energy(self) -> float:
        return self.e_kinetic + self.e_potential + self.e_interaction

    @cached_property
    def wavefunction(self) -> RadialField:
        return RadialField(self.grid, self.psi.tolist(), WAVEFUNCTION)


def virial_residual(solution: GpeSolution) -> float:
    """|2 E_kin - 2 E_pot + 3 E_int| / E_tot; zero for a harmonic trap."""
    val = 2.0 * solution.e_kinetic - 2.0 * solution.e_potential + 3.0 * solution.e_interaction
    return abs(val) / abs(solution.energy)


def harmonic_potential_field(config: SystemConfig, grid: RadialGrid) -> RadialField:
    return RadialField(grid, config.trap_potential(np.asarray(grid.r, dtype=float)).tolist(), ENERGY)


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
    v = config.trap_potential(np.asarray(grid.r, dtype=float))
    if idealized:
        v = scales.eff_trap_factor * v
    else:
        v = v + scales.u12 * np.asarray(tf_density_at(config, scales, mu, grid.r), dtype=float)
    return GpeProblem(
        potential=RadialField(grid, v.tolist(), ENERGY),
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


def _thomas_fermi_mu(problem: GpeProblem, r, v) -> float:
    """mu with N = (4*pi*dr/g) * sum r_i^2 max(mu - v_i, 0), the solver's inner product.

    N(mu) is linear between the sorted v_i: solve the piece that holds N.  The
    last of equal breaks is taken, so the piece's weight (tied v_i, r = 0) is positive.
    """
    order = np.argsort(v)
    v = v[order]
    dv = v - v[0]  # measured from min V, so the sums keep the digits of mu - min V
    r2 = r[order] ** 2
    weight = np.cumsum(r2)
    moment = np.cumsum(r2 * dv)
    target = problem.atom_count * problem.g / (4.0 * math.pi * problem.grid.spacing)
    k = int(np.searchsorted(dv * weight - moment, target, side="right")) - 1
    return float(v[0] + (target + moment[k]) / weight[k])


def _initial_guess(problem: GpeProblem, r, v) -> np.ndarray:
    """Starting psi: strong-interaction profile smoothed at the edge, or a Gaussian for g=0."""
    if problem.g > 0.0:
        mu_guess = _thomas_fermi_mu(problem, r, v)
        f = mu_guess - v
        eps = 0.05 * (mu_guess - float(v.min()))
        psi = np.sqrt((f + np.sqrt(f * f + eps * eps)) / (2.0 * problem.g))
    else:
        omega = _curvature_frequency(problem)
        if omega is not None:
            width = math.sqrt(problem.hbar / (problem.mass * omega))
        else:
            width = problem.grid.r_max / 6.0
        psi = np.exp(-0.5 * (r / width) ** 2)
    return psi


def _cyclic_reduction_solver(n: int):
    """solve(off, diag, rhs) for the symmetric tridiagonal system of n unknowns.

    Cyclic reduction (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 627
    (1970)) without pivoting, so the matrix must be diagonally dominant.  The
    system is padded to 2^k - 1 unknowns with identity rows between ghost ends
    x[0] = x[2^k] = 0.  Level s eliminates rows i - s and i + s from the rows
    i that are multiples of 2s; back-substitution runs the levels in reverse.
    `off` is a scalar or the n - 1 off-diagonal entries.  The buffers and
    their per-level views are made here, once; the returned solution is a
    view that the next call overwrites.
    """
    m = 1 << n.bit_length()  # 2^k > n
    lower = np.zeros(m + 1)  # at level s, row i couples to row i - s
    upper = np.zeros(m + 1)  # and to row i + s
    diag = np.ones(m + 1)
    x = np.zeros(m + 1)  # right-hand side, reduced in place into the solution
    forward = []
    s = 1
    while 2 * s < m:
        i, lo, hi = slice(2 * s, m, 2 * s), slice(s, m - 2 * s, 2 * s), slice(3 * s, m, 2 * s)
        forward.append(tuple(buf[rows] for rows in (i, lo, hi) for buf in (lower, upper, diag, x)))
        s *= 2
    backward = []
    while s >= 1:
        j, lo, hi = slice(s, m, 2 * s), slice(0, m - s, 2 * s), slice(2 * s, m + 1, 2 * s)
        backward.append((lower[j], upper[j], diag[j], x[j], x[lo], x[hi]))
        s //= 2

    def solve(off, d, rhs):
        lower[2 : n + 1] = off
        upper[1:n] = off
        diag[1 : n + 1] = d
        x[1 : n + 1] = rhs
        for li, ui, di, xi, llo, ulo, dlo, xlo, lhi, uhi, dhi, xhi in forward:
            a = -li / dlo  # eliminates x[i - s] from row i
            c = -ui / dhi  # and x[i + s]
            di += a * ulo + c * lhi
            xi += a * xlo + c * xhi
            np.multiply(a, llo, out=li)  # row i now couples to i - 2s
            np.multiply(c, uhi, out=ui)  # and to i + 2s
        for lj, uj, dj, xj, xlo, xhi in backward:
            xj -= lj * xlo + uj * xhi
            xj /= dj
        return x[1 : n + 1]

    return solve


def solve_ground_state(
    problem: GpeProblem,
    *,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    dt: float | None = None,
    initial_guess: np.ndarray | None = None,
) -> GpeSolution:
    """Normalized gradient flow until ||H[u] u - mu u||/||mu u|| < max(tol, floor).

    `dt` is the first step (default `default_time_step`).  Raises
    ConvergenceError if the iteration budget runs out or the energy rises by
    more than round-off, either of which means the step size or the grid is
    unsuitable, and GridError if the converged cloud reaches the wall.
    """
    if not tol > 0:
        raise ValidationError(f"tol must be positive, got {tol}")
    grid = problem.grid
    r = np.asarray(grid.r, dtype=float)  # the grid and the potential as arrays, once per solve
    dr = grid.spacing
    v = np.asarray(problem.potential.values, dtype=float)
    hbar = problem.hbar
    atom_count = problem.atom_count
    if dt is None:
        dt = default_time_step(problem)
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    dt_max = DT_GROWTH_CAP * dt

    if initial_guess is None:
        initial_guess = _initial_guess(problem, r, v)
    psi0 = np.asarray(initial_guess, dtype=float)
    if psi0.shape != r.shape:
        raise ValidationError(f"initial guess shape {psi0.shape} does not match grid ({r.size},)")
    u = r * psi0
    u[0] = 0.0
    u[-1] = 0.0
    _normalize(u, dr, atom_count)

    kin = hbar**2 / (2.0 * problem.mass * dr**2)
    u_in = u[1:-1]  # view: the ends stay zero
    r_in = r[1:-1]
    v_in = v[1:-1]
    # the stepped matrix sees V - min V: same ground state, diagonally dominant,
    # and a large constant offset no longer caps the contraction per step
    v_step = v_in - float(v.min())
    linear_scale = 4.0 * kin + float(np.abs(v).max())  # bounds |H u| without the mean field
    u_norm = math.sqrt(atom_count / (4.0 * math.pi * dr))  # ||u||, fixed by _normalize

    nonlinear = problem.g * (u_in / r_in) ** 2
    residual = math.inf
    e_prev = math.inf
    iterations = 0
    solve = _cyclic_reduction_solver(u_in.size)
    for iterations in range(1, max_iters + 1):
        lam = dt / hbar
        # symmetric and strictly diagonally dominant (V - min V >= 0, g n >= 0),
        # so cyclic reduction needs no pivoting
        u_in[:] = solve(-lam * kin, 1.0 + lam * (2.0 * kin + v_step + nonlinear), u_in)
        _normalize(u, dr, atom_count)
        dt = min(2.0 * dt, dt_max)

        nonlinear = problem.g * (u_in / r_in) ** 2
        du = u[1:] - u[:-1]
        uu = u_in * u_in
        e_kin = kin * _inner(dr, du, du)
        e_pot = _inner(dr, v_in, uu)
        e_int = 0.5 * _inner(dr, nonlinear, uu)
        e_tot = e_kin + e_pot + e_int
        if e_tot > e_prev + abs(e_prev) * ENERGY_SLACK:
            raise ConvergenceError(
                f"energy rose from {e_prev:.12e} to {e_tot:.12e} J at step {iterations}; "
                "reduce dt",
                residual=residual,
                iterations=iterations,
            )
        e_prev = e_tot
        mu = (e_kin + e_pot + 2.0 * e_int) / atom_count
        stationary = kin * (du[:-1] - du[1:]) + (v_in + nonlinear - mu) * u_in  # H[u] u - mu u
        residual = math.sqrt(float(np.dot(stationary, stationary))) / (abs(mu) * u_norm)
        floor = EPS * (linear_scale + float(nonlinear.max())) / abs(mu)
        if residual < max(tol, floor):
            break
    else:
        raise ConvergenceError(
            f"no convergence after {iterations} steps (last residual "
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
    psi.setflags(write=False)
    return GpeSolution(
        grid=grid,
        psi=psi,
        mu=mu,
        e_kinetic=e_kin,
        e_potential=e_pot,
        e_interaction=e_int,
        iterations=iterations,
        residual=residual,
    )


@record
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
    n_tf = np.asarray(tf_density_at(config, scales, host.mu, r), dtype=float)
    central_tf = host.mu / scales.u11
    central_gpe = float(solution.psi[0] ** 2)
    diff2 = radial_integral(r, ((solution.psi**2 - n_tf) ** 2).tolist())
    ref2 = radial_integral(r, (n_tf**2).tolist())
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


@record
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
    ov = radial_integral(r, (np.asarray(mode.profile(r), dtype=float) * solution.psi).tolist())
    return StoredComparison(
        overlap=float(ov**2 / problem.atom_count),
        mode_length=scales.s,
        solution=solution,
    )
