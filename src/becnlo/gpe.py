"""Spherically symmetric ground-state solver for the Gross-Pitaevskii equation.

Its solver, `solve_ground_state`, is deliberately independent of the
closed-form results elsewhere in the package so it can serve as a numerical
cross-check; the problem builders and reports are not: they read
`derive_scales`, `tf_host` and `tf_density_at`, and the stored problem's host
is the clipped parabola.  The module needs only the standard library.  The
substitution u(r) = r*psi(r) maps the radial problem
onto mu u = -(hbar^2/2m) u'' + V(r) u + g (u/r)^2 u on [0, r_max] with
Dirichlet ends, discretized once: H[u] is the tridiagonal matrix of the
three-point stencil plus V + g*(u/r)^2 on the diagonal, every sum is the inner
product <a, b> = 4*pi*dr*sum(a_i*b_i), E_kin = <u, T u> (T = hbar^2/2m dr^2),
E_pot = <u, V u>, E_int = (g/2)*<u, (u/r)^2 u>, and mu = (E_kin + E_pot +
2*E_int)/N is the Rayleigh quotient <u, H[u] u>/<u, u>.

Each iteration takes one step rule, the bordered Newton system of
H[u] u = mu u, <u, u> = N: it solves K du - u dmu = -(H[u] u - mu u),
<u, du> = 0, with K = H[u] - mu + 2g*diag((u/r)^2) + lambda, by one Thomas
factorization of K for two right-hand sides, and renormalizes u + du.
lambda = 0 is Newton's step, kept if every pivot of K is positive and the
residual falls.  Otherwise a fallback step climbs lambda = mu*residual,
2*mu*residual, ... (Levenberg, Q. Appl. Math. 2, 164 (1944); Marquardt,
J. SIAM 11, 431 (1963)) to the first step whose K factors and whose energy
does not rise by more than its round-off N*eps*(4*T + max(V - min V) + g*max n);
once lambda*EPS passes K's scale 4*T + max(V - min V) + 3g*max n, the step is
round-off and the solve raises ConvergenceError.  With g = 0, K is never
positive definite at lambda = 0, so linear problems climb alone, and the
step is inverse iteration shifted to mu - lambda, which needs no time step
(Henning & Peterseim, SIAM J. Numer. Anal. 58, 1744 (2020); Altmann, Henning
& Peterseim, Numer. Math. 148, 575 (2021)).  The loop stops when the residual ||H[u] u - mu u||/(|mu - min V|
||u||) falls below DEFAULT_TOL, or below its round-off floor
eps*(4*T + max(V - min V) + g*max n)/|mu - min V| if larger.  All energies,
lambda too, are measured from min V: H[u] - min V is positive definite, and
no constant in V moves the steps or the stop.  A solution whose density in
the outer tenth of the box exceeds CLIP_DENSITY of its peak raises GridError:
the wall at r_max squeezes it.  Only the caller's grid is checked.

The start for g > 0 on a grid of n points is a solve of the same problem on
every k-th point, k = (n - 1) // (COARSE_POINTS - 1), with V sliced from the
fine values, to the fine grid's stop, its psi interpolated linearly onto the
fine grid (grid sequencing: Newton's step count does not depend on the mesh,
Allgower, Boehmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 160 (1986)),
so the fine grid takes one Newton step where it took two to four.  For k < 2,
for g = 0 (the fallback step gains nothing from it), or if the coarse solve
does not converge, the start is the lower-energy of two guesses from the
curvature c of V at min V (refused if V is flat there, or lowest at the box
wall): its Gaussian, and the smoothed Thomas-Fermi profile of the harmonic
closed form mu = (15*g*N/(8*pi))^(2/5)*(c/2)^(3/5).
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from collections import namedtuple
from operator import mul, sub, truediv

from ._record import record
from .errors import ConvergenceError, GridError, ValidationError, _all_finite, _pointwise
from .grids import RadialGrid, radial_integral
from .host_tf import tf_density_at, tf_host
from .params import DEFAULT_GRID_POINTS, GRID_SPAN_FACTOR, HBAR, DerivedScales, SystemConfig, derive_scales

DEFAULT_TOL = 1e-10
# slowest solve that fuzzing the oracle found: 45 steps (5 Newton, 40 fallback), the 683-point coarse level of
# `oracle --stored --idealized` at 4,096 points on sodium with README's exact keys (a12_m = 0.99*a11_m)
DEFAULT_MAX_ITERS = 5_000
EPS = sys.float_info.epsilon
CLIP_DENSITY = 1e-4  # largest density, relative to the peak, in the outer tenth of the box
COARSE_POINTS = 640  # the coarse grid that starts a solve keeps at least this many points
MIN_MODE_SPACINGS = 4.0  # the stored oracle refuses a grid whose spacing exceeds s / this


@record
class GpeProblem:
    """One ground-state problem: grid, external potential, coupling, atom number.

    The potential is copied into a tuple of floats, one finite value per grid point.
    """

    grid: RadialGrid
    potential: tuple  # J at each radius of the grid
    g: float  # J*m^3, contact coupling (>= 0)
    atom_count: float
    mass: float  # kg

    def __post_init__(self):
        potential = tuple(map(float, self.potential))
        if len(potential) != self.grid.n_points:
            raise ValidationError(
                f"potential shape ({len(potential)},) does not match grid ({self.grid.n_points},)"
            )
        if not _all_finite(potential):
            raise ValidationError("potential contains non-finite values")
        object.__setattr__(self, "potential", potential)
        if not 0.0 <= self.g < math.inf:
            raise ValidationError(f"g must be finite and >= 0 (attractive coupling not supported), got {self.g}")
        if not 1.0 <= self.atom_count < math.inf:
            raise ValidationError(f"atom_count must be finite and >= 1, got {self.atom_count}")
        if not 0.0 < self.mass < math.inf:
            raise ValidationError(f"mass must be positive and finite, got {self.mass}")


@record
class GpeSolution:
    """Converged ground state, its energy budget, and how the solve stopped."""

    psi: tuple  # m^-3/2 on the problem's grid, normalized to the atom number
    mu: float  # J
    e_kinetic: float  # J (total, not per atom)
    e_potential: float  # J
    e_interaction: float  # J
    residual: float  # ||H[u] u - mu u|| / (|mu - min V| ||u||) at the returned state
    stop: str  # "tol" if the residual fell below DEFAULT_TOL, "floor" if only below the round-off floor
    floor: float  # eps*(4*T + max(V - min V) + g*max n)/|mu - min V|, the residual's round-off floor
    newton_steps: int  # on this grid only, as are fallback_steps: the coarse start's steps are not counted
    fallback_steps: int
    coarse_points: int  # points of the coarse grid the start was solved on, 0 if it was a guess

    @property
    def iterations(self) -> int:
        return self.newton_steps + self.fallback_steps

    @property
    def energy(self) -> float:
        return self.e_kinetic + self.e_potential + self.e_interaction


def virial_residual(solution: GpeSolution) -> float:
    """|2 E_kin - 2 E_pot + 3 E_int| / E_tot; zero for a harmonic trap."""
    val = 2.0 * solution.e_kinetic - 2.0 * solution.e_potential + 3.0 * solution.e_interaction
    return abs(val) / abs(solution.energy)


def _trap_values(config: SystemConfig, r) -> list:
    """V(r) = k*r^2 at each radius, with k = config.trap_k read once."""
    k = config.trap_k
    return [k * (x * x) for x in r]


def host_problem(config: SystemConfig, scales: DerivedScales, grid: RadialGrid) -> GpeProblem:
    """The host gas: bare trap, U11, N host atoms."""
    return GpeProblem(
        grid=grid,
        potential=_trap_values(config, grid.r),
        g=scales.u11,
        atom_count=float(config.n_host),
        mass=config.mass,
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
    v = _trap_values(config, grid.r)
    if idealized:
        v = [scales.eff_trap_factor * x for x in v]
    else:
        v = [x + scales.u12 * n for x, n in zip(v, tf_density_at(config, scales, mu, grid.r))]
    return GpeProblem(
        grid=grid,
        potential=v,
        g=scales.u22,
        atom_count=float(max(config.n_stored_max, 1)),
        mass=config.mass,
    )


def _inner(dr, a, b) -> float:
    """<a, b> = 4*pi*dr*sum(a_i*b_i), the solver's one quadrature."""
    return 4.0 * math.pi * dr * sum(map(mul, a, b))


def _initial_guesses(problem: GpeProblem, r, v) -> list:
    """Starting psi: the Gaussian of v = V - min V's curvature at min V and, for g > 0, its TF profile, smoothed."""
    i = min(range(len(v)), key=v.__getitem__)
    if i == len(v) - 1:
        raise ValidationError("cannot set the start guesses: the potential is lowest at the box wall")
    dr2 = problem.grid.spacing**2  # at i = 0, V is even about r = 0: v[1] stands on both sides
    curvature = _pointwise(
        lambda a, b, c: (a - 2.0 * b + c) / dr2, v[i + 1], v[i], v[abs(i - 1)], what="the curvature of V at min V"
    )
    if curvature <= 0.0:
        raise ValidationError("cannot set the start guesses from a flat potential")
    m = problem.mass
    width = _pointwise(
        lambda c: math.sqrt(HBAR / (m * math.sqrt(c / m))), curvature, what="the Gaussian guess's width"
    )
    guesses = [[math.exp(-0.5 * (x / width) ** 2) for x in r]]
    if problem.g > 0.0:
        # powers below 1 raise nothing: out of range, mu_guess is inf, and the start drops its guess
        mu_guess = (15.0 * problem.g * problem.atom_count / (8.0 * math.pi)) ** 0.4 * (0.5 * curvature) ** 0.6
        eps = 0.05 * mu_guess
        two_g = 2.0 * problem.g
        guesses.append([math.sqrt((f + math.hypot(f, eps)) / two_g) for f in (mu_guess - x for x in v)])
    return guesses


def _thomas(off: float, diag, *rhs):
    """x with A x = b for each b in rhs, A symmetric tridiagonal with constant off-diagonal `off`.

    One LDL^T factorization without pivoting (the Thomas algorithm) serves every
    b.  None at a pivot that is not positive: A is not positive definite, or not finite.
    """
    pivots, ratios, ratio = [], [], 0.0  # ratios: off/pivot, the entries of L below the diagonal
    for a in diag:
        pivot = a - off * ratio
        if not pivot > 0.0:
            return None
        ratio = off / pivot
        pivots.append(pivot)
        ratios.append(ratio)
    solutions = []
    for b in rhs:
        y, ys = 0.0, []
        for q, bi in zip((0.0, *ratios), b):  # L y = b
            y = bi - q * y
            ys.append(y)
        x, xs = 0.0, []
        for yi, p, q in zip(reversed(ys), reversed(pivots), reversed(ratios)):  # D L^T x = y
            x = yi / p - q * x
            xs.append(x)
        solutions.append(xs[::-1])
    return solutions


# normalized u (ends included); inside, g*(u/r)^2 and H[u] u - mu u; mu and the energies from min V; the residual
_State = namedtuple("_State", "u nonlinear stationary mu e_kinetic e_potential e_interaction energy residual")


def solve_ground_state(problem: GpeProblem) -> GpeSolution:
    """Newton or fallback steps until ||H[u] u - mu u||/(|mu - min V| ||u||) < max(DEFAULT_TOL, floor).

    The solution's step counts are this grid's only.  Raises ConvergenceError
    if DEFAULT_MAX_ITERS steps do not converge or no shift of a fallback step
    short of K's round-off scale keeps the energy from rising, GridError if
    the solution reaches the wall of this grid, and ValidationError if the
    guesses meet a flat potential or one lowest at the box wall, or the start's
    scales are out of floating-point range.
    """
    solution = _solve(problem)
    grid, psi = problem.grid, solution.psi
    edge = (max(map(abs, psi[bisect_left(grid.r, 0.9 * grid.r_max) :])) / max(map(abs, psi))) ** 2
    if edge > CLIP_DENSITY:
        raise GridError(
            f"the ground state reaches the box wall: density in the outer tenth of "
            f"r_max={grid.r_max:g} m is {edge:.1e} of its peak (limit {CLIP_DENSITY:g}); "
            "the box is too small for this ground state"
        )
    return solution


def _coarse_start(problem: GpeProblem):
    """(points, psi): the problem solved on every k-th point, its psi interpolated onto the grid.

    The coarse solve stops where the fine grid does.  (0, None) if the grid
    has fewer than 2*(COARSE_POINTS - 1) intervals, if g = 0, where every
    step is a fallback step and the guess takes a handful, or if the coarse
    solve does not converge: an unresolved guess may stop it where the fine
    grid converges.  The wall is not checked here: a start is not an answer.
    """
    n = problem.grid.n_points
    k = (n - 1) // (COARSE_POINTS - 1)
    if k < 2 or problem.g == 0.0:
        return 0, None
    points = (n - 1) // k + 1
    last = (points - 1) * k  # the coarse grid covers [0, r[last]]
    grid = RadialGrid(problem.grid.r[last], points)
    coarse = GpeProblem(grid, problem.potential[: last + 1 : k], problem.g, problem.atom_count, problem.mass)
    try:
        psi = _solve(coarse).psi
    except ConvergenceError:
        return 0, None
    weights = [i / k for i in range(k)]
    fine = [a + w * (b - a) for a, b in zip(psi, psi[1:]) for w in weights]
    return points, fine + [0.0] * (n - last)  # psi is 0 at the coarse wall and beyond


def _solve(problem: GpeProblem) -> GpeSolution:
    grid = problem.grid
    r, dr = grid.r, grid.spacing
    g, atom_count = problem.g, problem.atom_count

    kin = _pointwise(
        lambda dr: HBAR**2 / (2.0 * problem.mass * dr**2), dr, what="the kinetic scale hbar^2/(2m dr^2)"
    )
    two_kin = 2.0 * kin
    v_min = min(problem.potential)  # every energy below is measured from it
    v = [x - v_min for x in problem.potential]
    r_in, v_in = r[1:-1], v[1:-1]  # the ends of u stay zero
    linear_scale = 4.0 * kin + max(v)  # bounds |H u| without the mean field
    u_norm = math.sqrt(atom_count / (4.0 * math.pi * dr))  # ||u|| of a normalized u

    def state(u):
        """The _State of u renormalized to <u, u> = N; None if u has no finite, nonzero norm."""
        norm2 = _inner(dr, u, u)
        if not 0.0 < norm2 < math.inf:
            return None
        scale = math.sqrt(atom_count / norm2)
        u = [scale * x for x in u]
        u_in = u[1:-1]
        nonlinear = [g * (t * t) for t in map(truediv, u_in, r_in)]
        du = list(map(sub, u[1:], u[:-1]))
        uu = [x * x for x in u_in]
        e_kin = kin * _inner(dr, du, du)
        e_pot = _inner(dr, v_in, uu)
        e_int = 0.5 * _inner(dr, nonlinear, uu)
        mu = (e_kin + e_pot + 2.0 * e_int) / atom_count
        stationary = [
            kin * (a - b) + (vi + n - mu) * x for a, b, vi, n, x in zip(du, du[1:], v_in, nonlinear, u_in)
        ]
        residual = math.sqrt(sum(map(mul, stationary, stationary))) / (abs(mu) * u_norm)
        return _State(u, nonlinear, stationary, mu, e_kin, e_pot, e_int, e_kin + e_pot + e_int, residual)

    def step(s, lam):
        """u + du renormalized, du solved with K = H[u] - mu + 2g*diag((u/r)^2) + lam; None if K fails."""
        u_in = s.u[1:-1]
        shift = lam - s.mu
        k_diag = [two_kin + vi + 3.0 * n + shift for vi, n in zip(v_in, s.nonlinear)]
        solved = _thomas(-kin, k_diag, s.stationary, u_in)  # K^-1 (H u - mu u) and K^-1 u
        if solved is None:
            return None
        a, b = solved
        dmu = sum(map(mul, u_in, a)) / sum(map(mul, u_in, b))  # <u, du> = 0 for du = dmu*b - a
        return state([0.0, *(x + dmu * bi - ai for x, ai, bi in zip(u_in, a, b)), 0.0])

    # the start: the coarse psi or the lower-energy guess with a finite norm, refused unless 0 < residual < inf.
    # An energy scale out of range makes a guess or the residual inf or nan, and no step would lower it;
    # or it underflows H[u] u - mu u to 0, and the start would pass the stop as it is.
    coarse_points, psi = _coarse_start(problem)
    guesses = [psi] if coarse_points else _initial_guesses(problem, r, v)
    starts = [s for s in (state([0.0, *map(mul, r_in, guess[1:-1]), 0.0]) for guess in guesses) if s]
    if not starts:
        raise ValidationError("no initial guess has a finite, nonzero norm on the grid")
    current = min(starts, key=lambda s: s.energy)
    if not 0.0 < current.residual < math.inf:
        raise ValidationError(f"the energy scale of {atom_count:g} atoms is out of floating-point range")
    round_off = EPS * (linear_scale + max(current.nonlinear))  # round-off of E/N; over |mu|, the floor

    iterations = newton_steps = fallback_steps = 0
    for iterations in range(1, DEFAULT_MAX_ITERS + 1):
        candidate = step(current, 0.0)
        if candidate is not None and candidate.residual < current.residual:
            current = candidate
            newton_steps += 1
        else:
            lam = current.mu * current.residual
            scale = linear_scale + 3.0 * max(current.nonlinear)  # K's scale: past lam = scale/EPS, K is lam
            while 0.0 < lam < scale / EPS:  # a lam of 0 never grows
                stepped = step(current, lam)
                if stepped is not None and stepped.energy <= current.energy + atom_count * round_off:
                    break  # a nan energy fails the test
                lam *= 2.0
            else:
                raise ConvergenceError(
                    f"no fallback step lowers the energy at step {iterations}",
                    residual=current.residual,
                    iterations=iterations,
                )
            current = stepped
            fallback_steps += 1
        round_off = EPS * (linear_scale + max(current.nonlinear))
        floor = round_off / abs(current.mu)
        if current.residual < max(DEFAULT_TOL, floor):
            break
    else:
        raise ConvergenceError(
            f"no convergence after {iterations} steps (last residual "
            f"{current.residual:.3e}, tol {DEFAULT_TOL:.3e})",
            residual=current.residual,
            iterations=iterations,
        )

    psi = list(map(truediv, current.u[1:], r[1:]))
    psi = ((4.0 * psi[0] - psi[1]) / 3.0, *psi)
    return GpeSolution(
        psi=psi,
        mu=current.mu + v_min,
        e_kinetic=current.e_kinetic,
        e_potential=current.e_potential + atom_count * v_min,
        e_interaction=current.e_interaction,
        residual=current.residual,
        stop="tol" if current.residual < DEFAULT_TOL else "floor", floor=floor,
        newton_steps=newton_steps, fallback_steps=fallback_steps, coarse_points=coarse_points,
    )


@record
class TfGpeComparison:
    """Side-by-side of the closed-form host parabola and the full ground state."""

    mu_tf: float
    central_density_tf: float
    l2_density_err: float  # relative L2 norm of the density difference
    solution: GpeSolution

    def to_dict(self) -> dict:
        sol = self.solution
        central_density_gpe = sol.psi[0] ** 2  # finite: compare_tf_vs_gpe refuses an inf p * p
        return {
            "mu_tf_J": self.mu_tf,
            "mu_gpe_J": sol.mu,
            "mu_rel_err": abs(sol.mu - self.mu_tf) / self.mu_tf,
            "central_density_tf_m3": self.central_density_tf,
            "central_density_gpe_m3": central_density_gpe,
            "central_density_rel_err": abs(central_density_gpe - self.central_density_tf)
            / self.central_density_tf,
            "l2_density_err": self.l2_density_err,
            "virial_residual": virial_residual(sol),
            "iterations": sol.iterations,
        }


def _oracle_setup(config: SystemConfig, grid_points: int):
    """(scales, host, grid): the closed-form host and the oracle's grid over GRID_SPAN_FACTOR radii."""
    scales = derive_scales(config)
    host = tf_host(config, scales)
    return scales, host, RadialGrid(GRID_SPAN_FACTOR * host.radius, grid_points)


def compare_tf_vs_gpe(config: SystemConfig, *, grid_points: int = DEFAULT_GRID_POINTS) -> TfGpeComparison:
    """Solve the host numerically and quantify the clipped-parabola error."""
    scales, host, grid = _oracle_setup(config, grid_points)
    solution = solve_ground_state(host_problem(config, scales, grid))
    r = grid.r
    n_tf = tf_density_at(config, scales, host.mu, r)
    what = "the L2 density error"
    diff2 = radial_integral(r, _pointwise(lambda p, n: (p * p - n) ** 2, solution.psi, n_tf, what=what))
    ref2 = radial_integral(r, [n * n for n in n_tf])
    return TfGpeComparison(
        mu_tf=host.mu,
        central_density_tf=n_tf[0],  # mu/U11: V(0) = 0
        l2_density_err=_pointwise(lambda a, b: math.sqrt(a / b), diff2, ref2, what=what),
        solution=solution,
    )


@record
class StoredComparison:
    """Numerical stored-component ground state against the Gaussian ansatz."""

    overlap: float  # |<phi|psi>|^2 with both normalized to one
    mode_length: float  # m, the Gaussian width s
    solution: GpeSolution
    idealized: bool  # solved in the cancelled harmonic trap alone, with no cloud edge

    def to_dict(self) -> dict:
        sol = self.solution
        payload = {"overlap": self.overlap, "mode_length_m": self.mode_length,
                   "mu_J": sol.mu, "residual": sol.residual, "iterations": sol.iterations}
        if self.idealized:  # the virial identity holds only in a harmonic potential
            payload["virial_residual"] = virial_residual(sol)
        return payload


def solve_stored_in_host(
    config: SystemConfig, *, idealized: bool = False, grid_points: int = DEFAULT_GRID_POINTS
) -> StoredComparison:
    """Ground state of the stored component and its overlap with the Gaussian.

    Raises GridError before solving if the grid, which spans the host cloud,
    resolves the mode length s with fewer than MIN_MODE_SPACINGS spacings.
    """
    from .stored_mode import StoredMode  # loaded here: the host oracle does not need it

    scales, host, grid = _oracle_setup(config, grid_points)
    if not scales.s >= MIN_MODE_SPACINGS * grid.spacing:
        raise GridError(
            f"the grid does not resolve the stored mode: s = {scales.s:g} m is "
            f"{scales.s / grid.spacing:.3g} spacings of {grid.spacing:g} m (need at least "
            f"{MIN_MODE_SPACINGS:g}); the host cloud is too wide for {grid_points} points"
        )
    problem = stored_problem(config, scales, host.mu, grid, idealized=idealized)
    solution = solve_ground_state(problem)
    mode = StoredMode(scales.s)
    r = grid.r
    ov = radial_integral(r, list(map(mul, mode.profile(r), solution.psi)))
    return StoredComparison(
        overlap=_pointwise(lambda ov: ov**2 / problem.atom_count, ov, what="the overlap"),
        mode_length=scales.s,
        solution=solution,
        idealized=idealized,
    )
