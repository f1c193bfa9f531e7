"""Ground-state solver: analytic limits, invariances, comparisons, certificates.

Newton's step and the fallback step (damped, shifted inverse iteration)
converge to the same discrete stationary state, so the answer must not depend
on which of them took the solve there, and halving the grid spacing must
barely move the chemical potential.  The g = 0
oscillator and the virial identity pin down the kinetic/potential bookkeeping
independently, and a dense eigensolver certifies that the state found is the
ground state, not an excited one.
"""

import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from becnlo import (
    HBAR,
    ConvergenceError,
    GridError,
    RadialGrid,
    ValidationError,
    compare_tf_vs_gpe,
    config_from_dict,
    derive_scales,
    solve_stored_in_host,
    tf_host,
    virial_residual,
)
import becnlo.gpe as gpe
from becnlo.gpe import (
    COARSE_POINTS,
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    GRID_SPAN_FACTOR,
    GpeProblem,
    GpeSolution,
    TfGpeComparison,
    _initial_guesses,
    host_problem,
    solve_ground_state,
    stored_problem,
)
from becnlo.params import SODIUM_REFERENCE
from reference import lowest_eigenpair


@pytest.fixture(scope="module")
def oscillator(config, scales):
    grid = RadialGrid(8.0 * scales.d, 2048)
    return GpeProblem(
        grid=grid,
        potential=[config.trap_k * (x * x) for x in grid.r],
        g=0.0,
        atom_count=1.0,
        mass=config.mass,
    )


def test_problem_is_the_only_parameter():
    # the tolerance, the budget, the first step and the start are the module's, not the caller's
    assert list(inspect.signature(solve_ground_state).parameters) == ["problem"]


class TestLinearOscillator:
    def test_gaussian_ground_state(self, oscillator, scales, monkeypatch):
        # start from a deliberately wrong width so convergence is earned
        grid = oscillator.grid
        guess = np.exp(-0.25 * (np.asarray(grid.r) / (2.0 * scales.d)) ** 2)
        monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [guess])
        monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-12)
        sol = solve_ground_state(oscillator)
        r = np.asarray(grid.r)
        phi = np.pi**-0.75 * scales.d**-1.5 * np.exp(-0.5 * (r / scales.d) ** 2)
        overlap = 4.0 * math.pi * simpson(r**2 * phi * np.asarray(sol.psi), x=r)
        assert overlap**2 > 1.0 - 1e-8
        assert_allclose(sol.mu, 1.5 * scales.e_trap, rtol=1e-4)
        assert sol.e_interaction == 0.0

    @pytest.mark.parametrize("idealized", [False, True], ids=["full", "idealized"])
    def test_linear_problem_converges_by_inverse_iteration(self, config, scales, mu, grid, idealized, monkeypatch):
        # at g = 0 the fallback step is inverse iteration shifted to just below mu by
        # the residual: 4 steps (full) and 3 (idealized) from the curvature Gaussian
        stored = stored_problem(config, scales, mu, grid, idealized=idealized)
        linear = GpeProblem(grid, stored.potential, 0.0, stored.atom_count, stored.mass)
        monkeypatch.setattr(gpe, "DEFAULT_MAX_ITERS", 6)
        sol = solve_ground_state(linear)
        assert sol.stop == "tol"
        lowest, overlap = lowest_eigenpair(linear, sol.psi)
        assert_allclose(lowest, sol.mu, rtol=1e-10)
        assert overlap > 1.0 - 1e-10

    def test_flat_potential_is_refused(self, config):
        grid = RadialGrid(1e-5, 64)
        flat = GpeProblem(
            grid=grid,
            potential=np.zeros(grid.n_points),
            g=0.0,
            atom_count=1.0,
            mass=config.mass,
        )
        with pytest.raises(ValidationError, match="flat potential"):
            solve_ground_state(flat)

    def test_guesses_read_the_curvature_at_min_v(self):
        # a probe atom in the trap plus the mean field U12*psi1^2 of a 30,000-atom host: the potential falls
        # away from r = 0, so its curvature there is negative; at min V it is not, and the probe solves
        config = config_from_dict({**SODIUM_REFERENCE, "n_host": 30_000})
        scales = derive_scales(config)
        grid = RadialGrid(2.5 * tf_host(config, scales).radius, 512)
        host = host_problem(config, scales, grid)
        psi1 = solve_ground_state(host).psi
        v = [x + scales.u12 * p * p for x, p in zip(host.potential, psi1)]
        assert v[1] < v[0]
        probe = GpeProblem(grid, v, 0.0, 1.0, config.mass)
        sol = solve_ground_state(probe)
        lowest, overlap = lowest_eigenpair(probe, sol.psi)
        assert_allclose(lowest, sol.mu, rtol=1e-10)
        assert overlap > 1.0 - 1e-10

    def test_potential_lowest_at_the_wall_is_refused(self, config):
        grid = RadialGrid(1e-5, 512)
        falling = GpeProblem(grid, [-x for x in grid.r], 0.0, 1.0, config.mass)
        with pytest.raises(ValidationError, match="the potential is lowest at the box wall"):
            solve_ground_state(falling)


class TestProblemValidation:
    def test_attractive_rejected(self, config, oscillator):
        with pytest.raises(ValidationError, match="attractive"):
            GpeProblem(
                grid=oscillator.grid,
                potential=oscillator.potential,
                g=-1e-51,
                atom_count=1.0,
                mass=config.mass,
            )

    @pytest.mark.parametrize(
        "field, value", [("g", math.nan), ("g", math.inf), ("atom_count", math.inf), ("mass", math.inf)]
    )
    def test_non_finite_values_rejected(self, oscillator, field, value):
        # inf and nan pass one-sided bounds such as g >= 0; each is refused here, not at the solver's start
        fields = {**vars(oscillator), field: value}
        with pytest.raises(ValidationError, match=f"{field} must be .*finite"):
            GpeProblem(**fields)

    def test_potential_shape_mismatch(self, config):
        grid = RadialGrid(1.0, 32)
        with pytest.raises(ValidationError, match="shape"):
            GpeProblem(grid, np.zeros(33), 0.0, 1.0, config.mass)

    def test_potential_rejects_nan(self, config):
        grid = RadialGrid(1.0, 32)
        values = np.zeros(32)
        values[5] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            GpeProblem(grid, values, 0.0, 1.0, config.mass)

    def test_potential_is_frozen_copy(self, config):
        grid = RadialGrid(1.0, 32)
        values = np.ones(32)
        problem = GpeProblem(grid, values, 0.0, 1.0, config.mass)
        values[0] = 7.0  # caller's array, not the problem's
        assert problem.potential == (1.0,) * 32
        assert all(type(v) is float for v in problem.potential)
        with pytest.raises(TypeError):
            problem.potential[0] = 2.0

    def test_iteration_budget(self, oscillator, scales, monkeypatch):
        # the wrong-width start of test_gaussian_ground_state: three steps cannot converge
        guess = np.exp(-0.25 * (np.asarray(oscillator.grid.r) / (2.0 * scales.d)) ** 2)
        monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [guess])
        monkeypatch.setattr(gpe, "DEFAULT_MAX_ITERS", 3)
        monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-16)
        with pytest.raises(ConvergenceError) as err:
            solve_ground_state(oscillator)
        assert err.value.iterations == 3
        assert err.value.residual is not None
        monkeypatch.setattr(gpe, "DEFAULT_MAX_ITERS", 0)
        with pytest.raises(ConvergenceError) as err:  # no step at all
            solve_ground_state(oscillator)
        assert err.value.iterations == 0

    def test_broken_flow_step_is_a_convergence_error(self, oscillator, monkeypatch):
        # with g = 0 every step is a fallback step; with a negative slack no
        # energy passes its test, so the first step finds no shift that does
        monkeypatch.setattr(gpe, "ENERGY_SLACK", -1.0)
        thomas, calls = gpe._thomas, []

        def counted(*args):
            calls.append(None)
            return thomas(*args)

        monkeypatch.setattr(gpe, "_thomas", counted)
        with pytest.raises(ConvergenceError, match="no fallback step lowers the energy at step 1") as err:
            solve_ground_state(oscillator)
        assert err.value.iterations == 1
        assert len(calls) <= 100  # the shift doubles until K is the shift to round-off, then gives up


class TestHostComparison:
    def test_parabola_accuracy(self, config):
        comp = compare_tf_vs_gpe(config, grid_points=1024)
        payload = comp.to_dict()
        # "one part in a thousand": both errors sit between 2e-4 and 5e-3
        assert 2e-4 < payload["mu_rel_err"] < 5e-3
        assert 2e-4 < payload["central_density_rel_err"] < 5e-3
        assert comp.solution.mu > comp.mu_tf  # kinetic pressure raises mu
        assert comp.l2_density_err < 0.05
        assert virial_residual(comp.solution) < 1e-4

    def test_step_size_invariance(self, config, scales, mu, monkeypatch):
        from becnlo import tf_radius

        problem = host_problem(config, scales, RadialGrid(1.5 * tf_radius(config, mu), 1024))
        monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-12)
        a = solve_ground_state(problem)
        b = solve_ground_state(problem)
        assert a.mu == b.mu  # identical inputs, identical bytes: no step has a size to vary

    def test_large_first_step_reaches_same_mu(self, config, scales, mu, monkeypatch):
        # the residual stop ties the answer to the fixed point, not to the path:
        # from the curvature Gaussian, far narrower than the host, Newton is
        # refused and the fallback steps, each first tried undamped, lead in
        from becnlo import tf_radius

        grid = RadialGrid(1.5 * tf_radius(config, mu), 1024)
        problem = host_problem(config, scales, grid)
        ref = solve_ground_state(problem)
        v_min = min(problem.potential)
        gaussian = _initial_guesses(problem, grid.r, [x - v_min for x in problem.potential])[0]
        monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [gaussian])
        big = solve_ground_state(problem)
        assert ref.fallback_steps == 0 < big.fallback_steps
        assert_allclose(big.mu, ref.mu, rtol=1e-10)

    def test_grid_refinement_stable(self, config):
        coarse = compare_tf_vs_gpe(config, grid_points=1024)
        fine = compare_tf_vs_gpe(config, grid_points=2048).solution
        assert abs(fine.mu - coarse.solution.mu) / fine.mu < 1e-5

    def test_errors_shrink_with_atom_number(self, config):
        # the parabola is the large-N limit, so its error is monotone in N
        from becnlo import tf_chemical_potential, tf_radius

        def swept(n_host):
            return config_from_dict({**SODIUM_REFERENCE, "n_host": n_host})

        reports = [compare_tf_vs_gpe(swept(n), grid_points=1024).to_dict() for n in (10**5, 10**6, 10**8)]
        errs = [report["mu_rel_err"] for report in reports]
        assert errs[0] > errs[1] > errs[2]
        # at a hundred atoms the cloud is nearly the bare oscillator state, far
        # wider than 1.5 parabola radii, and the parabola is off by far more
        # than a few percent
        few = swept(100)
        few_scales = derive_scales(few)
        mu_tf = tf_chemical_potential(few, few_scales)
        grid = RadialGrid(8.0 * tf_radius(few, mu_tf), 1024)
        mu_gpe = solve_ground_state(host_problem(few, few_scales, grid)).mu
        assert abs(mu_gpe - mu_tf) / mu_tf > 0.05

    def test_to_dict_keys(self, config):
        payload = compare_tf_vs_gpe(config, grid_points=1024).to_dict()
        assert set(payload) == {
            "mu_tf_J",
            "mu_gpe_J",
            "mu_rel_err",
            "central_density_tf_m3",
            "central_density_gpe_m3",
            "central_density_rel_err",
            "l2_density_err",
            "virial_residual",
            "iterations",
        }

    @pytest.mark.parametrize(
        "mu_gpe, psi0, central_tf", [(2.5, 1.5, 3.0), (1.5, 2.5, 5.0)], ids=["2.5-3.0", "1.5-5.0"]
    )
    def test_to_dict_derives_relative_errors(self, mu_gpe, psi0, central_tf):
        # psi0**2 and the relative errors are exact in binary: 2.25 against 3 and 6.25 against 5
        solution = GpeSolution(
            psi=(psi0, 0.0), mu=mu_gpe, e_kinetic=1.0, e_potential=1.0, e_interaction=1.0,
            residual=1e-12, stop="tol", floor=1e-15, newton_steps=3, fallback_steps=0, coarse_points=0,
        )
        comp = TfGpeComparison(mu_tf=2.0, central_density_tf=central_tf, l2_density_err=0.1, solution=solution)
        payload = comp.to_dict()
        assert payload["mu_rel_err"] == abs(mu_gpe - 2.0) / 2.0 == 0.25
        assert payload["central_density_rel_err"] == abs(psi0**2 - central_tf) / central_tf == 0.25

    def test_host_report_keeps_its_solve(self, config, scales):
        comp = compare_tf_vs_gpe(config, grid_points=1024)
        grid = RadialGrid(GRID_SPAN_FACTOR * tf_host(config, scales).radius, 1024)
        assert comp.solution == solve_ground_state(host_problem(config, scales, grid))
        assert comp.to_dict()["mu_gpe_J"] == comp.solution.mu


class TestStoredComparison:
    def test_idealized_mode_is_gaussian(self, config, scales):
        comp = solve_stored_in_host(config, idealized=True, grid_points=1024)
        assert comp.overlap > 1.0 - 5e-6
        assert comp.mode_length == scales.s

    def test_edge_lowers_overlap(self, config):
        ideal = solve_stored_in_host(config, idealized=True, grid_points=1024)
        full = solve_stored_in_host(config, idealized=False, grid_points=1024)
        assert full.overlap > 1.0 - 5e-4
        assert full.overlap < ideal.overlap

    def test_decoupled_mode_is_bare_oscillator(self, config):
        # with a12 = 0 the host drops out and the mode relaxes into the
        # unscreened trap, a near-Gaussian of width d
        decoupled = config_from_dict({**SODIUM_REFERENCE, "a12_m": 0.0})
        comp = solve_stored_in_host(decoupled, grid_points=1024)
        assert comp.mode_length == derive_scales(decoupled).d
        assert comp.overlap > 1.0 - 1e-3  # 10 atoms of self-repulsion widen it a bit


def test_stored_mode_must_span_grid_spacings(config, scales, mu):
    # 16 points over 1.5 R put 3.4 spacings in s, below MIN_MODE_SPACINGS
    from becnlo import tf_radius
    from becnlo.gpe import MIN_MODE_SPACINGS

    grid = RadialGrid(GRID_SPAN_FACTOR * tf_radius(config, mu), 16)
    assert scales.s < MIN_MODE_SPACINGS * grid.spacing
    for idealized in (False, True):
        with pytest.raises(GridError, match=r"does not resolve the stored mode: s = 6\.78836e-06 m"):
            solve_stored_in_host(config, idealized=idealized, grid_points=16)
    # a mode a third of a spacing wide at 256 points and two thirds at 512: the
    # curvature Gaussian, one of the stored problem's starts, is as narrow
    wide = config_from_dict(
        {**SODIUM_REFERENCE, "a11_m": 6e-9, "a12_m": 3e-9, "a22_m": 3.9e-7, "n_host": 3e15, "n_stored_max": 640}
    )
    for points, spacings in ((256, "0.326"), (512, "0.654")):
        for idealized in (False, True):
            with pytest.raises(GridError, match=rf"stored mode: s = 3\.52524e-06 m is {spacings} spacings"):
                solve_stored_in_host(wide, idealized=idealized, grid_points=points)


def test_virial_identity(config, scales, monkeypatch):
    # solve a small host problem and check 2Ek - 2Ep + 3Ei directly
    from becnlo import tf_chemical_potential, tf_radius

    mu = tf_chemical_potential(config, scales)
    grid = RadialGrid(1.5 * tf_radius(config, mu), 1024)
    monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-11)
    sol = solve_ground_state(host_problem(config, scales, grid))
    assert virial_residual(sol) < 1e-5
    assert sol.energy == sol.e_kinetic + sol.e_potential + sol.e_interaction
    # the per-step renormalization pins the atom number
    norm = 4.0 * math.pi * simpson(np.asarray(grid.r) ** 2 * np.asarray(sol.psi) ** 2, x=grid.r)
    assert_allclose(norm, config.n_host, rtol=1e-8)


def test_stored_potential_shapes(config, scales, mu):
    # idealized potential is the pure effective trap; the full one adds the
    # host mean field, constant inside the cloud
    grid = RadialGrid(3e-5, 256)
    ideal = stored_problem(config, scales, mu, grid, idealized=True)
    full = stored_problem(config, scales, mu, grid, idealized=False)
    v_ideal = np.asarray(ideal.potential)
    v_full = np.asarray(full.potential)
    assert_allclose(v_ideal, scales.eff_trap_factor * config.trap_k * np.asarray(grid.r) ** 2, rtol=1e-12)
    inside = np.asarray(grid.r) < 0.9 * math.sqrt(2.0 * mu / (config.mass * config.omega**2))
    offset = mu * scales.u12 / scales.u11
    assert_allclose(v_full[inside] - v_ideal[inside], offset, rtol=1e-10)


def test_mu_is_eigenvalue_of_stepped_operator(config, scales, mu, monkeypatch):
    # rebuild H[u] with an independent three-point stencil: at the fixed
    # point the reported mu must be its eigenvalue, not a quadrature of it
    from becnlo import tf_radius

    grid = RadialGrid(1.5 * tf_radius(config, mu), 512)
    problem = host_problem(config, scales, grid)
    monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-12)
    sol = solve_ground_state(problem)
    r = np.asarray(grid.r)
    u = r * np.asarray(sol.psi)
    kin = HBAR**2 / (2.0 * config.mass * grid.spacing**2)
    inner = u[1:-1]
    h_u = (
        kin * (2.0 * inner - u[:-2] - u[2:])
        + np.asarray(problem.potential)[1:-1] * inner
        + problem.g * (inner / r[1:-1]) ** 2 * inner
    )
    residual = np.linalg.norm(h_u - sol.mu * inner) / np.linalg.norm(sol.mu * inner)
    assert residual < 1e-8


def test_mu_is_eigenvalue_of_stepped_operator_stored(config, scales, mu):
    # the stored problem sits on the host mean field U12*n1, a constant
    # offset of nearly all of mu; the residual must still vanish
    from becnlo import tf_radius

    grid = RadialGrid(1.5 * tf_radius(config, mu), 1024)
    problem = stored_problem(config, scales, mu, grid)
    v = np.asarray(problem.potential)
    sol = solve_ground_state(problem)
    assert v.min() > 0.9 * sol.mu
    r = np.asarray(grid.r)
    u = r * np.asarray(sol.psi)
    kin = HBAR**2 / (2.0 * config.mass * grid.spacing**2)
    inner = u[1:-1]
    h_u = (
        kin * (2.0 * inner - u[:-2] - u[2:])
        + v[1:-1] * inner
        + problem.g * (inner / r[1:-1]) ** 2 * inner
    )
    residual = np.linalg.norm(h_u - sol.mu * inner) / np.linalg.norm(sol.mu * inner)
    assert residual < 1e-9


def sodium_problem(config, scales, mu, case, points=1024):
    """The host, stored, idealized or decoupled (a12 = 0, ten atoms) problem, by default on 1,024 points."""
    from becnlo import tf_radius

    if case == "decoupled":
        config = config_from_dict({**SODIUM_REFERENCE, "a12_m": 0.0})
        scales = derive_scales(config)
    grid = RadialGrid(1.5 * tf_radius(config, mu), points)
    if case == "host":
        return host_problem(config, scales, grid)
    return stored_problem(config, scales, mu, grid, idealized=case == "idealized")


@pytest.mark.parametrize("case", ["host", "stored", "idealized", "decoupled"])
def test_iteration_count(config, scales, mu, case):
    # 1,024 points are too few for a coarse start: from the guesses Newton's
    # step reaches the residual stop in two to four iterations on each problem;
    # the count is deterministic, so a lost Newton step or a poor guess fails here
    sol = solve_ground_state(sodium_problem(config, scales, mu, case))
    assert sol.coarse_points == 0
    assert sol.iterations <= 10
    assert sol.residual < 1e-9


@pytest.mark.parametrize("case", ["host", "stored", "idealized", "decoupled"])
def test_coarse_start_at_the_oracle_grid(config, scales, mu, case, monkeypatch):
    # at 4,096 points the start is the same problem solved on every k-th point,
    # so the fine grid takes one or two Newton steps; the answer is still the
    # fine grid's ground state, and the fixed point the guesses lead to
    problem = sodium_problem(config, scales, mu, case, DEFAULT_GRID_POINTS)
    sol = solve_ground_state(problem)
    assert sol.coarse_points >= COARSE_POINTS
    assert sol.iterations == sol.newton_steps <= 2
    assert sol.residual < DEFAULT_TOL
    lowest, overlap = lowest_eigenpair(problem, sol.psi)
    assert_allclose(lowest, sol.mu, rtol=1e-10)
    assert overlap > 1.0 - 1e-10
    gaussian = _initial_guesses(problem, problem.grid.r, problem.potential)[0]
    monkeypatch.setattr(gpe, "_coarse_start", lambda problem: (0, None))
    monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [gaussian])
    from_guess = solve_ground_state(problem)
    assert from_guess.coarse_points == 0
    assert_allclose(sol.mu, from_guess.mu, rtol=1e-9)


@pytest.mark.parametrize(
    "points, coarse_points",
    [(COARSE_POINTS, 0), (2 * COARSE_POINTS - 2, 0), (2 * COARSE_POINTS - 1, COARSE_POINTS)],
)
def test_coarse_level_needs_two_fine_intervals_per_coarse_one(config, scales, mu, points, coarse_points):
    sol = solve_ground_state(sodium_problem(config, scales, mu, "host", points))
    assert sol.coarse_points == coarse_points
    assert sol.residual < DEFAULT_TOL


def test_failed_coarse_level_falls_back_to_the_guesses(config, scales, mu, monkeypatch):
    # an unresolved start can keep the coarse level from converging where the
    # fine grid converges; the fine grid then starts from its own guesses
    problem = sodium_problem(config, scales, mu, "host", DEFAULT_GRID_POINTS)
    reference = solve_ground_state(problem)
    solve = gpe._solve

    def failing_coarse(coarse, *args):
        if coarse.grid.n_points < problem.grid.n_points:
            raise ConvergenceError("the coarse level failed")
        return solve(coarse, *args)

    monkeypatch.setattr(gpe, "_solve", failing_coarse)
    sol = solve_ground_state(problem)
    assert sol.coarse_points == 0
    assert sol.residual < DEFAULT_TOL
    assert sol.iterations > reference.iterations
    assert_allclose(sol.mu, reference.mu, rtol=1e-9)


def test_large_host_restarts_from_the_guesses(monkeypatch):
    # from n_host 1e16 the fine grid's Newton step refuses the interpolated coarse
    # solution, and the solve restarts from the guesses, where Newton's step
    # converges well inside a budget of 30
    large = config_from_dict({**SODIUM_REFERENCE, "n_host": 1e16})
    scales = derive_scales(large)
    grid = RadialGrid(GRID_SPAN_FACTOR * tf_host(large, scales).radius, DEFAULT_GRID_POINTS)
    monkeypatch.setattr(gpe, "DEFAULT_MAX_ITERS", 30)
    sol = solve_ground_state(host_problem(large, scales, grid))
    assert sol.fallback_steps == 0
    assert sol.coarse_points == 0
    assert sol.residual < DEFAULT_TOL


def test_near_cancelled_stored_solve_does_not_crawl():
    # a12 = 0.999999*a11 at 512 points: mu settles near the second eigenvalue of H[u], and a
    # shift of mu*(1 - residual) between the two lowest took 183 steps (178 unshifted); the
    # doubling shift reaches the lowest eigenpair in about 20
    crawl = config_from_dict({
        **SODIUM_REFERENCE, "a12_m": 2.7499972499999998e-09, "a22_m": 2.7500936352587794e-09,
        "omega_rad_s": 551.5590693533811, "n_host": 113444384649, "n_stored_max": 237086342197,
    })
    scales = derive_scales(crawl)
    host = tf_host(crawl, scales)
    problem = stored_problem(crawl, scales, host.mu, RadialGrid(GRID_SPAN_FACTOR * host.radius, 512))
    sol = solve_ground_state(problem)
    assert sol.iterations <= 30
    lowest, overlap = lowest_eigenpair(problem, sol.psi)
    assert_allclose(lowest, sol.mu, rtol=1e-10)
    assert overlap > 1.0 - 1e-10


def test_linear_problem_starts_from_the_guess(config, scales):
    # with g = 0 only the fallback step runs, and it needs no coarse start:
    # from the curvature Gaussian it takes a handful of steps
    grid = RadialGrid(8.0 * scales.d, 2 * COARSE_POINTS - 1)
    problem = GpeProblem(grid, [config.trap_k * (x * x) for x in grid.r], 0.0, 1.0, config.mass)
    sol = solve_ground_state(problem)
    assert sol.coarse_points == 0
    assert sol.newton_steps == 0
    assert sol.residual < DEFAULT_TOL


def test_harmonic_potential_is_the_trap_potential(config, scales, grid):
    # tabulated without a method call per point, bit for bit
    problem = host_problem(config, scales, grid)
    assert problem.potential == tuple(config.trap_k * (x * x) for x in grid.r)


@pytest.mark.parametrize("case", ["host", "stored", "idealized", "decoupled", "stored-from-tf"])
def test_solution_is_the_ground_state(config, scales, mu, case, monkeypatch):
    # freeze the solved density and diagonalize H[u]: mu must be its lowest
    # eigenvalue, with u as the eigenvector.  "stored-from-tf" starts the ten
    # stored atoms from the smoothed Thomas-Fermi profile, a start from which an
    # unguarded Newton iteration converges to an excited state
    problem = sodium_problem(config, scales, mu, case.removesuffix("-from-tf"))
    if case == "stored-from-tf":
        v_min = min(problem.potential)
        tf_profile = _initial_guesses(problem, problem.grid.r, [x - v_min for x in problem.potential])[1]
        monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [tf_profile])
    sol = solve_ground_state(problem)
    lowest, overlap = lowest_eigenpair(problem, sol.psi)
    assert_allclose(lowest, sol.mu, rtol=1e-10)
    assert overlap > 1.0 - 1e-10


def test_thomas_fermi_guess_is_the_closed_form_parabola(config, scales, mu):
    # the guess's mu is the harmonic closed form of the curvature at the origin, so for the
    # sodium host it is tf_chemical_potential's: inside the cloud, psi^2 is that parabola, smoothed at its edge
    problem = sodium_problem(config, scales, mu, "host")
    guess = np.asarray(_initial_guesses(problem, problem.grid.r, problem.potential)[1])
    f = mu - np.asarray(problem.potential)
    inside = f > 0.0
    smoothed = (f + np.hypot(f, 0.05 * mu)) / (2.0 * problem.g)
    assert_allclose(guess[inside] ** 2, smoothed[inside], rtol=1e-13)


def test_guesses_without_a_norm_are_refused(config):
    # a trap so stiff that the curvature's Gaussian underflows to 0 one spacing out; g = 0 has no other guess
    grid = RadialGrid(1e-4, 101)
    problem = GpeProblem(grid, [1e-8 * (x * x) for x in grid.r], 0.0, 1.0, config.mass)
    with pytest.raises(ValidationError, match="no initial guess has a finite, nonzero norm"):
        solve_ground_state(problem)


@pytest.mark.parametrize(
    "r_max, mass, k, what",
    [
        (1e-160, None, 1.0, "the kinetic scale"),  # dr^2 underflows to 0
        (1e10, 1e300, 1e-300, "the Gaussian guess's width"),  # c/m underflows to 0
        (1e-3, None, 1e308, "the curvature of V at min V"),  # c = 2k overflows to inf
    ],
)
def test_start_scales_out_of_range_are_refused(config, r_max, mass, k, what):
    # built directly, a problem can reach what no CLI scenario does; each is refused by the range rule
    grid = RadialGrid(r_max, 512)
    problem = GpeProblem(grid, [k * (x * x) for x in grid.r], 0.0, 1.0, mass or config.mass)
    with pytest.raises(ValidationError, match=f"^{what}.* is out of floating-point range"):
        solve_ground_state(problem)


def k_shaped_diagonal(rng, kin, n):
    """Diagonal of M = tridiag(-kin, kin*(u[i-1] + u[i+1])/u[i], -kin) for a random positive u.

    M u = 0 with u > 0, so M is positive semi-definite with lowest eigenvalue
    0, as H[u] - mu is at the ground state, and it is not diagonally dominant
    wherever u[i-1] + u[i+1] < 2*u[i].
    """
    u = np.concatenate([[0.0], rng.uniform(0.5, 1.5, n), [0.0]])
    return kin * (u[:-2] + u[2:]) / u[1:-1]


@pytest.mark.parametrize("n", [14, 15, 16, 510, 1023, 4094])
@pytest.mark.parametrize("kind", ["flow", "newton"])
def test_thomas_matches_banded_solve(n, kind):
    # the two kinds of matrix the solver factors, each with two right-hand sides,
    # against LAPACK's banded solve: a diagonally dominant one, as the unshifted
    # fallback step's, and a positive definite matrix shaped like Newton's K, which is not
    from scipy.linalg import solve_banded

    from becnlo.gpe import _thomas

    rng = np.random.default_rng(n)
    kin = rng.uniform(0.5, 2.0)
    if kind == "flow":
        diag = 2.0 * kin + rng.uniform(0.1, 1.0, n)
    else:
        diag = k_shaped_diagonal(rng, kin, n) + kin * rng.uniform(0.05, 0.5, n)  # M + a positive mean field
        assert (diag < 2.0 * kin).any()
    bands = np.zeros((3, n))
    bands[0, 1:] = bands[2, :-1] = -kin
    bands[1] = diag
    rhs = rng.standard_normal((n, 2))
    expected = solve_banded((1, 1), bands, rhs)
    solved = _thomas(-kin, diag.tolist(), rhs[:, 0].tolist(), rhs[:, 1].tolist())
    # atol on the solution's scale: single entries may nearly cancel
    assert_allclose(np.transpose(solved), expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


@pytest.mark.parametrize("n", [14, 1023])
def test_thomas_refuses_a_matrix_that_is_not_positive_definite(n):
    # K of an excited state has a negative eigenvalue; the factorization must
    # report it, not return a solution, and so must a non-finite entry
    from becnlo.gpe import _thomas

    rng = np.random.default_rng(n)
    singular = k_shaped_diagonal(rng, 1.0, n)  # positive semi-definite, lowest eigenvalue 0
    rhs = rng.standard_normal(n).tolist()
    assert _thomas(-1.0, (singular - 1e-3).tolist(), rhs) is None
    assert _thomas(-1.0, [0.0] + [3.0] * (n - 1), rhs) is None
    assert _thomas(-1.0, [3.0] * (n - 1) + [math.nan], rhs) is None
    assert _thomas(-1.0, (singular + 1e-3).tolist(), rhs) is not None


def test_stop_reason(config, scales, mu, monkeypatch):
    # the oracle's host solve stops on tol after at least one Newton step, and
    # records which criterion stopped it; below the round-off floor only the
    # floor can stop the solve
    from becnlo import tf_radius

    grid = RadialGrid(GRID_SPAN_FACTOR * tf_radius(config, mu), DEFAULT_GRID_POINTS)
    problem = host_problem(config, scales, grid)
    sol = solve_ground_state(problem)
    assert sol.stop == "tol"
    assert sol.residual < DEFAULT_TOL
    assert sol.newton_steps >= 1
    assert sol.newton_steps + sol.fallback_steps == sol.iterations
    assert 0.0 < sol.floor < DEFAULT_TOL
    monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-16)
    tight = solve_ground_state(problem)
    assert tight.stop == "floor"
    assert tight.residual < tight.floor


@pytest.mark.parametrize("n_host, points", [(8.4e8, 512), (1e9, 1024)])
def test_stored_overlap_is_pinned_by_the_stop(n_host, points, monkeypatch):
    # the residual is measured against mu - min V, the stored mode's own energy,
    # not against mu, which also carries the host's mean field U12*n1: a stop at
    # the default tolerance must leave the overlap within README's 1e-9 of a
    # tighter solve (it was 3.8e-9 off when the residual was divided by |mu|)
    config = config_from_dict({**SODIUM_REFERENCE, "n_host": n_host, "n_stored_max": 19_946})
    default = solve_stored_in_host(config, grid_points=points).overlap
    monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-13)
    assert_allclose(default, solve_stored_in_host(config, grid_points=points).overlap, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize("c", [100.0, 1e4])
@pytest.mark.parametrize("case", ["stored", "idealized"])
def test_a_constant_in_the_potential_moves_nothing(config, scales, mu, case, c):
    # every energy in the solve is measured from min V, so V + const takes the
    # same steps to the same psi and the same stop, with mu raised by the constant;
    # the bounds are the round-off of adding c*|mu| to each value of V
    problem = sodium_problem(config, scales, mu, case, DEFAULT_GRID_POINTS)
    sol = solve_ground_state(problem)
    offset = c * abs(sol.mu)
    raised = [x + offset for x in problem.potential]
    moved = solve_ground_state(GpeProblem(problem.grid, raised, problem.g, problem.atom_count, problem.mass))
    assert moved.newton_steps == sol.newton_steps
    assert moved.fallback_steps == sol.fallback_steps
    assert moved.coarse_points == sol.coarse_points
    assert_allclose(moved.psi, sol.psi, rtol=0.0, atol=1e-12 * max(sol.psi))
    assert_allclose(moved.mu - offset, sol.mu, rtol=1e-12)
    assert 0.5 < moved.residual / sol.residual < 2.0


def test_clipped_box_refused(config):
    # a hundred atoms spread far beyond the parabola's radius: a box of
    # 1.5 R_TF squeezes the cloud against the wall
    small = config_from_dict({**SODIUM_REFERENCE, "n_host": 100})
    with pytest.raises(GridError, match="box wall"):
        compare_tf_vs_gpe(small, grid_points=512)


def test_wall_is_checked_on_the_answer_only(monkeypatch):
    # the coarse level of a box too small for the cloud reaches its wall too, but
    # its psi is only a start: the fine grid solves from it, not from the guesses,
    # and the error names the fine grid's r_max
    small = config_from_dict({**SODIUM_REFERENCE, "n_host": 100})
    scales = derive_scales(small)
    r_max = RadialGrid(GRID_SPAN_FACTOR * tf_host(small, scales).radius, DEFAULT_GRID_POINTS).r_max
    calls = []

    def counted(problem, *args):
        calls.append(problem.grid.n_points)
        return _initial_guesses(problem, *args)

    monkeypatch.setattr(gpe, "_initial_guesses", counted)
    with pytest.raises(GridError, match=f"box wall: density in the outer tenth of r_max={r_max:g} m "):
        compare_tf_vs_gpe(small)
    assert calls == [683]  # the coarse level's guesses, not the fine grid's
