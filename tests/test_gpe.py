"""Imaginary-time ground-state solver: analytic limits, invariances, comparisons.

The semi-implicit scheme converges to the discrete stationary state, so the
answer must not depend on the step size, and halving the grid spacing must
barely move the chemical potential.  The g = 0 oscillator and the virial
identity pin down the kinetic/potential bookkeeping independently.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import simpson

from becnlo import (
    DENSITY,
    ConvergenceError,
    GridError,
    RadialField,
    RadialGrid,
    ValidationError,
    compare_tf_vs_gpe,
    solve_stored_in_host,
    virial_residual,
)
from becnlo.gpe import (
    GpeProblem,
    default_time_step,
    harmonic_potential_field,
    host_problem,
    solve_ground_state,
    stored_problem,
)


@pytest.fixture(scope="module")
def oscillator(config, scales):
    grid = RadialGrid(8.0 * scales.d, 2048)
    return GpeProblem(
        potential=harmonic_potential_field(config, grid),
        g=0.0,
        atom_count=1.0,
        mass=config.species.mass,
    )


class TestLinearOscillator:
    def test_gaussian_ground_state(self, oscillator, scales):
        # start from a deliberately wrong width so convergence is earned
        grid = oscillator.grid
        guess = np.exp(-0.25 * (grid.r / (2.0 * scales.d)) ** 2)
        sol = solve_ground_state(
            oscillator,
            initial_guess=guess,
            tol=1e-12,
            dt=100.0 * default_time_step(oscillator),
        )
        r = grid.r
        phi = np.pi**-0.75 * scales.d**-1.5 * np.exp(-0.5 * (r / scales.d) ** 2)
        overlap = 4.0 * math.pi * simpson(r**2 * phi * sol.wavefunction.values, x=r)
        assert overlap**2 > 1.0 - 1e-8
        assert_allclose(sol.mu, 1.5 * scales.e_trap, rtol=1e-4)
        assert sol.e_interaction == 0.0

    def test_time_step_heuristic(self, oscillator, config):
        # curvature of the quadratic potential recovers the trap period
        assert_allclose(
            default_time_step(oscillator), 1e-4 * 2.0 * math.pi / config.trap.omega, rtol=1e-12
        )

    def test_flat_potential_needs_explicit_dt(self, config):
        grid = RadialGrid(1e-5, 64)
        flat = GpeProblem(
            potential=RadialField(grid, np.zeros(grid.n_points), "J"),
            g=0.0,
            atom_count=1.0,
            mass=config.species.mass,
        )
        with pytest.raises(ValidationError, match="flat potential"):
            solve_ground_state(flat)


class TestProblemValidation:
    def test_attractive_rejected(self, config, oscillator):
        with pytest.raises(ValidationError, match="attractive"):
            GpeProblem(
                potential=oscillator.potential,
                g=-1e-51,
                atom_count=1.0,
                mass=config.species.mass,
            )

    def test_potential_unit_checked(self, config, oscillator):
        grid = oscillator.grid
        not_energy = RadialField(grid, np.zeros(grid.n_points), DENSITY)
        with pytest.raises(ValidationError, match="unit"):
            GpeProblem(potential=not_energy, g=0.0, atom_count=1.0, mass=config.species.mass)

    def test_guess_shape_checked(self, oscillator):
        with pytest.raises(ValidationError, match="shape"):
            solve_ground_state(oscillator, initial_guess=np.ones(7))

    def test_iteration_budget(self, oscillator):
        with pytest.raises(ConvergenceError) as err:
            solve_ground_state(oscillator, max_iters=3, tol=1e-16)
        assert err.value.iterations == 3
        assert err.value.residual is not None


class TestHostComparison:
    def test_parabola_accuracy(self, config):
        comp = compare_tf_vs_gpe(config, grid_points=1024)
        # "one part in a thousand": both errors sit between 2e-4 and 5e-3
        assert 2e-4 < comp.mu_rel_err < 5e-3
        assert 2e-4 < comp.central_density_rel_err < 5e-3
        assert comp.mu_gpe > comp.mu_tf  # kinetic pressure raises mu
        assert comp.l2_density_err < 0.05
        assert comp.virial < 1e-4

    def test_step_size_invariance(self, config):
        a = compare_tf_vs_gpe(config, grid_points=1024, tol=1e-12)
        b = compare_tf_vs_gpe(config, grid_points=1024, tol=1e-12, dt=None)
        c = compare_tf_vs_gpe(
            config, grid_points=1024, tol=1e-12, dt=3.0 * 1e-4 * 2.0 * math.pi / config.trap.omega
        )
        assert a.mu_gpe == b.mu_gpe  # identical inputs, identical bytes
        assert_allclose(c.mu_gpe, a.mu_gpe, rtol=1e-8)

    def test_grid_refinement_stable(self, config):
        coarse = compare_tf_vs_gpe(config, grid_points=1024)
        fine = compare_tf_vs_gpe(config, grid_points=2048)
        assert abs(fine.mu_gpe - coarse.mu_gpe) / fine.mu_gpe < 1e-5

    def test_errors_shrink_with_atom_number(self, config):
        # the parabola is the large-N limit, so its error is monotone in N
        def at(n_host, **kwargs):
            from becnlo import SystemConfig

            swept = SystemConfig(
                species=config.species,
                trap=config.trap,
                n_host=n_host,
                n_stored_max=config.n_stored_max,
            )
            return compare_tf_vs_gpe(swept, grid_points=1024, **kwargs)

        errs = [at(n).mu_rel_err for n in (10**5, 10**6, 10**8)]
        assert errs[0] > errs[1] > errs[2]
        # at a hundred atoms the cloud is nearly the bare oscillator state
        # and the parabola is off by far more than a few percent
        assert at(100, r_max_factor=8.0).mu_rel_err > 0.05

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


class TestStoredComparison:
    def test_idealized_mode_is_gaussian(self, config, scales):
        comp = solve_stored_in_host(config, idealized=True, grid_points=1024, dt=20e-4 * 2.0 * math.pi / scales.omega_tilde)
        assert comp.overlap > 1.0 - 5e-6
        assert comp.mode_length == scales.s

    def test_edge_lowers_overlap(self, config, scales):
        dt = 20e-4 * 2.0 * math.pi / scales.omega_tilde
        ideal = solve_stored_in_host(config, idealized=True, grid_points=1024, dt=dt)
        full = solve_stored_in_host(config, idealized=False, grid_points=1024, dt=dt)
        assert full.overlap > 1.0 - 5e-4
        assert full.overlap < ideal.overlap

    def test_decoupled_mode_is_bare_oscillator(self, config):
        # with a12 = 0 the host drops out and the mode relaxes into the
        # unscreened trap, a near-Gaussian of width d
        from becnlo import SpeciesParams, SystemConfig, derive_scales

        sp = config.species
        species = SpeciesParams(mass=sp.mass, a11=sp.a11, a22=sp.a22, a12=0.0)
        decoupled = SystemConfig(
            species=species, trap=config.trap, n_host=config.n_host, n_stored_max=10
        )
        comp = solve_stored_in_host(decoupled, grid_points=1024)
        assert comp.mode_length == derive_scales(decoupled).d
        assert comp.overlap > 1.0 - 1e-3  # 10 atoms of self-repulsion widen it a bit


def test_virial_identity(config, scales):
    # solve a small host problem and check 2Ek - 2Ep + 3Ei directly
    from becnlo import tf_chemical_potential, tf_radius

    mu = tf_chemical_potential(config, scales)
    grid = RadialGrid(1.5 * tf_radius(config, mu), 1024)
    sol = solve_ground_state(host_problem(config, scales, grid), tol=1e-11)
    assert virial_residual(sol) < 1e-5
    assert sol.energy == sol.e_kinetic + sol.e_potential + sol.e_interaction
    # the per-step renormalization pins the atom number
    norm = 4.0 * math.pi * simpson(grid.r**2 * sol.wavefunction.values**2, x=grid.r)
    assert_allclose(norm, config.n_host, rtol=1e-8)


def test_stored_potential_shapes(config, scales, mu):
    # idealized potential is the pure effective trap; the full one adds the
    # host mean field, constant inside the cloud
    grid = RadialGrid(3e-5, 256)
    ideal = stored_problem(config, scales, mu, grid, idealized=True)
    full = stored_problem(config, scales, mu, grid, idealized=False)
    v_ideal = ideal.potential.values
    v_full = full.potential.values
    assert_allclose(v_ideal, scales.eff_trap_factor * config.trap_potential(grid.r), rtol=1e-12)
    inside = grid.r < 0.9 * math.sqrt(2.0 * mu / (config.species.mass * config.trap.omega**2))
    offset = mu * scales.u12 / scales.u11
    assert_allclose(v_full[inside] - v_ideal[inside], offset, rtol=1e-10)


def test_mu_is_eigenvalue_of_stepped_operator(config, scales, mu):
    # rebuild H[u] with an independent three-point stencil: at the fixed
    # point the reported mu must be its eigenvalue, not a quadrature of it
    from becnlo import tf_radius

    grid = RadialGrid(1.5 * tf_radius(config, mu), 512)
    problem = host_problem(config, scales, grid)
    sol = solve_ground_state(problem, tol=1e-12)
    r = grid.r
    u = r * sol.wavefunction.values
    kin = config.hbar**2 / (2.0 * config.species.mass * grid.spacing**2)
    inner = u[1:-1]
    h_u = (
        kin * (2.0 * inner - u[:-2] - u[2:])
        + problem.potential.values[1:-1] * inner
        + problem.g * (inner / r[1:-1]) ** 2 * inner
    )
    residual = np.linalg.norm(h_u - sol.mu * inner) / np.linalg.norm(sol.mu * inner)
    assert residual < 1e-8


def test_clipped_box_refused(config):
    # a hundred atoms spread far beyond the parabola's radius: a box of
    # 1.5 R_TF squeezes the cloud against the wall
    from becnlo import SystemConfig

    small = SystemConfig(
        species=config.species, trap=config.trap, n_host=100, n_stored_max=config.n_stored_max
    )
    with pytest.raises(GridError, match="box wall"):
        compare_tf_vs_gpe(small, grid_points=512)
