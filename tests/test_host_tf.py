"""Closed-form host profile: chemical potential, radius, density."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from becnlo import (
    GridError,
    RadialGrid,
    ValidationError,
    radial_integral,
    tf_chemical_potential,
    tf_density,
    tf_density_at,
    tf_host,
    tf_radius,
)
from reference import tf_chemical_potential_numeric


@pytest.fixture(scope="module")
def host_n1(config, scales, mu, grid):
    """The clipped parabola sampled on the grid."""
    return tf_density_at(config, scales, mu, grid.r)


def test_mu_value(mu, scales):
    assert_allclose(mu, 7.526499e-31, rtol=1e-6)
    assert_allclose(mu / scales.e_trap, 22.7178, rtol=1e-5)


def test_mu_closed_vs_numeric(config, scales, mu):
    # independent route: root of the normalization integral
    assert_allclose(tf_chemical_potential_numeric(config, scales), mu, rtol=1e-12)


def test_radius(config, scales, mu):
    radius = tf_radius(config, mu)
    assert_allclose(radius, 1.998159e-5, rtol=1e-6)
    assert_allclose(radius / scales.d, 6.740599, rtol=1e-6)


def test_radius_needs_positive_mu(config):
    with pytest.raises(ValidationError):
        tf_radius(config, -1e-31)


def test_central_density(config, scales, mu):
    n0 = tf_density_at(config, scales, mu, 0.0)
    assert_allclose(n0, 7.481032e19, rtol=1e-6)
    assert_allclose(n0 * scales.d**3, 1948.749, rtol=1e-6)


def test_density_vanishes_outside(config, scales, mu):
    radius = tf_radius(config, mu)
    assert tf_density_at(config, scales, mu, radius) == 0.0
    assert tf_density_at(config, scales, mu, 1.001 * radius) == 0.0
    assert tf_density_at(config, scales, mu, 3.0 * radius) == 0.0


def test_density_monotone_decreasing(config, scales, mu):
    r = np.linspace(0.0, 1.2 * tf_radius(config, mu), 400)
    n1 = tf_density_at(config, scales, mu, r)
    assert np.all(np.diff(n1) <= 0.0)


def test_mu_scales_with_interaction_strength(config, scales, mu):
    # mu ~ (N*a11)^(2/5): scaling a11 by 32 multiplies mu by 4
    from becnlo import config_from_dict, derive_scales
    from becnlo.params import SODIUM_REFERENCE

    strong = config_from_dict({**SODIUM_REFERENCE, "a11_m": 32.0 * config.a11, "n_stored_max": 1})
    mu32 = tf_chemical_potential(strong, derive_scales(strong))
    assert_allclose(mu32 / mu, 4.0, rtol=1e-13)


def test_density_normalizes_to_n(config, grid, host_n1):
    total = radial_integral(grid.r, host_n1)
    assert_allclose(total, config.n_host, rtol=1e-6)


def test_grid_must_contain_cloud(config, scales, mu):
    with pytest.raises(GridError, match="truncates"):
        tf_density(config, scales, mu, RadialGrid(0.5 * tf_radius(config, mu), 256))


def test_host_record_is_the_grid_free_closed_form(config, scales, mu, host):
    # checking the cloud against a grid keeps no trace of that grid in the record
    assert host == tf_host(config, scales)
    assert host == tf_density(config, scales, mu, RadialGrid(1.5 * host.radius, 64))


def test_normalization_survives_grid_doubling(config, scales, mu):
    def total(n_points):
        grid = RadialGrid(1.5 * tf_radius(config, mu), n_points)
        return radial_integral(grid.r, tf_density_at(config, scales, mu, grid.r))

    assert_allclose(total(4096), total(2048), rtol=1e-8)


def test_profile_is_parabolic(config, scales, mu):
    # n1(r)/n1(0) = 1 - (r/R)^2 inside the cloud
    radius = tf_radius(config, mu)
    r = np.linspace(0.0, 0.99 * radius, 57)
    ratio = np.asarray(tf_density_at(config, scales, mu, r)) / tf_density_at(config, scales, mu, 0.0)
    assert_allclose(ratio, 1.0 - (r / radius) ** 2, atol=1e-12)
