import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from becnlo import GridError, RadialGrid, radial_integral


def test_grid_basics():
    grid = RadialGrid(r_max=1.0, n_points=101)
    assert grid.spacing == 0.01
    assert grid.r[0] == 0.0
    assert grid.r[-1] == 1.0
    assert np.asarray(grid.r).size == 101


@pytest.mark.parametrize("r_max, n_points", [(1.0, 101), (3e-5, 4096), (2.9972e-5, 1025), (7.0, 17)])
def test_grid_radii_are_linspace(r_max, n_points):
    # RadialGrid.r promises numpy.linspace's doubles, to the last bit
    assert RadialGrid(r_max, n_points).r == tuple(np.linspace(0.0, r_max, n_points).tolist())


def test_grid_rejects_tiny():
    with pytest.raises(GridError):
        RadialGrid(r_max=1.0, n_points=4)
    with pytest.raises(GridError):
        RadialGrid(r_max=-1.0, n_points=64)


def test_grid_rejects_an_underflowing_spacing():
    # r_max is positive, but r_max/(n - 1) rounds to 0
    with pytest.raises(GridError, match="grid spacing underflows"):
        RadialGrid(r_max=5e-324, n_points=16)


@pytest.mark.parametrize("r_max", [math.inf, math.nan])
def test_grid_rejects_non_finite_r_max(r_max):
    # inf > 0, but its radii would be (nan, inf, inf, ...)
    with pytest.raises(GridError, match="r_max must be positive and finite"):
        RadialGrid(r_max, 64)


def test_radial_integral_gaussian():
    # 4*pi int r^2 exp(-r^2/s^2) dr = pi^(3/2) s^3
    s = 0.7
    r = np.linspace(0.0, 14.0 * s, 4001)
    value = radial_integral(r, np.exp(-((r / s) ** 2)))
    assert_allclose(value, np.pi**1.5 * s**3, rtol=1e-10)


def test_radial_integral_polynomial():
    r = np.linspace(0.0, 2.0, 2001)
    # 4*pi int_0^2 r^4 dr = 4*pi*32/5
    assert_allclose(radial_integral(r, r**2), 4.0 * np.pi * 32.0 / 5.0, rtol=1e-10)


@pytest.mark.parametrize("n_points", [17, 18, 4096, 4097])
def test_radial_integral_matches_scipy_simpson(n_points):
    # odd and even point counts: the even ones take Cartwright's last-interval
    # correction, which scipy.integrate.simpson applies since scipy 1.11
    from scipy.integrate import simpson

    r = np.linspace(0.0, 3.0, n_points)
    f = np.exp(-(r**2)) * (1.0 + 0.3 * np.sin(5.0 * r))
    reference = 4.0 * np.pi * simpson(r**2 * f, x=r)
    assert_allclose(radial_integral(r, f), reference, rtol=1e-13)
