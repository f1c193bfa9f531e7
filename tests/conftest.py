from pathlib import Path

import pytest

from becnlo import (
    RadialGrid,
    derive_scales,
    sodium_reference_config,
    tf_chemical_potential,
    tf_density,
    tf_radius,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def config():
    return sodium_reference_config()


@pytest.fixture(scope="session")
def scales(config):
    return derive_scales(config)


@pytest.fixture(scope="session")
def mu(config, scales):
    return tf_chemical_potential(config, scales)


@pytest.fixture(scope="session")
def grid(config, mu):
    """The oracle's default grid: 4,096 points over 1.5 cloud radii."""
    return RadialGrid(1.5 * tf_radius(config, mu), 4096)


@pytest.fixture(scope="session")
def host(config, scales, mu, grid):
    return tf_density(config, scales, mu, grid)
