import math
import random

import pytest
from numpy.testing import assert_allclose

from becnlo import (
    LossNotConfiguredError,
    StoredMode,
    ValidationError,
    config_from_dict,
    derive_scales,
    estimate_lifetime,
    mode_host_overlap,
    sodium_reference_config,
    tf_host,
)
from becnlo.params import SODIUM_REFERENCE
from reference import mode_host_overlap_quad


def test_overlap_value(config, scales, host):
    # 4*pi int r^2 phi^2 n1 dr: the host density the mode samples
    overlap = mode_host_overlap(config, scales, host)
    assert_allclose(overlap, 6.186424e19, rtol=1e-4)


def scan_scenario(rng):
    """A stable, trapped Thomas-Fermi scenario over the benchmark's parameter-scan ranges."""
    a11 = rng.uniform(2e-9, 6e-9)
    a12 = a11 * rng.uniform(0.85, 0.99)
    return {
        "mass_kg": rng.uniform(1.0e-26, 1.5e-25),
        "a11_m": a11,
        "a22_m": a12 * a12 / a11 * (1.0 + rng.uniform(0.05, 0.5)),
        "a12_m": a12,
        "im_a12_m": -rng.uniform(1e-11, 2e-9),
        "omega_rad_s": 2.0 * math.pi * rng.uniform(20.0, 200.0),
        "n_host": int(10.0 ** rng.uniform(5.0, 7.0)),
        "n_stored_max": rng.randint(1, 20),
    }


def scan_configs(seed, count):
    rng = random.Random(seed)
    return [config_from_dict(scan_scenario(rng)) for _ in range(count)]


OVERLAP_CONFIGS = [sodium_reference_config(), *scan_configs(14, 24)]


@pytest.mark.parametrize(
    "scenario", OVERLAP_CONFIGS, ids=["sodium", *(f"scan{i}" for i in range(1, len(OVERLAP_CONFIGS)))]
)
def test_overlap_matches_quadrature(scenario):
    scales = derive_scales(scenario)
    host = tf_host(scenario, scales)
    mode = StoredMode(scales.s)
    want = mode_host_overlap_quad(scenario, scales, host.mu, mode)
    assert_allclose(mode_host_overlap(scenario, scales, host), want, rtol=1e-10, atol=0.0)


def test_default_lifetime(config, scales, host):
    estimate = estimate_lifetime(config, scales, host)
    assert_allclose(estimate.loss_rate_l, 2.9241e-31, rtol=1e-3)
    assert_allclose(estimate.tau, 2.5e-4, rtol=1e-4)


def test_lifetime_inverse_in_loss(config, scales, host):
    # tau * |Im a12| is an exact invariant across a 100x sweep
    base = estimate_lifetime(config, scales, host)
    for factor in (0.1, 0.5, 2.0, 10.0):
        scaled = config_from_dict({**SODIUM_REFERENCE, "im_a12_m": config.im_a12 * factor})
        estimate = estimate_lifetime(scaled, derive_scales(scaled), host)
        assert_allclose(estimate.tau * factor, base.tau, rtol=1e-12)


def test_loss_requires_im_a12(scales, host):
    # the guard reads the computed Im U12: an im_a12 of -1e-300 underflows to 0 there
    faint = config_from_dict({**SODIUM_REFERENCE, "im_a12_m": -1e-300})
    with pytest.raises(LossNotConfiguredError):
        estimate_lifetime(faint, scales, host)


def test_estimate_requires_im_a12(config, scales, host):
    lossless = config_from_dict({k: v for k, v in SODIUM_REFERENCE.items() if k != "im_a12_m"})
    with pytest.raises(LossNotConfiguredError):
        estimate_lifetime(lossless, scales, host)


def test_tau_validation(monkeypatch, config, scales, host):
    monkeypatch.setattr("becnlo.lifetime.mode_host_overlap", lambda config, scales, host: math.inf)
    with pytest.raises(ValidationError, match="loss rate must be positive and finite"):
        estimate_lifetime(config, scales, host)

