"""Kinetic correction, figure-table and validity-report checks."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from becnlo import (
    GridError,
    RadialGrid,
    ValidationError,
    ValidityReport,
    config_from_dict,
    derive_scales,
    figure_data,
    kinetic_correction,
    rescaled_kinetic,
    tf_density,
    tf_host,
    validity_report,
)
from becnlo.params import SODIUM_REFERENCE
from becnlo.validity import EDGE_FRACTION
from reference import kinetic_correction_fd, kinetic_crossing_radius

CHECKS = ("single_tf", "single_mf", "two_tf", "two_mf")


def verdicts(report):
    payload = report.to_dict()
    return tuple(payload[check]["ok"] for check in CHECKS)


RATIOS = ("single_tf_ratio", "single_mf_ratio", "two_tf_ratio", "two_mf_depletion_ratio", "two_mf_std_ratio")


def passing_report(**ratios):
    """A report built directly, every ratio 0.5 unless given."""
    return ValidityReport(**{**dict.fromkeys(RATIOS, 0.5), **ratios}, scan_radius=1e-5, n_stored=10)


class TestKineticCorrection:
    def test_center_value(self, config, scales, host):
        k0 = kinetic_correction(config, host, 0.0)
        assert_allclose(k0 / scales.e_trap, 0.033014, rtol=1e-4)
        # at r = 0 the closed form collapses to 3*(hbar*omega)^2/(4*mu)
        assert_allclose(k0, 3.0 * scales.e_trap**2 / (4.0 * host.mu), rtol=1e-13)

    def test_matches_finite_differences(self, config, scales, host):
        r = np.linspace(0.0, 0.9 * host.radius, 301)
        closed = kinetic_correction(config, host, r)
        fd = kinetic_correction_fd(config, scales, host, r)
        assert_allclose(fd, closed, rtol=1e-6)

    def test_monotone_growth(self, config, host):
        r = np.linspace(0.0, 0.9 * host.radius, 100)
        k = kinetic_correction(config, host, r)
        assert np.all(np.diff(k) > 0.0)

    def test_rejects_edge(self, config, scales, host):
        edge = EDGE_FRACTION * host.radius
        kinetic_correction(config, host, np.nextafter(edge, 0.0))
        with pytest.raises(GridError):
            kinetic_correction(config, host, edge)
        with pytest.raises(GridError):
            kinetic_correction(config, host, host.radius)
        with pytest.raises(GridError):
            kinetic_correction(config, host, -1e-6)
        with pytest.raises(GridError):
            kinetic_correction_fd(config, scales, host, host.radius)

    def test_edge_does_not_depend_on_the_checked_grid(self, config, scales, mu):
        # a 64-point grid over 1.5*R has spacings of 0.024*R; the guard is a fraction of R alone
        closed = tf_host(config, scales)
        coarse = tf_density(config, scales, mu, RadialGrid(1.5 * closed.radius, 64))
        r = 0.99 * closed.radius
        assert kinetic_correction(config, coarse, r) == kinetic_correction(config, closed, r)

    def test_crossing_near_edge(self, config, host):
        crossing = kinetic_crossing_radius(config, host)
        assert_allclose(crossing / host.radius, 0.9577868, rtol=1e-5)
        # within five percent of the cloud radius
        assert abs(crossing / host.radius - 1.0) < 0.05

    def test_flat_trap_limit(self, config, host):
        # K(0) = 3 hbar^2 omega^2 / (4 mu): softening the trap at fixed mu
        # kills the correction quadratically
        soft = config_from_dict({**SODIUM_REFERENCE, "omega_rad_s": config.omega / 10.0})
        k_soft = kinetic_correction(soft, host, 0.0)
        k_full = kinetic_correction(config, host, 0.0)
        assert_allclose(k_soft / k_full, 1e-2, rtol=1e-12)


def test_rescaled_kinetic(config, scales, host):
    k0 = kinetic_correction(config, host, 0.0)
    assert_allclose(rescaled_kinetic(k0, scales) / scales.e_trap, 0.031813, rtol=1e-4)


def test_rescaled_kinetic_degenerate_inputs(config, scales):
    assert rescaled_kinetic(0.0, scales) == 0.0
    decoupled = config_from_dict({**SODIUM_REFERENCE, "a12_m": 0.0, "n_stored_max": 1})
    assert rescaled_kinetic(1e-31, derive_scales(decoupled)) == 0.0


# r = 0 is row 0 of the tables
def test_stored_self_energy(config):
    assert_allclose(figure_data(config, 3, n_rows=32)["stored_self_hw"][0], 1.878793e-4, rtol=1e-6)


def test_center_ratio_magnitude(config):
    # rescaled kinetic vs stored self-interaction at the center: ~169
    cols = figure_data(config, 3, n_rows=32)
    assert_allclose(cols["rescaled_kinetic_hw"][0] / cols["stored_self_hw"][0], 169.33, rtol=1e-3)


class TestDepletion:
    def test_central_fraction(self, config):
        cols = figure_data(config, 4, n_rows=32)
        assert_allclose(cols["depletion_per_d3"][0] / cols["host_per_d3"][0], 1.8766e-3, rtol=1e-4)

    def test_central_per_cell(self, config):
        assert_allclose(figure_data(config, 4, n_rows=32)["depletion_per_d3"][0], 3.6570, rtol=1e-4)


class TestDensityStd:
    def test_central_value(self, config):
        assert_allclose(figure_data(config, 4, n_rows=32)["std_per_d3"][0], 119.3872, rtol=1e-5)


def test_figure_columns_consistent(config, scales):
    fig2, fig3, fig4 = (figure_data(config, fig, n_rows=64) for fig in (2, 3, 4))
    d3 = scales.d**3
    n1, n2 = np.asarray(fig4["host_per_d3"]) / d3, np.asarray(fig4["stored_per_d3"]) / d3
    assert_allclose(np.asarray(fig2["host_coll_hw"]) * scales.e_trap, scales.u11 * n1, rtol=1e-12)
    assert_allclose(np.asarray(fig2["cross_coll_hw"]) * scales.e_trap, scales.u12 * n2, rtol=1e-12)
    assert_allclose(
        fig3["rescaled_kinetic_hw"], np.asarray(fig2["kinetic_hw"]) * scales.u12 / scales.u11, rtol=1e-12
    )
    # the depleted fraction never exceeds what is there to deplete
    assert np.all(np.asarray(fig4["depletion_per_d3"]) <= np.asarray(fig4["host_per_d3"]))


# each table computes only the columns it prints: what another table needs is never called
@pytest.mark.parametrize(
    "fig, unused", [(2, "rescaled_kinetic"), (3, "tf_density_at"), (4, "kinetic_correction")]
)
def test_figure_skips_what_it_does_not_print(config, monkeypatch, fig, unused):
    def refuse(*args, **kwargs):
        raise AssertionError(f"fig {fig} prints nothing of {unused}")

    monkeypatch.setattr(f"becnlo.validity.{unused}", refuse)
    figure_data(config, fig, n_rows=32)


def test_report_computes_each_profile_once(config, monkeypatch):
    # the five ratios read one set of columns: n1, K and n2 are each computed once
    import becnlo.validity as validity

    calls = []

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(validity, "tf_density_at", counted("n1", validity.tf_density_at))
    monkeypatch.setattr(validity, "kinetic_correction", counted("K", validity.kinetic_correction))
    monkeypatch.setattr(validity.StoredMode, "density", counted("n2", validity.StoredMode.density))
    validity_report(config)
    assert sorted(calls) == ["K", "n1", "n2"]


class TestFigureData:
    def test_fig4_columns_and_center(self, config):
        cols = figure_data(config, 4, n_rows=64)
        assert list(cols)[:5] == [
            "r_over_d",
            "host_per_d3",
            "stored_per_d3",
            "depletion_per_d3",
            "std_per_d3",
        ]
        assert_allclose(cols["host_per_d3"][0], 1948.749, rtol=1e-6)
        assert_allclose(cols["stored_per_d3"][0], 0.14955, rtol=1e-4)

    def test_fig4_center_ordering(self, config):
        cols = figure_data(config, 4, n_rows=32)
        center = [
            cols["host_per_d3"][0],
            cols["std_per_d3"][0],
            cols["depletion_per_d3"][0],
            cols["stored_per_d3"][0],
        ]
        assert center == sorted(center, reverse=True)

    def test_fig2_has_log_columns(self, config):
        cols = figure_data(config, 2, n_rows=32)
        assert "log10_kinetic_hw" in cols
        assert np.isneginf(cols["log10_trap_hw"][0])  # V(0) = 0
        assert_allclose(cols["host_coll_hw"][0], 22.7178, rtol=1e-5)

    def test_fig3_ratio(self, config):
        cols = figure_data(config, 3, n_rows=32)
        ratio = np.asarray(cols["rescaled_kinetic_hw"]) / np.asarray(cols["stored_self_hw"])
        assert np.all(ratio > 100.0)

    def test_rows(self, config):
        cols = figure_data(config, 4, n_rows=40)
        assert all(np.asarray(v).size == 40 for v in cols.values())

    def test_bad_fig(self, config):
        with pytest.raises(ValidationError):
            figure_data(config, 5)


class TestValidityReport:
    def test_verdicts(self, config):
        report = validity_report(config)
        assert verdicts(report) == (True, True, False, False)

    def test_ratios(self, config):
        report = validity_report(config)
        assert report.single_tf_ratio < 0.01
        assert_allclose(report.single_mf_ratio, 1.8766e-3, rtol=1e-4)
        assert report.two_tf_ratio > 100.0
        # peak depletion ~3.66/d^3 against a stored peak of ~0.15/d^3
        assert report.two_mf_depletion_ratio > 20.0
        assert report.two_mf_std_ratio > 100.0

    def test_to_dict_round_trip(self, config):
        report = validity_report(config)
        payload = report.to_dict()
        assert payload["single_tf"]["ok"] is True
        assert payload["two_mf"]["ok"] is False
        assert payload["n_stored"] == config.n_stored_max

    def test_ratio_of_one_fails(self):
        payload = passing_report(single_tf_ratio=1.0).to_dict()
        assert payload["single_tf"] == {"ratio": 1.0, "ok": False}
        assert verdicts(passing_report(two_tf_ratio=1.0)) == (True, True, False, True)
        assert verdicts(passing_report()) == (True, True, True, True)

    @pytest.mark.parametrize("ratio", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_ratio_is_null_and_fails(self, ratio):
        payload = passing_report(**dict.fromkeys(RATIOS, ratio)).to_dict()
        for check in ("single_tf", "single_mf", "two_tf"):
            assert payload[check] == {"ratio": None, "ok": False}
        assert payload["two_mf"] == {"depletion_ratio": None, "std_ratio": None, "ok": False}

    @pytest.mark.parametrize(
        "depletion, std, ok",
        [(0.5, 0.5, True), (0.5, 1.0, False), (1.0, 0.5, False), (np.nan, 0.5, False), (0.5, np.inf, False)],
    )
    def test_two_mf_needs_both_ratios(self, depletion, std, ok):
        report = passing_report(two_mf_depletion_ratio=depletion, two_mf_std_ratio=std)
        assert report.to_dict()["two_mf"]["ok"] is ok
        assert verdicts(report)[:3] == (True, True, True)

    def test_empty_mode_is_degenerate(self, config):
        empty = config_from_dict({**SODIUM_REFERENCE, "n_stored_max": 0})
        report = validity_report(empty)
        assert report.two_tf_ratio == np.inf
        assert report.to_dict()["two_tf"] == {"ratio": None, "ok": False}

    def test_no_cross_coupling_passes_two_tf(self, config):
        # a12 = 0 decouples the stored mode from host corrections entirely
        decoupled = config_from_dict({**SODIUM_REFERENCE, "a12_m": 0.0})
        report = validity_report(decoupled)
        assert report.two_tf_ratio == 0.0
        assert report.to_dict()["two_tf"]["ok"] is True

    def test_inflated_self_interaction_passes_two_tf(self, config):
        # raising a22 by 1e4 lifts the stored self-energy above the
        # transferred kinetic correction, so that check flips to pass
        stiff = config_from_dict({**SODIUM_REFERENCE, "a22_m": 1e4 * config.a22})
        report = validity_report(stiff)
        assert report.to_dict()["two_tf"]["ok"] is True
        assert validity_report(config).to_dict()["two_tf"]["ok"] is False

