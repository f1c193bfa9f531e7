"""End-to-end acceptance checks, one verdict line per shipped claim.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected number here was derived from the model formulas by hand
before the package was written; nothing is read back from the code under
test.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import simpson

from becnlo import (
    FockSuperposition,
    RadialGrid,
    StoredMode,
    cli,
    compare_tf_vs_gpe,
    config_from_dict,
    derive_scales,
    energy_shift,
    estimate_lifetime,
    evolve,
    figure_data,
    gate_fidelity,
    kinetic_correction,
    ns_gate_target,
    ns_gate_time,
    rescaled_kinetic,
    tf_density_at,
    validity_report,
)
from reference import energy_shift_bruteforce, kinetic_correction_fd, kinetic_crossing_radius
import becnlo.gpe as gpe
from becnlo.gpe import GpeProblem, solve_ground_state, virial_residual
from becnlo.params import SODIUM_REFERENCE


def verdict(num, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} [criterion {num:02d}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def within(value, target, rel):
    return abs(value / target - 1.0) <= rel


def test_criterion_01_derived_constants(scales):
    ok = (
        within(scales.a22_tilde, 0.296e-9, 0.005)
        and within(scales.eff_trap_factor, 0.0364, 0.005)
        and within(scales.d, 2.96e-6, 0.01)
        and within(scales.e_trap, 3.30e-32, 0.01)
    )
    verdict(1, "derived constants a22_tilde/eff-trap/d/e_trap at quoted values", ok)


def test_criterion_02_gate_times(scales):
    times = ns_gate_time(scales)
    ok = abs(times.revival_time / 60.0 - 50.0) <= 2.0 and abs(times.gate_time / 60.0 - 25.0) <= 1.0
    verdict(2, "storage times pi/Omega = 50 +/- 2 min and pi/(2 Omega) = 25 +/- 1 min", ok)


def test_criterion_03_lifetime(config, scales, host):
    base = estimate_lifetime(config, scales, host)
    ok = within(base.tau, 2.5e-4, 0.20)
    for factor in (0.1, 1.0, 10.0):  # a 100x span of the loss strength
        swept = config_from_dict({**SODIUM_REFERENCE, "im_a12_m": config.im_a12 * factor})
        tau = estimate_lifetime(swept, derive_scales(swept), host).tau
        ok = ok and abs(tau * factor / base.tau - 1.0) < 1e-12
    verdict(3, "tau = 0.25 ms +/- 20% and exactly inverse in Im(U12) over 100x", ok)


def test_criterion_04_shift_oracle(scales):
    mode = StoredMode(scales.s)
    ok = True
    for n in range(7):
        closed = energy_shift(n, scales)
        quadrature = energy_shift_bruteforce(n, mode, scales)
        if closed == 0.0:
            ok = ok and quadrature == 0.0
        else:
            ok = ok and abs(quadrature / closed - 1.0) <= 1e-6
    verdict(4, "energy_shift equals pair-counting quadrature to 1e-6 for n = 0..6", ok)


def test_criterion_05_ns_gate(scales):
    rng = np.random.default_rng(42)
    times = ns_gate_time(scales)
    ok = True
    for _ in range(40):
        state = FockSuperposition.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        gated = evolve(state, times.gate_time, scales)
        ok = ok and gate_fidelity(gated, ns_gate_target(state)) >= 1.0 - 1e-12
        revived = evolve(state, times.revival_time, scales)
        ok = ok and bool(np.all(np.abs(np.asarray(revived.amps) - np.asarray(state.amps)) < 1e-12))
    verdict(5, "NS gate: (c0,c1,c2) -> (c0,c1,-c2) at pi/(2 Omega), identity at pi/Omega", ok)


def test_criterion_06_energy_ordering(config, scales, host):
    r = np.linspace(0.0, 0.5 * host.radius, 401)
    host_coll = scales.u11 * np.asarray(tf_density_at(config, scales, host.mu, r))
    trap = config.trap_k * (r * r)
    kin = np.asarray(kinetic_correction(config, host, r))
    ok = bool(np.all(host_coll > trap)) and bool(np.all(kin < host_coll))
    crossing = kinetic_crossing_radius(config, host)
    ok = ok and abs(crossing / host.radius - 1.0) < 0.05
    r_check = np.linspace(0.0, 0.949 * host.radius, 1001)
    ok = ok and bool(
        np.all(
            np.asarray(kinetic_correction(config, host, r_check))
            < scales.u11 * np.asarray(tf_density_at(config, scales, host.mu, r_check))
        )
    )
    k_closed = 3.0 * scales.e_trap**2 / (4.0 * host.mu)
    ok = ok and within(kinetic_correction(config, host, 0.0), k_closed, 1e-4)
    ok = ok and within(float(kinetic_correction_fd(config, scales, host, 0.0)), k_closed, 1e-4)
    verdict(6, "energy ordering: collisions dominate trap and kinetic up to 5% off the edge", ok)


def test_criterion_07_two_component_kinetic(config, scales, host):
    r = np.linspace(0.0, 0.5 * host.radius, 401)
    mode = StoredMode(scales.s)
    stored_self = scales.u22_tilde * np.asarray(mode.density(r, config.n_stored_max))
    ratio = np.asarray(rescaled_kinetic(kinetic_correction(config, host, r), scales)) / stored_self
    verdict(7, "rescaled kinetic exceeds stored self-interaction by > 100x", float(np.max(ratio)) > 100.0)


def test_criterion_08_density_budget(config):
    cols = figure_data(config, 4, n_rows=64)
    host0 = cols["host_per_d3"][0]
    std0 = cols["std_per_d3"][0]
    dep0 = cols["depletion_per_d3"][0]
    stored0 = cols["stored_per_d3"][0]
    ok = (
        within(host0, 1.9e3, 0.20)
        and within(std0, 1.2e2, 0.20)
        and within(dep0, 3.5, 0.20)
        and within(stored0, 0.15, 0.20)
        and host0 > std0 > dep0 > stored0
    )
    report = validity_report(config)
    payload = report.to_dict()
    verdicts = tuple(payload[check]["ok"] for check in ("single_tf", "single_mf", "two_tf", "two_mf"))
    ok = ok and verdicts == (True, True, False, False)
    verdict(8, "central densities per d^3 at quoted values; verdicts (pass, pass, fail, fail)", ok)


def test_criterion_09_gpe_oracle(config, scales, monkeypatch):
    start = time.perf_counter()
    comp = compare_tf_vs_gpe(config)
    elapsed = time.perf_counter() - start
    payload = comp.to_dict()
    ok = 2e-4 <= payload["mu_rel_err"] <= 5e-3
    ok = ok and 2e-4 <= payload["central_density_rel_err"] <= 5e-3
    ok = ok and virial_residual(comp.solution) < 1e-4

    grid = RadialGrid(8.0 * scales.d, 2048)
    linear = GpeProblem(
        grid=grid,
        potential=[config.trap_k * (x * x) for x in grid.r],
        g=0.0,
        atom_count=1.0,
        mass=config.mass,
    )
    guess = np.exp(-0.25 * (np.asarray(grid.r) / (2.0 * scales.d)) ** 2)
    monkeypatch.setattr(gpe, "_initial_guesses", lambda problem, r, v: [guess])
    monkeypatch.setattr(gpe, "DEFAULT_TOL", 1e-12)
    sol = solve_ground_state(linear)
    phi = np.pi**-0.75 * scales.d**-1.5 * np.exp(-0.5 * (np.asarray(grid.r) / scales.d) ** 2)
    overlap = 4.0 * math.pi * simpson(np.asarray(grid.r) ** 2 * phi * np.asarray(sol.psi), x=grid.r)
    ok = ok and overlap**2 > 1.0 - 1e-8
    ok = ok and elapsed < 60.0
    verdict(9, "GPE oracle: TF errors in [2e-4, 5e-3], virial and g = 0 checks, < 60 s", ok)


def test_criterion_10_determinism(tmp_path, capsys):
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    for p in paths:
        assert cli.main(["figures", "--fig", "4", "--out", str(p)]) == 0
    capsys.readouterr()
    ok = paths[0].read_bytes() == paths[1].read_bytes()
    for p in paths:
        p.unlink()
    for p in paths:
        assert cli.main(["figures", "--fig", "2", "--out", str(p)]) == 0
    capsys.readouterr()
    ok = ok and paths[0].read_bytes() == paths[1].read_bytes()
    verdict(10, "repeated runs produce byte-identical CSV tables", ok)
