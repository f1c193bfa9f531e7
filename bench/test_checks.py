"""Tests of the benchmark's own checkers: a correct output passes, a perturbed one fails.

The correct outputs are built from the paper's formulas in the layout the CLI
prints, so these tests do not run becnlo.  Run with `python3 -m pytest bench`.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import worker
from checks import SODIUM, expected
from tracer import Tracer, add_self_times, parse_importtime

W = expected(SODIUM)


def fmt(x):
    return f"{x:.9g}"


def units_text(mu_factor=1.0, omega_tilde_factor=1.0):
    return "\n".join([
        f"d = {fmt(W['d'])} m",
        f"omega_tilde = {fmt(W['omega_tilde'] * omega_tilde_factor)} rad/s",
        f"s = {fmt(W['s'])} m",
        f"a22_tilde = {fmt(W['a22_tilde'])} m",
        f"omega_nl = {fmt(W['omega_nl'])} rad/s",
        f"mu = {fmt(W['mu'] * mu_factor)} J ({fmt(W['mu'] / W['e_trap'])} e_trap)",
    ]) + "\n"


def test_units_output_passes_and_shifted_mu_fails():
    assert checks.check_cli_output(["units"], units_text(), SODIUM, {}) == []
    assert checks.check_cli_output(["units"], units_text(mu_factor=1 + 1e-3), SODIUM, {})
    assert checks.check_cli_output(["units"], units_text(omega_tilde_factor=1 + 1e-7), SODIUM, {})


def test_phase_is_n2_minus_n_omega_t():
    command = ["phase", "--n", "2", "--time", "1505.4"]
    phase = 2 * W["omega_nl"] * 1505.4
    good = f"n = 2\ndelta_e = {fmt(2 * checks.HBAR * W['omega_nl'])} J\nphase = {fmt(phase)} rad\n"
    assert checks.check_cli_output(command, good, SODIUM, {}) == []
    bad = good.replace(fmt(phase), fmt(phase * (1 + 1e-6)))
    assert checks.check_cli_output(command, bad, SODIUM, {})


@pytest.mark.parametrize("fidelity, ok", [(1.0, True), (0.99, False), (1.0 - 1e-6, False)])
def test_gate_fidelity_must_be_one(fidelity, ok):
    gate = math.pi / (2 * W["omega_nl"])
    text = f"gate_time = {fmt(gate)} s\nrevival_time = {fmt(2 * gate)} s\nfidelity = {fmt(fidelity)}\n"
    assert (checks.check_cli_output(["gate", "--amps", "1,1,1"], text, SODIUM, {}) == []) is ok


def test_gate_time_off_by_a_percent_fails():
    gate = math.pi / (2 * W["omega_nl"]) * 1.01
    assert checks.check_gate({"gate_time": gate, "revival_time": 2 * gate, "fidelity": 1.0}, SODIUM, 1e-8)


def test_lifetime_overlap_matches_quadrature_and_rejects_shift():
    # The closed-form overlap agrees with a fine quadrature of the same integral.
    r = np.linspace(0.0, W["radius"], 200_001)
    phi2 = math.pi**-1.5 * W["s"] ** -3 * np.exp(-((r / W["s"]) ** 2))
    n1 = (W["mu"] - 0.5 * SODIUM["mass_kg"] * SODIUM["omega_rad_s"] ** 2 * r**2) / W["u11"]
    numeric = 4 * math.pi * np.trapezoid(r**2 * phi2 * n1, r)
    assert checks.mode_host_overlap(SODIUM) == pytest.approx(numeric, rel=1e-8)

    rate = abs(W["im_u12"]) * checks.mode_host_overlap(SODIUM)
    tau = checks.HBAR * math.log(2) / rate
    text = f"loss_rate_l = {fmt(rate)} J\ntau = {fmt(tau)} s\n"
    assert checks.check_cli_output(["lifetime"], text, SODIUM, {}) == []
    assert checks.check_cli_output(["lifetime"], text.replace(fmt(tau), fmt(tau * (1 + 1e-5))), SODIUM, {})


def sodium_report():
    """Validity report of the sodium scenario from the closed forms."""
    m, omega, s = SODIUM["mass_kg"], SODIUM["omega_rad_s"], W["s"]
    r = 0.5 * W["radius"]
    f = W["mu"] - 0.5 * m * omega**2 * r * r
    kinetic = 3 * checks.HBAR**2 * omega**2 / (4 * f) + checks.HBAR**2 * m * omega**4 * r * r / (8 * f * f)
    n1, n10 = f / W["u11"], W["mu"] / W["u11"]
    n2 = 10 * math.pi**-1.5 * s**-3 * math.exp(-r * r / (s * s))
    dep = checks.DEPLETION_COEFF * math.sqrt(n1 * SODIUM["a11_m"] ** 3) * n1
    return {
        "single_tf": {"ratio": kinetic / f, "ok": True},
        "single_mf": {"ratio": checks.DEPLETION_COEFF * math.sqrt(n10 * SODIUM["a11_m"] ** 3), "ok": True},
        "two_tf": {"ratio": kinetic * W["u12"] / W["u11"] / (W["u22_tilde"] * n2), "ok": False},
        "two_mf": {"depletion_ratio": dep / n2, "std_ratio": math.sqrt(2 * n1 * dep) / n2, "ok": False},
        "scan_radius_m": r,
        "n_stored": 10,
    }


def test_validity_report_passes_and_a_flipped_flag_fails():
    report = sodium_report()
    assert checks.check_cli_output(["validity"], json.dumps(report), SODIUM, {}) == []
    for key in ("single_tf", "single_mf", "two_tf", "two_mf"):
        flipped = copy.deepcopy(report)
        flipped[key]["ok"] = not flipped[key]["ok"]
        assert checks.check_cli_output(["validity"], json.dumps(flipped), SODIUM, {}), key


def test_validity_ratio_off_fails_even_with_consistent_flag():
    report = sodium_report()
    report["single_tf"]["ratio"] *= 1.001
    assert checks.check_validity(report, SODIUM, 1e-12)
    report = sodium_report()
    report["two_mf"]["depletion_ratio"] *= 1.001  # above the continuous maximum
    assert checks.check_validity(report, SODIUM, 1e-12)


def fig4_csv(rows=512):
    d3 = W["d"] ** 3
    r = np.linspace(0.0, checks.FIGURE_SPAN * W["radius"], rows)
    n1 = (W["mu"] - 0.5 * SODIUM["mass_kg"] * SODIUM["omega_rad_s"] ** 2 * r**2) / W["u11"]
    n2 = 10 * math.pi**-1.5 * W["s"] ** -3 * np.exp(-((r / W["s"]) ** 2))
    dep = checks.DEPLETION_COEFF * np.sqrt(n1 * SODIUM["a11_m"] ** 3) * n1
    raw = {"host_per_d3": n1 * d3, "stored_per_d3": n2 * d3, "depletion_per_d3": dep * d3,
           "std_per_d3": np.sqrt(2 * n1 * dep) * d3}
    cols = {"r_over_d": r / W["d"], **raw, **{"log10_" + k: np.log10(v) for k, v in raw.items()}}
    lines = [",".join(cols)] + [",".join(fmt(c[i]) for c in cols.values()) for i in range(rows)]
    return "\n".join(lines) + "\n"


def check_fig4(text):
    command = ["figures", "--fig", "4", "--out", "fig4.csv"]
    return checks.check_cli_output(command, "wrote fig4.csv (512 rows)\n", SODIUM, {"fig4.csv": text})


def alter_cell(text, row, col, new):
    lines = text.splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = new(cells[col])
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_figure_table_passes():
    assert check_fig4(fig4_csv()) == []


@pytest.mark.parametrize("row, col", [(7, 0), (100, 2), (300, 3), (0, 1), (511, 6), (42, 8)])
def test_figure_one_altered_cell_fails(row, col):
    text = alter_cell(fig4_csv(), row, col, lambda cell: fmt(float(cell) * (1 + 1e-6)))
    assert check_fig4(text)


def test_figure_log_of_zero_must_be_minus_inf():
    cols = {"r_over_d": np.linspace(0, checks.FIGURE_SPAN * W["radius"] / W["d"], 4)}
    raw = {"trap_hw": 0.5 * cols["r_over_d"] ** 2, "host_coll_hw": np.ones(4),
           "cross_coll_hw": np.ones(4), "kinetic_hw": np.ones(4)}
    logs = {"log10_" + k: np.log10(np.where(v > 0, v, 1.0)) for k, v in raw.items()}
    logs["log10_trap_hw"][0] = -np.inf
    table = {**cols, **raw, **logs}
    assert checks.check_figure(table, 2, SODIUM, 4, 1e-12) == []
    table["log10_trap_hw"] = np.where(raw["trap_hw"] > 0, logs["log10_trap_hw"], 0.0)
    assert checks.check_figure(table, 2, SODIUM, 4, 1e-12)


def host_payload(excess=3.4e-3, virial=2.6e-7):
    return {"mu_tf_J": W["mu"], "mu_gpe_J": W["mu"] * (1 + excess), "virial_residual": virial,
            "iterations": 3683, "central_density_tf_m3": W["mu"] / W["u11"]}


@pytest.mark.parametrize("change, ok", [
    ({}, True),
    ({"excess": 3.4e-3 + 3e-8}, True),  # a residual-based stop moves mu by ~3e-8
    ({"excess": 0.0}, False),
    ({"excess": 3.4e-3 + 2e-3}, False),
    ({"virial": 1e-3}, False),
])
def test_host_oracle(change, ok):
    payload = host_payload(**change)
    assert (checks.check_cli_output(["oracle"], json.dumps(payload), SODIUM, {}) == []) is ok


@pytest.mark.parametrize("idealized", [False, True])
@pytest.mark.parametrize("shift, overlap, ok", [
    (2e-5, 0.9997, True),
    (3e-8, 0.9997, True),
    (1e-3, 0.9997, False),
    (-1e-3, 0.9997, False),
    (0.0, 0.99, False),
])
def test_stored_oracle(idealized, shift, overlap, ok):
    payload = {"mu_J": checks.stored_mu_expected(SODIUM, idealized) * (1 + shift), "overlap": overlap,
               "mode_length_m": W["s"], "iterations": 5296, "virial_residual": 1.97}
    command = ["oracle", "--stored"] + (["--idealized"] if idealized else [])
    assert (checks.check_cli_output(command, json.dumps(payload), SODIUM, {}) == []) is ok


def test_stored_mu_uses_bare_u22():
    screened = 1.5 * checks.HBAR * W["omega_tilde"] + W["u22_tilde"] * 10 / ((2 * math.pi) ** 1.5 * W["s"] ** 3)
    assert abs(checks.stored_mu_expected(SODIUM, True) / screened - 1) > checks.STORED_MU_RTOL


def test_parse_importtime_counts_outermost_scipy_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     becnlo.errors",
        "import time:        50 |         50 |           scipy._lib",
        "import time:       200 |        250 |         scipy",
        "import time:        30 |         30 |         numpy.linalg",
        "import time:        10 |        290 |       scipy.integrate",
        "import time:        40 |        330 |     becnlo.grids",
        "import time:        60 |        490 |   becnlo",
    ])
    assert parse_importtime(stderr) == pytest.approx({"scipy_s": 290e-6, "becnlo_self_s": 200e-6})


def test_self_time_excludes_children():
    spans = add_self_times([
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "parent": 0, "start": 5.0, "end": 6.0},
    ])
    assert [s["self"] for s in spans] == [6.0, 3.0, 1.0]


def test_tracer_records_nesting():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)
    with tracer.span("outer"):
        inner()
    outer, wrapped = tracer.spans
    assert wrapped[1] == outer[0] and outer[1] is None


def test_scenarios_follow_the_seed_and_stay_valid():
    assert worker.make_scenarios(7) == worker.make_scenarios(7)
    assert worker.make_scenarios(7) != worker.make_scenarios(8)
    for p, _ in worker.make_scenarios(7):
        want = expected(p)
        assert p["a12_m"] < p["a11_m"] and p["a11_m"] * p["a22_m"] > p["a12_m"] ** 2
        assert want["radius"] / want["d"] > 3.0
        assert want["mu"] / want["u11"] * p["a11_m"] ** 3 < 1e-3


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    listed = [w["name"] for w in spec["workloads"]]
    assert listed and set(listed) <= set(run.WORKLOADS)  # param_scan runs by hand only
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
