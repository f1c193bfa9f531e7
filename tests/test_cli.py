import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import becnlo
from becnlo import ConvergenceError, cli
from becnlo.grids import MAX_POINTS, RadialGrid
from conftest import REPO_ROOT


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    values = {}
    for line in text.splitlines():
        if " = " in line:
            key, rest = line.split(" = ", 1)
            values[key] = float(rest.split()[0])
    return values


def test_units_output(capsys):
    code, out, _ = run(capsys, "units")
    assert code == 0
    values = parse_kv(out)
    assert_allclose(values["a22_tilde"], 2.963636e-10, rtol=1e-6)
    assert_allclose(values["eff_trap_factor"], 0.0363636, rtol=1e-5)
    assert_allclose(values["d"], 2.964364e-6, rtol=1e-6)
    assert_allclose(values["e_trap"], 3.313035e-32, rtol=1e-6)
    assert "(ok: True)" in out


def test_units_explicit_config_matches_bundled(capsys):
    code_a, out_a, _ = run(capsys, "units")
    code_b, out_b, _ = run(capsys, "units", "--config", str(REPO_ROOT / "paper_sodium.json"))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_phase_pi_at_gate_time(capsys):
    gate_time = math.pi / (2.0 * 1.0434072990279874e-3)
    code, out, _ = run(capsys, "phase", "--n", "2", "--time", f"{gate_time!r}")
    assert code == 0
    values = parse_kv(out)
    # output carries nine significant digits
    assert_allclose(values["phase"], math.pi, rtol=1e-8)


def test_phase_single_occupation_is_linear(capsys):
    # n = 1 carries no pair, hence no nonlinear phase; --t is accepted
    code, out, _ = run(capsys, "phase", "--n", "1", "--t", "100")
    assert code == 0
    values = parse_kv(out)
    assert values["delta_e"] == 0.0
    assert values["phase"] == 0.0


@pytest.mark.parametrize("time", ["nan", "inf", "-5"])
def test_phase_bad_time_exit_code(capsys, time):
    code, out, err = run(capsys, "phase", "--n", "2", "--time", time)
    assert code == 2
    assert out == ""
    assert "finite and non-negative" in err


@pytest.mark.parametrize(
    "n, time",
    [(str(10**200), "1"), (str(10**100), "1e200")],
    ids=["shift-beyond-double", "phase-beyond-double"],
)
def test_phase_out_of_range_exit_code(capsys, n, time):
    # (n^2 - n) past the largest double, or a finite shift times a long storage
    code, out, err = run(capsys, "phase", "--n", n, "--time", time)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "out of floating-point range" in err


def test_gate_reports_both_times(capsys):
    code, out, _ = run(capsys, "gate")
    assert code == 0
    values = parse_kv(out)
    assert_allclose(values["gate_time"], 1505.4489, rtol=1e-6)
    assert_allclose(values["revival_time"], 3010.8977, rtol=1e-6)
    assert values["fidelity"] == 1.0


def test_gate_custom_amps(capsys):
    code, out, _ = run(capsys, "gate", "--amps", "0.6,0.0,0.8j")
    assert code == 0
    assert parse_kv(out)["fidelity"] == 1.0


def test_gate_bad_amps(capsys):
    code, _, err = run(capsys, "gate", "--amps", "1,2")
    assert code == 2 and "three amplitudes" in err
    code, _, err = run(capsys, "gate", "--amps", "a,b,c")
    assert code == 2 and "cannot parse" in err


# |1.5e308+1.5e308j| passes the largest double, so the norm is inf
@pytest.mark.parametrize("amps", ["nan,1,1", "inf,1,1", "1.5e308+1.5e308j,1,1"])
def test_gate_non_finite_amps_exit_code(capsys, amps):
    code, out, err = run(capsys, "gate", "--amps", amps)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_gate_amps_near_double_range_normalize(capsys):
    # |1e308+1e308j| = 1.41e308 is still a double
    code, out, _ = run(capsys, "gate", "--amps", "1e308+1e308j,1,1")
    assert code == 0
    assert parse_kv(out)["fidelity"] == 1.0


def test_lifetime_default(capsys):
    code, out, _ = run(capsys, "lifetime")
    assert code == 0
    assert_allclose(parse_kv(out)["tau"], 2.5e-4, rtol=1e-4)


def test_lifetime_without_loss_channel(capsys, tmp_path):
    data = json.loads((REPO_ROOT / "paper_sodium.json").read_text(encoding="utf-8"))
    del data["im_a12_m"]
    p = tmp_path / "lossless.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "lifetime", "--config", str(p))
    assert code == 2
    assert "loss channel" in err


def test_validity_json(capsys):
    code, out, _ = run(capsys, "validity")
    assert code == 0
    payload = json.loads(out)
    assert payload["single_tf"]["ok"] is True
    assert payload["single_mf"]["ok"] is True
    assert payload["two_tf"]["ok"] is False
    assert payload["two_mf"]["ok"] is False


def test_figures_deterministic(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run(capsys, "figures", "--fig", "4", "--out", str(path))
        assert code == 0
        assert f"wrote {path}" in out
    assert a.read_bytes() == b.read_bytes()


def test_fig4_csv_layout(capsys, tmp_path):
    path = tmp_path / "fig4.csv"
    code, _, _ = run(capsys, "figures", "--fig", "4", "--rows", "40", "--out", str(path))
    assert code == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("r_over_d,host_per_d3,stored_per_d3,depletion_per_d3,std_per_d3")
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0"
    assert_allclose(float(first[1]), 1948.749, rtol=1e-6)


def test_fig2_serializes_log_of_zero(capsys, tmp_path):
    path = tmp_path / "fig2.csv"
    code, _, _ = run(capsys, "figures", "--fig", "2", "--rows", "32", "--out", str(path))
    assert code == 0
    first = path.read_text(encoding="utf-8").splitlines()[1]
    assert "-inf" in first  # log10 of the vanishing trap term at r = 0


@pytest.mark.parametrize("rows", ["0", "5"])
def test_figures_too_few_rows_exit_code(capsys, tmp_path, rows):
    path = tmp_path / "fig.csv"
    code, _, err = run(capsys, "figures", "--fig", "2", "--rows", rows, "--out", str(path))
    assert code == 2
    assert f"at least 16 rows, got {rows}" in err
    assert not path.exists()


ABOVE_CAP = str(MAX_POINTS + 1)


@pytest.mark.parametrize(
    "argv, unit",
    [
        (["figures", "--fig", "4", "--rows", ABOVE_CAP], "rows"),
        (["oracle", "--grid-points", ABOVE_CAP], "grid points"),
    ],
    ids=["figures-rows", "oracle-grid-points"],
)
def test_grid_above_cap_exit_code(capsys, monkeypatch, tmp_path, argv, unit):
    # refused before any radius is built: a grid this size would need about 0.8 GB
    radii = RadialGrid.__dict__["r"].func

    def r(grid):
        assert grid.n_points <= MAX_POINTS, "radii built above the cap"
        return radii(grid)

    monkeypatch.setattr(RadialGrid, "r", property(r))
    path = tmp_path / "out"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"at most {MAX_POINTS} {unit}" in err
    assert not path.exists()


def test_oracle_small_grid(capsys):
    code, out, _ = run(capsys, "oracle", "--grid-points", "512")
    assert code == 0
    payload = json.loads(out)
    assert 2e-4 < payload["mu_rel_err"] < 5e-3
    assert payload["virial_residual"] < 1e-4


# the three oracle reports at the default grid, as the solver that started
# every solve from its guesses printed them
ORACLE_RECORDED = json.loads((REPO_ROOT / "tests" / "oracle_golden.json").read_text(encoding="utf-8"))
# README's relative tolerances for a change of the solver's path to the fixed point
ORACLE_RTOL = {
    "mu_gpe_J": 1e-9, "central_density_gpe_m3": 1e-9, "mu_J": 1e-9, "overlap": 1e-9,
    "mu_rel_err": 1e-7, "central_density_rel_err": 1e-7, "l2_density_err": 1e-7,
    "mu_tf_J": 1e-12, "central_density_tf_m3": 1e-12, "mode_length_m": 1e-12,  # closed forms
}


@pytest.mark.parametrize("command", sorted(ORACLE_RECORDED))
def test_oracle_matches_recorded_reports(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    got, want = json.loads(out), ORACLE_RECORDED[command]
    assert set(got) == set(want)
    for key, rtol in ORACLE_RTOL.items():
        if key in want:
            assert_allclose(got[key], want[key], rtol=rtol, atol=0.0, err_msg=key)
    if "--idealized" in command:
        assert_allclose(got["virial_residual"], want["virial_residual"], rtol=1e-3)
    elif "--stored" not in command:
        assert got["virial_residual"] < 1e-4
    if "--stored" in command:
        assert got["residual"] < 1e-10
    assert isinstance(got["iterations"], int) and got["iterations"] >= 1


# the stdout of lifetime and validity and each table's CSV at the default 512
# rows, as the commands printed them when the loss overlap was integrated by
# Simpson's rule on the 4,096-point host grid; a word key=value changes the
# bundled config.  The degenerate configs were recorded when the validity
# report still built its own budgets: an empty mode gives null ratios, and
# a12 = 0 a two_tf ratio of 0.0 (null as well once the host is dilute).  The
# units, phase and gate outputs were recorded when the regime flags and the
# lifetime were still stored fields: 100 host atoms fail the tf_ratio check,
# 1e14 the diluteness check
CLOSED_FORM_RECORDED = {
    "units": "units.txt",
    "units n_host=100": "units_small_host.txt",
    "units n_host=1e14": "units_dense_host.txt",
    "phase --n 2 --time 1505.4": "phase.txt",
    "gate --amps 1,1,1": "gate.txt",
    "lifetime": "lifetime.txt",
    "validity": "validity.json",
    "figures --fig 2": "fig2.csv",
    "figures --fig 3": "fig3.csv",
    "figures --fig 4": "fig4.csv",
    "validity n_stored_max=0": "validity_empty_mode.json",
    "validity a12_m=0": "validity_a12_zero.json",
    "validity a12_m=0 n_host=1e14": "validity_a12_zero_dilute.json",
    "figures --fig 2 --rows 64 a12_m=0": "fig2_a12_zero.csv",
    "figures --fig 3 --rows 64 a12_m=0": "fig3_a12_zero.csv",
    "figures --fig 4 --rows 64 a12_m=0": "fig4_a12_zero.csv",
}


@pytest.mark.parametrize("command", CLOSED_FORM_RECORDED)
def test_closed_form_outputs_match_recorded(capsys, tmp_path, command):
    want = (REPO_ROOT / "tests" / "golden" / CLOSED_FORM_RECORDED[command]).read_bytes()
    words = command.split()
    argv = [word for word in words if "=" not in word]
    changes = {key: json.loads(value) for key, value in (word.split("=") for word in words if "=" in word)}
    if changes:
        argv += ["--config", write_config(tmp_path, "config.json", **changes)]
    if argv[0] == "figures":
        path = tmp_path / "table.csv"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        got = path.read_bytes()
    else:
        code, out, _ = run(capsys, *argv)
        got = out.encode("utf-8")
    assert code == 0
    assert got == want


def test_oracle_writes_file(capsys, tmp_path):
    path = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "oracle", "--grid-points", "512", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text(encoding="utf-8"))["iterations"] > 0


def test_oracle_nonconvergence_exit_code(capsys, monkeypatch):
    def explode(config, grid_points):
        raise ConvergenceError("stuck", residual=1.0, iterations=1)

    monkeypatch.setattr(becnlo.gpe, "compare_tf_vs_gpe", explode)
    code, _, err = run(capsys, "oracle")
    assert code == 3
    assert "stuck" in err


def test_bad_config_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"mass_kg": 1}', encoding="utf-8")
    code, _, err = run(capsys, "units", "--config", str(p))
    assert code == 2
    assert "missing config key" in err


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8"])
def test_unreadable_config_exit_code(capsys, tmp_path, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not utf-8":
        path.write_bytes(b'\xff\xfe{"mass_kg": 1}')
    code, out, err = run(capsys, "units", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: cannot read config")


@pytest.mark.parametrize(
    "argv", [["oracle", "--grid-points", "512"], ["figures", "--fig", "2", "--rows", "32"]]
)
def test_unwritable_out_exit_code(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: cannot write output")


def test_unknown_key_exit_code(capsys, tmp_path):
    data = json.loads((REPO_ROOT / "paper_sodium.json").read_text(encoding="utf-8"))
    data["extra"] = 1
    p = tmp_path / "extra.json"
    p.write_text(json.dumps(data), encoding="utf-8")
    code, _, err = run(capsys, "units", "--config", str(p))
    assert code == 2
    assert "unknown config key" in err


# argv and what the error line must name
USAGE_ERRORS = [
    pytest.param([], ["command"], id="no-command"),
    pytest.param(["plot"], ["'plot'"], id="unknown-command"),
    # only the oracle solves on a grid, so only it offers --grid-points
    pytest.param(["units", "--grid-points", "512"], ["--grid-points"], id="units-grid-flag"),
    pytest.param(
        ["phase", "--n", "2", "--time", "1", "--grid-points", "512"], ["--grid-points"], id="phase-grid-flag"
    ),
    pytest.param(["gate", "--amps", "1,1,1", "--grid-points", "512"], ["--grid-points"], id="gate-grid-flag"),
    pytest.param(["lifetime", "--grid-points", "512"], ["--grid-points"], id="lifetime-grid-flag"),
    pytest.param(["validity", "--grid-points", "512"], ["--grid-points"], id="validity-grid-flag"),
    pytest.param(
        ["figures", "--fig", "2", "--grid-points", "512"], ["--grid-points"], id="figures-grid-flag"
    ),
    pytest.param(["units", "extra"], ["extra"], id="extra-argument"),
    # option names are exact: no unique-prefix abbreviations
    pytest.param(["oracle", "--grid", "512"], ["--grid"], id="abbreviation"),
    pytest.param(["phase", "--time", "1", "--n"], ["--n"], id="missing-value"),
    pytest.param(["phase", "--n", "two", "--time", "1"], ["--n", "'two'"], id="bad-int"),
    pytest.param(["oracle", "--grid-points", "many"], ["--grid-points", "'many'"], id="bad-grid-points"),
    pytest.param(["phase", "--n", "2", "--time", "soon"], ["--time", "'soon'"], id="bad-float"),
    pytest.param(["figures", "--fig", "5"], ["--fig", "'5'"], id="bad-choice"),
    pytest.param(["phase", "--n", "2"], ["--time"], id="missing-required"),
    pytest.param(["oracle", "--stored=yes"], ["--stored", "'yes'"], id="flag-with-value"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS)
def test_usage_error_exit_code(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    usage, error = out.err.splitlines()
    assert usage.startswith("usage: becnlo ")
    prog = f"becnlo {argv[0]}" if argv and argv[0] in cli.COMMANDS else "becnlo"
    assert error.startswith(f"{prog}: error: ")
    for word in named:
        assert word in error


@pytest.mark.parametrize(
    "argv",
    [
        ["phase", "--n", "2", "--t", "1505.4"],
        ["gate", "--amps", "0.6,0,0.8j"],
        ["lifetime", "--config", str(REPO_ROOT / "paper_sodium.json")],
    ],
)
def test_equals_form_matches_spaced_form(capsys, argv):
    joined = [f"{option}={value}" for option, value in zip(argv[1::2], argv[2::2])]
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and not err
    assert run(capsys, argv[0], *joined) == (code, out, err)


# what each help page lists: the subcommands, or a subcommand's options
HELP_NAMES = {
    None: ["units", "phase", "gate", "lifetime", "validity", "figures", "oracle"],
    "units": ["--config"],
    "phase": ["--config", "--n", "--time", "--t"],
    "gate": ["--config", "--amps"],
    "lifetime": ["--config"],
    "validity": ["--config"],
    "figures": ["--config", "--fig", "--rows", "--out"],
    "oracle": ["--config", "--grid-points", "--stored", "--idealized", "--out"],
}


@pytest.mark.parametrize("command", HELP_NAMES)
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_help_lists_commands_and_options(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([flag] if command is None else [command, flag])
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("usage: becnlo ")
    listed = {word.rstrip(",") for line in out.out.splitlines() if line.startswith("  ") for word in line.split()}
    assert set(HELP_NAMES[command]) <= listed
    if command is None:
        helps = [summary for _, summary, _ in cli.COMMANDS.values()]
    else:
        helps = [text for *_, text in cli.COMMANDS[command][2].values()]
    for text in helps:
        assert text in out.out


def write_config(tmp_path, name, **changes):
    data = json.loads((REPO_ROOT / "paper_sodium.json").read_text(encoding="utf-8"))
    data.update(changes)
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return str(p)


def test_oracle_clipped_box_exit_code(capsys, tmp_path):
    path = write_config(tmp_path, "small.json", n_host=100)
    code, _, err = run(capsys, "oracle", "--config", path, "--grid-points", "512")
    assert code == 2
    assert "box wall" in err
    assert "enlarge" not in err  # no option enlarges the oracle's box of GRID_SPAN_FACTOR radii


@pytest.mark.parametrize("flags", [[], ["--idealized"]], ids=["stored", "idealized"])
def test_stored_oracle_unresolved_mode_exit_code(capsys, tmp_path, flags):
    # 1e20 host atoms widen the 4,096-point grid until s spans 1.5 spacings;
    # solved anyway, the report read an overlap of 1.08
    path = write_config(tmp_path, "wide.json", n_host=10**20)
    code, out, err = run(capsys, "oracle", "--stored", *flags, "--config", path)
    assert code == 2
    assert out == ""
    assert "does not resolve the stored mode" in err and "1.47 spacings" in err


@pytest.mark.parametrize("flags", [[], ["--idealized"]], ids=["stored", "idealized"])
def test_stored_oracle_spilling_cloud_exit_code(capsys, tmp_path, flags):
    # a strong stored mean field in a weak, nearly cancelled trap spills past the
    # host's box: the answer is the wall (exit 2), not a solver fault (exit 3)
    a11 = json.loads((REPO_ROOT / "paper_sodium.json").read_text(encoding="utf-8"))["a11_m"]
    a12 = 0.99 * a11
    path = write_config(
        tmp_path, "spill.json", a12_m=a12, a22_m=1.001 * a12 * a12 / a11, omega_rad_s=105.2,
        n_host=33_040, n_stored_max=1_293_723,
    )
    code, out, err = run(capsys, "oracle", "--stored", *flags, "--config", path)
    assert code == 2
    assert out == ""
    assert "reaches the box wall" in err


def test_validity_without_stored_atoms_is_strict_json(capsys, tmp_path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    path = write_config(tmp_path, "empty.json", n_stored_max=0)
    code, out, _ = run(capsys, "validity", "--config", path)
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["two_tf"]["ratio"] is None
    assert payload["two_mf"]["depletion_ratio"] is None
    assert payload["two_mf"]["std_ratio"] is None
    assert payload["two_tf"]["ok"] is False


def test_oracle_idealized_needs_stored(capsys):
    code, out, err = run(capsys, "oracle", "--idealized")
    assert code == 2
    assert out == ""
    assert "--stored" in err


@pytest.mark.parametrize(
    "key, value",
    [("im_a12_m", math.nan), ("a22_m", math.inf), ("mass_kg", math.inf), ("omega_rad_s", math.inf)],
)
def test_non_finite_config_exit_code(capsys, tmp_path, key, value):
    path = write_config(tmp_path, "nonfinite.json", **{key: value})
    code, _, err = run(capsys, "units", "--config", path)
    assert code == 2
    assert "finite" in err


# finite scales, mu and R whose diluteness (mu/U11)*a11**3 is not a double:
# mu/U11 overflows to inf while a11**3 underflows to 0, so the product is nan ...
DILUTENESS_NAN = {
    "mass_kg": 1.790485411879652e-12, "a11_m": 6.6104244712396474e-149, "a22_m": 2 * 6.6104244712396474e-149,
    "a12_m": 0, "omega_rad_s": 3.384196926231566e142, "n_stored_max": 1,
    "n_host": 2493960490159110146273489490824086324194979933617016702452736426195222952646665629559947264,
}
# ... or mu/U11 times a finite a11**3 overflows to inf
DILUTENESS_INF = {
    "mass_kg": 1.958655338074424e130, "a11_m": 4.117204858858284e102, "a22_m": 2 * 4.117204858858284e102,
    "a12_m": 0, "omega_rad_s": 6.15042000264193e-92, "n_host": 10**154, "n_stored_max": 1,
}


@pytest.mark.parametrize(
    "changes",
    [
        {"mass_kg": 1e-313},  # m*omega^2/2 is subnormal (s**3 would overflow)
        {"mass_kg": 1e200},  # s**3 underflows to 0, a division by zero
        {"mass_kg": 1e-70, "a22_m": 1e308},  # U22 and omega_nl become inf without raising
        {"omega_rad_s": 1e155},  # omega**2 in the cloud radius overflows
        {"n_host": 1e308},  # mu and R become inf without raising
        {"a11_m": 1e103},  # a11**3 in the diluteness overflows
        DILUTENESS_NAN,
        DILUTENESS_INF,
    ],
    ids=[
        "s3-overflow", "s3-underflow", "inf-scale", "omega2-overflow", "inf-radius", "a11-cubed",
        "diluteness-nan", "diluteness-inf",
    ],
)
def test_out_of_range_config_exit_code(capsys, tmp_path, changes):
    # finite config values whose closed forms leave double range
    path = write_config(tmp_path, "extreme.json", **changes)
    code, out, err = run(capsys, "units", "--config", path)
    assert code == 2
    assert out == ""
    assert err.count("error: ") == 1 and "out of floating-point range" in err


def test_validity_underflowing_mode_warns_nothing(capsys, tmp_path):
    # the stored Gaussian underflows to 0 inside R/2; warnings are errors in tier-1
    path = write_config(tmp_path, "dense.json", n_host=1e14)
    code, out, _ = run(capsys, "validity", "--config", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["two_tf"] == {"ok": False, "ratio": None}
    assert payload["two_mf"] == {"depletion_ratio": None, "ok": False, "std_ratio": None}


@pytest.mark.parametrize("flags", [[], ["--idealized"]], ids=["stored", "idealized"])
@pytest.mark.parametrize("n_stored", [10**150, 10**200], ids=["1e150", "1e200"])
def test_stored_oracle_mean_field_out_of_range_exit_code(capsys, tmp_path, flags, n_stored):
    # 1e150 atoms overflow the start's residual, 1e200 the square of the guess's mean field;
    # either is refused before the first step
    path = write_config(tmp_path, "crowded.json", n_stored_max=n_stored)
    code, out, err = run(capsys, "oracle", "--stored", *flags, "--config", path, "--grid-points", "64")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "out of floating-point range" in err


@pytest.mark.parametrize(
    "changes, flags",
    [
        # (mu - V)^2 underflowed, and the guess's square root met a negative argument; past that, the
        # start's residual underflows to 0, which would pass the stop on the guess
        ({"omega_rad_s": 2.9450801540663315e-141}, []),
        ({"omega_rad_s": 2.9450801540663315e-141}, ["--stored"]),
        ({"omega_rad_s": 2.9450801540663315e-141}, ["--stored", "--idealized"]),
        # the host report's L2 density error: an OverflowError, a ZeroDivisionError, and a NaN in the JSON
        ({"mass_kg": 4.320694627616164e57, "omega_rad_s": 3.647782683151716e83}, []),
        ({"mass_kg": 1.2875849725059338e-123, "a11_m": 1.4847309730973176e221,
          "a22_m": 1.5227853347343902e206, "n_host": 441}, []),
        ({"mass_kg": 3.935189069069134e91, "n_host": 13, "n_stored_max": 3.3334224750076105e101}, []),
    ],
    ids=["underflow-host", "underflow-stored", "underflow-idealized", "l2-overflow", "l2-zero-division", "l2-nan"],
)
def test_oracle_out_of_range_exit_code(capsys, tmp_path, changes, flags):
    path = write_config(tmp_path, "extreme.json", **changes)
    code, out, err = run(capsys, "oracle", *flags, "--config", path, "--grid-points", "512")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "out of floating-point range" in err


STORED_REPORT_KEYS = ["overlap", "mode_length_m", "mu_J", "residual", "iterations", "virial_residual"]


def test_stored_report_is_built_by_the_solver_module():
    # the CLI prints the report's own to_dict and names none of its keys
    package = Path(becnlo.__file__).parent
    gpe, cli_source = ((package / name).read_text(encoding="utf-8") for name in ("gpe.py", "cli.py"))
    for key in STORED_REPORT_KEYS:
        assert f'"{key}"' in gpe
        assert key not in cli_source


def test_stored_oracle_report_keys(capsys):
    # the virial identity holds only in the harmonic idealized trap; both
    # reports carry the stationary residual the solver stops on
    common = {"overlap", "mode_length_m", "mu_J", "residual", "iterations"}
    for flags, keys in (([], common), (["--idealized"], common | {"virial_residual"})):
        code, out, _ = run(capsys, "oracle", "--stored", *flags, "--grid-points", "512")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == keys
        assert 0.0 < payload["residual"] < 1e-9


# runs one command through cli.main in a fresh interpreter (or only imports
# becnlo, with no command) and reports, on the last line of stderr, which
# modules the process imported
IMPORT_PROBE = """
import sys
import becnlo
code = 0
if len(sys.argv) > 1:
    from becnlo import cli
    code = cli.main(sys.argv[1:])
sys.stderr.write("\\n" + " ".join(sys.modules))
sys.exit(code)
"""


def modules_loaded(tmp_path, *argv, probe=IMPORT_PROBE, flags=(), code=0):
    env = dict(os.environ)
    src = str(Path(becnlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def scipy_modules(modules):
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


# a usage error (exit 2), refused before the solver or json is loaded
REFUSED_ORACLE = ["oracle", "--idealized"]

CLOSED_FORM_COMMANDS = [
    ["units"],
    ["phase", "--n", "2", "--time", "1505.4"],
    ["gate", "--amps", "1,1,1"],
    ["lifetime"],
    ["validity"],
    ["figures", "--fig", "2"],
    ["figures", "--fig", "3"],
    ["figures", "--fig", "4"],
    ["units", "--config", str(REPO_ROOT / "paper_sodium.json")],
    REFUSED_ORACLE,
]


@pytest.fixture(scope="module")
def closed_form_modules(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    return {
        " ".join(argv): modules_loaded(tmp, *argv, code=2 if argv is REFUSED_ORACLE else 0)
        for argv in CLOSED_FORM_COMMANDS
    }


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_import_no_scipy(closed_form_modules, argv):
    assert scipy_modules(closed_form_modules[" ".join(argv)]) == set()


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_import_no_gpe(closed_form_modules, argv):
    assert "becnlo.gpe" not in closed_form_modules[" ".join(argv)]


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS[:2])
def test_units_and_phase_load_only_errors_and_params(closed_form_modules, argv):
    modules = closed_form_modules[" ".join(argv)]
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("becnlo")} == {
        "becnlo", "becnlo._record", "becnlo.cli", "becnlo.errors", "becnlo.params"
    }


def test_lifetime_does_not_load_stored_mode(closed_form_modules):
    # the loss overlap reads the mode width from the derived scales
    modules = closed_form_modules["lifetime"]
    assert {"becnlo.host_tf", "becnlo.lifetime"} <= modules
    assert not {"becnlo.stored_mode", "becnlo.grids"} & modules


def test_gate_does_not_load_host_profile(closed_form_modules):
    modules = closed_form_modules["gate --amps 1,1,1"]
    assert "becnlo.stored_mode" in modules
    assert "numpy" not in modules
    assert not {"becnlo.grids", "becnlo.host_tf"} & modules


# argparse, with the gettext and locale it loads, and building its parsers
# cost more than a closed form computes
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS)
def test_closed_form_commands_load_no_numpy(closed_form_modules, argv):
    modules = closed_form_modules[" ".join(argv)]
    # nor dataclasses, which loads inspect and ast and compiles each record's methods
    assert not ({"numpy", "dataclasses", "inspect"} | ARGPARSE_MODULES) & modules
    # json only where JSON is read or written
    assert ("json" in modules) == (argv[0] == "validity" or "--config" in argv)


@pytest.mark.parametrize("argv", [["units"], ["gate"], ["lifetime"], ["figures", "--fig", "2"]])
def test_closed_form_commands_without_site_load_no_stdlib_extras(tmp_path, argv):
    # under -S no site hook preloads re, enum or pathlib, so what becnlo needs shows
    modules = modules_loaded(tmp_path, *argv, flags=["-S"])
    assert not {"argparse", "json", "pathlib", "re", "enum"} & modules


# imports one module of the package and reports sys.modules on stderr
LAYER_PROBE = """
import importlib
import sys
importlib.import_module(sys.argv[1])
sys.stderr.write("\\n" + " ".join(sys.modules))
"""


@pytest.mark.parametrize("layer", ["grids", "host_tf", "stored_mode", "lifetime", "validity"])
def test_closed_form_layers_load_no_numpy(tmp_path, layer):
    modules = modules_loaded(tmp_path, f"becnlo.{layer}", probe=LAYER_PROBE)
    assert f"becnlo.{layer}" in modules
    assert not {"numpy", "dataclasses"} & modules


def test_import_becnlo_loads_no_numpy(tmp_path):
    modules = modules_loaded(tmp_path)
    assert not {"numpy", "dataclasses"} & modules
    assert {m for m in modules if m.startswith("becnlo")} == {"becnlo"}


@pytest.mark.parametrize("flags", [[], ["--stored"]])
def test_oracle_imports_no_scipy(tmp_path, flags):
    modules = modules_loaded(tmp_path, "oracle", *flags, "--grid-points", "512")
    assert scipy_modules(modules) == set()
    assert not ({"becnlo.validity", "becnlo.lifetime", "dataclasses", "numpy"} | ARGPARSE_MODULES) & modules
    assert "becnlo.gpe" in modules  # the solver runs on the standard library
    assert ("becnlo.stored_mode" in modules) == ("--stored" in flags)  # the Gaussian mode only for the overlap


def test_import_gpe_loads_no_numpy(tmp_path):
    modules = modules_loaded(tmp_path, "becnlo.gpe", probe=LAYER_PROBE)
    assert "becnlo.gpe" in modules
    assert not {"numpy", "scipy", "dataclasses"} & modules


# the package's public names: those `from becnlo import *` exported before the
# namespace became lazy, less the two profile records and their builders, the
# three validity closed forms that no command ran, the unit-tagged field, the
# two records the flat SystemConfig replaced, the Im(a12) back-solver, the
# two loss layers folded into estimate_lifetime, and the host profile with the
# stored atoms' back-action that no command reached
PUBLIC_NAMES = [
    "BecnloError", "ConditionFlags", "ConvergenceError", "DerivedScales",
    "FockSuperposition", "GpeProblem", "GpeSolution", "GridError", "HBAR",
    "LossEstimate", "LossNotConfiguredError", "NsGateTimes", "RadialGrid",
    "StoredMode", "SystemConfig", "TfSolution",
    "ValidationError", "ValidityReport",
    "check_conditions", "compare_tf_vs_gpe", "config_from_dict", "coupling",
    "derive_scales", "energy_shift", "estimate_lifetime", "evolve", "figure_data",
    "gate_fidelity", "host_problem", "kinetic_correction", "load_config",
    "mode_host_overlap", "ns_gate_target", "ns_gate_time",
    "radial_integral", "rescaled_kinetic",
    "sodium_reference_config", "solve_ground_state", "solve_stored_in_host",
    "stored_problem", "tf_chemical_potential", "tf_density",
    "tf_density_at", "tf_host", "tf_radius",
    "validity_report", "virial_residual",
]


def test_public_names_resolve():
    assert len(PUBLIC_NAMES) == 47
    assert sorted(becnlo.__all__) == PUBLIC_NAMES
    for name in becnlo.__all__:
        getattr(becnlo, name)
        assert name in dir(becnlo)
    with pytest.raises(AttributeError):
        becnlo.no_such_name
