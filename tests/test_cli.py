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


@pytest.mark.parametrize("amps", ["nan,1,1", "inf,1,1"])
def test_gate_non_finite_amps_exit_code(capsys, amps):
    code, out, err = run(capsys, "gate", "--amps", amps)
    assert code == 2
    assert out == ""
    assert "finite" in err


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


def test_oracle_small_grid(capsys, monkeypatch):
    monkeypatch.setenv("BECNLO_GRID_POINTS", "512")
    code, out, _ = run(capsys, "oracle")
    assert code == 0
    payload = json.loads(out)
    assert 2e-4 < payload["mu_rel_err"] < 5e-3
    assert payload["virial_residual"] < 1e-4


def test_oracle_writes_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BECNLO_GRID_POINTS", "512")
    path = tmp_path / "oracle.json"
    code, out, _ = run(capsys, "oracle", "--out", str(path))
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


def test_bad_grid_env(capsys, monkeypatch):
    monkeypatch.setenv("BECNLO_GRID_POINTS", "many")
    code, _, err = run(capsys, "lifetime")
    assert code == 2
    assert "BECNLO_GRID_POINTS" in err


def test_grid_flag_beats_env(capsys, monkeypatch):
    # a bad env value is ignored when the flag is given
    monkeypatch.setenv("BECNLO_GRID_POINTS", "many")
    code, _, _ = run(capsys, "lifetime", "--grid-points", "2048")
    assert code == 0


@pytest.mark.parametrize(
    "argv", [["units"], ["phase", "--n", "2", "--time", "1"], ["gate", "--amps", "1,1,1"]]
)
def test_closed_forms_take_no_grid_flag(capsys, argv):
    # these commands build no grid, so they do not offer --grid-points
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--grid-points", "512"])
    assert exc.value.code == 2
    assert "--grid-points" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "changes",
    [
        {"mass_kg": 1e-313},  # s**3 overflows
        {"mass_kg": 1e200},  # s**3 underflows to 0, a division by zero
        {"mass_kg": 1e-70, "a22_m": 1e308},  # U22 and omega_nl become inf without raising
        {"omega_rad_s": 1e155},  # omega**2 in the cloud radius overflows
        {"n_host": 1e308},  # mu and R become inf without raising
        {"a11_m": 1e103},  # a11**3 in the diluteness overflows
    ],
    ids=["s3-overflow", "s3-underflow", "inf-scale", "omega2-overflow", "inf-radius", "a11-cubed"],
)
def test_out_of_range_config_exit_code(capsys, tmp_path, changes):
    # finite config values whose closed forms leave double range
    path = write_config(tmp_path, "extreme.json", **changes)
    code, out, err = run(capsys, "units", "--config", path)
    assert code == 2
    assert out == ""
    assert "out of floating-point range" in err


def test_validity_underflowing_mode_warns_nothing(capsys, tmp_path):
    # the stored Gaussian underflows to 0 inside R/2; warnings are errors in tier-1
    path = write_config(tmp_path, "dense.json", n_host=1e14)
    code, out, _ = run(capsys, "validity", "--config", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["two_tf"] == {"ok": False, "ratio": None}
    assert payload["two_mf"] == {"depletion_ratio": None, "ok": False, "std_ratio": None}


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


def modules_loaded(tmp_path, *argv):
    env = {k: v for k, v in os.environ.items() if k != "BECNLO_GRID_POINTS"}
    src = str(Path(becnlo.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def scipy_modules(modules):
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


CLOSED_FORM_COMMANDS = [
    ["units"],
    ["phase", "--n", "2", "--time", "1505.4"],
    ["gate", "--amps", "1,1,1"],
    ["lifetime"],
    ["validity"],
    ["figures", "--fig", "2"],
    ["figures", "--fig", "3"],
    ["figures", "--fig", "4"],
]


@pytest.fixture(scope="module")
def closed_form_modules(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    return {" ".join(argv): modules_loaded(tmp, *argv) for argv in CLOSED_FORM_COMMANDS}


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
        "becnlo", "becnlo.cli", "becnlo.errors", "becnlo.params"
    }


def test_gate_does_not_load_host_profile(closed_form_modules):
    modules = closed_form_modules["gate --amps 1,1,1"]
    assert {"numpy", "becnlo.grids", "becnlo.stored_mode"} <= modules
    assert "becnlo.host_tf" not in modules


def test_import_becnlo_loads_no_numpy(tmp_path):
    modules = modules_loaded(tmp_path)
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("becnlo")} == {"becnlo"}


@pytest.mark.parametrize("flags", [[], ["--stored"]])
def test_oracle_imports_no_scipy(tmp_path, flags):
    modules = modules_loaded(tmp_path, "oracle", *flags, "--grid-points", "512")
    assert scipy_modules(modules) == set()
    assert not {"becnlo.validity", "becnlo.lifetime"} & modules


# the package's public names, as `from becnlo import *` exported them before
# the namespace became lazy
PUBLIC_NAMES = [
    "BecnloError", "ConditionFlags", "ConvergenceError", "DENSITY", "DensityProfile",
    "DerivedScales", "ENERGY", "EnergyProfile", "FockSuperposition", "GpeProblem",
    "GpeSolution", "GridError", "HBAR", "LossEstimate", "LossNotConfiguredError",
    "NsGateTimes", "RadialField", "RadialGrid", "SpeciesParams", "StoredMode",
    "SystemConfig", "TfSolution", "TrapParams", "ValidationError", "ValidityReport",
    "WAVEFUNCTION", "backsolve_im_a12", "check_conditions", "compare_tf_vs_gpe",
    "config_from_dict", "coupling", "density_profile", "density_std", "derive_scales",
    "energy_profile", "energy_shift", "estimate_lifetime", "evolve", "figure_data",
    "gate_fidelity", "host_problem", "kinetic_correction", "kinetic_correction_fd",
    "lifetime_tau", "load_config", "loss_overlap", "mode_host_overlap", "ns_gate_target",
    "ns_gate_time", "quantum_depletion", "radial_integral", "rescaled_kinetic",
    "sodium_reference_config", "solve_ground_state", "solve_stored_in_host",
    "stored_problem", "stored_self_energy", "tf_chemical_potential", "tf_density",
    "tf_density_at", "tf_density_with_back_action", "tf_host", "tf_radius",
    "validity_report", "virial_residual",
]


def test_public_names_resolve():
    assert sorted(becnlo.__all__) == PUBLIC_NAMES
    for name in becnlo.__all__:
        getattr(becnlo, name)
        assert name in dir(becnlo)
    with pytest.raises(AttributeError):
        becnlo.no_such_name
