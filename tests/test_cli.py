import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

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

    monkeypatch.setattr(cli, "compare_tf_vs_gpe", explode)
    code, _, err = run(capsys, "oracle")
    assert code == 3
    assert "stuck" in err


def test_bad_config_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"mass_kg": 1}', encoding="utf-8")
    code, _, err = run(capsys, "units", "--config", str(p))
    assert code == 2
    assert "missing config key" in err


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
