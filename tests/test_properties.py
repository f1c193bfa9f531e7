"""Property tests: fuzzed scenario files and gate amplitudes through the CLI.

Every config, however extreme, must end in exit code 0 or 2 without a
traceback or a warning (tier-1 turns warnings into errors); a run that exits
0 prints only finite numbers (`null` ratios and `-inf` logarithms aside).
The oracle may also exit 3, when its solve does not converge: DEFAULT_MAX_ITERS
steps without reaching the stop rule, or a fallback step that no damping keeps
from raising the energy.
Every physically sensible config must give finite, positive scales and a sign
gate of fidelity 1.  Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from becnlo import (
    FockSuperposition,
    cli,
    config_from_dict,
    derive_scales,
    evolve,
    gate_fidelity,
    ns_gate_target,
    ns_gate_time,
)
from becnlo.params import SODIUM_REFERENCE

FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

finite = st.floats(allow_nan=False, allow_infinity=False)
magnitude = st.floats(-324.0, 308.0).map(lambda e: 10.0**e)  # log-uniform over the doubles
wrong_type = st.one_of(st.none(), st.booleans(), st.text(max_size=5), st.lists(st.integers(), max_size=2))
value = st.one_of(
    finite,
    magnitude,
    st.integers(),
    st.integers(min_value=2**1023, max_value=2**1100),  # JSON integers beyond double range
    wrong_type,
)


@st.composite
def configs(draw):
    """The sodium scenario with some values replaced, a few dropped, or one added."""
    data = dict(SODIUM_REFERENCE)
    for key in sorted(data):
        choice = draw(st.sampled_from(["keep"] * 5 + ["magnitude"] * 2 + ["value", "drop"]))
        if choice == "magnitude":
            data[key] = draw(magnitude)
        elif choice == "value":
            data[key] = draw(value)
        elif choice == "drop":
            del data[key]
    if draw(st.integers(0, 9)) == 0:
        data["extra_key"] = draw(value)
    if draw(st.integers(0, 19)) == 0:
        return draw(value)  # not a JSON object at all
    return data


@st.composite
def extreme_configs(draw, max_keys=2):
    """The sodium scenario with one to max_keys values drawn log-uniformly over the doubles."""
    data = dict(SODIUM_REFERENCE)
    for key in draw(st.lists(st.sampled_from(sorted(data)), min_size=1, max_size=max_keys, unique=True)):
        data[key] = draw(magnitude)
    return data


def printed_numbers(out):
    """Every token of the output that reads as a float, inf and nan included."""
    for token in out.replace("(", " ").split():
        try:
            yield float(token)
        except ValueError:
            pass


def run_cli(path, *argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], "--config", str(path), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@pytest.mark.parametrize(
    "argv",
    [["units"], ["phase", "--n", "2", "--time", "1505.4"], ["gate", "--amps", "1,1j,-1"]],
    ids=["units", "phase", "gate"],
)
@FUZZ
@given(data=st.one_of(configs(), extreme_configs(max_keys=len(SODIUM_REFERENCE))))
def test_fuzzed_config_exits_cleanly(config_path, argv, data):
    config_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(config_path, *argv)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        assert all(map(math.isfinite, printed_numbers(out))), out


# a component near the largest double gives |c| past it, where abs() of a complex raises OverflowError
near_max = st.floats(1e307, 1.7976931348623157e308)
component = st.one_of(finite, magnitude, near_max, near_max.map(lambda x: -x), st.sampled_from([math.inf, math.nan]))


@FUZZ
@given(amps=st.lists(st.builds(complex, component, component), min_size=3, max_size=3))
def test_fuzzed_amps_exit_cleanly(amps):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["gate", "--amps=" + ",".join(map(repr, amps))])
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        fidelity = float(out.getvalue().split("fidelity = ")[1])
        assert fidelity == pytest.approx(1.0, abs=1e-9)


@st.composite
def sensible_configs(draw):
    """Stable, trapped mixtures of atoms from hydrogen to beyond caesium."""
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))  # noqa: E731
    a11 = log_uniform(1e-11, 1e-7)
    a12 = a11 * draw(st.floats(0.0, 0.999))
    return {
        "mass_kg": log_uniform(1e-27, 1e-24),
        "a11_m": a11,
        "a22_m": a12 * a12 / a11 + a11 * draw(st.floats(1e-3, 10.0)),  # a11*a22 > a12^2
        "a12_m": a12,
        "im_a12_m": -draw(st.floats(0.0, 1e-8)),
        "omega_rad_s": log_uniform(1.0, 1e5),
        "n_host": int(log_uniform(1.0, 1e10)),
        "n_stored_max": draw(st.integers(0, 1000)),
    }


@FUZZ
@given(data=sensible_configs())
def test_sensible_config_gives_positive_scales_and_exact_gate(data):
    scales = derive_scales(config_from_dict(data))
    for name, x in vars(scales).items():
        assert math.isfinite(x), name
        assert x >= 0 if name == "u12" else x > 0, name  # U12 vanishes with a12
    state = FockSuperposition.normalized([1.0, 1.0j, -1.0])
    evolved = evolve(state, ns_gate_time(scales).gate_time, scales)
    assert gate_fidelity(evolved, ns_gate_target(state)) == pytest.approx(1.0, abs=1e-12)


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def assert_clean_exit(argv, code, out, err, csv_path):
    """Exit 0 with finite numbers, or exit 2 with a message and nothing on stdout."""
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
    elif argv[0] == "validity":
        json.loads(out, parse_constant=reject_constant)
    elif argv[0] == "lifetime":
        values = [float(line.split(" = ")[1].split()[0]) for line in out.splitlines()]
        assert len(values) == 2 and all(map(math.isfinite, values))
    else:
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        names = lines[0].split(",")
        for line in lines[1:]:
            for name, field in zip(names, line.split(",")):
                assert math.isfinite(float(field)) or (name.startswith("log10_") and field == "-inf")


GRID_COMMANDS = [
    ["lifetime"],
    ["validity"],
    ["figures", "--fig", "2", "--rows", "16"],
    ["figures", "--fig", "3", "--rows", "16"],
    ["figures", "--fig", "4", "--rows", "16"],
]
GRID_IDS = ["lifetime", "validity", "fig2", "fig3", "fig4"]


def run_grid_command(path, argv):
    csv_path = path.with_suffix(".csv")
    extra = ["--out", str(csv_path)] if argv[0] == "figures" else []
    code, out, err = run_cli(path, *argv, *extra)
    assert_clean_exit(argv, code, out, err, csv_path)
    return code, out


@pytest.mark.parametrize("argv", GRID_COMMANDS, ids=GRID_IDS)
@FUZZ
@given(data=st.one_of(configs(), extreme_configs()))
def test_fuzzed_config_grid_commands_exit_cleanly(config_path, argv, data):
    config_path.write_text(json.dumps(data), encoding="utf-8")
    run_grid_command(config_path, argv)


@pytest.mark.parametrize("argv", GRID_COMMANDS, ids=GRID_IDS)
@pytest.mark.parametrize(
    "changes",
    [
        {"omega_rad_s": 7.8e87},  # omega**4 in the kinetic correction overflowed: traceback
        {"a11_m": 5.4e174},  # a11**3 in the depletion overflowed: traceback
        {"omega_rad_s": 1.1e154},  # overflow in the loss overlap: RuntimeWarning
        {"omega_rad_s": 1.2e-145},  # 0/0 in the kinetic correction: RuntimeWarning, nan; now a subnormal trap_k
        {"mass_kg": 7.9e155},  # overflow in the density std: RuntimeWarning, inf
        {"n_stored_max": 1e308},  # overflow in the stored density: RuntimeWarning, inf
        {"omega_rad_s": 2e-141},  # a normal trap_k that still underflows the kinetic correction
    ],
)
def test_extreme_config_grid_commands_exit_cleanly(tmp_path, argv, changes):
    path = tmp_path / "extreme.json"
    path.write_text(json.dumps({**SODIUM_REFERENCE, **changes}), encoding="utf-8")
    run_grid_command(path, argv)


def test_decoupled_underflowing_mode_gives_null_two_tf(tmp_path):
    # with U12 = 0 the transferred kinetic term is 0 where the mode underflows
    # to 0; that 0/0 is nan, so the worst ratio is null and the flag fails
    path = tmp_path / "decoupled.json"
    path.write_text(json.dumps({**SODIUM_REFERENCE, "a12_m": 0, "n_host": 1e14}), encoding="utf-8")
    code, out = run_grid_command(path, ["validity"])
    assert code == 0
    assert json.loads(out)["two_tf"] == {"ratio": None, "ok": False}


@st.composite
def oracle_scenarios(draw):
    """Sodium with fuzzed atom numbers, trap and a stable a22; the oracle's mode and grid."""
    log_uniform = lambda lo, hi: 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))  # noqa: E731
    a11 = SODIUM_REFERENCE["a11_m"]
    a12 = a11 * draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999999]))
    data = {
        **SODIUM_REFERENCE,
        "a12_m": a12,
        "a22_m": a12 * a12 / a11 * (1.0 + 10.0 ** draw(st.floats(-8.0, 1.0))),
        "omega_rad_s": log_uniform(1e-2, 1e6),
        "n_host": int(log_uniform(1.0, 1e22)),
        "n_stored_max": draw(st.one_of(st.just(0), st.floats(0.0, 12.0).map(lambda e: int(10.0**e)))),
    }
    mode = draw(st.sampled_from([[], ["--stored"], ["--stored", "--idealized"]]))
    # 1,300 points take the coarse start; 512 start from the guesses
    points = draw(st.sampled_from(["512", "1300"]))
    return data, ["oracle", *mode, "--grid-points", points]


def assert_clean_oracle_exit(code, out, err):
    """Exit 0 with finite JSON, or exit 2 or 3 with a one-line message and nothing on stdout."""
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        payload = json.loads(out, parse_constant=reject_constant)
        assert all(math.isfinite(x) for x in payload.values())


@settings(FUZZ, max_examples=30)
@given(scenario=oracle_scenarios())
def test_fuzzed_oracle_exits_cleanly(config_path, scenario):
    data, argv = scenario
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert_clean_oracle_exit(*run_cli(config_path, *argv))


def test_refused_coarse_start_takes_a_fallback_step(config_path):
    # at 1,300 points the fine grid's first Newton step refuses the coarse start, and the
    # guesses' energy scale is out of floating-point range: the solve goes on from the start
    data = {
        **SODIUM_REFERENCE, "a12_m": 1.375e-09, "a22_m": 6.877649379927131e-10,
        "omega_rad_s": 795455.7289609922, "n_host": 7229673541106492506112, "n_stored_max": 30,
    }
    config_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(config_path, "oracle", "--grid-points", "1300")
    assert code == 0, err
    assert_clean_oracle_exit(code, out, err)


@pytest.mark.parametrize(
    "mode", [[], ["--stored"], ["--stored", "--idealized"]], ids=["host", "stored", "idealized"]
)
@settings(FUZZ, max_examples=400)  # 150 examples miss the underflows in the guesses of the start
@given(data=extreme_configs(max_keys=3))
def test_extreme_config_oracle_exits_cleanly(config_path, mode, data):
    config_path.write_text(json.dumps(data), encoding="utf-8")
    assert_clean_oracle_exit(*run_cli(config_path, "oracle", *mode, "--grid-points", "512"))
