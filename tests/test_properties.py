"""Property tests: fuzzed scenario files through the closed-form subcommands.

Every config, however extreme, must end in exit code 0 or 2 without a
traceback or a warning (tier-1 turns warnings into errors), and every
physically sensible config must give finite, positive scales and a sign gate
of fidelity 1.  Hypothesis runs derandomized, so the examples are the same on
every run.
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
@given(data=configs())
def test_fuzzed_config_exits_cleanly(config_path, argv, data):
    config_path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(config_path, *argv)
    assert code in (0, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")


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
