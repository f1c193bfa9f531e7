import json
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from becnlo import (
    HBAR,
    DerivedScales,
    SystemConfig,
    ValidationError,
    check_conditions,
    config_from_dict,
    coupling,
    derive_scales,
    load_config,
    sodium_reference_config,
    tf_chemical_potential,
    tf_radius,
)
from becnlo.params import SODIUM_REFERENCE
from conftest import REPO_ROOT


def test_hbar_codata():
    assert HBAR == 1.054571817e-34


class TestDerivedScales:
    def test_oscillator_length(self, scales):
        assert_allclose(scales.d, 2.964364e-6, rtol=1e-6)

    def test_trap_quantum(self, scales):
        assert_allclose(scales.e_trap, 3.313035e-32, rtol=1e-6)

    def test_couplings(self, scales):
        assert_allclose(scales.u11, 1.006078e-50, rtol=1e-6)
        assert_allclose(scales.u22, 1.042662e-50, rtol=1e-6)
        assert_allclose(scales.u12, 9.694930e-51, rtol=1e-6)

    def test_effective_trap(self, scales):
        # 1 - a12/a11 = 1 - 2.65/2.75
        assert_allclose(scales.eff_trap_factor, 0.1 / 2.75, rtol=1e-14)
        assert_allclose(scales.omega_tilde, 59.90782, rtol=1e-6)
        assert_allclose(scales.s, 6.788356e-6, rtol=1e-6)

    def test_effective_interaction(self, scales):
        assert_allclose(scales.a22_tilde, 2.963636e-10, rtol=1e-6)
        assert_allclose(scales.u22_tilde, 1.084236e-51, rtol=1e-6)

    def test_nonlinear_rate(self, scales):
        assert_allclose(scales.omega_nl, 1.043407e-3, rtol=1e-6)

    def test_hbar_scaling(self, config, monkeypatch):
        # d ~ sqrt(hbar), couplings ~ hbar^2: a deliberate unit sanity hook
        ref = derive_scales(config)
        monkeypatch.setattr("becnlo.params.HBAR", 2.0 * HBAR)
        out = derive_scales(config)
        assert_allclose(out.d, math.sqrt(2.0) * ref.d, rtol=1e-14)
        assert_allclose(out.u11, 4.0 * ref.u11, rtol=1e-14)

    def test_decoupled_limit(self, config):
        out = derive_scales(
            config_from_dict({**SODIUM_REFERENCE, "a12_m": 0.0, "n_host": 10, "n_stored_max": 1})
        )
        assert out.eff_trap_factor == 1.0
        assert_allclose(out.s, out.d, rtol=1e-15)
        assert_allclose(out.omega_tilde, config.omega, rtol=1e-15)
        assert_allclose(out.u22_tilde, out.u22, rtol=1e-15)

    def test_trap_frequency_covariance(self, config, scales):
        # omega x4: e_trap x4, lengths halve, and the phase rate picks up
        # the s^-3 from the mode volume, omega_nl ~ omega^(3/2)
        stiff = config_from_dict({**SODIUM_REFERENCE, "omega_rad_s": 4.0 * config.omega})
        out = derive_scales(stiff)
        assert_allclose(out.e_trap, 4.0 * scales.e_trap, rtol=1e-14)
        assert_allclose(out.d, 0.5 * scales.d, rtol=1e-14)
        assert_allclose(out.s, 0.5 * scales.s, rtol=1e-14)
        assert_allclose(out.omega_nl, 8.0 * scales.omega_nl, rtol=1e-14)

    def test_coupling_round_trip(self, config, scales):
        m = config.mass
        for a, u in ((config.a11, scales.u11), (config.a22, scales.u22)):
            assert_allclose(coupling(m, a), u, rtol=1e-15)
            assert_allclose(u * m / (4.0 * math.pi * HBAR**2), a, rtol=1e-15)

    def test_phase_rate_linear_in_screened_length(self, config, scales):
        # choosing a22 so that a22 - a12^2/a11 doubles leaves s untouched
        # and doubles omega_nl
        a22 = 2.0 * config.a22 - config.a12**2 / config.a11
        out = derive_scales(config_from_dict({**SODIUM_REFERENCE, "a22_m": a22}))
        assert_allclose(out.a22_tilde, 2.0 * scales.a22_tilde, rtol=1e-13)
        assert_allclose(out.s, scales.s, rtol=1e-15)
        assert_allclose(out.omega_nl, 2.0 * scales.omega_nl, rtol=1e-13)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", list(DerivedScales.__annotations__))
    def test_record_refuses_a_scale_out_of_range(self, scales, field, value):
        # built directly, the record runs the range check derive_scales relies on; U12 = 0 is a12 = 0
        changed = {**vars(scales), field: value}
        if field == "u12" and value == 0.0:
            assert DerivedScales(**changed).u12 == 0.0
        else:
            with pytest.raises(ValidationError, match=f"derived scale {field} = "):
                DerivedScales(**changed)


# the sodium scenario as SystemConfig keywords; each validation case changes one or two
SODIUM_FIELDS = dict(
    mass=3.82e-26, a11=2.75e-9, a22=2.85e-9, a12=2.65e-9, omega=100.0 * math.pi,
    n_host=1_000_000, n_stored_max=10, im_a12=-1.291883e-9,
)
# SystemConfig field -> scenario-file key, which the record's value checks name
KEY_OF = {
    "mass": "mass_kg", "a11": "a11_m", "a22": "a22_m", "a12": "a12_m", "im_a12": "im_a12_m",
    "omega": "omega_rad_s", "n_host": "n_host", "n_stored_max": "n_stored_max",
}


class TestValidation:
    def test_negative_mass(self):
        with pytest.raises(ValidationError, match="mass"):
            SystemConfig(**{**SODIUM_FIELDS, "mass": -1e-26})

    def test_phase_separation(self):
        with pytest.raises(ValidationError, match="phase-separate"):
            SystemConfig(**{**SODIUM_FIELDS, "a11": 2.0e-9, "a22": 2.0e-9, "a12": 2.5e-9})

    def test_untrapped_stored(self):
        # a11*a22 > a12^2 can hold while a12 > a11, which untraps the mode
        with pytest.raises(ValidationError, match="untrapped"):
            SystemConfig(**{**SODIUM_FIELDS, "a11": 2.0e-9, "a22": 4.0e-9, "a12": 2.5e-9})

    def test_positive_im_a12(self):
        with pytest.raises(ValidationError, match="im_a12"):
            SystemConfig(**{**SODIUM_FIELDS, "im_a12": 1e-10})

    def test_bad_omega(self):
        with pytest.raises(ValidationError, match="omega"):
            SystemConfig(**{**SODIUM_FIELDS, "omega": 0.0})

    def test_negative_a12(self):
        with pytest.raises(ValidationError, match="a12_m must be non-negative"):
            SystemConfig(**{**SODIUM_FIELDS, "a12": -1e-9})

    @pytest.mark.parametrize(
        "mass, omega",
        [
            (SODIUM_FIELDS["mass"], 1e-148),  # k subnormal
            (SODIUM_FIELDS["mass"], 1.2e-145),
            (1e100, 1e-160),  # omega^2 subnormal, k normal: k would be off by 1.1e-5
            (1e100, 1.4916681462400412e-154),  # the largest omega whose omega^2 is subnormal
            (1e-300, 1e200),  # omega^2 overflows, k would be 5e99
            (SODIUM_FIELDS["mass"], 1.3407807929942597e154),  # the smallest omega whose omega^2 overflows
        ],
        ids=["1e-148", "1.2e-145", "1e100-1e-160", "omega2-subnormal", "1e-300-1e200", "omega2-overflows"],
    )
    def test_subnormal_trap_constant(self, mass, omega):
        # a subnormal keeps only a few bits, and R would be off by up to 0.25 %; an omega^2 past the largest
        # double makes trap_k raise OverflowError
        with pytest.raises(ValidationError, match="omega_rad_s .* out of floating-point range"):
            SystemConfig(**{**SODIUM_FIELDS, "mass": mass, "omega": omega})

    @pytest.mark.parametrize(
        "mass, omega", [(SODIUM_FIELDS["mass"], 1.3407807929942596e154), (1e100, 1.4916681462400413e-154)]
    )
    def test_trap_constant_range_ends_are_accepted(self, mass, omega):
        # the neighbours of the refused range ends: the largest omega whose omega^2 is finite, and the smallest
        # omega, for this mass, whose omega^2 is normal
        assert SystemConfig(**{**SODIUM_FIELDS, "mass": mass, "omega": omega}).trap_k > 0.0

    def test_accepted_trap_constant_is_exact(self):
        # exact rational arithmetic is the reference; omega^2 and the product each round once, and halving is exact
        rng = random.Random(5)
        tested = 0
        while tested < 2000:
            mass, omega = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(2))
            try:
                k = SystemConfig(**{**SODIUM_FIELDS, "mass": mass, "omega": omega}).trap_k
            except ValidationError:
                continue
            exact = Fraction(mass) * Fraction(omega) ** 2 / 2
            if k == math.inf:  # an exact k past the largest double rounds to inf, never to a wrong finite value
                assert exact > Fraction(sys.float_info.max) * (1 - Fraction(2 * sys.float_info.epsilon))
            else:
                assert abs(Fraction(k) - exact) <= 2 * Fraction(math.ulp(k)), (mass, omega)
            tested += 1

    def test_bad_atom_numbers(self):
        with pytest.raises(ValidationError, match="n_host"):
            SystemConfig(**{**SODIUM_FIELDS, "n_host": 0})
        with pytest.raises(ValidationError, match="n_stored_max"):
            SystemConfig(**{**SODIUM_FIELDS, "n_stored_max": -1})

    def test_checks_run_in_order(self):
        # each key's own checks run key by key, in the order of the scenario file's keys (mass, lengths, trap,
        # atom numbers); the rules that relate two values run last: phase separation, a11 > a12, the trap constant
        with pytest.raises(ValidationError, match="mass_kg must be positive"):
            SystemConfig(**{**SODIUM_FIELDS, "mass": -1.0, "omega": 0.0, "n_host": 0})
        with pytest.raises(ValidationError, match="omega"):
            SystemConfig(**{**SODIUM_FIELDS, "omega": 0.0, "n_host": 0})
        with pytest.raises(ValidationError, match="n_host must be positive"):
            SystemConfig(**{**SODIUM_FIELDS, "a11": 2.0e-9, "a22": 2.0e-9, "a12": 2.5e-9, "n_host": 0})

    def test_sodium_fields_are_the_reference(self):
        assert SystemConfig(**SODIUM_FIELDS) == sodium_reference_config()

    @pytest.mark.parametrize(
        "field, value, stored",
        [(field, value, None) for field in SODIUM_FIELDS for value in ("x", None, True, 10**400)]
        + [("n_stored_max", 2.5, None), ("n_host", 1e6, 1_000_000), ("a12", 0, 0.0)]
        # one value of the wrong sign per key
        + [("mass", 0.0, None), ("a11", 0.0, None), ("a22", -1e-9, None), ("a12", -1e-9, None),
           ("im_a12", 1e-10, None), ("omega", 0.0, None), ("n_host", 0, None), ("n_stored_max", -1, None)],
    )
    def test_record_checks_each_value_as_the_file_does(self, field, value, stored):
        # stored None: both ways in refuse the value, naming its key; else both store it converted
        key = KEY_OF[field]
        data = {**SODIUM_REFERENCE, key: value}
        if stored is None:
            with pytest.raises(ValidationError, match=rf"^{key} "):
                SystemConfig(**{**SODIUM_FIELDS, field: value})
            with pytest.raises(ValidationError, match=rf"^{key} "):
                config_from_dict(data)
        else:
            config = SystemConfig(**{**SODIUM_FIELDS, field: value})
            assert getattr(config, field) == stored
            assert type(getattr(config, field)) is type(stored)
            assert config == config_from_dict(data)


class TestConfigIO:
    def test_unknown_key(self):
        data = dict(sodium_reference_config_dict())
        data["tau_s"] = 1.0
        with pytest.raises(ValidationError, match="unknown config key"):
            config_from_dict(data)

    def test_missing_key(self):
        data = dict(sodium_reference_config_dict())
        del data["a11_m"]
        with pytest.raises(ValidationError, match="a11_m"):
            config_from_dict(data)

    def test_im_a12_optional(self):
        data = dict(sodium_reference_config_dict())
        del data["im_a12_m"]
        config = config_from_dict(data)
        assert config.im_a12 == 0.0

    def test_non_numeric(self):
        data = dict(sodium_reference_config_dict())
        data["mass_kg"] = "heavy"
        with pytest.raises(ValidationError, match="mass_kg"):
            config_from_dict(data)

    def test_non_integer_count(self):
        data = dict(sodium_reference_config_dict())
        data["n_host"] = 2.5
        with pytest.raises(ValidationError, match="n_host"):
            config_from_dict(data)

    def test_integral_float_accepted(self):
        data = dict(sodium_reference_config_dict())
        data["n_host"] = 1.0e6
        assert config_from_dict(data).n_host == 1_000_000

    def test_bad_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_config(p)

    @pytest.mark.parametrize("source", ["module", "file"])
    def test_each_key_is_one_field(self, source):
        data = SODIUM_REFERENCE if source == "module" else sodium_reference_config_dict()
        field_of = {
            "mass_kg": "mass", "a11_m": "a11", "a22_m": "a22", "a12_m": "a12",
            "im_a12_m": "im_a12", "omega_rad_s": "omega",
            "n_host": "n_host", "n_stored_max": "n_stored_max",
        }
        assert sorted(data) == sorted(field_of)
        assert tuple(SystemConfig.__annotations__) == (
            "mass", "a11", "a22", "a12", "omega", "n_host", "n_stored_max", "im_a12"
        )
        assert vars(config_from_dict(data)) == {field_of[key]: value for key, value in data.items()}

    def test_bundled_file_matches_module_defaults(self):
        from_file = load_config(REPO_ROOT / "paper_sodium.json")
        assert from_file == sodium_reference_config()


def sodium_reference_config_dict():
    return json.loads((REPO_ROOT / "paper_sodium.json").read_text(encoding="utf-8"))


def test_condition_flags(config, scales, mu):
    flags = check_conditions(config, scales, mu)
    assert flags.tf_ok and flags.dilute_ok
    assert_allclose(flags.tf_ratio, 6.740599, rtol=1e-6)
    assert_allclose(flags.diluteness, 1.5558e-6, rtol=1e-4)


def test_condition_flags_small_cloud(config):
    # with 100 atoms the cloud is not deep in the strong-interaction regime
    small = config_from_dict({**SODIUM_REFERENCE, "n_host": 100, "n_stored_max": 1})
    scales = derive_scales(small)
    flags = check_conditions(small, scales, tf_chemical_potential(small, scales))
    assert not flags.tf_ok


def test_condition_flags_single_atom(config):
    # one atom: the cloud is smaller than the oscillator length
    single = config_from_dict({**SODIUM_REFERENCE, "n_host": 1, "n_stored_max": 1})
    scales = derive_scales(single)
    flags = check_conditions(single, scales, tf_chemical_potential(single, scales))
    assert flags.tf_ratio < 1.0
    assert not flags.tf_ok


def test_mu_atom_number_scaling(config, scales, mu):
    # mu ~ N^(2/5) exactly in the closed form
    doubled = config_from_dict({**SODIUM_REFERENCE, "n_host": 2 * config.n_host})
    mu2 = tf_chemical_potential(doubled, scales)
    assert_allclose(mu2 / mu, 2.0**0.4, rtol=1e-13)


def test_cloud_radius_is_the_trap_formula_bit_for_bit():
    # sqrt(mu/trap_k) is sqrt(2*mu/(m*omega^2)) to the last bit, since halving a normal double is exact;
    # the scenarios span the benchmark's ranges: Li to Rb, 20-200 Hz, 1e5-1e7 host atoms
    rng = random.Random(29)
    for _ in range(1000):
        a11 = rng.uniform(2e-9, 6e-9)
        a12 = a11 * rng.uniform(0.85, 0.99)
        config = SystemConfig(
            mass=rng.uniform(1.0e-26, 1.5e-25), a11=a11, a22=a12 * a12 / a11 * (1.0 + rng.uniform(0.05, 0.5)),
            a12=a12, omega=2.0 * math.pi * rng.uniform(20.0, 200.0),
            n_host=int(10.0 ** rng.uniform(5.0, 7.0)), n_stored_max=rng.randint(1, 20),
        )
        mu = tf_chemical_potential(config, derive_scales(config))
        assert tf_radius(config, mu) == math.sqrt(2.0 * mu / (config.mass * config.omega**2))


def test_cloud_radius_underflow_is_refused():
    # mu/trap_k underflows to 0 for the smallest positive mu once trap_k > 2 J/m^2
    stiff = config_from_dict({**SODIUM_REFERENCE, "omega_rad_s": 1e14})
    with pytest.raises(ValidationError, match="cloud radius R = 0 is out of floating-point range"):
        tf_radius(stiff, 5e-324)
