import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from becnlo import (
    HBAR,
    DerivedScales,
    FockSuperposition,
    StoredMode,
    ValidationError,
    energy_shift,
    evolve,
    gate_fidelity,
    ns_gate_target,
    ns_gate_time,
)
from reference import energy_shift_bruteforce


@pytest.fixture(scope="module")
def mode(scales):
    return StoredMode(scales.s)


def test_mode_width(mode, scales):
    assert mode.s == scales.s


@pytest.mark.parametrize("width", [math.inf, math.nan])
def test_mode_width_must_be_positive_and_finite(width):
    # an infinite width would give a profile of zeros
    with pytest.raises(ValidationError, match="mode width"):
        StoredMode(width)


@pytest.mark.parametrize("method", ["profile", "density"])
@pytest.mark.parametrize("r", [0.0, [0.0, 1e-210]], ids=["scalar", "sequence"])
def test_amplitude_out_of_range_is_refused(method, r):
    # s^(-3/2) overflows for a width below about 1e-205 m: the range rule refuses it
    with pytest.raises(ValidationError, match="the mode amplitude"):
        getattr(StoredMode(1e-210), method)(r)


def test_profile_normalized(mode):
    r = np.linspace(0.0, 12.0 * mode.s, 8001)
    from becnlo import radial_integral

    assert_allclose(radial_integral(r, np.asarray(mode.profile(r)) ** 2), 1.0, rtol=1e-10)


def test_density_scales_with_atoms(mode):
    r = np.array([0.0, mode.s])
    np.testing.assert_array_equal(mode.density(r, 10.0), 10.0 * np.asarray(mode.profile(r)) ** 2)


def test_central_density(mode, scales):
    # 10 atoms in the Gaussian mode
    assert_allclose(mode.density(0.0, 10.0), 5.740917e15, rtol=1e-6)
    assert_allclose(mode.density(0.0, 10.0) * scales.d**3, 0.14955, rtol=1e-4)


class TestEnergyShift:
    def test_frozen_pair_value(self, scales):
        assert_allclose(energy_shift(2, scales), 2.200696e-37, rtol=1e-6)

    def test_quadratic_in_n(self, scales):
        shifts = np.array([energy_shift(n, scales) for n in range(7)])
        n = np.arange(7)
        assert_allclose(shifts, (n**2 - n) * HBAR * scales.omega_nl, rtol=1e-15)
        assert shifts[0] == 0.0 and shifts[1] == 0.0

    def test_bruteforce_agreement(self, mode, scales):
        # quadrature of the pair-counting integral against the closed form
        for n in range(7):
            closed = energy_shift(n, scales)
            quadrature = energy_shift_bruteforce(n, mode, scales)
            if closed == 0.0:
                assert quadrature == 0.0
            else:
                assert_allclose(quadrature, closed, rtol=1e-9)

    def test_rejects_negative_n(self, mode, scales):
        with pytest.raises(ValidationError):
            energy_shift(-1, scales)
        with pytest.raises(ValidationError):
            energy_shift_bruteforce(-2, mode, scales)

    def test_second_difference_is_pair_energy(self, scales):
        # Delta E(n+1) - 2 Delta E(n) + Delta E(n-1) = 2 hbar Omega
        pair = 2.0 * HBAR * scales.omega_nl
        for n in range(1, 9):
            second = (
                energy_shift(n + 1, scales)
                - 2.0 * energy_shift(n, scales)
                + energy_shift(n - 1, scales)
            )
            assert_allclose(second, pair, rtol=1e-12)


class TestFockSuperposition:
    def test_requires_normalization(self):
        with pytest.raises(ValidationError, match="not normalized") as info:
            FockSuperposition(np.array([1.0, 1.0, 1.0]))
        # the norm reads as a plain number, not as numpy's np.float64(...) repr
        assert str(info.value) == "state not normalized: |c| = 1.7320508075688772"

    def test_normalized_constructor(self):
        state = FockSuperposition.normalized([1.0, 1.0, 1.0])
        assert_allclose(np.abs(state.amps), 1.0 / math.sqrt(3.0), rtol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ValidationError):
            FockSuperposition.normalized([0.0, 0.0, 0.0])

    def test_amps_read_only(self):
        state = FockSuperposition.normalized([1.0, 2.0])
        with pytest.raises(TypeError):
            state.amps[0] = 0.0


class TestGate:
    def test_times(self, scales):
        times = ns_gate_time(scales)
        assert_allclose(times.gate_time, 1505.4489, rtol=1e-6)
        assert_allclose(times.revival_time, 3010.8977, rtol=1e-6)
        assert_allclose(times.revival_time / 60.0, 50.18, rtol=1e-3)

    def test_sign_flip_on_random_states(self, scales):
        rng = np.random.default_rng(20260823)
        times = ns_gate_time(scales)
        for _ in range(25):
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            state = FockSuperposition.normalized(amps)
            out = evolve(state, times.gate_time, scales)
            assert gate_fidelity(out, ns_gate_target(state)) >= 1.0 - 1e-12

    def test_revival_is_identity(self, scales):
        rng = np.random.default_rng(7)
        times = ns_gate_time(scales)
        state = FockSuperposition.normalized(rng.normal(size=3) + 1j * rng.normal(size=3))
        back = evolve(state, times.revival_time, scales)
        assert_allclose(back.amps, state.amps, atol=1e-12)

    def test_revival_extends_to_all_n(self, scales):
        # n^2 - n is always even, so every Fock state is back at omega_nl*t = pi
        times = ns_gate_time(scales)
        rng = np.random.default_rng(13)
        state = FockSuperposition.normalized(rng.normal(size=8))
        out = evolve(state, times.revival_time, scales)
        assert_allclose(out.amps, state.amps, atol=1e-12)

    def test_half_gate_time_dephases(self, scales):
        # at omega_nl*t = pi/4 the pair amplitude sits at -i: overlap 1/2
        times = ns_gate_time(scales)
        state = FockSuperposition.normalized([1.0, 0.0, 1.0])
        out = evolve(state, 0.5 * times.gate_time, scales)
        assert_allclose(gate_fidelity(out, state), 0.5, atol=1e-12)

    def test_gate_target_needs_three(self):
        with pytest.raises(ValidationError, match="got 2 amplitudes"):
            ns_gate_target(FockSuperposition.normalized([1.0, 1.0]))

    def test_fidelity_size_mismatch(self):
        a = FockSuperposition.normalized([1.0, 0.0])
        b = FockSuperposition.normalized([1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            gate_fidelity(a, b)

    def test_negative_time_rejected(self, scales):
        state = FockSuperposition.normalized([1.0, 1.0, 1.0])
        with pytest.raises(ValidationError):
            evolve(state, -1.0, scales)

    def test_faster_rate_halves_times(self, scales):
        fast = DerivedScales(**{**vars(scales), "omega_nl": 2.0 * scales.omega_nl})
        slow = ns_gate_time(scales)
        quick = ns_gate_time(fast)
        assert_allclose(quick.gate_time, 0.5 * slow.gate_time, rtol=1e-15)
        assert_allclose(quick.revival_time, 0.5 * slow.revival_time, rtol=1e-15)


def test_phase_unitarity(scales):
    # norm is conserved for any time
    rng = np.random.default_rng(99)
    state = FockSuperposition.normalized(rng.normal(size=6))
    out = evolve(state, 1234.5, scales)
    assert_allclose(np.linalg.norm(out.amps), 1.0, rtol=1e-14)


def test_zero_time_is_identity(scales):
    state = FockSuperposition.normalized([0.3, 0.4, 0.5, 0.6])
    out = evolve(state, 0.0, scales)
    assert_allclose(out.amps, state.amps, rtol=0.0, atol=0.0)


def test_evolution_composes(scales):
    # evolving t1 then t2 equals evolving t1 + t2 in one step
    rng = np.random.default_rng(41)
    state = FockSuperposition.normalized(rng.normal(size=5) + 1j * rng.normal(size=5))
    t1, t2 = 321.0, 654.0
    two_step = evolve(evolve(state, t1, scales), t2, scales)
    one_step = evolve(state, t1 + t2, scales)
    assert_allclose(two_step.amps, one_step.amps, atol=1e-14)


def test_orthogonal_states_stay_orthogonal(scales):
    a = FockSuperposition.normalized([1.0, 0.0, 0.0])
    b = FockSuperposition.normalized([0.0, 1.0, 0.0])
    out = evolve(a, 777.0, scales)
    assert gate_fidelity(out, b) == 0.0
