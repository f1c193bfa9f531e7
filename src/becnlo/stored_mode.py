"""Stored component: Gaussian mode, Fock-state collisional shifts, phase gate.

The stored atoms sit in the nearly cancelled trap and occupy its Gaussian
ground state of width s.  n of them pick up the pair energy
DeltaE_n = (n^2 - n) * hbar * Omega, so a Fock superposition self-phase
modulates; at t = pi/(2*Omega) the two-atom amplitude has acquired exactly
the sign flip of a nonlinear-sign gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grids import DENSITY, WAVEFUNCTION, RadialField, RadialGrid
from .params import DerivedScales, check_storage_time, energy_shift  # noqa: F401  (energy_shift: re-exported)

NORM_TOL = 1e-12


@dataclass(frozen=True)
class StoredMode:
    """Normalized Gaussian mode phi(r) = pi^(-3/4) s^(-3/2) exp(-r^2/(2 s^2))."""

    s: float  # m

    def __post_init__(self):
        if not self.s > 0:
            raise ValidationError(f"mode width must be positive, got {self.s}")

    @classmethod
    def from_scales(cls, scales: DerivedScales) -> "StoredMode":
        return cls(s=scales.s)

    def profile(self, r):
        """phi(r), normalized so 4*pi*int r^2 phi^2 dr = 1."""
        x = np.asarray(r, dtype=float) / self.s
        return math.pi**-0.75 * self.s**-1.5 * np.exp(-0.5 * x**2)

    def density(self, r, n_atoms: float = 1.0):
        return n_atoms * self.profile(r) ** 2

    def profile_field(self, grid: RadialGrid) -> RadialField:
        return RadialField(grid, self.profile(grid.r), WAVEFUNCTION)

    def density_field(self, grid: RadialGrid, n_atoms: float = 1.0) -> RadialField:
        return RadialField(grid, self.density(grid.r, n_atoms), DENSITY)


@dataclass(frozen=True)
class FockSuperposition:
    """Amplitudes c_0..c_nmax of a photon-number superposition; must be normalized."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise ValidationError("amplitudes must form a non-empty 1-d array")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state not normalized: |c| = {float(norm)}")
        amps.setflags(write=False)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, amps) -> "FockSuperposition":
        amps = np.asarray(amps, dtype=complex)
        norm = np.linalg.norm(amps)
        if not math.isfinite(norm):
            raise ValidationError(f"amplitudes must be finite, got |c| = {norm}")
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(amps / norm)

    @property
    def nmax(self) -> int:
        return self.amps.size - 1


def evolve(state: FockSuperposition, t: float, scales: DerivedScales) -> FockSuperposition:
    """Free self-phase evolution c_n -> exp(-i (n^2-n) omega_nl t) c_n."""
    check_storage_time(t)
    n = np.arange(state.amps.size)
    phases = np.exp(-1j * (n * n - n) * scales.omega_nl * t)
    return FockSuperposition(state.amps * phases)


@dataclass(frozen=True)
class NsGateTimes:
    """Characteristic storage durations of the nonlinear-sign gate."""

    gate_time: float  # s, omega_nl*t = pi/2: c2 -> -c2, the sign gate
    revival_time: float  # s, omega_nl*t = pi: the n <= 2 subspace returns to itself


def ns_gate_time(scales: DerivedScales) -> NsGateTimes:
    """Storage times at which the collisional phase realizes the sign gate."""
    if not scales.omega_nl > 0:
        raise ValidationError(f"omega_nl must be positive, got {scales.omega_nl}")
    return NsGateTimes(
        gate_time=math.pi / (2.0 * scales.omega_nl),
        revival_time=math.pi / scales.omega_nl,
    )


def ns_gate_target(state: FockSuperposition) -> FockSuperposition:
    """(c0, c1, c2) -> (c0, c1, -c2); defined on exactly three amplitudes."""
    if state.amps.size != 3:
        raise ValidationError(
            f"the sign gate acts on (c0, c1, c2); got {state.amps.size} amplitudes"
        )
    flipped = state.amps.copy()
    flipped[2] = -flipped[2]
    return FockSuperposition(flipped)


def gate_fidelity(result: FockSuperposition, ideal: FockSuperposition) -> float:
    """|<ideal|result>|^2."""
    if result.amps.size != ideal.amps.size:
        raise ValidationError("states must have the same number of amplitudes")
    return float(abs(np.vdot(ideal.amps, result.amps)) ** 2)
