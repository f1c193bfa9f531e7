"""Stored component: Gaussian mode, Fock-state collisional shifts, phase gate.

The stored atoms sit in the nearly cancelled trap and occupy its Gaussian
ground state of width s.  n of them pick up the pair energy
DeltaE_n = (n^2 - n) * hbar * Omega, so a Fock superposition self-phase
modulates; at t = pi/(2*Omega) the two-atom amplitude has acquired exactly
the sign flip of a nonlinear-sign gate.
"""

from __future__ import annotations

import cmath
import math

from ._record import record
from .errors import ValidationError, _pointwise
from .params import DerivedScales, check_storage_time

NORM_TOL = 1e-12


@record
class StoredMode:
    """Normalized Gaussian mode phi(r) = pi^(-3/4) s^(-3/2) exp(-r^2/(2 s^2))."""

    s: float  # m

    def __post_init__(self):
        if not 0.0 < self.s < math.inf:
            raise ValidationError(f"mode width must be positive and finite, got {self.s}")

    def profile(self, r):
        """phi(r), normalized so 4*pi*int r^2 phi^2 dr = 1; one radius or a sequence."""
        s = self.s
        amplitude = _pointwise(lambda s: math.pi**-0.75 * s**-1.5, s, what="the mode amplitude pi^(-3/4) s^(-3/2)")

        def phi(x):
            q = x / s
            return amplitude * math.exp(-0.5 * (q * q))

        return _pointwise(phi, r)

    def density(self, r, n_atoms: float = 1.0):
        """n_atoms*phi(r)^2: profile, squared."""
        return _pointwise(lambda p: n_atoms * (p * p), self.profile(r))


def _norm(amps) -> float:
    """|c|, 0 for no amplitudes; abs() of a complex raises OverflowError past the largest double."""
    return math.hypot(*(x for c in amps for x in (c.real, c.imag)))


@record
class FockSuperposition:
    """Amplitudes c_0, c_1, ... of a photon-number superposition; must be normalized."""

    amps: tuple

    def __post_init__(self):
        amps = tuple(map(complex, self.amps))
        norm = _norm(amps)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValidationError(f"state not normalized: |c| = {norm}")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, amps) -> "FockSuperposition":
        amps = tuple(map(complex, amps))
        norm = _norm(amps)
        if not math.isfinite(norm):
            raise ValidationError(f"amplitudes must be finite, got |c| = {norm}")
        if norm == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return cls([c / norm for c in amps])


def evolve(state: FockSuperposition, t: float, scales: DerivedScales) -> FockSuperposition:
    """Free self-phase evolution c_n -> exp(-i (n^2-n) omega_nl t) c_n."""
    check_storage_time(t)
    return FockSuperposition(
        [c * cmath.exp(-1j * (n * n - n) * scales.omega_nl * t) for n, c in enumerate(state.amps)]
    )


@record
class NsGateTimes:
    """Characteristic storage durations of the nonlinear-sign gate."""

    gate_time: float  # s, omega_nl*t = pi/2: c2 -> -c2, the sign gate
    revival_time: float  # s, omega_nl*t = pi: the n <= 2 subspace returns to itself


def ns_gate_time(scales: DerivedScales) -> NsGateTimes:
    """Storage times at which the collisional phase realizes the sign gate."""
    return NsGateTimes(
        gate_time=math.pi / (2.0 * scales.omega_nl),
        revival_time=math.pi / scales.omega_nl,
    )


def ns_gate_target(state: FockSuperposition) -> FockSuperposition:
    """(c0, c1, c2) -> (c0, c1, -c2); defined on exactly three amplitudes."""
    if len(state.amps) != 3:
        raise ValidationError(
            f"the sign gate acts on three amplitudes (c0, c1, c2); got {len(state.amps)} amplitudes"
        )
    c0, c1, c2 = state.amps
    return FockSuperposition([c0, c1, -c2])


def gate_fidelity(result: FockSuperposition, ideal: FockSuperposition) -> float:
    """|<ideal|result>|^2."""
    if len(result.amps) != len(ideal.amps):
        raise ValidationError("states must have the same number of amplitudes")
    return abs(sum(a.conjugate() * b for a, b in zip(ideal.amps, result.amps))) ** 2
