"""Physical inputs for a two-component condensate and the scales derived from them.

Everything is SI: lengths in m, angular frequencies in rad/s, energies in J,
contact couplings U = 4*pi*hbar^2*a/m in J*m^3.  The host component (atom
number ``n_host``) sits in an isotropic harmonic trap; the stored component
(at most ``n_stored_max`` atoms) feels the same trap plus the mean field of
the host, which nearly cancels it.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError

HBAR = 1.054571817e-34  # J*s (2018 CODATA, exact by SI definition)

# Host gas is treated as a strong-interaction parabola when R/d exceeds this.
TF_RATIO_THRESHOLD = 3.0
# Peak n*a^3 must stay below this for the contact mean field to make sense.
DILUTENESS_THRESHOLD = 1e-3

DEFAULT_GRID_POINTS = 4096  # radial points of the host grid the subcommands build
GRID_SPAN_FACTOR = 1.5  # host grid reaches this multiple of the cloud radius


@dataclass(frozen=True)
class SpeciesParams:
    """Mass and s-wave scattering lengths of the two internal states."""

    mass: float  # kg
    a11: float  # m, host-host
    a22: float  # m, stored-stored
    a12: float  # m, inter-component (real part)
    im_a12: float = 0.0  # m, inelastic part of a12; <= 0, 0 disables losses

    def __post_init__(self):
        for name in ("mass", "a11", "a22", "a12", "im_a12"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.mass > 0:
            raise ValidationError(f"mass must be positive, got {self.mass}")
        if not self.a11 > 0:
            raise ValidationError(f"a11 must be positive, got {self.a11}")
        if not self.a22 > 0:
            raise ValidationError(f"a22 must be positive, got {self.a22}")
        if self.a12 < 0:
            raise ValidationError(f"a12 must be non-negative, got {self.a12}")
        if self.im_a12 > 0:
            raise ValidationError(
                f"im_a12 must be <= 0 (losses shrink the norm), got {self.im_a12}"
            )
        if not self.a11 * self.a22 > self.a12 * self.a12:  # a12**2 would raise past 1e154
            raise ValidationError(
                "components would phase-separate: require a11*a22 > a12^2, "
                f"got {self.a11:g}*{self.a22:g} <= {self.a12:g}^2"
            )
        if not self.a11 > self.a12:
            raise ValidationError(
                "stored component would be untrapped: require a11 > a12, "
                f"got a11={self.a11:g}, a12={self.a12:g}"
            )


@dataclass(frozen=True)
class TrapParams:
    """Isotropic harmonic trap, V(r) = m*omega^2*r^2/2."""

    omega: float  # rad/s

    def __post_init__(self):
        if not (self.omega > 0 and math.isfinite(self.omega)):
            raise ValidationError(f"omega must be positive and finite, got {self.omega}")


@dataclass(frozen=True)
class SystemConfig:
    """A complete scenario: species, trap, and atom numbers."""

    species: SpeciesParams
    trap: TrapParams
    n_host: int
    n_stored_max: int
    hbar: float = HBAR  # overridable only to make unit errors loud in tests

    def __post_init__(self):
        if not isinstance(self.n_host, numbers.Integral) or self.n_host < 1:
            raise ValidationError(f"n_host must be a positive integer, got {self.n_host!r}")
        if not isinstance(self.n_stored_max, numbers.Integral) or self.n_stored_max < 0:
            raise ValidationError(
                f"n_stored_max must be a non-negative integer, got {self.n_stored_max!r}"
            )
        if not self.hbar > 0:
            raise ValidationError(f"hbar must be positive, got {self.hbar}")

    def trap_potential(self, r):
        """V(r) in J; accepts scalars or arrays."""
        return 0.5 * self.species.mass * self.trap.omega**2 * r**2


# Python floats raise these, or quietly give inf or 0, where a closed form of an
# extreme but finite config leaves double range; the config is then rejected.
_OUT_OF_RANGE = (OverflowError, ZeroDivisionError)


@dataclass(frozen=True)
class DerivedScales:
    """Every derived scale needed downstream; see derive_scales for formulas."""

    d: float  # m, bare oscillator length sqrt(hbar/(m*omega))
    e_trap: float  # J, hbar*omega
    u11: float  # J*m^3
    u22: float  # J*m^3
    u12: float  # J*m^3
    eff_trap_factor: float  # 1 - U12/U11, in (0, 1]
    omega_tilde: float  # rad/s, trap frequency felt by the stored component
    s: float  # m, oscillator length of the effective trap
    a22_tilde: float  # m, a22 - a12^2/a11
    u22_tilde: float  # J*m^3
    omega_nl: float  # rad/s, per-pair collisional phase rate of the stored mode
    hbar: float  # J*s, copied from the config for convenience


def coupling(hbar, mass, a):
    """Contact coupling U = 4*pi*hbar^2*a/m in J*m^3."""
    return 4.0 * math.pi * hbar**2 * a / mass


def derive_scales(config: SystemConfig) -> DerivedScales:
    """Work out the single-particle and interaction scales of a scenario.

    The host mean field cancels most of the bare trap for the stored
    component, leaving V*(1 - U12/U11), i.e. a harmonic trap with
    omega_tilde = omega*sqrt(1 - a12/a11) and length s = sqrt(hbar/(m*omega_tilde)).
    Collisions inside the stored mode are screened by the host response,
    a22_tilde = a22 - a12^2/a11, and the per-pair phase rate of the stored
    Gaussian is hbar*omega_nl = U22_tilde/(2*(2*pi)^(3/2)*s^3).
    """
    sp = config.species
    hbar = config.hbar
    omega = config.trap.omega
    try:
        d = math.sqrt(hbar / (sp.mass * omega))
        eff = 1.0 - sp.a12 / sp.a11
        omega_tilde = omega * math.sqrt(eff)
        s = math.sqrt(hbar / (sp.mass * omega_tilde))
        a22_tilde = sp.a22 - sp.a12**2 / sp.a11
        u22_tilde = coupling(hbar, sp.mass, a22_tilde)
        omega_nl = u22_tilde / (2.0 * (2.0 * math.pi) ** 1.5 * s**3 * hbar)
        scales = DerivedScales(
            d=d,
            e_trap=hbar * omega,
            u11=coupling(hbar, sp.mass, sp.a11),
            u22=coupling(hbar, sp.mass, sp.a22),
            u12=coupling(hbar, sp.mass, sp.a12),
            eff_trap_factor=eff,
            omega_tilde=omega_tilde,
            s=s,
            a22_tilde=a22_tilde,
            u22_tilde=u22_tilde,
            omega_nl=omega_nl,
            hbar=hbar,
        )
    except _OUT_OF_RANGE as exc:
        raise ValidationError("a derived scale is out of floating-point range") from exc
    for name, value in vars(scales).items():
        if not 0.0 < value < math.inf and name != "u12":  # U12 is 0 when a12 is, else below U11
            raise ValidationError(f"derived scale {name} = {value:g} is out of floating-point range")
    return scales


def tf_chemical_potential(config: SystemConfig, scales: DerivedScales) -> float:
    """Closed form mu = (e_trap/2)*(15*N*a11/d)^(2/5)."""
    return 0.5 * scales.e_trap * (15.0 * config.n_host * config.species.a11 / scales.d) ** 0.4


def tf_radius(config: SystemConfig, mu: float) -> float:
    """Cloud edge R where V(R) = mu."""
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    try:
        radius = math.sqrt(2.0 * mu / (config.species.mass * config.trap.omega**2))
    except _OUT_OF_RANGE as exc:
        raise ValidationError("cloud radius R is out of floating-point range") from exc
    if not 0.0 < radius < math.inf:
        raise ValidationError(f"cloud radius R = {radius:g} is out of floating-point range")
    return radius


def energy_shift(n: int, scales: DerivedScales) -> float:
    """DeltaE_n = (n^2 - n) * hbar * omega_nl in J."""
    if n < 0:
        raise ValidationError(f"occupation must be non-negative, got {n}")
    return (n * n - n) * scales.hbar * scales.omega_nl


def check_storage_time(t: float) -> float:
    """Return t if it is a finite, non-negative storage time in s."""
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"storage time must be finite and non-negative, got {t}")
    return t


@dataclass(frozen=True)
class ConditionFlags:
    """Regime checks for the host gas."""

    tf_ratio: float  # R/d
    diluteness: float  # peak n1*a11^3
    tf_ok: bool
    dilute_ok: bool


def check_conditions(config: SystemConfig, scales: DerivedScales, mu: float) -> ConditionFlags:
    """Flag whether the host is in the strong-interaction, dilute regime."""
    tf_ratio = tf_radius(config, mu) / scales.d
    try:
        diluteness = (mu / scales.u11) * config.species.a11**3
    except _OUT_OF_RANGE as exc:
        raise ValidationError("the diluteness is out of floating-point range") from exc
    return ConditionFlags(
        tf_ratio=tf_ratio,
        diluteness=diluteness,
        tf_ok=tf_ratio > TF_RATIO_THRESHOLD,
        dilute_ok=diluteness < DILUTENESS_THRESHOLD,
    )


_REQUIRED_KEYS = ("mass_kg", "a11_m", "a22_m", "a12_m", "omega_rad_s", "n_host", "n_stored_max")
_OPTIONAL_KEYS = ("im_a12_m",)


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from a plain dict (the on-disk JSON layout)."""
    if not isinstance(data, dict):
        raise ValidationError(f"config must be a JSON object, got {type(data).__name__}")
    allowed = set(_REQUIRED_KEYS) | set(_OPTIONAL_KEYS)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    missing = sorted(k for k in _REQUIRED_KEYS if k not in data)
    if missing:
        raise ValidationError(f"missing config key(s): {', '.join(missing)}")
    for key, value in data.items():  # JSON integers are unbounded; float() would raise
        if isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
            raise ValidationError(f"{key} is beyond floating-point range, got {value!r}")

    def number(key, default=None):
        value = data.get(key, default)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{key} must be a number, got {value!r}")
        return float(value)

    def integer(key):
        value = data[key]
        if isinstance(value, bool):
            raise ValidationError(f"{key} must be an integer, got {value!r}")
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
        raise ValidationError(f"{key} must be an integer, got {value!r}")

    species = SpeciesParams(
        mass=number("mass_kg"),
        a11=number("a11_m"),
        a22=number("a22_m"),
        a12=number("a12_m"),
        im_a12=number("im_a12_m", 0.0),
    )
    trap = TrapParams(omega=number("omega_rad_s"))
    return SystemConfig(
        species=species,
        trap=trap,
        n_host=integer("n_host"),
        n_stored_max=integer("n_stored_max"),
    )


def load_config(path) -> SystemConfig:
    """Read a JSON scenario file; an unreadable file, bad JSON or bad values raise ValidationError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read config ({exc})") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)


# Sodium |F=1,m=-1> / |F=2,m=+1> pair in a 50 Hz spherical trap; im_a12 is
# back-solved so the inelastic channel halves the stored amplitude in 0.25 ms.
SODIUM_REFERENCE = {
    "mass_kg": 3.82e-26,
    "a11_m": 2.75e-9,
    "a22_m": 2.85e-9,
    "a12_m": 2.65e-9,
    "im_a12_m": -1.291883e-9,
    "omega_rad_s": 100.0 * math.pi,
    "n_host": 1_000_000,
    "n_stored_max": 10,
}


def sodium_reference_config() -> SystemConfig:
    """The bundled sodium scenario (same numbers as paper_sodium.json)."""
    return config_from_dict(SODIUM_REFERENCE)
