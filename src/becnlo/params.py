"""Physical inputs for a two-component condensate and the scales derived from them.

Everything is SI: lengths in m, angular frequencies in rad/s, energies in J,
contact couplings U = 4*pi*hbar^2*a/m in J*m^3.  The host component (atom
number ``n_host``) sits in an isotropic harmonic trap; the stored component
(at most ``n_stored_max`` atoms) feels the same trap plus the mean field of
the host, which nearly cancels it.
"""

from __future__ import annotations

import math
import numbers
import sys

from ._record import record
from .errors import ValidationError, _pointwise

HBAR = 1.054571817e-34  # J*s (2018 CODATA, exact by SI definition)

# Host gas is treated as a strong-interaction parabola when R/d exceeds this.
TF_RATIO_THRESHOLD = 3.0
# Peak n*a^3 must stay below this for the contact mean field to make sense.
DILUTENESS_THRESHOLD = 1e-3

DEFAULT_GRID_POINTS = 4096  # radial points of the oracle's solver grid
GRID_SPAN_FACTOR = 1.5  # the oracle's solver grid reaches this multiple of the cloud radius


# scenario-file key -> (SystemConfig field, its sign), in the order SystemConfig checks the values;
# a key is optional when its field has a default, and the annotation decides float or int;
# im_a12_m is non-positive because losses shrink the norm
_FIELDS = {
    "mass_kg": ("mass", "positive"), "a11_m": ("a11", "positive"), "a22_m": ("a22", "positive"),
    "a12_m": ("a12", "non-negative"), "im_a12_m": ("im_a12", "non-positive"),
    "omega_rad_s": ("omega", "positive"), "n_host": ("n_host", "positive"),
    "n_stored_max": ("n_stored_max", "non-negative"),
}


@record
class SystemConfig:
    """A complete scenario, one field per key of the scenario file; hbar is the constant HBAR, not a setting."""

    mass: float  # kg
    a11: float  # m, host-host
    a22: float  # m, stored-stored
    a12: float  # m, inter-component (real part)
    omega: float  # rad/s, isotropic harmonic trap V(r) = trap_k*r^2
    n_host: int
    n_stored_max: int
    im_a12: float = 0.0  # m, inelastic part of a12; <= 0, 0 disables losses

    def __post_init__(self):
        for key, (field, sign) in _FIELDS.items():  # messages name the scenario key
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{key} must be a number, got {value!r}")
            try:  # an int is unbounded; float() raises past the largest double
                number = float(value)
            except OverflowError:
                raise ValidationError(f"{key} is beyond floating-point range, got {value!r}") from None
            if not math.isfinite(number):
                raise ValidationError(f"{key} must be finite, got {value!r}")
            if SystemConfig.__annotations__[field] == "int":  # a count; 1e6 is read as 1_000_000
                if not number.is_integer():
                    raise ValidationError(f"{key} must be an integer, got {value!r}")
                number = int(value)
            if not {"positive": number > 0, "non-negative": number >= 0, "non-positive": number <= 0}[sign]:
                raise ValidationError(f"{key} must be {sign}, got {value!r}")
            object.__setattr__(self, field, number)
        # the rules that relate two values run last
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
        try:  # omega**2 as trap_k squares it, first: it raises past 1.34e154 rad/s; a subnormal keeps few bits
            normal = self.omega**2 >= sys.float_info.min and self.trap_k >= sys.float_info.min
        except OverflowError:
            normal = False
        if not normal:
            raise ValidationError(f"omega_rad_s = {self.omega:g} puts omega^2 or trap_k out of floating-point range")

    @property
    def trap_k(self) -> float:
        """k in J/m^2 of the trap V(r) = k*r^2, m*omega^2/2: read it once, then V(x) = k * (x * x)."""
        return 0.5 * self.mass * self.omega**2


@record
class DerivedScales:
    """Every derived scale needed downstream, each finite and positive (U12 may be 0); see derive_scales."""

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

    def __post_init__(self):
        for name, value in vars(self).items():  # U12 is 0 when a12 is, else below U11
            if not (0.0 < value < math.inf or name == "u12" and value == 0.0):
                raise ValidationError(f"derived scale {name} = {value:g} is out of floating-point range")


def coupling(mass, a):
    """Contact coupling U = 4*pi*hbar^2*a/m in J*m^3."""
    return 4.0 * math.pi * HBAR**2 * a / mass


def derive_scales(config: SystemConfig) -> DerivedScales:
    """Work out the single-particle and interaction scales of a scenario.

    The host mean field cancels most of the bare trap for the stored
    component, leaving V*(1 - U12/U11), i.e. a harmonic trap with
    omega_tilde = omega*sqrt(1 - a12/a11) and length s = sqrt(hbar/(m*omega_tilde)).
    Collisions inside the stored mode are screened by the host response,
    a22_tilde = a22 - a12^2/a11, and the per-pair phase rate of the stored
    Gaussian is hbar*omega_nl = U22_tilde/(2*(2*pi)^(3/2)*s^3).
    """
    omega = config.omega
    try:
        d = math.sqrt(HBAR / (config.mass * omega))
        eff = 1.0 - config.a12 / config.a11
        omega_tilde = omega * math.sqrt(eff)
        s = math.sqrt(HBAR / (config.mass * omega_tilde))
        a22_tilde = config.a22 - config.a12**2 / config.a11
        u22_tilde = coupling(config.mass, a22_tilde)
        omega_nl = u22_tilde / (2.0 * (2.0 * math.pi) ** 1.5 * s**3 * HBAR)
        scales = DerivedScales(
            d=d,
            e_trap=HBAR * omega,
            u11=coupling(config.mass, config.a11),
            u22=coupling(config.mass, config.a22),
            u12=coupling(config.mass, config.a12),
            eff_trap_factor=eff,
            omega_tilde=omega_tilde,
            s=s,
            a22_tilde=a22_tilde,
            u22_tilde=u22_tilde,
            omega_nl=omega_nl,
        )
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError("a derived scale is out of floating-point range") from exc
    return scales


def tf_chemical_potential(config: SystemConfig, scales: DerivedScales) -> float:
    """Closed form mu = (e_trap/2)*(15*N*a11/d)^(2/5)."""
    return 0.5 * scales.e_trap * (15.0 * config.n_host * config.a11 / scales.d) ** 0.4


def tf_radius(config: SystemConfig, mu: float) -> float:
    """Cloud edge R where V(R) = mu."""
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu}")
    radius = _pointwise(lambda mu: math.sqrt(mu / config.trap_k), mu, what="cloud radius R")
    if not radius > 0.0:
        raise ValidationError(f"cloud radius R = {radius:g} is out of floating-point range")
    return radius


def energy_shift(n: int, scales: DerivedScales) -> float:
    """DeltaE_n = (n^2 - n) * hbar * omega_nl in J."""
    if n < 0:
        raise ValidationError(f"occupation must be non-negative, got {n}")
    # an n past about 1.3e154 makes n*n - n an int too large to convert to float
    return _pointwise(lambda n: (n * n - n) * HBAR * scales.omega_nl, n, what="the energy shift")


def check_storage_time(t: float) -> float:
    """Return t if it is a finite, non-negative storage time in s."""
    if not (math.isfinite(t) and t >= 0):
        raise ValidationError(f"storage time must be finite and non-negative, got {t}")
    return t


@record
class ConditionFlags:
    """Regime checks for the host gas."""

    tf_ratio: float  # R/d
    diluteness: float  # peak n1*a11^3

    @property
    def tf_ok(self) -> bool:
        return self.tf_ratio > TF_RATIO_THRESHOLD

    @property
    def dilute_ok(self) -> bool:
        return self.diluteness < DILUTENESS_THRESHOLD


def check_conditions(config: SystemConfig, scales: DerivedScales, mu: float) -> ConditionFlags:
    """Flag whether the host is in the strong-interaction, dilute regime."""
    tf_ratio = tf_radius(config, mu) / scales.d
    diluteness = _pointwise(lambda mu: (mu / scales.u11) * config.a11**3, mu, what="the diluteness")
    return ConditionFlags(tf_ratio=tf_ratio, diluteness=diluteness)


def config_from_dict(data: dict) -> SystemConfig:
    """Map a plain dict (the on-disk JSON layout) to a SystemConfig, which checks every value."""
    if not isinstance(data, dict):
        raise ValidationError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = sorted(data.keys() - _FIELDS.keys())
    if unknown:
        raise ValidationError(f"unknown config key(s): {', '.join(unknown)}")
    optional = {key for key, (field, _) in _FIELDS.items() if hasattr(SystemConfig, field)}
    missing = sorted(_FIELDS.keys() - data.keys() - optional)
    if missing:
        raise ValidationError(f"missing config key(s): {', '.join(missing)}")
    return SystemConfig(**{field: data[key] for key, (field, _) in _FIELDS.items() if key in data})


def load_config(path) -> SystemConfig:
    """Read a JSON scenario file; an unreadable file, bad JSON or bad values raise ValidationError."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
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
