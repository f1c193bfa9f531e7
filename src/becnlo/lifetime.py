"""Stored-component lifetime from the inelastic part of the 1-2 channel.

A negative Im(a12) makes U12 complex; the stored mode then sees the
anti-Hermitian energy -i*|Im U12| * <phi|n1|phi>, so its amplitude decays as
exp(-L*t/hbar) with L the loss rate below.  tau is the time at which the
amplitude has halved.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import LossNotConfiguredError, ValidationError
from .grids import RadialField, radial_integral
from .host_tf import TfSolution
from .params import HBAR, DerivedScales, SystemConfig, coupling
from .stored_mode import StoredMode


@record
class LossEstimate:
    loss_rate_l: float  # J, |Im U12| * 4*pi*int r^2 phi^2 n1 dr
    tau: float  # s


def _host_density(host: TfSolution | RadialField) -> RadialField:
    return host.density if isinstance(host, TfSolution) else host


def mode_host_overlap(mode: StoredMode, host_density: RadialField) -> float:
    """4*pi*int r^2 phi(r)^2 n1(r) dr in m^-3."""
    r = host_density.grid.r
    return radial_integral(r, [p2 * n1 for p2, n1 in zip(mode.density(r), host_density.values)])


def loss_overlap(
    mode: StoredMode, host: TfSolution | RadialField, im_u12: float
) -> float:
    """|Im U12| weighted by the host density the mode actually samples."""
    if im_u12 == 0.0:
        raise LossNotConfiguredError("loss channel not configured: im_a12 is zero")
    return abs(im_u12) * mode_host_overlap(mode, _host_density(host))


def lifetime_tau(rate: float, hbar: float = HBAR) -> float:
    """Amplitude-halving time: |exp(-rate*t/hbar)| = 1/2 at t = hbar*ln2/rate."""
    if not 0 < rate < math.inf:
        raise ValidationError(f"loss rate must be positive and finite, got {rate}")
    return hbar * math.log(2.0) / rate


def estimate_lifetime(
    config: SystemConfig, scales: DerivedScales, host: TfSolution
) -> LossEstimate:
    """Loss rate and lifetime for the configured Im(a12)."""
    im_u12 = coupling(config.hbar, config.species.mass, config.species.im_a12)
    rate = loss_overlap(StoredMode.from_scales(scales), host, im_u12)
    return LossEstimate(loss_rate_l=rate, tau=lifetime_tau(rate, config.hbar))


def backsolve_im_a12(
    config: SystemConfig, scales: DerivedScales, host: TfSolution, tau_target: float
) -> float:
    """Im(a12) (negative, in m) that reproduces a target lifetime."""
    if not tau_target > 0:
        raise ValidationError(f"target lifetime must be positive, got {tau_target}")
    overlap = mode_host_overlap(StoredMode.from_scales(scales), host.density)
    rate_needed = config.hbar * math.log(2.0) / tau_target
    im_u12 = rate_needed / overlap
    return -im_u12 * config.species.mass / (4.0 * math.pi * config.hbar**2)
