"""Stored-component lifetime from the inelastic part of the 1-2 channel.

A negative Im(a12) makes U12 complex; the stored mode then sees the
anti-Hermitian energy -i*|Im U12| * <phi|n1|phi>, so its amplitude decays as
exp(-L*t/hbar) with L the loss rate below.  tau = hbar*ln2/L is the time at
which the amplitude has halved.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import LossNotConfiguredError, ValidationError, _pointwise
from .host_tf import TfSolution
from .params import HBAR, DerivedScales, SystemConfig, coupling


@record
class LossEstimate:
    loss_rate_l: float  # J, |Im U12| * 4*pi*int r^2 phi^2 n1 dr

    @property
    def tau(self) -> float:
        """s, the time at which the stored amplitude has halved."""
        return HBAR * math.log(2.0) / self.loss_rate_l


def mode_host_overlap(config: SystemConfig, scales: DerivedScales, host: TfSolution) -> float:
    """4*pi*int_0^R r^2 phi(r)^2 n1(r) dr in m^-3, in closed form, for the Gaussian mode of width s.

    With x = r/s, X = R/s and V(r) = k*r^2, phi^2 = pi^-3/2 s^-3 exp(-x^2) and
    n1 = (mu - k*s^2*x^2)/U11, so the integral is
    (4/sqrt(pi))/U11 * (mu*J2(X) - k*s^2*J4(X)) with the truncated moments
    J2 = int_0^X x^2 exp(-x^2) dx = sqrt(pi)/4 erf(X) - X exp(-X^2)/2 and
    J4 = int_0^X x^4 exp(-x^2) dx = 3/2 J2 - X^3 exp(-X^2)/2.
    """
    s, u11 = scales.s, scales.u11
    k = config.trap_k

    def overlap(x):
        xg = x * math.exp(-(x * x))  # X^3 exp(-X^2) as xg*X*X: 0, not inf*0, for a large X
        j2 = 0.25 * math.sqrt(math.pi) * math.erf(x) - 0.5 * xg
        j4 = 1.5 * j2 - 0.5 * xg * x * x
        return 4.0 / math.sqrt(math.pi) / u11 * (host.mu * j2 - k * s * s * j4)

    return _pointwise(overlap, host.radius / s)


def estimate_lifetime(
    config: SystemConfig, scales: DerivedScales, host: TfSolution
) -> LossEstimate:
    """Loss rate and lifetime for the configured Im(a12)."""
    im_u12 = coupling(config.mass, config.im_a12)
    if im_u12 == 0.0:
        raise LossNotConfiguredError("loss channel not configured: im_a12 is zero")
    rate = abs(im_u12) * mode_host_overlap(config, scales, host)
    if not 0 < rate < math.inf:
        raise ValidationError(f"loss rate must be positive and finite, got {rate}")
    return LossEstimate(loss_rate_l=rate)
