"""Recover source parameters from measurable count rates.

The herald detector is the only place an HPS can be characterized without
touching the quantum channel.  Two observables are used here:

* the herald count rate, which after correcting for the detector's
  lockout in whole slots gives the per-pulse herald mean ``beta * mu``;
* the heralded g2(0), which fixes ``mu`` itself because multi-pair
  emission grows with mu.

Combining the two with an independently measured herald-arm loss ``beta``
yields two estimates of mu that should agree; a large mismatch indicates
a miscalibrated loss budget or a saturated detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (HPS, DetectorSpec, SourceSpec, Transmittance, _as_transmittance,
                   _click_prob, _real, _require_kind)

__all__ = [
    "SaturationError",
    "CalibrationError",
    "InfeasibleError",
    "MeasuredCounts",
    "CalibrationResult",
    "beta_mu_from_rate",
    "mu_from_g2",
    "calibrate_source",
    "solve_channel_loss",
]

# calibrate_source mismatch thresholds: warn above the first, fail above the second
MISMATCH_WARN = 0.10
MISMATCH_FAIL = 0.50


class SaturationError(ValueError):
    """Observed rate reaches one herald per deadtime lockout plus the herald's slot."""


class CalibrationError(ValueError):
    """Independent mu estimates disagree beyond the failure threshold."""


class InfeasibleError(ValueError):
    """A measured probability exceeds what any channel loss can produce."""


@dataclass(frozen=True)
class MeasuredCounts:
    """Herald-detector observables for one operating point.

    One accepted herald plus its lockout of ``L = detector.deadtime_slots``
    slots spans ``L + 1`` slots, so a rate ``r`` with ``r * (L + 1)`` at or
    above the pulse rate is refused with :class:`SaturationError`.
    """

    herald_rate_hz: float
    detector: DetectorSpec
    g2: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "herald_rate_hz",
                           _real("herald_rate_hz", self.herald_rate_hz, 0.0))
        if not isinstance(self.detector, DetectorSpec):
            raise ValueError("detector must be a DetectorSpec")
        span = self.detector.deadtime_slots + 1
        if self.herald_rate_hz * span >= self.detector.pulse_rate_hz:
            raise SaturationError(
                f"herald_rate_hz must be below pulse_rate_hz / (deadtime_slots + 1) = "
                f"{self.detector.pulse_rate_hz / span!r} Hz, got {self.herald_rate_hz!r}; "
                f"the detector cannot count more than one herald per {span} slots")
        if self.g2 is not None:
            object.__setattr__(self, "g2", _real("g2", self.g2, 0.0, 1.0, hi_open=True))


def beta_mu_from_rate(measured: MeasuredCounts) -> float:
    """Per-pulse herald mean ``beta * mu`` from the observed herald rate.

    Inverts the simulator's lockout: an accepted herald locks the detector
    for ``L = detector.deadtime_slots`` slots, so a per-pulse herald
    probability ``p`` is seen at ``h = p / (1 + L*p)`` heralds per slot.
    With ``h = r / pulse_rate_hz`` that gives ``p = h / (1 - L*h)``, and
    Poisson pairs give ``beta * mu = -ln(1 - p)``, computed as
    ``ln(1 + h / (1 - (L + 1)*h))`` so that no digit cancels.  It is
    finite, since :class:`MeasuredCounts` refuses ``h * (L + 1) >= 1``.
    """
    r, f = measured.herald_rate_hz, measured.detector.pulse_rate_hz
    return math.log1p(r / (f - (measured.detector.deadtime_slots + 1) * r))


def mu_from_g2(g2: float, beta_mu: float) -> float:
    """Mean pair number from the heralded g2(0) and the herald mean.

    Inverts the g2 prediction for Poisson pairs.  With
    ``s = beta*mu + g2 / (1 - g2)`` the solution is
    ``mu = -1 + sqrt(1 + s)``, written below in a form that does not
    cancel for small s.  Monotonically increasing in g2.
    """
    g2 = _real("g2", g2, 0.0, 1.0, hi_open=True)
    s = _real("beta_mu", beta_mu, 0.0) + g2 / (1.0 - g2)
    return s / (1.0 + math.sqrt(1.0 + s))


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated source plus the evidence behind it."""

    source: SourceSpec
    beta_mu: float
    mu_from_rate: float
    mu_from_g2: float | None
    mismatch: float | None
    warning: str | None


def calibrate_source(
    measured: MeasuredCounts,
    beta: Transmittance | float,
    alpha_s: Transmittance | float = 1.0,
) -> CalibrationResult:
    """Build an HPS spec from count-rate observables and a known beta.

    ``mu`` is taken from the deadtime-corrected rate.  When the
    measurement includes g2, an independent mu estimate is derived from
    it; a relative mismatch above 10% produces a warning string and above
    50% raises :class:`CalibrationError`, as does a zero rate beside a g2
    that implies a nonzero mu.  ``alpha_s`` defaults to 1 and
    should be replaced with the measured signal-arm loss before link
    analysis.
    """
    beta = _as_transmittance("beta", beta)
    beta_mu = beta_mu_from_rate(measured)
    mu_rate = beta_mu / beta.value
    mu_g2 = None
    mismatch = None
    warning = None
    if measured.g2 is not None:
        mu_g2 = mu_from_g2(measured.g2, beta_mu)
        if mu_rate > 0.0:
            mismatch = abs(mu_g2 - mu_rate) / mu_rate
            if mismatch > MISMATCH_FAIL:
                raise CalibrationError(
                    f"mu from rate ({mu_rate:.4g}) and from g2 ({mu_g2:.4g}) "
                    f"disagree by {mismatch:.0%}; check beta and deadtime")
            if mismatch > MISMATCH_WARN:
                warning = (f"mu estimates disagree by {mismatch:.1%} "
                           f"(rate: {mu_rate:.4g}, g2: {mu_g2:.4g})")
        elif mu_g2 > 0.0:
            raise CalibrationError(
                f"mu from rate ({mu_rate:.4g}) and from g2 ({mu_g2:.4g}) disagree: "
                f"a zero herald rate needs g2 = 0; check the rate")
    source = SourceSpec.hps(mu_rate, alpha_s, beta)
    return CalibrationResult(source, beta_mu, mu_rate, mu_g2, mismatch, warning)


def solve_channel_loss(measured_p_cond: float, source: SourceSpec) -> float:
    """Receiver-path transmittance that reproduces a measured P(click|herald).

    The conditional detection probability is strictly increasing in the
    receiver-path transmittance, so plain bisection on (0, 1] converges
    unconditionally, to a bracket of 1e-12 in 40 halvings.  Raises
    :class:`InfeasibleError` when the target exceeds the lossless-channel
    value (the heralding efficiency).
    """
    measured_p_cond = _real("measured_p_cond", measured_p_cond, 0.0, 1.0, lo_open=True)
    _require_kind(source, HPS, "solve_channel_loss")
    ceiling = _click_prob(source, 1.0)
    if measured_p_cond > ceiling:
        raise InfeasibleError(
            f"measured_p_cond {measured_p_cond:.6g} exceeds the lossless-channel "
            f"value {ceiling:.6g}")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _click_prob(source, mid) < measured_p_cond:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
