"""Recover source parameters from measurable count rates.

The herald detector is the only place an HPS can be characterized without
touching the quantum channel.  Two observables are used here:

* the herald count rate, which after correcting for detector deadtime
  gives the per-pulse herald mean ``beta * mu``;
* the heralded g2(0), which fixes ``mu`` itself because multi-pair
  emission grows with mu.

Combining the two with an independently measured herald-arm loss ``beta``
yields two estimates of mu that should agree; a large mismatch indicates
a miscalibrated loss budget or a saturated detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (DetectorSpec, SourceSpec, Transmittance, _as_transmittance, _click_prob,
                   _real, heralding_efficiency)

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
    """Observed rate is too close to the deadtime-limited maximum to correct."""


class CalibrationError(ValueError):
    """Independent mu estimates disagree beyond the failure threshold."""


class InfeasibleError(ValueError):
    """A measured probability exceeds what any channel loss can produce."""


@dataclass(frozen=True)
class MeasuredCounts:
    """Herald-detector observables for one operating point."""

    herald_rate_hz: float
    detector: DetectorSpec
    g2: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "herald_rate_hz",
                           _real("herald_rate_hz", self.herald_rate_hz, 0.0))
        if not isinstance(self.detector, DetectorSpec):
            raise ValueError("detector must be a DetectorSpec")
        # beyond this the deadtime correction diverges
        if self.herald_rate_hz * self.detector.deadtime_s >= 1.0:
            raise SaturationError(
                f"herald_rate_hz * deadtime_s = "
                f"{self.herald_rate_hz * self.detector.deadtime_s:.6g} >= 1; "
                "the detector spends all its time dead")
        if self.g2 is not None:
            object.__setattr__(self, "g2", _real("g2", self.g2, 0.0, 1.0, hi_open=True))


def beta_mu_from_rate(measured: MeasuredCounts) -> float:
    """Deadtime-corrected per-pulse herald mean from the observed rate.

    Each detection blinds the detector for ``deadtime_s``, so the live
    fraction is ``1 - r * deadtime_s`` and the corrected mean is
    ``r / ((1 - r * deadtime_s) * pulse_rate_hz)``.

    The live fraction is positive, since :class:`MeasuredCounts` refuses
    ``r * deadtime_s >= 1``.  Raises :class:`SaturationError` when the
    corrected value reaches one herald per pulse, which a threshold
    detector cannot produce.
    """
    r = measured.herald_rate_hz
    det = measured.detector
    live = 1.0 - r * det.deadtime_s
    beta_mu = r / (live * det.pulse_rate_hz)
    if beta_mu >= 1.0:
        raise SaturationError(
            f"deadtime correction implies {beta_mu:.6g} heralds per pulse; "
            "a threshold detector saturates below 1")
    return beta_mu


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
    50% raises :class:`CalibrationError`.  ``alpha_s`` defaults to 1 and
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
    ceiling = heralding_efficiency(source)
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
