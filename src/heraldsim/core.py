"""Closed-form link analytics for weak-coherent and heralded photon sources.

This module models a pulsed photon source feeding a lossy fiber channel
with gated threshold detection at the receiver.  It provides the detection
probabilities for a weak coherent source (WCS) and a heralded photon
source (HPS), the photon signal-to-noise ratio (PSNR) seen by the
receiver, the quantum bit-error rate (QBER) implied by that PSNR, the
PSNR improvement obtained by switching from WCS to HPS at equal mean
photon number, the photon-rate cost of that switch, and the second-order
correlation g2(0) of the heralded output.

Conventions
-----------
* Transmittances are linear power ratios in (0, 1].  dB values follow the
  power convention x_db = 10 * log10(x), so losses are negative dB.
* ``mu`` is the mean photon number (WCS) or mean photon-pair number (HPS)
  emitted per pulse.  Photon statistics are Poissonian in both cases.
* ``p_noise`` is the probability that at least one noise photon is
  registered in a single gated detection slot.
* Detectors are threshold detectors: one or more arriving photons produce
  a single click.  Each photon survives a transmittance ``t`` with
  independent probability ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "DEFAULT_REPORTING_LOSS",
    "UndefinedConditionalError",
    "Transmittance",
    "SourceSpec",
    "ChannelSpec",
    "DetectorSpec",
    "LinkMetrics",
    "db_to_linear",
    "linear_to_db",
    "wavelength_to_frequency",
    "frequency_to_wavelength",
    "wcs_detection_prob",
    "hps_herald_prob",
    "hps_conditional_detection",
    "heralding_efficiency",
    "psnr",
    "psnr_gain",
    "psnr_gain_approx",
    "rate_penalty",
    "qber_exact",
    "qber_from_psnr",
    "g2_predicted",
    "link_metrics",
]

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Herald-arm and receiver losses cancel out of PSNR-gain only approximately;
# when no channel is given, gain is reported at this receiver-path loss.
DEFAULT_REPORTING_LOSS = 1e-3


class UndefinedConditionalError(ValueError):
    """A herald-conditioned quantity was requested but heralds never fire."""


def db_to_linear(db: float) -> float:
    """Convert a power ratio from dB to linear. -10 dB -> 0.1."""
    if not math.isfinite(db):
        raise ValueError(f"dB value must be finite, got {db}")
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB. 0.1 -> -10 dB."""
    if not (ratio > 0.0 and math.isfinite(ratio)):
        raise ValueError(f"ratio must be finite and positive, got {ratio}")
    return 10.0 * math.log10(ratio)


def wavelength_to_frequency(wavelength_m: float) -> float:
    """Vacuum wavelength in meters to frequency in Hz."""
    if not (wavelength_m > 0.0 and math.isfinite(wavelength_m)):
        raise ValueError(f"wavelength must be finite and positive, got {wavelength_m}")
    return SPEED_OF_LIGHT_M_S / wavelength_m


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Frequency in Hz to vacuum wavelength in meters."""
    if not (frequency_hz > 0.0 and math.isfinite(frequency_hz)):
        raise ValueError(f"frequency must be finite and positive, got {frequency_hz}")
    return SPEED_OF_LIGHT_M_S / frequency_hz


@dataclass(frozen=True)
class Transmittance:
    """Linear power transmittance, constrained to (0, 1]."""

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValueError(f"transmittance must be a finite number, got {v!r}")
        if not 0.0 < v <= 1.0:
            raise ValueError(f"transmittance must be in (0, 1], got {v}")
        object.__setattr__(self, "value", float(v))

    @classmethod
    def from_db(cls, db: float) -> "Transmittance":
        return cls(db_to_linear(db))

    @property
    def db(self) -> float:
        return linear_to_db(self.value)


def _as_transmittance(x: "Transmittance | float") -> Transmittance:
    return x if isinstance(x, Transmittance) else Transmittance(x)


WCS = "wcs"
HPS = "hps"


@dataclass(frozen=True)
class SourceSpec:
    """Photon source description.

    ``kind`` is ``"wcs"`` (attenuated laser) or ``"hps"`` (photon-pair
    source with one photon of each pair detected locally as a herald).
    For an HPS, ``alpha_s`` is the signal-arm transmittance between the
    pair source and the channel input, and ``beta`` is the herald-arm
    transmittance including the herald detector efficiency.  A WCS
    carries neither.
    """

    kind: str
    mu: float
    alpha_s: Transmittance | None = None
    beta: Transmittance | None = None

    def __post_init__(self) -> None:
        if self.kind not in (WCS, HPS):
            raise ValueError(f"source kind must be 'wcs' or 'hps', got {self.kind!r}")
        if not (isinstance(self.mu, (int, float)) and math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu!r}")
        object.__setattr__(self, "mu", float(self.mu))
        if self.kind == WCS:
            if self.alpha_s is not None or self.beta is not None:
                raise ValueError("a WCS has no signal-arm or herald-arm transmittance")
        else:
            if self.alpha_s is None or self.beta is None:
                raise ValueError("an HPS requires both alpha_s and beta")
            object.__setattr__(self, "alpha_s", _as_transmittance(self.alpha_s))
            object.__setattr__(self, "beta", _as_transmittance(self.beta))

    @classmethod
    def wcs(cls, mu: float) -> "SourceSpec":
        return cls(WCS, mu)

    @classmethod
    def hps(cls, mu: float, alpha_s: "Transmittance | float",
            beta: "Transmittance | float") -> "SourceSpec":
        return cls(HPS, mu, _as_transmittance(alpha_s), _as_transmittance(beta))


@dataclass(frozen=True)
class ChannelSpec:
    """Fiber channel and receiver: transmittances plus per-slot noise.

    ``alpha_r`` is the channel transmittance, ``alpha_d`` folds detector
    quantum efficiency and receiver insertion loss, and ``p_noise`` is
    the probability of registering at least one noise photon in a gated
    slot.
    """

    alpha_r: Transmittance
    alpha_d: Transmittance
    p_noise: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha_r", _as_transmittance(self.alpha_r))
        object.__setattr__(self, "alpha_d", _as_transmittance(self.alpha_d))
        p = self.p_noise
        if not (isinstance(p, (int, float)) and math.isfinite(p) and 0.0 <= p < 1.0):
            raise ValueError(f"p_noise must be in [0, 1), got {p!r}")
        object.__setattr__(self, "p_noise", float(p))

    @property
    def loss(self) -> float:
        """Combined receiver-path transmittance alpha_r * alpha_d."""
        return self.alpha_r.value * self.alpha_d.value


@dataclass(frozen=True)
class DetectorSpec:
    """Gated detector timing: pulse clock and deadtime."""

    pulse_rate_hz: float
    deadtime_s: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.pulse_rate_hz, (int, float))
                and math.isfinite(self.pulse_rate_hz) and self.pulse_rate_hz > 0.0):
            raise ValueError(f"pulse_rate_hz must be finite and > 0, got {self.pulse_rate_hz!r}")
        v = self.deadtime_s
        if not (isinstance(v, (int, float)) and math.isfinite(v) and v >= 0.0):
            raise ValueError(f"deadtime_s must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "deadtime_s", float(v))
        object.__setattr__(self, "pulse_rate_hz", float(self.pulse_rate_hz))


def _require_kind(source: SourceSpec, kind: str, op: str) -> None:
    if source.kind != kind:
        raise ValueError(f"{op} is defined for {kind.upper()} sources, got {source.kind!r}")


def wcs_detection_prob(source: SourceSpec, channel: ChannelSpec) -> float:
    """Probability that a WCS pulse produces a signal click at the receiver.

    Poisson photon statistics thinned by the receiver path give
    ``1 - exp(-alpha_r * alpha_d * mu)``.
    """
    _require_kind(source, WCS, "wcs_detection_prob")
    return -math.expm1(-channel.loss * source.mu)


def hps_herald_prob(source: SourceSpec) -> float:
    """Probability that an HPS pulse fires the herald detector.

    Poisson pair statistics thinned by the herald arm give
    ``1 - exp(-beta * mu)``.
    """
    _require_kind(source, HPS, "hps_herald_prob")
    return -math.expm1(-source.beta.value * source.mu)


def _conditional_detection(mu: float, beta: float, arm: float) -> float:
    """P(signal click | herald click) for thinned Poisson pairs.

    ``arm`` is the total signal-path transmittance.  The joint click
    probability is ``1 - e^(-beta*mu) - e^(-arm*mu) + e^((arm*beta-arm-beta)*mu)``;
    it is evaluated here in an expm1 regrouping that stays accurate when
    ``arm*mu`` and ``beta*mu`` are both small.
    """
    p_t = -math.expm1(-beta * mu)
    if p_t <= 0.0:
        raise UndefinedConditionalError(
            "herald probability is zero (mu = 0); conditional detection is undefined")
    joint = p_t + math.exp(-arm * mu) * math.expm1(-beta * mu * (1.0 - arm))
    return joint / p_t


def hps_conditional_detection(source: SourceSpec, channel: ChannelSpec) -> float:
    """P(signal click at the receiver | herald click), for an HPS.

    The signal photon traverses ``alpha_s * alpha_r * alpha_d``; photon
    pairs are Poissonian and both detectors are threshold detectors, so
    multi-pair pulses raise this probability above the single-pair value.
    """
    _require_kind(source, HPS, "hps_conditional_detection")
    arm = source.alpha_s.value * channel.loss
    return _conditional_detection(source.mu, source.beta.value, arm)


def heralding_efficiency(source: SourceSpec) -> float:
    """P(signal photon leaves the source | herald click).

    Equals the conditional detection probability with a lossless channel
    and ideal receiver.  Approaches ``alpha_s`` as mu -> 0.
    """
    _require_kind(source, HPS, "heralding_efficiency")
    return _conditional_detection(source.mu, source.beta.value, source.alpha_s.value)


def psnr(source: SourceSpec, channel: ChannelSpec) -> float:
    """Photon signal-to-noise ratio at the receiver.

    Ratio of the per-gated-slot QKD-photon detection probability (WCS:
    unconditional, HPS: herald-conditioned) to the per-slot noise
    detection probability.  Returns ``math.inf`` when ``p_noise == 0``.
    """
    if source.kind == WCS:
        p_qkd = wcs_detection_prob(source, channel)
    else:
        p_qkd = hps_conditional_detection(source, channel)
    if channel.p_noise == 0.0:
        return math.inf
    return p_qkd / channel.p_noise


def psnr_gain(source: SourceSpec, channel: ChannelSpec | None = None) -> float:
    """Exact PSNR improvement from replacing a WCS with this HPS at equal mu.

    Equals ``hps_conditional_detection / wcs_detection_prob`` for the same
    channel, which is also the ratio of the two sources' PSNR values under
    identical noise.  When ``channel`` is None the gain is evaluated at a
    receiver-path transmittance of ``DEFAULT_REPORTING_LOSS``; the gain
    depends only weakly on that choice.
    """
    _require_kind(source, HPS, "psnr_gain")
    loss = DEFAULT_REPORTING_LOSS if channel is None else channel.loss
    if source.mu <= 0.0:
        raise UndefinedConditionalError("psnr_gain is undefined at mu = 0")
    p_cond = _conditional_detection(source.mu, source.beta.value,
                                    source.alpha_s.value * loss)
    p_s = -math.expm1(-loss * source.mu)
    return p_cond / p_s


def psnr_gain_approx(source: SourceSpec) -> float:
    """First-order PSNR improvement ``(alpha_s / mu) * (1 + mu)``.

    Valid when receiver-path loss, herald-arm loss, and mu are all small;
    within 1% of :func:`psnr_gain` for ``alpha_r*alpha_d <= 0.01``,
    ``beta <= 0.01`` and ``mu <= 0.2``.
    """
    _require_kind(source, HPS, "psnr_gain_approx")
    if source.mu <= 0.0:
        raise UndefinedConditionalError("psnr_gain_approx is undefined at mu = 0")
    return (source.alpha_s.value / source.mu) * (1.0 + source.mu)


def rate_penalty(source: SourceSpec, exact: bool = False) -> float:
    """Photon-rate cost of heralding: herald-gated rate over the WCS rate.

    The default first-order form is ``alpha_s * beta``: the transmitter
    only opens a fraction ``~beta*mu`` of slots and delivers a photon in a
    fraction ``~alpha_s`` of those.  With ``exact=True`` the full
    threshold-detector ratio ``(P_t * P(click|herald)) / P_s`` is
    evaluated with a lossless channel and ideal receiver.
    """
    _require_kind(source, HPS, "rate_penalty")
    if not exact:
        return source.alpha_s.value * source.beta.value
    if source.mu <= 0.0:
        raise UndefinedConditionalError("exact rate_penalty is undefined at mu = 0")
    p_t = hps_herald_prob(source)
    joint = p_t * _conditional_detection(source.mu, source.beta.value,
                                         source.alpha_s.value)
    return joint / (-math.expm1(-source.mu))


def qber_exact(p_qkd: float, p_noise: float) -> float:
    """QBER for basis-independent noise with at most one noise photon per slot.

    A noise-only detection errs with probability 1/2; when signal and
    noise coincide the detector registers one of them and errs with
    probability 1/4.  ``qber_exact(0, 0)`` is defined as 0.
    """
    if not (isinstance(p_qkd, (int, float)) and math.isfinite(p_qkd) and 0.0 <= p_qkd <= 1.0):
        raise ValueError(f"p_qkd must be in [0, 1], got {p_qkd!r}")
    if not (isinstance(p_noise, (int, float)) and math.isfinite(p_noise) and 0.0 <= p_noise < 1.0):
        raise ValueError(f"p_noise must be in [0, 1), got {p_noise!r}")
    p_error = (1.0 - p_qkd) * p_noise / 2.0 + p_qkd * p_noise / 4.0
    p_noerror = (1.0 - p_qkd) * p_noise / 2.0 + p_qkd * (1.0 - p_noise / 4.0)
    total = p_error + p_noerror
    if total == 0.0:
        return 0.0
    return p_error / total


def qber_from_psnr(value: float) -> float:
    """Small-signal QBER approximation ``1 / (2 * (1 + PSNR))``.

    Accurate to 2% relative for ``p_qkd <= 0.05``; ``math.inf`` maps to 0.
    """
    if math.isnan(value) or value < 0.0:
        raise ValueError(f"psnr must be >= 0, got {value!r}")
    if math.isinf(value):
        return 0.0
    return 1.0 / (2.0 * (1.0 + value))


def g2_predicted(source: SourceSpec) -> float:
    """Second-order correlation g2(0) of the heralded output.

    For Poisson pairs with a threshold herald detector,
    ``(2*mu - beta*mu + mu^2) / (1 + 2*mu - beta*mu + mu^2)``.
    Monotonically increasing in mu; below 1 for all mu.
    """
    _require_kind(source, HPS, "g2_predicted")
    mu, beta = source.mu, source.beta.value
    num = 2.0 * mu - beta * mu + mu * mu
    return num / (1.0 + num)


@dataclass(frozen=True)
class LinkMetrics:
    """Closed-form link summary for one source on one channel.

    ``p_s`` is always the WCS detection probability at the same mu, so an
    HPS row carries its own conditional metrics plus the WCS baseline it
    is compared against.  WCS rows leave the HPS-only fields as None.
    """

    p_s: float
    psnr: float
    qber: float
    p_t: float | None = None
    p_cond: float | None = None
    heralding_efficiency: float | None = None
    psnr_gain: float | None = None
    rate_penalty: float | None = None


def link_metrics(source: SourceSpec, channel: ChannelSpec) -> LinkMetrics:
    """Evaluate every closed-form metric for one source/channel pairing.

    ``qber`` uses the exact error model, not the PSNR approximation.
    For an HPS, ``psnr_gain`` is evaluated on the given channel and
    ``rate_penalty`` in its first-order form.
    """
    baseline = source if source.kind == WCS else SourceSpec.wcs(source.mu)
    p_s = wcs_detection_prob(baseline, channel)
    if source.kind == WCS:
        return LinkMetrics(
            p_s=p_s,
            psnr=psnr(source, channel),
            qber=qber_exact(p_s, channel.p_noise),
        )
    p_cond = hps_conditional_detection(source, channel)
    return LinkMetrics(
        p_s=p_s,
        psnr=psnr(source, channel),
        qber=qber_exact(p_cond, channel.p_noise),
        p_t=hps_herald_prob(source),
        p_cond=p_cond,
        heralding_efficiency=heralding_efficiency(source),
        psnr_gain=psnr_gain(source, channel),
        rate_penalty=rate_penalty(source),
    )
