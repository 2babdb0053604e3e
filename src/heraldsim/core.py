"""Closed-form link analytics for weak-coherent and heralded photon sources.

This module models a pulsed photon source feeding a lossy fiber channel
with gated threshold detection at the receiver.  It provides the detection
probabilities for a weak coherent source (WCS) and a heralded photon
source (HPS), the photon signal-to-noise ratio (PSNR) seen by the
receiver, the quantum bit-error rate (QBER) implied by that PSNR, the
PSNR improvement obtained by switching from WCS to HPS at equal mean
photon number, the photon-rate cost of that switch, and the second-order
correlation g2(0) of the heralded output.

Every closed form here and every expected tally in the simulator reads
one source model: ``_gate_prob`` (1 for a WCS, the herald probability
for an HPS) and ``_click_prob``, P(signal click | gated slot) behind a
receiver-path transmittance.

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
import sys
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

# 10 ** (db / 10) overflows a float at and above this many dB.
_DB_MAX = 10.0 * math.log10(sys.float_info.max)


class UndefinedConditionalError(ValueError):
    """A herald-conditioned quantity was requested but heralds never fire."""


def _range_text(lo, hi, lo_open: bool, hi_open: bool) -> str:
    def num(x) -> str:
        return format(x, "g") if isinstance(x, float) else str(x)
    if hi == math.inf:
        return "" if lo == -math.inf else f" {'>' if lo_open else '>='} {num(lo)}"
    if lo == -math.inf:
        return f" {'<' if hi_open else '<='} {num(hi)}"
    return f" in {'(' if lo_open else '['}{num(lo)}, {num(hi)}{')' if hi_open else ']'}"


def _real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
          lo_open: bool = False, hi_open: bool = False) -> float:
    """``value`` as a float if it is a finite real number between ``lo`` and ``hi``.

    Bounds are inclusive unless marked open.  Anything else (a bool, a
    string, nan, inf, a value out of range) raises ValueError with a
    message that starts with ``name``.
    """
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ValueError(f"{name} must be a finite number"
                     f"{_range_text(lo, hi, lo_open, hi_open)}, got {value!r}")


def _integer(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int if it is an integer, or an integral float, in [lo, hi].

    Anything else raises ValueError with a message that starts with ``name``.
    """
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, int) and not isinstance(number, bool) and lo <= number <= hi:
        return number
    raise ValueError(f"{name} must be an integer{_range_text(lo, hi, False, False)}, "
                     f"got {value!r}")


class ScenarioError(ValueError):
    """Input problem, tagged with the dotted path of the field at fault."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _tagged(prefix: str, build, *args, **fields):
    """``build(*args, **fields)``, its ValueError re-raised as a ScenarioError.

    Validators start each message with the name of the field at fault.  When
    that name is a key of ``fields``, or the name a single-value check such
    as ``_integer`` takes first, the error's path is ``<prefix>.<name>`` (the
    name alone for an empty prefix) and its message the rest; any other
    message is tagged with ``prefix`` whole.
    """
    try:
        return build(*args, **fields)
    except ValueError as exc:
        message = str(exc)
        name, _, rest = message.partition(" ")
        if name in fields or name in args[:1]:
            raise ScenarioError(f"{prefix}.{name}" if prefix else name, rest) from exc
        raise ScenarioError(prefix, message) from exc


def _require_object(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"must be an object, got {type(value).__name__}")
    return value


def _check_keys(path: str, section: dict, allowed: set) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(path, f"unknown fields {sorted(unknown)}; "
                                  f"allowed: {sorted(allowed)}")


def db_to_linear(db: float) -> float:
    """Convert a power ratio from dB to linear. -10 dB -> 0.1."""
    return 10.0 ** (_real("db", db, hi=_DB_MAX, hi_open=True) / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to dB. 0.1 -> -10 dB."""
    return 10.0 * math.log10(_real("ratio", ratio, 0.0, lo_open=True))


def wavelength_to_frequency(wavelength_m: float) -> float:
    """Vacuum wavelength in meters to frequency in Hz."""
    return SPEED_OF_LIGHT_M_S / _real("wavelength_m", wavelength_m, 0.0, lo_open=True)


def frequency_to_wavelength(frequency_hz: float) -> float:
    """Frequency in Hz to vacuum wavelength in meters."""
    return SPEED_OF_LIGHT_M_S / _real("frequency_hz", frequency_hz, 0.0, lo_open=True)


@dataclass(frozen=True)
class Transmittance:
    """Linear power transmittance, constrained to (0, 1]."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value",
                           _real("transmittance", self.value, 0.0, 1.0, lo_open=True))

    @classmethod
    def from_db(cls, db: float) -> "Transmittance":
        return cls(db_to_linear(db))

    @property
    def db(self) -> float:
        return linear_to_db(self.value)


def _as_transmittance(name: str, x: "Transmittance | float") -> Transmittance:
    """``x`` itself, or a Transmittance of it whose errors start with ``name``."""
    if isinstance(x, Transmittance):
        return x
    return Transmittance(_real(name, x, 0.0, 1.0, lo_open=True))


def _transmittance_field(prefix: str, section: dict, name: str):
    """Transmittance ``name`` of an input object, given linear or as ``<name>_db``.

    A linear value is returned raw, for the domain object to check; None
    means neither form was given.  A dB value is converted here, and its
    errors quote the dB value as given.
    """
    db_name = f"{name}_db"
    if db_name not in section:
        return section.get(name)
    if name in section:
        raise ScenarioError(f"{prefix}.{name}", f"give either {name} or {db_name}, not both")
    linear = db_to_linear(_tagged(prefix, _real, db_name, section[db_name], hi=0.0))
    if linear == 0.0:
        raise ScenarioError(f"{prefix}.{db_name}", "must be a dB value whose transmittance "
                                                   f"is above 0, got {section[db_name]!r}")
    return Transmittance(linear)


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
            raise ValueError(f"kind must be 'wcs' or 'hps', got {self.kind!r}")
        object.__setattr__(self, "mu", _real("mu", self.mu, 0.0))
        if self.kind == WCS:
            if self.alpha_s is not None or self.beta is not None:
                raise ValueError("a WCS has no signal-arm or herald-arm transmittance")
        else:
            if self.alpha_s is None or self.beta is None:
                raise ValueError("an HPS requires both alpha_s and beta")
            object.__setattr__(self, "alpha_s", _as_transmittance("alpha_s", self.alpha_s))
            object.__setattr__(self, "beta", _as_transmittance("beta", self.beta))

    @classmethod
    def wcs(cls, mu: float) -> "SourceSpec":
        return cls(WCS, mu)

    @classmethod
    def hps(cls, mu: float, alpha_s: "Transmittance | float",
            beta: "Transmittance | float") -> "SourceSpec":
        return cls(HPS, mu, alpha_s, beta)


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
        object.__setattr__(self, "alpha_r", _as_transmittance("alpha_r", self.alpha_r))
        object.__setattr__(self, "alpha_d", _as_transmittance("alpha_d", self.alpha_d))
        object.__setattr__(self, "p_noise",
                           _real("p_noise", self.p_noise, 0.0, 1.0, hi_open=True))

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
        object.__setattr__(self, "pulse_rate_hz",
                           _real("pulse_rate_hz", self.pulse_rate_hz, 0.0, lo_open=True))
        object.__setattr__(self, "deadtime_s", _real("deadtime_s", self.deadtime_s, 0.0))


def _require_kind(source: SourceSpec, kind: str, op: str) -> None:
    if source.kind != kind:
        raise ValueError(f"{op} is defined for {kind.upper()} sources, got {source.kind!r}")


def _gate_prob(source: SourceSpec) -> float:
    """Probability that a pulse opens the receiver gate.

    A WCS gates every slot; an HPS gates the slots whose herald fires,
    ``1 - exp(-beta * mu)`` for Poisson pairs thinned by the herald arm.
    """
    if source.kind == WCS:
        return 1.0
    return -math.expm1(-source.beta.value * source.mu)


def _click_prob(source: SourceSpec, loss: float) -> float:
    """P(signal click | gated slot) behind receiver-path transmittance ``loss``.

    A WCS's Poisson photons are thinned by ``loss``.  An HPS's pairs reach
    the herald with ``beta`` and the receiver with ``arm = alpha_s * loss``;
    their joint click probability ``1 - e^(-beta*mu) - e^(-arm*mu) +
    e^((arm*beta-arm-beta)*mu)`` is evaluated in an expm1 regrouping and
    divided by the herald probability.  Its relative rounding error grows
    as ~1e-16/arm.
    """
    if source.kind == WCS:
        return -math.expm1(-loss * source.mu)
    p_t, mu, beta = _gate_prob(source), source.mu, source.beta.value
    if p_t <= 0.0:
        raise UndefinedConditionalError(
            "herald probability is zero (mu = 0); conditional detection is undefined")
    arm = source.alpha_s.value * loss
    return (p_t + math.exp(-arm * mu) * math.expm1(-beta * mu * (1.0 - arm))) / p_t


def wcs_detection_prob(source: SourceSpec, channel: ChannelSpec) -> float:
    """Probability that a WCS pulse produces a signal click at the receiver.

    Poisson photon statistics thinned by the receiver path give
    ``1 - exp(-alpha_r * alpha_d * mu)``.
    """
    _require_kind(source, WCS, "wcs_detection_prob")
    return _click_prob(source, channel.loss)


def hps_herald_prob(source: SourceSpec) -> float:
    """Probability that an HPS pulse fires the herald detector.

    Poisson pair statistics thinned by the herald arm give
    ``1 - exp(-beta * mu)``.
    """
    _require_kind(source, HPS, "hps_herald_prob")
    return _gate_prob(source)


def hps_conditional_detection(source: SourceSpec, channel: ChannelSpec) -> float:
    """P(signal click at the receiver | herald click), for an HPS.

    The signal photon traverses ``alpha_s * alpha_r * alpha_d``; photon
    pairs are Poissonian and both detectors are threshold detectors, so
    multi-pair pulses raise this probability above the single-pair value.
    """
    _require_kind(source, HPS, "hps_conditional_detection")
    return _click_prob(source, channel.loss)


def heralding_efficiency(source: SourceSpec) -> float:
    """P(signal photon leaves the source | herald click).

    Equals the conditional detection probability with a lossless channel
    and ideal receiver.  Approaches ``alpha_s`` as mu -> 0.
    """
    _require_kind(source, HPS, "heralding_efficiency")
    return _click_prob(source, 1.0)


def psnr(source: SourceSpec, channel: ChannelSpec) -> float:
    """Photon signal-to-noise ratio at the receiver.

    Ratio of the per-gated-slot QKD-photon detection probability (WCS:
    unconditional, HPS: herald-conditioned) to the per-slot noise
    detection probability.  Returns ``math.inf`` when ``p_noise == 0``.
    """
    p_qkd = _click_prob(source, channel.loss)
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
    return _click_prob(source, loss) / _click_prob(SourceSpec.wcs(source.mu), loss)


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


def rate_penalty(source: SourceSpec) -> float:
    """Photon-rate cost of heralding: herald-gated rate over the WCS rate.

    First order, ``alpha_s * beta``: the transmitter only opens a
    fraction ``~beta*mu`` of slots and delivers a photon in a fraction
    ``~alpha_s`` of those.
    """
    _require_kind(source, HPS, "rate_penalty")
    return source.alpha_s.value * source.beta.value


def qber_exact(p_qkd: float, p_noise: float) -> float:
    """QBER for basis-independent noise with at most one noise photon per slot.

    A noise-only detection errs with probability 1/2; when signal and
    noise coincide the detector registers one of them and errs with
    probability 1/4.  ``qber_exact(0, 0)`` is defined as 0.
    """
    p_qkd = _real("p_qkd", p_qkd, 0.0, 1.0)
    p_noise = _real("p_noise", p_noise, 0.0, 1.0, hi_open=True)
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
    if value == math.inf:
        return 0.0
    return 1.0 / (2.0 * (1.0 + _real("psnr", value, 0.0)))


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

    ``p_s``, ``psnr_wcs`` and ``qber_wcs`` are always those of a WCS at the
    same mu, so an HPS row carries its own conditional metrics plus the
    WCS baseline it is compared against; for a WCS they are its own
    values.  WCS rows leave the HPS-only fields as None.
    """

    p_s: float
    psnr: float
    qber: float
    psnr_wcs: float
    qber_wcs: float
    p_t: float | None = None
    p_cond: float | None = None
    heralding_efficiency: float | None = None
    psnr_gain: float | None = None
    rate_penalty: float | None = None


def link_metrics(source: SourceSpec, channel: ChannelSpec) -> LinkMetrics:
    """Evaluate every closed-form metric for one source/channel pairing.

    The same-mu WCS baseline is evaluated once.  ``qber`` uses the exact
    error model, not the PSNR approximation.  For an HPS, ``psnr_gain``
    is evaluated on the given channel and ``rate_penalty`` in its
    first-order form.
    """
    baseline = SourceSpec.wcs(source.mu)
    p_s = _click_prob(baseline, channel.loss)
    psnr_wcs = psnr(baseline, channel)
    qber_wcs = qber_exact(p_s, channel.p_noise)
    if source.kind == WCS:
        return LinkMetrics(p_s, psnr_wcs, qber_wcs, psnr_wcs, qber_wcs)
    p_cond = _click_prob(source, channel.loss)
    return LinkMetrics(
        p_s=p_s,
        psnr=psnr(source, channel),
        qber=qber_exact(p_cond, channel.p_noise),
        psnr_wcs=psnr_wcs,
        qber_wcs=qber_wcs,
        p_t=_gate_prob(source),
        p_cond=p_cond,
        heralding_efficiency=heralding_efficiency(source),
        psnr_gain=p_cond / p_s,
        rate_penalty=rate_penalty(source),
    )
