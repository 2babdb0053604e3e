"""Wavelength-division channel plans over one broadband pair source.

A broadband spontaneous four-wave-mixing source feeds many 50 GHz-spaced
wavelength channels at once.  This module lays out the channel grid,
converts measured noise-count scans into per-slot noise probabilities,
and rolls the closed-form per-channel link metrics up into plan totals.
Each rollup row carries the channel's resolved source and channel specs,
so a caller can simulate exactly the link the row describes.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .core import (ChannelSpec, DetectorSpec, LinkMetrics, ScenarioError, SourceSpec,
                   Transmittance, _as_transmittance, _check_keys, _integer, _real,
                   _require_object, _tagged, _transmittance_field, frequency_to_wavelength,
                   link_metrics, wavelength_to_frequency)

__all__ = [
    "CHANNEL_COUNT",
    "CHANNEL_SPACING_HZ",
    "ANCHOR_WAVELENGTH_NM",
    "NOISE_SCAN_COLUMNS",
    "WdmChannel",
    "ChannelPlan",
    "NoiseScanRow",
    "ChannelMetrics",
    "WdmAggregate",
    "channel_wavelength",
    "p_noise_from_scan",
    "load_noise_scan",
    "aggregate",
]

CHANNEL_COUNT = 64
CHANNEL_SPACING_HZ = 50e9
ANCHOR_WAVELENGTH_NM = 1308.2

NOISE_SCAN_COLUMNS = ("laser_wavelength_nm", "noise_counts_per_s", "clock_rate_hz")


def channel_wavelength(index: int) -> float:
    """Center wavelength in nm of a grid channel.

    Channel 1 sits at the anchor wavelength; each increment steps up in
    frequency by the channel spacing, so wavelengths decrease with index.
    """
    index = _integer("index", index, 1, CHANNEL_COUNT)
    f0 = wavelength_to_frequency(ANCHOR_WAVELENGTH_NM * 1e-9)
    return frequency_to_wavelength(f0 + (index - 1) * CHANNEL_SPACING_HZ) * 1e9


@dataclass(frozen=True)
class WdmChannel:
    """One plan entry: grid position plus optional per-channel overrides.

    ``sfwm_weight`` scales the source's mean pair number for this
    channel, modeling the spectral shape of the pair-generation
    efficiency.  Transmittance and noise overrides, when given, replace
    the base channel values; None means inherit.
    """

    index: int
    center_wavelength_nm: float | None = None
    sfwm_weight: float = 1.0
    alpha_r: Transmittance | None = None
    alpha_d: Transmittance | None = None
    p_noise: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _integer("index", self.index, 1, CHANNEL_COUNT))
        object.__setattr__(self, "center_wavelength_nm",
                           channel_wavelength(self.index) if self.center_wavelength_nm is None
                           else _real("center_wavelength_nm", self.center_wavelength_nm,
                                      0.0, lo_open=True))
        object.__setattr__(self, "sfwm_weight",
                           _real("sfwm_weight", self.sfwm_weight, 0.0, 1.0, lo_open=True))
        for name in ("alpha_r", "alpha_d"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _as_transmittance(name, getattr(self, name)))
        if self.p_noise is not None:
            object.__setattr__(self, "p_noise",
                               _real("p_noise", self.p_noise, 0.0, 1.0, hi_open=True))

    def resolve(self, base: ChannelSpec) -> ChannelSpec:
        """Base channel with this entry's overrides applied."""
        return ChannelSpec(
            alpha_r=self.alpha_r if self.alpha_r is not None else base.alpha_r,
            alpha_d=self.alpha_d if self.alpha_d is not None else base.alpha_d,
            p_noise=self.p_noise if self.p_noise is not None else base.p_noise,
        )


_ENTRY_KEYS = {"index", "center_wavelength_nm", "sfwm_weight", "alpha_r_db", "alpha_d_db",
               "p_noise"}


@dataclass(frozen=True)
class ChannelPlan:
    """Ordered, duplicate-free set of WDM channels."""

    channels: tuple[WdmChannel, ...]

    def __post_init__(self) -> None:
        chans = tuple(self.channels)
        if not chans:
            raise ValueError("a channel plan needs at least one channel")
        indices = [c.index for c in chans]
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate channel indices in plan: {sorted(indices)}")
        ordered = sorted(chans, key=lambda c: c.index)
        # frequency grid: wavelength must fall as index rises
        for lo, hi in zip(ordered, ordered[1:]):
            if hi.center_wavelength_nm >= lo.center_wavelength_nm:
                raise ValueError(
                    f"channel {hi.index} wavelength {hi.center_wavelength_nm} nm does not "
                    f"decrease from channel {lo.index} ({lo.center_wavelength_nm} nm)")
        object.__setattr__(self, "channels", ordered if chans != ordered else chans)

    @classmethod
    def from_dict(cls, data: dict) -> "ChannelPlan":
        """Plan from parsed JSON; an entry's errors name it as ``channels[i].<field>``."""
        _check_keys("", _require_object("", data), {"channels"})
        if "channels" not in data:
            raise ScenarioError("channels", "missing; a plan must list its channels")
        if not isinstance(data["channels"], list):
            raise ScenarioError("channels", "must be a list")
        chans = []
        for i, entry in enumerate(data["channels"]):
            prefix = f"channels[{i}]"
            _check_keys(prefix, _require_object(prefix, entry), _ENTRY_KEYS)
            if "index" not in entry:
                raise ScenarioError(f"{prefix}.index", "missing")
            fields = {key: value for key, value in entry.items() if not key.endswith("_db")}
            chans.append(_tagged(prefix, WdmChannel, **fields,
                                 **{name: _transmittance_field(prefix, entry, name)
                                    for name in ("alpha_r", "alpha_d")}))
        return cls(tuple(chans))

    @classmethod
    def load(cls, path: "str | Path") -> "ChannelPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


@dataclass(frozen=True)
class NoiseScanRow:
    """One noise-laser scan point: counts observed against a known clock."""

    laser_wavelength_nm: float
    noise_counts_per_s: float
    clock_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "laser_wavelength_nm", _real(
            "laser_wavelength_nm", self.laser_wavelength_nm, 0.0, lo_open=True))
        object.__setattr__(self, "noise_counts_per_s",
                           _real("noise_counts_per_s", self.noise_counts_per_s, 0.0))
        object.__setattr__(self, "clock_rate_hz",
                           _real("clock_rate_hz", self.clock_rate_hz, 0.0, lo_open=True))
        if self.noise_counts_per_s >= self.clock_rate_hz:
            raise ValueError("noise_counts_per_s must be below clock_rate_hz; "
                             "at most one count fits per clock period")


def p_noise_from_scan(row: NoiseScanRow) -> float:
    """Per-slot noise probability: counts per second over gate openings per second."""
    return row.noise_counts_per_s / row.clock_rate_hz


def load_noise_scan(path: "str | Path") -> list[NoiseScanRow]:
    """Read a noise scan CSV with the pinned three-column header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != NOISE_SCAN_COLUMNS:
            raise ValueError(
                f"noise scan header must be {','.join(NOISE_SCAN_COLUMNS)}, "
                f"got {reader.fieldnames}")
        rows = []
        for i, rec in enumerate(reader):
            try:
                rows.append(NoiseScanRow(*(float(rec[c]) for c in NOISE_SCAN_COLUMNS)))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"noise scan row {i + 1}: {exc}") from exc
    if not rows:
        raise ValueError("noise scan has no data rows")
    return rows


@dataclass(frozen=True)
class ChannelMetrics:
    """Per-channel aggregation row.

    ``source`` and ``channel_spec`` are the link this plan entry sees: the
    base source with mu scaled by its ``sfwm_weight`` and the base channel
    with its overrides applied.
    """

    channel: WdmChannel
    source: SourceSpec
    channel_spec: ChannelSpec
    metrics: LinkMetrics
    rate_hz: float


@dataclass(frozen=True)
class WdmAggregate:
    """Plan-level rollup: per-channel rows plus totals.

    ``total_rate_hz`` sums the per-channel detected-photon rates;
    ``mean_qber`` weights each channel's QBER by its detection rate, so
    it is the error fraction of the pooled detections.
    """

    per_channel: tuple[ChannelMetrics, ...]
    total_rate_hz: float
    mean_qber: float | None


def _channel_rate_per_slot(source: SourceSpec, metrics: LinkMetrics) -> float:
    if source.kind == "wcs":
        return metrics.p_s
    return metrics.p_t * metrics.p_cond


def aggregate(plan: ChannelPlan, source: SourceSpec, channel: ChannelSpec,
              detector: DetectorSpec) -> WdmAggregate:
    """Closed-form metrics of every plan channel, rolled up into plan totals.

    Each channel sees the base source with mu scaled by its
    ``sfwm_weight`` and the base channel with its overrides applied; the
    row records both resolved specs.  Rates are detected photons per
    second at the detector's pulse rate.
    """
    rows = []
    total_rate = 0.0
    qber_weight = 0.0
    for chan in plan.channels:
        src = replace(source, mu=source.mu * chan.sfwm_weight)
        ch_spec = chan.resolve(channel)
        lm = link_metrics(src, ch_spec)
        rate = _channel_rate_per_slot(src, lm) * detector.pulse_rate_hz
        rows.append(ChannelMetrics(chan, src, ch_spec, lm, rate))
        total_rate += rate
        qber_weight += rate * lm.qber
    mean_qber = qber_weight / total_rate if total_rate > 0.0 else None
    return WdmAggregate(tuple(rows), total_rate, mean_qber)
