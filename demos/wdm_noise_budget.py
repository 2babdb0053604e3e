"""Noise budget for a multiplexed link: channel plan plus a noise scan.

The pair source emits across a grid of wavelength channels; each
channel sees its own spectral weight, insertion loss, and noise floor.
This demo loads a channel plan, attaches per-channel noise measured by
scanning a laser across the band, and rolls the plan up into per-channel
metrics and link totals.  A weak-coherent baseline at the same mean
photon number shows which channels only work because of heralding.

    python3 demos/wdm_noise_budget.py
"""

from dataclasses import replace
from pathlib import Path

from heraldsim import (ChannelPlan, ChannelSpec, SourceSpec, Transmittance, aggregate,
                       link_metrics, load_noise_scan, p_noise_from_scan)
from heraldsim.paper import QBER_FAIL_PCT, REFERENCE_DETECTOR, REFERENCE_SOURCE

DATA = Path(__file__).parent / "data"

BASE_CHANNEL = ChannelSpec(Transmittance(1e-3), Transmittance(1.0))
DETECTOR = replace(REFERENCE_DETECTOR, deadtime_s=0.0)


def attach_scan_noise(plan: ChannelPlan, scan) -> ChannelPlan:
    """Each channel takes the noise floor of the nearest scan wavelength."""
    channels = []
    for chan in plan.channels:
        row = min(scan, key=lambda r: abs(r.laser_wavelength_nm - chan.center_wavelength_nm))
        channels.append(replace(chan, p_noise=p_noise_from_scan(row)))
    return ChannelPlan(tuple(channels))


def main() -> None:
    plan = attach_scan_noise(ChannelPlan.load(DATA / "channel_plan.json"),
                             load_noise_scan(DATA / "noise_scan.csv"))
    result = aggregate(plan, REFERENCE_SOURCE, BASE_CHANNEL, DETECTOR)

    print(f"  {'ch':>3}  {'nm':>8}  {'p_noise':>9}  {'psnr':>6}  {'qber':>6}  "
          f"{'rate':>9}  {'wcs qber':>8}")
    for row in result.per_channel:
        spec = row.channel_spec
        wcs = link_metrics(SourceSpec.wcs(row.source.mu), spec)
        usable = "" if 100 * wcs.qber < QBER_FAIL_PCT else "  <- heralding required"
        print(f"  {row.channel.index:3d}  {row.channel.center_wavelength_nm:8.2f}  "
              f"{spec.p_noise:9.2e}  {row.metrics.psnr:6.2f}  "
              f"{100 * row.metrics.qber:5.2f}%  {row.rate_hz:8.2f}/s  "
              f"{100 * wcs.qber:7.2f}%{usable}")
    print(f"\n  total detected-pair rate: {result.total_rate_hz:.2f}/s")
    print(f"  rate-weighted mean QBER:  {100 * result.mean_qber:.2f}%")


if __name__ == "__main__":
    main()
