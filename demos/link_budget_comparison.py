"""Closed-form link budget: heralded source vs weak coherent source.

Walks the analytic layer end to end.  A heralded pair source announces
which time slots carry a photon, so the receiver only accepts noise
during heralded slots; a weak coherent source leaves every slot open.
The demo prints the PSNR advantage for three heralding efficiencies,
the trigger-rate price paid for heralding, and a noise sweep showing
the QBER gap the advantage buys on a lossy channel.

Run from the repository root after installing the package:

    python3 demos/link_budget_comparison.py
"""

from dataclasses import replace

import numpy as np

from heraldsim import (ChannelSpec, SourceSpec, Transmittance, linear_to_db,
                       link_metrics, psnr_gain, psnr_gain_approx, rate_penalty)
from heraldsim.paper import CHI_TABLE, QBER_FAIL_PCT, REFERENCE_SOURCE as SOURCE


def gain_table() -> None:
    print("PSNR gain over a weak coherent source at the same mu")
    print(f"  {'heralding arm':>16}  {'gain':>6}  {'small-mu approx':>15}")
    for alpha_s, _ in CHI_TABLE:
        source = replace(SOURCE, alpha_s=alpha_s)
        exact = psnr_gain(source)
        approx = psnr_gain_approx(source)
        print(f"  {100 * alpha_s.value:15.1f}%  {exact:6.2f}  {approx:15.2f}")


def trigger_rate_price() -> None:
    penalty = rate_penalty(SOURCE)
    print("\nHeralding costs raw rate: only slots with a detected idler count.")
    print(f"  triggered fraction of slots: {penalty:.3e} ({linear_to_db(penalty):.1f} dB)")


def noise_sweep() -> None:
    loss = Transmittance(1e-3)
    print("\nQBER vs per-slot noise probability at a 30 dB channel")
    print(f"  {'p_noise':>9}  {'psnr wcs':>8}  {'qber wcs':>8}  "
          f"{'psnr hps':>8}  {'qber hps':>8}")
    for p_noise in np.geomspace(1e-5, 1e-4, 7):
        channel = ChannelSpec(loss, Transmittance(1.0), float(p_noise))
        hps = link_metrics(SOURCE, channel)
        wcs = link_metrics(SourceSpec.wcs(SOURCE.mu), channel)
        flag = f"  <- wcs above {QBER_FAIL_PCT:g}%" if 100 * wcs.qber > QBER_FAIL_PCT else ""
        print(f"  {p_noise:9.2e}  {wcs.psnr:8.2f}  {100 * wcs.qber:7.2f}%  "
              f"{hps.psnr:8.2f}  {100 * hps.qber:7.2f}%{flag}")
    print("  The heralded link keeps its QBER in the working range well past")
    print("  the noise level where the unheralded link becomes unusable.")


def main() -> None:
    gain_table()
    trigger_rate_price()
    noise_sweep()


if __name__ == "__main__":
    main()
