"""Source calibration from the two numbers a lab actually measures.

A heralded source is characterized by its mean pair number mu, but what
the bench gives you is a herald count rate (distorted by detector
deadtime) and, if you take the time, a heralded g2(0).  This demo walks
the inversion chain: observed rate -> per-slot herald probability ->
beta*mu -> mu, then cross-checks mu against the measured g2 and closes
the loop with a deadtime-aware Monte Carlo run at the fitted mu.

    python3 demos/calibrate_from_counts.py
"""

from heraldsim import (ChannelSpec, MeasuredCounts, SimConfig, Transmittance,
                       calibrate_source, g2_predicted, linear_to_db, simulate,
                       solve_channel_loss)
from heraldsim.paper import (APPENDIX_B_G2 as MEASURED_G2,
                             APPENDIX_B_HERALD_RATE_HZ as OBSERVED_RATE_HZ,
                             REFERENCE_DETECTOR as DETECTOR, REFERENCE_SOURCE)


def main() -> None:
    counts = MeasuredCounts(OBSERVED_RATE_HZ, DETECTOR, g2=MEASURED_G2)
    result = calibrate_source(counts, beta=REFERENCE_SOURCE.beta,
                              alpha_s=REFERENCE_SOURCE.alpha_s)

    print(f"observed herald rate: {OBSERVED_RATE_HZ:.0f} Hz "
          f"(deadtime {DETECTOR.deadtime_s * 1e6:.0f} us, "
          f"pulse rate {DETECTOR.pulse_rate_hz / 1e6:.1f} MHz)")
    print(f"  beta*mu from rate:  {result.beta_mu:.4e}")
    print(f"  mu from rate:       {result.mu_from_rate:.4f}")
    print(f"  mu from g2={MEASURED_G2}: {result.mu_from_g2:.4f}")
    print(f"  predicted g2 at fitted mu: {g2_predicted(result.source):.4f}")
    if result.warning:
        print(f"  note: {result.warning}")
    else:
        print("  rate and g2 calibrations agree")

    cfg = SimConfig(source=result.source,
                    channel=ChannelSpec(Transmittance(1.0), Transmittance(1.0)),
                    detector=DETECTOR, n_slots=20_000_000, seed=5,
                    apply_herald_deadtime=True)
    sim = simulate(cfg)
    rate = sim.heralds / sim.slots * DETECTOR.pulse_rate_hz
    print(f"\nclosing the loop: simulated herald rate at mu={result.mu_from_rate:.4f} "
          f"is {rate:.0f} Hz")

    target = 0.01
    loss = solve_channel_loss(target, result.source)
    print(f"\nchannel loss needed to bring the conditional detection "
          f"probability down to {target}: {linear_to_db(loss):.2f} dB")


if __name__ == "__main__":
    main()
