"""The reference setup and the numbers the paper reports for it.

The paper characterizes one heralded pair source (mu = 0.11, signal arm
-6.5 dB, herald arm -23.3 dB) behind gated detectors on a 48.7 MHz clock
with 10 us deadtime.  On the three reference wavelength channels of its
Fig. 7, heralding keeps the QBER below 5.7%, while the same-mu weak
coherent source exceeds 10% on the two whose WCS PSNR is below 4.0.  The
package, its demos and its tests read these inputs here; what a check
tolerates stays with the check.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (DEFAULT_REPORTING_LOSS, ChannelSpec, DetectorSpec, SourceSpec,
                   Transmittance, _click_prob)

__all__ = ["REFERENCE_SOURCE", "PULSE_RATE_HZ", "DEADTIME_S", "REFERENCE_DETECTOR",
           "Fig7Channel", "FIG7_CHANNELS", "CHI_TABLE", "RATE_PENALTY_DB",
           "APPENDIX_B_HERALD_RATE_HZ", "APPENDIX_B_MU", "APPENDIX_B_G2",
           "GRID_WAVELENGTHS_NM", "QBER_OK_PCT", "QBER_FAIL_PCT", "PSNR_FAIL"]

REFERENCE_SOURCE = SourceSpec.hps(0.11, Transmittance.from_db(-6.5),
                                  Transmittance.from_db(-23.3))

PULSE_RATE_HZ = 48.7e6
DEADTIME_S = 10e-6
REFERENCE_DETECTOR = DetectorSpec(PULSE_RATE_HZ, DEADTIME_S)


class Fig7Channel(NamedTuple):
    """One reference channel of Fig. 7: its WCS PSNR and the published results."""

    index: int
    psnr_wcs: float
    psnr_hps: float
    qber_hps_pct: float
    qber_wcs_pct: float

    @property
    def channel(self) -> ChannelSpec:
        """The reporting loss, with the p_noise that puts the same-mu WCS at ``psnr_wcs``.

        Every derived quantity of the channel then follows from the model.
        """
        loss = Transmittance(DEFAULT_REPORTING_LOSS)
        p_s = _click_prob(SourceSpec.wcs(REFERENCE_SOURCE.mu), loss.value)
        return ChannelSpec(loss, Transmittance(1.0), p_s / self.psnr_wcs)


FIG7_CHANNELS = (
    Fig7Channel(11, 3.45, 7.79, 5.7, 11.2),
    Fig7Channel(16, 4.06, 9.18, 4.9, 9.9),
    Fig7Channel(21, 3.67, 8.30, 5.4, 10.7),
)

# PSNR gain of the reference source over the same-mu WCS, per signal-arm
# transmittance
CHI_TABLE = (
    (REFERENCE_SOURCE.alpha_s, 2.26),
    (Transmittance(0.45), 4.54),
    (Transmittance(0.84), 8.48),
)
RATE_PENALTY_DB = -29.8

# Appendix B: the observed herald rate, the mu it calibrates to, and the
# heralded g2 predicted at the reference mu
APPENDIX_B_HERALD_RATE_HZ = 20e3
APPENDIX_B_MU = 0.110
APPENDIX_B_G2 = 0.188

GRID_WAVELENGTHS_NM = ((1, 1308.2), (11, 1305.3), (16, 1303.9), (21, 1302.5),
                       (64, 1290.4))

QBER_OK_PCT = 5.7     # heralded QBER stays below this at every reference channel
QBER_FAIL_PCT = 10.0  # QBER above this prevents secure-key generation
PSNR_FAIL = 4.0       # WCS PSNR below this implies QBER beyond the fail line
