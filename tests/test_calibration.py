"""Inversion of measured herald rates and g2 back to source parameters."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.calibration import (CalibrationError, InfeasibleError,
                                   MeasuredCounts, SaturationError,
                                   beta_mu_from_rate, calibrate_source,
                                   mu_from_g2, solve_channel_loss)
from heraldsim.core import (SourceSpec, Transmittance, g2_predicted, link_metrics,
                            ChannelSpec, DetectorSpec)
from heraldsim.montecarlo import SimConfig, derive_seed, simulate
from heraldsim.paper import (APPENDIX_B_G2 as REF_G2, APPENDIX_B_HERALD_RATE_HZ as REF_RATE,
                             REFERENCE_DETECTOR as REF_DETECTOR,
                             REFERENCE_SOURCE as REF_SOURCE)


def _counts(rate, g2=None, detector=REF_DETECTOR):
    return MeasuredCounts(herald_rate_hz=rate, detector=detector, g2=g2)


class TestMeasuredCounts:
    def test_validation(self):
        with pytest.raises(ValueError):
            _counts(-1.0)
        with pytest.raises(ValueError):
            _counts(1e3, g2=1.0)
        with pytest.raises(ValueError):
            _counts(1e3, g2=-0.1)

    def test_rate_beyond_deadtime_ceiling(self):
        # a gated detector cannot report more than one count per deadtime
        with pytest.raises(SaturationError):
            _counts(1e9)

    def test_saturation_is_one_herald_per_lockout_span(self):
        # a herald and its 487-slot lockout span 488 slots of the 48.7 MHz clock
        ceiling = REF_DETECTOR.pulse_rate_hz / (REF_DETECTOR.deadtime_slots + 1)
        with pytest.raises(SaturationError, match="one herald per 488 slots"):
            _counts(ceiling)
        assert beta_mu_from_rate(_counts(math.nextafter(ceiling, 0.0))) < math.inf


class TestBetaMuFromRate:
    def test_frozen_reference_point(self):
        # h = r/f, p = h/(1 - 487 h), beta*mu = -ln(1 - p), in 50-digit mpmath
        got = beta_mu_from_rate(_counts(REF_RATE))
        assert got == pytest.approx(0.00051347883028072349114, rel=1e-12)

    def test_no_deadtime_is_rate_over_clock(self):
        # h = 1e-5 heralds per slot is p; beta*mu = -ln(1 - 1e-5), in 50-digit mpmath
        det = replace(REF_DETECTOR, deadtime_s=0.0)
        assert beta_mu_from_rate(_counts(487.0, detector=det)) == pytest.approx(
            0.000010000050000333335833, rel=1e-12)

    def test_saturated_live_fraction(self):
        # 99999 cps is more than one herald per 488-slot lockout span
        with pytest.raises(SaturationError):
            beta_mu_from_rate(_counts(99_999.0))

    def test_implied_probability_above_one(self):
        # without deadtime the ceiling is one herald per pulse
        det = DetectorSpec(pulse_rate_hz=1e3, deadtime_s=0.0)
        with pytest.raises(SaturationError):
            beta_mu_from_rate(_counts(2e3, detector=det))

    @given(beta_mu=st.floats(1e-6, 0.05))
    @settings(max_examples=80, deadline=None)
    def test_inverts_slot_fixed_point(self, beta_mu):
        # forward model: Poisson pairs herald with p = 1 - exp(-beta*mu), and each
        # accepted herald starts a non-paralyzable lockout of whole slots, in which
        # a click neither counts nor extends it, so heralds renew every L + 1/p slots
        slots = REF_DETECTOR.deadtime_slots
        p = -math.expm1(-beta_mu)
        rate = REF_DETECTOR.pulse_rate_hz * p / (1.0 + slots * p)
        recovered = beta_mu_from_rate(_counts(rate))
        assert recovered == pytest.approx(beta_mu, rel=1e-9)


class TestMuFromG2:
    def test_closed_form_point(self):
        # g2 = 1/2 with no herald correction gives mu = sqrt(2) - 1
        assert mu_from_g2(0.5, 0.0) == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_zero_g2(self):
        assert mu_from_g2(0.0, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mu_from_g2(1.0, 0.0)
        with pytest.raises(ValueError):
            mu_from_g2(-0.1, 0.0)
        with pytest.raises(ValueError):
            mu_from_g2(0.1, -1e-3)

    @given(mu=st.floats(1e-4, 0.5), beta=st.floats(1e-4, 0.1))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_through_g2_prediction(self, mu, beta):
        src = SourceSpec.hps(mu, 1.0, beta)
        g2 = g2_predicted(src)
        recovered = mu_from_g2(g2, beta * mu)
        assert abs(recovered - mu) / mu < 1e-9

    @given(lo=st.floats(0.0, 0.9), hi=st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_g2(self, lo, hi):
        lo, hi = sorted((lo, hi))
        assert mu_from_g2(lo, 1e-4) <= mu_from_g2(hi, 1e-4) + 1e-15


class TestCalibrateSource:
    def test_reference_rate_only(self):
        result = calibrate_source(_counts(REF_RATE), beta=REF_SOURCE.beta)
        # beta*mu = 0.00051347883028072349 over beta = 10**-2.33, in 50-digit mpmath
        assert result.mu_from_rate == pytest.approx(0.10977982729021376015, rel=1e-12)
        assert abs(result.mu_from_rate - 0.110) < 0.005
        assert result.mu_from_g2 is None and result.warning is None
        assert result.source.mu == result.mu_from_rate

    def test_reference_with_consistent_g2(self):
        result = calibrate_source(_counts(REF_RATE, g2=REF_G2), beta=REF_SOURCE.beta)
        assert result.mu_from_g2 is not None
        assert result.mismatch < 0.10
        assert result.warning is None

    def test_mismatch_warning(self):
        # g2 implying a mu about 20% above the rate-derived value
        result = calibrate_source(_counts(REF_RATE, g2=0.2189), beta=REF_SOURCE.beta)
        assert result.warning is not None
        assert 0.10 < result.mismatch < 0.50

    def test_gross_mismatch_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_source(_counts(REF_RATE, g2=0.52), beta=REF_SOURCE.beta)

    def test_zero_rate_with_nonzero_g2_raises(self):
        with pytest.raises(CalibrationError, match=r"rate \(0\) and from g2 \(0\.05409\)"):
            calibrate_source(_counts(0.0, g2=0.1), beta=REF_SOURCE.beta)

    def test_zero_rate_with_zero_g2_agrees(self):
        result = calibrate_source(_counts(0.0, g2=0.0), beta=REF_SOURCE.beta)
        assert result.mu_from_rate == result.mu_from_g2 == 0.0
        assert result.mismatch is None and result.warning is None

    def test_alpha_s_carried_through(self):
        alpha_s = REF_SOURCE.alpha_s
        result = calibrate_source(_counts(REF_RATE), beta=REF_SOURCE.beta, alpha_s=alpha_s)
        assert result.source.alpha_s.value == alpha_s.value
        assert result.source.beta.value == REF_SOURCE.beta.value


# fixed before the first run; each cell's seed is derive_seed(ROUND_TRIP_SEED, cell)
ROUND_TRIP_SEED = 20261020


class TestRateRoundTrip:
    # (mu, beta, deadtime_s, n_slots): the reference point, no deadtime, a deadtime of
    # 1.22 pulses (a 2-slot lockout) and two of 4.87 pulses (5 slots)
    CELLS = ((0.11, 0.0047, 10e-6, 2_000_000), (2.0, 0.2, 0.0, 200_000),
             (2.0, 0.2, 25e-9, 1_000_000), (1.0, 0.2, 0.1e-6, 1_000_000),
             (1.0, 0.05, 0.1e-6, 1_000_000))

    @pytest.mark.parametrize("cell", range(len(CELLS)))
    def test_simulated_rate_calibrates_back_to_mu(self, cell):
        mu, beta, deadtime_s, n = self.CELLS[cell]
        det = replace(REF_DETECTOR, deadtime_s=deadtime_s)
        lossless = ChannelSpec(Transmittance(1.0), Transmittance(1.0))
        cfg = SimConfig(SourceSpec.hps(mu, 1.0, beta), lossless, det, n,
                        seed=derive_seed(ROUND_TRIP_SEED, cell), apply_herald_deadtime=True)
        heralds = simulate(cfg).heralds
        result = calibrate_source(_counts(heralds / n * det.pulse_rate_hz, detector=det), beta)
        # delta method on the binomial herald count, which overstates the
        # variance of heralds spaced by a lockout: d(beta*mu)/dh = 1/((1 - (L+1)h)(1 - Lh))
        h, lock = heralds / n, det.deadtime_slots
        slope = 1.0 / ((1.0 - (lock + 1) * h) * (1.0 - lock * h))
        se = math.sqrt(h * (1.0 - h) / n) * slope / beta
        assert abs(result.mu_from_rate - mu) <= 4.0 * se


class TestSolveChannelLoss:
    def test_round_trip(self):
        target = link_metrics(
            REF_SOURCE, ChannelSpec(Transmittance(0.05), Transmittance(1.0))).p_cond
        assert solve_channel_loss(target, REF_SOURCE) == pytest.approx(0.05, rel=1e-9)

    @given(loss=st.floats(1e-4, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, loss):
        target = link_metrics(
            REF_SOURCE, ChannelSpec(Transmittance(loss), Transmittance(1.0))).p_cond
        assert solve_channel_loss(target, REF_SOURCE) == pytest.approx(loss, rel=1e-6)

    def test_infeasible_target(self):
        lossless = ChannelSpec(Transmittance(1.0), Transmittance(1.0))
        ceiling = link_metrics(REF_SOURCE, lossless).heralding_efficiency
        with pytest.raises(InfeasibleError):
            solve_channel_loss(ceiling * 1.01, REF_SOURCE)

    def test_nonpositive_target(self):
        with pytest.raises(ValueError):
            solve_channel_loss(0.0, REF_SOURCE)

    def test_wcs_rejected(self):
        with pytest.raises(ValueError):
            solve_channel_loss(0.01, SourceSpec.wcs(0.11))
