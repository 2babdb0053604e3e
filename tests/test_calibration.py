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


class TestBetaMuFromRate:
    def test_frozen_reference_point(self):
        got = beta_mu_from_rate(_counts(REF_RATE))
        assert got == pytest.approx(0.000513347022587269, rel=1e-12)

    def test_no_deadtime_is_rate_over_clock(self):
        det = replace(REF_DETECTOR, deadtime_s=0.0)
        assert beta_mu_from_rate(_counts(487.0, detector=det)) == pytest.approx(
            1e-5, rel=1e-12)

    def test_saturated_live_fraction(self):
        # 99999 cps with a 10 us deadtime leaves a 1e-5 live fraction;
        # the implied per-pulse probability blows past unity
        with pytest.raises(SaturationError):
            beta_mu_from_rate(_counts(99_999.0))

    def test_implied_probability_above_one(self):
        det = DetectorSpec(pulse_rate_hz=1e3, deadtime_s=0.0)
        with pytest.raises(SaturationError):
            beta_mu_from_rate(_counts(2e3, detector=det))

    @given(beta_mu=st.floats(1e-6, 0.05))
    @settings(max_examples=80, deadline=None)
    def test_inverts_slot_fixed_point(self, beta_mu):
        # forward model: one count per herald, paralyzable in whole slots
        slots = math.ceil(round(REF_DETECTOR.deadtime_s * REF_DETECTOR.pulse_rate_hz, 6))
        p = -math.expm1(-beta_mu)
        rate = REF_DETECTOR.pulse_rate_hz * p / (1.0 + slots * p)
        recovered = beta_mu_from_rate(_counts(rate))
        assert recovered == pytest.approx(p, rel=1e-9)


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
        assert result.mu_from_rate == pytest.approx(0.10975164730504273, rel=1e-12)
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

    def test_alpha_s_carried_through(self):
        alpha_s = REF_SOURCE.alpha_s
        result = calibrate_source(_counts(REF_RATE), beta=REF_SOURCE.beta, alpha_s=alpha_s)
        assert result.source.alpha_s.value == alpha_s.value
        assert result.source.beta.value == REF_SOURCE.beta.value


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
