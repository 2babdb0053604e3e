"""Closed-form analytics against an independent enumeration oracle.

The oracle below evaluates the threshold-detection probabilities by
direct truncated-Poisson enumeration, sharing no code with the package;
frozen constants in the tests were produced by the same enumeration.
"""

import decimal
import math
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim import core
from heraldsim.core import (DEFAULT_REPORTING_LOSS, ChannelSpec, DetectorSpec,
                            SourceSpec, Transmittance, UndefinedConditionalError,
                            db_to_linear, frequency_to_wavelength, g2_predicted,
                            linear_to_db, link_metrics, psnr_gain, psnr_gain_approx,
                            qber_exact, qber_from_psnr, rate_penalty,
                            wavelength_to_frequency)
from heraldsim.paper import CHI_TABLE, REFERENCE_SOURCE as REF_SOURCE

KMAX = 400


def _poisson_pmf(mu):
    out = []
    p = math.exp(-mu)
    for k in range(KMAX + 1):
        out.append(p)
        p *= mu / (k + 1)
    return out


def enum_p_t(mu, beta):
    pmf = _poisson_pmf(mu)
    return sum(pmf[k] * (1.0 - (1.0 - beta) ** k) for k in range(KMAX + 1))


def enum_p_cond(mu, beta, arm):
    pmf = _poisson_pmf(mu)
    joint = sum(pmf[k] * (1.0 - (1.0 - beta) ** k) * (1.0 - (1.0 - arm) ** k)
                for k in range(KMAX + 1))
    return joint / enum_p_t(mu, beta)


def _channel(loss=1.0, p_noise=0.0):
    return ChannelSpec(Transmittance(loss), Transmittance(1.0), p_noise)


def _p_cond(source, loss):
    return link_metrics(source, _channel(loss)).p_cond


class TestConversions:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-12)
        assert db_to_linear(-6.5) == pytest.approx(0.22387211385683395, rel=1e-12)
        assert db_to_linear(-23.3) == pytest.approx(0.004677351412871981, rel=1e-12)

    def test_linear_db_round_trip(self):
        for db in (-60.0, -23.3, -13.0, -6.5, -3.0, 0.0):
            assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)
        with pytest.raises(ValueError):
            db_to_linear(math.inf)

    def test_wavelength_frequency_round_trip(self):
        wl = 1308.2e-9
        assert frequency_to_wavelength(wavelength_to_frequency(wl)) == pytest.approx(wl, rel=1e-15)
        with pytest.raises(ValueError):
            wavelength_to_frequency(0.0)


class TestTransmittance:
    def test_range(self):
        assert Transmittance(1.0).value == 1.0
        for bad in (0.0, -0.1, 1.1, math.nan, math.inf):
            with pytest.raises(ValueError):
                Transmittance(bad)

    def test_db_round_trip(self):
        t = Transmittance.from_db(-13.0)
        assert t.db == pytest.approx(-13.0, abs=1e-12)


class TestSpecs:
    def test_wcs_rejects_arm_fields(self):
        with pytest.raises(ValueError):
            SourceSpec("wcs", 0.1, alpha_s=Transmittance(0.5), beta=None)

    def test_hps_requires_arms(self):
        with pytest.raises(ValueError):
            SourceSpec("hps", 0.1)

    def test_hps_accepts_floats(self):
        src = SourceSpec.hps(0.1, 0.5, 0.01)
        assert src.alpha_s.value == 0.5 and src.beta.value == 0.01

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            SourceSpec.wcs(-0.1)
        with pytest.raises(ValueError):
            SourceSpec.wcs(math.nan)

    def test_channel_noise_range(self):
        with pytest.raises(ValueError):
            _channel(p_noise=1.0)
        with pytest.raises(ValueError):
            _channel(p_noise=-1e-9)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorSpec(pulse_rate_hz=0.0)
        with pytest.raises(ValueError):
            DetectorSpec(pulse_rate_hz=1e6, deadtime_s=-1.0)

    def test_deadtime_must_span_finite_pulses(self):
        # deadtime_s * pulse_rate_hz is the lockout in slots, which must be a float
        with pytest.raises(ValueError, match=r"^deadtime_s must span a finite number"):
            DetectorSpec(pulse_rate_hz=48.7e6, deadtime_s=1e301)
        with pytest.raises(ValueError, match=r"^deadtime_s "):
            DetectorSpec(pulse_rate_hz=1e300, deadtime_s=1e10)
        assert DetectorSpec(pulse_rate_hz=48.7e6, deadtime_s=1e290).deadtime_s == 1e290


class TestDetectionProbs:
    def test_wcs_frozen(self):
        assert link_metrics(SourceSpec.wcs(0.11), _channel()).p_s == pytest.approx(
            0.10416586470347175, rel=1e-12)
        ch = ChannelSpec(Transmittance(0.5), Transmittance(0.2))
        assert link_metrics(SourceSpec.wcs(0.1), ch).p_s == pytest.approx(
            0.009950166250831949, rel=1e-12)

    def test_wcs_zero_mu(self):
        assert link_metrics(SourceSpec.wcs(0.0), _channel()).p_s == 0.0

    def test_herald_prob_frozen(self):
        assert link_metrics(REF_SOURCE, _channel()).p_t == pytest.approx(
            0.000514376318534796, rel=1e-10)

    def test_conditional_frozen(self):
        assert _p_cond(REF_SOURCE, 1.0) == pytest.approx(0.24270796116822682, rel=1e-10)
        assert _p_cond(REF_SOURCE, 1e-3) == pytest.approx(0.00024843465734986504, rel=1e-10)
        assert _p_cond(REF_SOURCE, 0.05) == pytest.approx(0.01240752678909819, rel=1e-10)

    def test_conditional_matches_enumeration(self):
        for mu in (0.01, 0.11, 0.3, 0.5):
            for beta in (1e-3, 0.004677351412871981, 0.05):
                for loss in (1.0, 0.05, 1e-3):
                    src = SourceSpec.hps(mu, REF_SOURCE.alpha_s, beta)
                    got = _p_cond(src, loss)
                    want = enum_p_cond(mu, beta, REF_SOURCE.alpha_s.value * loss)
                    assert got == pytest.approx(want, rel=1e-9), (mu, beta, loss)

    def test_herald_matches_enumeration(self):
        for mu in (0.01, 0.11, 0.5):
            for beta in (1e-3, 0.05, 1.0):
                src = SourceSpec.hps(mu, 0.5, beta)
                assert link_metrics(src, _channel()).p_t == pytest.approx(
                    enum_p_t(mu, beta), rel=1e-9)

    def test_conditional_mu_zero_raises(self):
        src = SourceSpec.hps(0.0, 0.5, 0.01)
        with pytest.raises(UndefinedConditionalError):
            link_metrics(src, _channel())

    def test_lossless_conditional_is_one(self):
        src = SourceSpec.hps(0.11, 1.0, 1.0)
        assert _p_cond(src, 1.0) == pytest.approx(1.0, abs=1e-15)

    @given(mu=st.floats(1e-4, 0.5), beta=st.floats(1e-4, 0.1),
           lo=st.floats(1e-4, 0.9), hi=st.floats(1e-4, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_conditional_monotone_in_loss(self, mu, beta, lo, hi):
        lo, hi = sorted((lo, hi))
        if hi - lo < 1e-9:
            return
        src = SourceSpec.hps(mu, 0.8, beta)
        assert _p_cond(src, lo) <= _p_cond(src, hi) + 1e-15

    @given(mu=st.floats(1e-4, 0.5), beta=st.floats(1e-4, 0.1))
    @settings(max_examples=60, deadline=None)
    def test_conditional_in_unit_range(self, mu, beta):
        src = SourceSpec.hps(mu, 0.8, beta)
        p = _p_cond(src, 0.3)
        assert 0.0 <= p <= 1.0


CLICK_LOSSES = [1.0, 0.5, 1e-3, 1e-6, 1e-8]
CLICK_MUS = [0.01, 0.11, 2.0]


class TestClickProbDigits:
    """core._click_prob against a 50-digit evaluation, one arm and two equal arms.

    With ``x = mu*a*loss/arms`` per arm (``a = alpha_s`` for an HPS, 1 for a
    WCS), every arm clicks with ``(1 - e^-x)**arms``; an HPS subtracts the
    slots with no herald, ``e^(-beta*mu) * (1 - e^(-x*(1 - beta)))**arms``,
    and divides by the herald probability.
    """

    @pytest.mark.parametrize("arms", [1, 2])
    @pytest.mark.parametrize("mu", CLICK_MUS)
    @pytest.mark.parametrize("loss", CLICK_LOSSES)
    @pytest.mark.parametrize("beta", [1e-4, 4.68e-3, 0.05, 0.5, 1.0])
    def test_hps(self, beta, loss, mu, arms):
        src = SourceSpec.hps(mu, REF_SOURCE.alpha_s, beta)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d_mu, d_beta = Decimal(mu), Decimal(beta)
            x = d_mu * Decimal(REF_SOURCE.alpha_s.value) * Decimal(loss) / arms
            no_herald = (-d_beta * d_mu).exp()
            joint = (1 - (-x).exp()) ** arms - no_herald * (1 - (-x * (1 - d_beta)).exp()) ** arms
            want = joint / (1 - no_herald)
        got = core._click_prob(src, loss, arms)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("arms", [1, 2])
    @pytest.mark.parametrize("mu", CLICK_MUS)
    @pytest.mark.parametrize("loss", CLICK_LOSSES)
    def test_wcs(self, loss, mu, arms):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            want = (1 - (-Decimal(mu) * Decimal(loss) / arms).exp()) ** arms
        got = core._click_prob(SourceSpec.wcs(mu), loss, arms)
        assert got == pytest.approx(float(want), rel=1e-14, abs=0.0)


class TestHeraldingEfficiency:
    def test_small_mu_limit(self):
        src = SourceSpec.hps(1e-8, 0.45, 0.45)
        assert link_metrics(src, _channel()).heralding_efficiency == pytest.approx(
            0.45000000191812495, rel=1e-10)

    def test_equals_lossless_conditional(self):
        m = link_metrics(REF_SOURCE, _channel(1.0))
        assert m.heralding_efficiency == m.p_cond

    @given(mu=st.floats(1e-4, 0.5), alpha_s=st.floats(1e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_at_least_alpha_s(self, mu, alpha_s):
        # multi-pair pulses can only help a threshold detector
        src = SourceSpec.hps(mu, alpha_s, 0.01)
        assert link_metrics(src, _channel()).heralding_efficiency >= alpha_s - 1e-12

    def test_unit_alpha_s_stays_a_probability(self):
        # t + gap rounds to 1 + 2**-52 here; link_metrics must not pass that on
        src = SourceSpec.hps(0.14445880736151018, 1.0, 0.01)
        m = link_metrics(src, _channel())
        assert m.heralding_efficiency == m.p_cond == 1.0


class TestPsnrAndGain:
    def test_unbounded_marker(self):
        assert link_metrics(SourceSpec.wcs(0.1), _channel()).psnr == math.inf

    def test_ratio_identity(self):
        # exact gain equals the ratio of the two sources' PSNR values
        ch = _channel(0.05, p_noise=1e-3)
        m = link_metrics(REF_SOURCE, ch)
        ratio = m.psnr / m.psnr_wcs
        assert m.psnr_gain == pytest.approx(ratio, rel=1e-9)

    def test_gain_frozen_reference_points(self):
        cases = ((2.2586211046047655, 2.26), (4.539893355285626, 4.54),
                 (8.474122833774839, 8.48))
        for (alpha_s, _), (frozen, published) in zip(CHI_TABLE, cases):
            gain = psnr_gain(replace(REF_SOURCE, alpha_s=alpha_s))
            assert gain == pytest.approx(frozen, rel=1e-9)
            assert gain == pytest.approx(published, abs=0.01)

    def test_gain_approx_frozen(self):
        assert psnr_gain_approx(REF_SOURCE) == pytest.approx(2.259073148918961, rel=1e-12)

    @given(mu=st.floats(1e-3, 0.2), alpha_s=st.floats(0.01, 1.0),
           beta=st.floats(1e-4, 0.01), loss=st.floats(1e-4, 0.01))
    @settings(max_examples=80, deadline=None)
    def test_approx_within_one_percent_in_regime(self, mu, alpha_s, beta, loss):
        src = SourceSpec.hps(mu, alpha_s, beta)
        exact = link_metrics(src, _channel(loss)).psnr_gain
        approx = psnr_gain_approx(src)
        assert abs(approx - exact) / exact < 0.01

    def test_default_reporting_loss(self):
        explicit = link_metrics(REF_SOURCE, _channel(DEFAULT_REPORTING_LOSS)).psnr_gain
        assert psnr_gain(REF_SOURCE) == pytest.approx(explicit, rel=1e-12)

    def test_gain_mu_zero_raises(self):
        # a source that never heralds has no conditional detection to compare
        with pytest.raises(UndefinedConditionalError, match="herald probability is zero"):
            psnr_gain(SourceSpec.hps(0.0, 0.5, 0.01))


class TestRatePenalty:
    def test_first_order_frozen(self):
        penalty = rate_penalty(REF_SOURCE)
        assert penalty == pytest.approx(0.0010471285480508992, rel=1e-12)
        assert linear_to_db(penalty) == pytest.approx(-29.8, abs=0.05)

    def test_penalty_below_one(self):
        assert 0.0 < rate_penalty(REF_SOURCE) < 1.0


class TestQber:
    def test_frozen(self):
        assert qber_exact(0.01, 0.001) == pytest.approx(0.045268425841674245, rel=1e-12)

    def test_edges(self):
        assert qber_exact(0.0, 0.0) == 0.0
        assert qber_exact(0.0, 0.3) == pytest.approx(0.5, rel=1e-12)
        assert qber_exact(0.5, 0.0) == 0.0

    def test_from_psnr(self):
        assert qber_from_psnr(0.0) == 0.5
        assert qber_from_psnr(math.inf) == 0.0
        assert qber_from_psnr(4.0) == pytest.approx(0.1, rel=1e-12)
        with pytest.raises(ValueError):
            qber_from_psnr(-1.0)
        for bad in (math.nan, -math.inf, True, "4"):
            with pytest.raises(ValueError, match="^psnr must be "):
                qber_from_psnr(bad)

    @given(p_qkd=st.floats(1e-6, 0.05), p_noise=st.floats(1e-8, 0.05))
    @settings(max_examples=100, deadline=None)
    def test_bridge_to_psnr_form(self, p_qkd, p_noise):
        # the 1/(2(1+PSNR)) approximation holds to ~p_qkd/2 relative error
        exact = qber_exact(p_qkd, p_noise)
        approx = qber_from_psnr(p_qkd / p_noise)
        assert abs(exact - approx) / approx < 0.03

    @given(p_qkd=st.floats(0.0, 1.0), p_noise=st.floats(0.0, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_range(self, p_qkd, p_noise):
        q = qber_exact(p_qkd, p_noise)
        assert 0.0 <= q <= 0.5

    @given(p_qkd=st.floats(1e-6, 0.9), lo=st.floats(1e-6, 0.9), hi=st.floats(1e-6, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_noise(self, p_qkd, lo, hi):
        lo, hi = sorted((lo, hi))
        assert qber_exact(p_qkd, lo) <= qber_exact(p_qkd, hi) + 1e-15


class TestG2:
    def test_frozen(self):
        assert g2_predicted(REF_SOURCE) == pytest.approx(0.1880385023793602, rel=1e-12)

    def test_zero_mu(self):
        assert g2_predicted(SourceSpec.hps(0.0, 0.5, 0.01)) == 0.0

    @given(lo=st.floats(1e-4, 0.5), hi=st.floats(1e-4, 0.5), beta=st.floats(1e-4, 0.1))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_mu_and_below_one(self, lo, hi, beta):
        lo, hi = sorted((lo, hi))
        g_lo = g2_predicted(SourceSpec.hps(lo, 1.0, beta))
        g_hi = g2_predicted(SourceSpec.hps(hi, 1.0, beta))
        assert g_lo <= g_hi + 1e-15
        assert g_hi < 1.0


class TestLinkMetrics:
    def test_hps_fields(self):
        ch = _channel(1e-3, p_noise=2.709e-5)
        m = link_metrics(REF_SOURCE, ch)
        assert m.p_t == pytest.approx(core._gate_prob(REF_SOURCE), rel=1e-12)
        assert m.p_cond == pytest.approx(core._click_prob(REF_SOURCE, ch.loss), rel=1e-12)
        assert m.p_s == pytest.approx(
            core._click_prob(SourceSpec.wcs(REF_SOURCE.mu), ch.loss), rel=1e-12)
        assert m.psnr == pytest.approx(m.p_cond / ch.p_noise, rel=1e-12)
        assert m.qber == pytest.approx(qber_exact(m.p_cond, ch.p_noise), rel=1e-12)
        assert m.psnr_gain == pytest.approx(m.p_cond / m.p_s, rel=1e-12)
        assert m.rate_penalty == pytest.approx(rate_penalty(REF_SOURCE), rel=1e-12)

    def test_wcs_fields_none(self):
        m = link_metrics(SourceSpec.wcs(0.11), _channel(1e-3, p_noise=1e-4))
        assert m.p_t is None and m.p_cond is None
        assert m.heralding_efficiency is None and m.psnr_gain is None
        assert m.rate_penalty is None
        assert m.qber == pytest.approx(qber_exact(m.p_s, 1e-4), rel=1e-12)
        # a WCS is its own baseline
        assert (m.psnr_wcs, m.qber_wcs) == (m.psnr, m.qber)

    @pytest.mark.parametrize("p_noise", [0.0, 2.709e-5, 0.1])
    @pytest.mark.parametrize("loss", [1.0, 0.05, 1e-3])
    def test_hps_baseline_is_the_wcs_own_metrics(self, loss, p_noise):
        ch = _channel(loss, p_noise=p_noise)
        m = link_metrics(REF_SOURCE, ch)
        wcs = link_metrics(SourceSpec.wcs(REF_SOURCE.mu), ch)
        assert (m.p_s, m.psnr_wcs, m.qber_wcs) == (wcs.p_s, wcs.psnr, wcs.qber)
