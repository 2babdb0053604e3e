"""Slot-level simulator cross-checked against the closed-form analytics.

Seeds are fixed so statistical assertions are deterministic; the z-score
bounds use null standard errors computed from the analytic expectations,
not from the realized counts.
"""

import dataclasses
import decimal
import importlib.util
import itertools
import math
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from heraldsim import core, montecarlo
from heraldsim.core import ChannelSpec, DetectorSpec, SourceSpec, Transmittance
from heraldsim.montecarlo import (NOISE_MODELS, QUANTITIES, Estimate, MetricsEstimate,
                                  RunCounts, SimConfig, analytic_predictions,
                                  analytic_std_errs, compare, derive_seed,
                                  estimate_metrics, simulate)
from heraldsim.paper import FIG7_CHANNELS, REFERENCE_SOURCE
from heraldsim.paper import REFERENCE_DETECTOR as REF_DETECTOR

NO_DEADTIME = dataclasses.replace(REF_DETECTOR, deadtime_s=0.0)
DEAD_1US = dataclasses.replace(REF_DETECTOR, deadtime_s=1e-6)  # 49 slots
BETA_3DB = Transmittance.from_db(-3.0)


def _hps(**fields):
    """The reference source with ``fields`` replaced."""
    return dataclasses.replace(REFERENCE_SOURCE, **fields)


def _channel(loss=1.0, p_noise=0.0):
    return ChannelSpec(Transmittance(loss), Transmittance(1.0), p_noise)


def _config(source=None, channel=None, n_slots=1_000_000, seed=7, **kw):
    return SimConfig(source=source or _hps(), channel=channel or _channel(),
                     detector=kw.pop("detector", NO_DEADTIME),
                     n_slots=n_slots, seed=seed, **kw)


def _zmax(config, quantities):
    rows = {row.quantity: row for row in compare(simulate(config), config)}
    for q in quantities:
        assert q in rows and rows[q].z is not None, q
    return {q: rows[q].z for q in quantities}


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)

    def test_frozen_value(self):
        assert derive_seed(0, 0) == 16294208416658607535

    def test_distinct_streams(self):
        seeds = {derive_seed(42, i) for i in range(64)}
        assert len(seeds) == 64

    def test_64_bit_range(self):
        for i in range(16):
            assert 0 <= derive_seed(123, i) < 2 ** 64


class TestRunCounts:
    def test_invariants(self):
        with pytest.raises(ValueError):
            RunCounts(slots=10, heralds=11, gated_slots=0, signal_detections=0,
                      noise_detections=0, registered_detections=0, errors=0,
                      hbt_n2=0, hbt_n3=0, hbt_nc=0, car_coincidences=0,
                      car_accidentals=0)
        with pytest.raises(ValueError):
            RunCounts(slots=10, heralds=5, gated_slots=5, signal_detections=0,
                      noise_detections=0, registered_detections=1, errors=2,
                      hbt_n2=0, hbt_n3=0, hbt_nc=0, car_coincidences=0,
                      car_accidentals=0)

    def test_merge_sums_fields(self):
        cfg = _config(n_slots=100_000)
        a = simulate(cfg)
        b = simulate(dataclasses.replace(cfg, seed=8))
        merged = RunCounts.merge([a, b])
        assert merged.slots == a.slots + b.slots
        assert merged.heralds == a.heralds + b.heralds
        assert merged.errors == a.errors + b.errors


class TestDeterminism:
    def test_bit_identical_counts(self):
        cfg = _config(channel=_channel(0.05, 1e-3), detector=REF_DETECTOR,
                      n_slots=300_000, apply_herald_deadtime=True,
                      hbt_enabled=True, apply_receiver_deadtime=True)
        assert simulate(cfg) == simulate(cfg)

    def test_seed_changes_counts(self):
        cfg = _config(n_slots=300_000)
        assert simulate(cfg) != simulate(dataclasses.replace(cfg, seed=8))


class TestConfigValidation:
    def test_wcs_cannot_gate_on_heralds(self):
        with pytest.raises(ValueError):
            _config(source=SourceSpec.wcs(0.11), detector=REF_DETECTOR,
                    apply_herald_deadtime=True)

    def test_noise_coupling_requires_hbt(self):
        with pytest.raises(ValueError):
            _config(hbt_noise_coupling=True)

    def test_bad_noise_model(self):
        with pytest.raises(ValueError):
            _config(noise_model="slotwise")

    def test_noise_models_exported(self):
        assert NOISE_MODELS == ("bernoulli-per-gate", "poisson-per-gate")


class TestAgainstClosedForms:
    def test_lossless_conditional_is_exactly_one(self):
        cfg = _config(source=SourceSpec.hps(0.11, 1.0, 1.0), n_slots=200_000)
        counts = simulate(cfg)
        est = estimate_metrics(counts, cfg)
        assert est.p_cond.value == 1.0
        assert est.p_cond.std_err == 0.0

    def test_wcs_heralds_every_slot(self):
        cfg = _config(source=SourceSpec.wcs(0.11), n_slots=100_000)
        counts = simulate(cfg)
        assert counts.heralds == counts.slots == counts.gated_slots

    def test_reference_point_z_scores(self):
        cfg = _config(channel=_channel(0.05, 1e-2), n_slots=4_000_000, seed=11)
        zs = _zmax(cfg, ("p_t", "p_cond", "psnr", "qber"))
        for q, z in zs.items():
            assert abs(z) < 4.0, (q, z)

    def test_wcs_with_noise_z_scores(self):
        cfg = _config(source=SourceSpec.wcs(0.11), channel=_channel(0.05, 1e-3),
                      n_slots=1_000_000, seed=3)
        zs = _zmax(cfg, ("p_cond", "psnr", "qber"))
        for q, z in zs.items():
            assert abs(z) < 4.0, (q, z)

    def test_poisson_noise_model_z_scores(self):
        cfg = _config(channel=_channel(0.05, 5e-3), n_slots=2_000_000, seed=5,
                      noise_model="poisson-per-gate")
        zs = _zmax(cfg, ("p_cond", "qber"))
        for q, z in zs.items():
            assert abs(z) < 4.0, (q, z)

    def test_noise_models_agree_on_marginal_rate(self):
        # both models share the per-gate click probability by construction
        base = _config(source=SourceSpec.wcs(0.11), channel=_channel(1e-3, 5e-3),
                       n_slots=2_000_000, seed=9)
        rates = []
        for model in NOISE_MODELS:
            counts = simulate(dataclasses.replace(base, noise_model=model))
            rates.append(counts.noise_detections / counts.gated_slots)
        se = math.sqrt(2 * 5e-3 / 2_000_000)
        assert abs(rates[0] - rates[1]) < 5 * se

    def test_zero_noise_has_no_errors(self):
        cfg = _config(n_slots=500_000)
        counts = simulate(cfg)
        assert counts.noise_detections == 0
        assert counts.errors == 0

    def test_zero_mu_hps(self):
        cfg = _config(source=SourceSpec.hps(0.0, 0.5, 0.01), n_slots=50_000)
        counts = simulate(cfg)
        assert counts.heralds == 0
        est = estimate_metrics(counts, cfg)
        assert est.p_cond is None
        assert est.p_t.value == 0.0


CHANNEL_11 = FIG7_CHANNELS[0].channel


class TestQberPrediction:
    @pytest.mark.parametrize("p_noise", [CHANNEL_11.p_noise, 1e-7])
    @pytest.mark.parametrize("loss", [1.0, CHANNEL_11.loss])
    @pytest.mark.parametrize("source", [REFERENCE_SOURCE, SourceSpec.wcs(0.11),
                                        SourceSpec.wcs(2.0)], ids=["hps", "wcs-0.11", "wcs-2"])
    def test_poisson_model_to_full_precision(self, source, loss, p_noise):
        # with k ~ Poisson(-ln(1 - p_n)), a signal click errs with mean probability
        # (1 - sqrt(1 - p_n))/2, which cancels in floats at small p_n; the
        # signal term weighs most on a lossless channel
        channel = _channel(loss, p_noise)
        cfg = _config(source=source, channel=channel, noise_model="poisson-per-gate")
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            p, p_n = Decimal(core._click_prob(source, channel.loss)), Decimal(p_noise)
            errs = ((1 - p) * p_n + p * (1 - (1 - p_n).sqrt())) / 2
            exact = errs / (p + (1 - p) * p_n)
        got = analytic_predictions(cfg)["qber"]
        assert got == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("p_noise", [0.0, 3.19e-5, 1e-2])
    @pytest.mark.parametrize("mu", [0.01, 0.11, 2.0])
    @pytest.mark.parametrize("kind", ["hps", "wcs"])
    def test_bernoulli_model_is_the_paper_form(self, kind, mu, p_noise):
        # the simulator's error rule and core.qber_exact, which analyze reports,
        # must not drift apart
        source = _hps(mu=mu) if kind == "hps" else SourceSpec.wcs(mu)
        channel = _channel(0.05, p_noise)
        cfg = _config(source=source, channel=channel)
        want = core.qber_exact(core._click_prob(source, channel.loss), p_noise)
        assert analytic_predictions(cfg)["qber"] == pytest.approx(want, rel=1e-12, abs=0.0)


class TestEstimates:
    def test_psnr_unbounded_marker(self):
        cfg = _config(n_slots=500_000)
        est = estimate_metrics(simulate(cfg), cfg)
        assert est.psnr.value == math.inf

    def test_qber_none_without_registrations(self):
        cfg = _config(source=SourceSpec.hps(1e-6, 0.5, 1e-4), n_slots=1_000)
        est = estimate_metrics(simulate(cfg), cfg)
        assert est.qber is None

    def test_std_errs_shrink_with_n(self):
        small = _config(n_slots=100_000)
        large = _config(n_slots=1_600_000)
        assert analytic_std_errs(large)["p_t"] == pytest.approx(
            analytic_std_errs(small)["p_t"] / 4.0, rel=1e-12)
        cfg = _config(n_slots=1_000_000, seed=2)
        realized = estimate_metrics(simulate(cfg), cfg).p_t.std_err
        assert realized == pytest.approx(analytic_std_errs(cfg)["p_t"], rel=0.25)

    def test_analytic_std_errs_positive(self):
        cfg = _config(channel=_channel(0.05, 1e-3), n_slots=1_000_000)
        errs = analytic_std_errs(cfg)
        for q in ("p_t", "p_cond", "psnr", "qber"):
            assert errs[q] > 0.0 and math.isfinite(errs[q])


def _tallies(**fields):
    """Literal tallies of an HBT run, with ``fields`` replaced."""
    tallies = dict(slots=1_000_000, heralds=5_000, gated_slots=5_000, signal_detections=400,
                   noise_detections=30, registered_detections=428, errors=20, hbt_n2=150,
                   hbt_n3=160, hbt_nc=3, car_coincidences=400, car_accidentals=7)
    return RunCounts(**{**tallies, **fields})


def _binomial_form(c, n):
    p = c / n
    return p, math.sqrt(p * (1.0 - p) / n)


def _ratio_form(a, a_trials, b, b_trials):
    value = a / b
    return value, value * math.sqrt((1.0 - a / a_trials) / a + (1.0 - b / b_trials) / b)


class TestEstimatorForms:
    """estimate_metrics on literal tallies against the classical SE formulas."""

    CONFIG = _config(hbt_enabled=True)

    def _est(self, **fields):
        return estimate_metrics(_tallies(**fields), self.CONFIG)

    @staticmethod
    def _close(est, want):
        value, se = want
        assert est.value == pytest.approx(value, rel=1e-14, abs=0.0)
        assert est.std_err == pytest.approx(se, rel=1e-14, abs=0.0)

    def test_every_quantity(self):
        c, est = _tallies(), self._est()
        self._close(est.p_t, _binomial_form(c.heralds, c.slots))
        self._close(est.p_cond, _binomial_form(c.signal_detections, c.gated_slots))
        self._close(est.qber, _binomial_form(c.errors, c.registered_detections))
        self._close(est.psnr, _ratio_form(c.signal_detections, c.gated_slots,
                                          c.noise_detections, c.gated_slots))
        self._close(est.car, _ratio_form(c.car_coincidences, c.slots,
                                         c.car_accidentals, c.slots))
        g2 = c.heralds * c.hbt_nc / (c.hbt_n2 * c.hbt_n3)
        rel = math.sqrt((1.0 - c.heralds / c.slots) / c.heralds
                        + (1.0 - c.hbt_nc / c.gated_slots) / c.hbt_nc
                        + (1.0 - c.hbt_n2 / c.gated_slots) / c.hbt_n2
                        + (1.0 - c.hbt_n3 / c.gated_slots) / c.hbt_n3)
        self._close(est.g2, (g2, g2 * rel))
        f = self.CONFIG.detector.pulse_rate_hz
        p_t, se = _binomial_form(c.heralds, c.slots)
        self._close(est.herald_rate_hz, (p_t * f, se * f))

    def test_zero_numerators(self):
        est = self._est(errors=0, car_coincidences=0, hbt_nc=0)
        assert est.qber == est.car == est.g2 == Estimate(0.0, 0.0)
        est = self._est(heralds=0, gated_slots=0, signal_detections=0, noise_detections=0,
                        registered_detections=0, errors=0, hbt_n2=0, hbt_n3=0, hbt_nc=0)
        assert est.p_t == est.herald_rate_hz == Estimate(0.0, 0.0)

    def test_zero_denominators(self):
        est = self._est(heralds=0, gated_slots=0, signal_detections=0, noise_detections=0,
                        registered_detections=0, errors=0, hbt_n2=0, hbt_n3=0, hbt_nc=0)
        assert est.p_cond is est.psnr is est.qber is est.g2 is None

    def test_certain_click(self):
        est = self._est(signal_detections=5_000, registered_detections=5_000)
        assert est.p_cond == Estimate(1.0, 0.0)

    def test_psnr_without_noise(self):
        est = self._est(noise_detections=0, registered_detections=400)
        assert est.psnr == Estimate(math.inf, math.inf)

    @pytest.mark.parametrize("fields", [dict(hbt_n2=0, hbt_nc=0), dict(hbt_n3=0, hbt_nc=0)],
                             ids=["n2", "n3"])
    def test_g2_without_arm_clicks(self, fields):
        assert self._est(**fields).g2 is None

    def test_g2_needs_hbt(self):
        assert estimate_metrics(_tallies(), _config()).g2 is None

    def test_car_without_accidentals(self):
        assert self._est(car_accidentals=0).car is None


# analytic_std_errs pinned per quantity, in QUANTITIES order, at 1e6 slots
NULL_SE_PINS = {
    "hps-noise": (
        _config(source=_hps(beta=BETA_3DB), channel=_channel(0.05, 1e-2)),
        (0.00022530283498856915, 0.00047223655788371753, 0.07025734938664997,
         0.012179212130347604, None, 1.271148455266246, 10972.248063943318)),
    "wcs-noise": (
        _config(source=SourceSpec.wcs(0.11), channel=_channel(0.05, 1e-3)),
        (0.0, 7.385674331806364e-05, 0.18843803200693568, 0.0033110362347495885, None,
         0.019043037580768675, 0.0)),
    "hps-hbt": (
        _config(source=_hps(beta=0.05), channel=_channel(0.5, 1e-3), hbt_enabled=True),
        (7.385674331806364e-05, 0.004427502492870457, 52.48140813484361,
         0.0023658600229871487, 0.0952087620388842, 1.281676353914712, 3596.8233995896994)),
    "wcs-hbt": (
        _config(source=SourceSpec.wcs(0.2), channel=_channel(0.5, 1e-3), hbt_enabled=True),
        (0.0, 0.0002934393718606583, 3.022080037658604, 0.00022659157274310365,
         0.02141095926299188, 0.0043608100038353085, 0.0)),
    "poisson-noise": (
        _config(channel=_channel(0.05, 5e-3), noise_model="poisson-per-gate"),
        (2.2674032185249488e-05, 0.00488080001761848, 1.8262589582684983, 0.1172799517050478,
         None, 13.287254401897373, 1104.2253674216502)),
    "herald-deadtime": (
        _config(channel=_channel(0.05, 1e-3), detector=REF_DETECTOR,
                apply_herald_deadtime=True, hbt_enabled=True),
        (2.0277250948405626e-05, 0.00545799434821414, 20.091680234349486,
         0.08051564819963897, 3.448525197399048, 14.858582103912108, 987.502121187354)),
    "both-deadtimes": (
        _config(source=_hps(beta=BETA_3DB), channel=_channel(0.05, 1e-2), detector=REF_DETECTOR,
                apply_herald_deadtime=True, apply_receiver_deadtime=True),
        (4.442710156281144e-05, 0.002459347311549839, 0.365891247609047, 0.06342777175870638,
         None, 6.62035986156794, 2163.599846108917)),
}


@pytest.mark.parametrize("config,pinned", NULL_SE_PINS.values(), ids=NULL_SE_PINS.keys())
def test_null_std_errs_pinned(config, pinned):
    errs = analytic_std_errs(config)
    assert tuple(errs) == QUANTITIES
    for q, want in zip(QUANTITIES, pinned):
        if want is None:
            assert errs[q] is None, q
        else:
            assert errs[q] == pytest.approx(want, rel=1e-12, abs=0.0), q


class TestHeraldDeadtime:
    def test_rate_matches_fixed_point(self):
        cfg = _config(detector=REF_DETECTOR, n_slots=4_000_000, seed=13,
                      apply_herald_deadtime=True)
        assert abs(_zmax(cfg, ("p_t",))["p_t"]) < 4.0

    def test_saturated_source_pins_spacing(self):
        # with every slot clicking, accepted heralds hit the spacing ceiling;
        # n_slots straddles a chunk boundary, though a lockout that restarted
        # there would give the same count (TestChunkCarries pins the carry)
        cfg = _config(source=SourceSpec.hps(50.0, 1.0, 1.0),
                      detector=REF_DETECTOR, n_slots=2_100_000, seed=1,
                      apply_herald_deadtime=True)
        counts = simulate(cfg)
        spacing = cfg.detector.deadtime_slots + 1
        assert counts.heralds == math.ceil(cfg.n_slots / spacing)

    def test_deadtime_slots_float_guard(self):
        # 10 us at 48.7 MHz is 487.00000000000006 pulses in floats
        assert REF_DETECTOR.deadtime_slots == 487

    def test_conditional_invariant_under_deadtime(self):
        # dropping heralds inside the lockout window is independent of the
        # photon content of the surviving slots
        base = _config(channel=_channel(0.05, 0.0), n_slots=4_000_000, seed=17)
        gated = dataclasses.replace(base, detector=REF_DETECTOR,
                                    apply_herald_deadtime=True)
        p_free = analytic_predictions(base)["p_cond"]
        counts = simulate(gated)
        est = estimate_metrics(counts, gated)
        assert abs(est.p_cond.value - p_free) < 4 * est.p_cond.std_err


class TestReceiverDeadtime:
    def test_thins_registrations(self):
        base = _config(channel=_channel(1.0, 1e-3), detector=REF_DETECTOR,
                       source=_hps(mu=0.3, beta=BETA_3DB), n_slots=1_000_000,
                       seed=19)
        free = simulate(base)
        locked = simulate(dataclasses.replace(base, apply_receiver_deadtime=True))
        assert locked.registered_detections < free.registered_detections

    def test_car_invariant_under_receiver_deadtime(self):
        base = _config(channel=_channel(0.05, 1e-4), n_slots=4_000_000, seed=23,
                       source=_hps(mu=0.3, beta=Transmittance.from_db(-13.0)))
        locked = dataclasses.replace(base, detector=REF_DETECTOR,
                                     apply_receiver_deadtime=True)
        analytic = analytic_predictions(base)["car"]
        est = estimate_metrics(simulate(locked), locked)
        assert est.car is not None
        assert abs(est.car.value - analytic) < 4 * est.car.std_err

    # sources that click every few dozen slots, so a 1 us lockout drops many clicks
    @pytest.mark.parametrize("config", [
        _config(source=SourceSpec.wcs(0.11), channel=_channel(0.2, 1e-3), detector=DEAD_1US,
                apply_receiver_deadtime=True),
        _config(source=_hps(mu=0.3, alpha_s=1.0, beta=0.5), channel=_channel(0.5, 1e-2),
                detector=DEAD_1US, apply_receiver_deadtime=True),
    ], ids=["wcs", "hps"])
    def test_conditional_thinned_by_live_fraction(self, config):
        assert abs(_zmax(config, ("p_cond",))["p_cond"]) < 4.0

    @pytest.mark.parametrize("seed", range(3))
    def test_herald_deadtime_leaves_nothing_to_lock(self, seed):
        # accepted heralds lie more than the lockout apart, so no click is dropped
        herald_only = _config(source=_hps(mu=0.3, alpha_s=1.0, beta=0.5),
                              channel=_channel(0.5, 1e-2), detector=DEAD_1US,
                              n_slots=300_000, seed=seed, hbt_enabled=True,
                              apply_herald_deadtime=True)
        both = dataclasses.replace(herald_only, apply_receiver_deadtime=True)
        assert simulate(both) == simulate(herald_only)

    @pytest.mark.parametrize("source,herald_deadtime,predicted", [
        (SourceSpec.wcs(0.11), False, False),
        (_hps(mu=0.3, alpha_s=1.0, beta=0.5), False, False),
        (_hps(mu=0.3, alpha_s=1.0, beta=0.5), True, True),
    ], ids=["wcs", "hps", "hps-herald-deadtime"])
    def test_g2_predicted_only_when_no_click_is_lost(self, source, herald_deadtime, predicted):
        cfg = _config(source=source, channel=_channel(0.5, 1e-2), detector=DEAD_1US,
                      hbt_enabled=True, apply_receiver_deadtime=True,
                      apply_herald_deadtime=herald_deadtime)
        assert (analytic_predictions(cfg)["g2"] is not None) is predicted


class TestCar:
    def test_against_closed_form(self):
        cfg = _config(source=_hps(mu=0.3), channel=_channel(0.22387211385683395),
                      n_slots=8_000_000, seed=29)
        analytic = analytic_predictions(cfg)["car"]
        est = estimate_metrics(simulate(cfg), cfg)
        assert est.car is not None
        assert abs(est.car.value - analytic) < 4 * est.car.std_err

    def test_needs_accidentals(self):
        cfg = _config(n_slots=2_000, seed=1)
        est = estimate_metrics(simulate(cfg), cfg)
        assert est.car is None or est.car.value > 0.0


class TestChunkCarries:
    # lossless sources that herald and click in every slot (but with odds of
    # e^-50), run over two and a half chunks of 1000 slots, so every carry
    # across a chunk boundary shows in an exact tally
    SATURATED = {"wcs": SourceSpec.wcs(50.0), "hps": _hps(mu=50.0, alpha_s=1.0, beta=1.0)}

    @pytest.mark.parametrize("kind", SATURATED)
    def test_car_windows_cross_chunks(self, monkeypatch, kind):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        counts = simulate(_config(source=self.SATURATED[kind], n_slots=2500))
        assert counts.heralds == counts.car_coincidences == 2500
        # every slot but the last is followed by a signal click
        assert counts.car_accidentals == 2499

    # one registered click per L + 1 slots; at L = 2 a lockout that restarted
    # with each chunk would register 2*334 + 167 = 835
    @pytest.mark.parametrize("kind", SATURATED)
    @pytest.mark.parametrize("lock,registered", [(6, 358), (2, 834)])
    def test_receiver_lockout_crosses_chunks(self, monkeypatch, kind, lock, registered):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        detector = DetectorSpec(pulse_rate_hz=1e6, deadtime_s=lock * 1e-6)
        assert detector.deadtime_slots == lock
        counts = simulate(_config(source=self.SATURATED[kind], n_slots=2500,
                                  detector=detector, apply_receiver_deadtime=True))
        assert counts.registered_detections == math.ceil(2500 / (lock + 1)) == registered

    def test_herald_lockout_crosses_chunks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
        detector = DetectorSpec(pulse_rate_hz=1e6, deadtime_s=2e-6)
        counts = simulate(_config(source=self.SATURATED["hps"], n_slots=2500,
                                  detector=detector, apply_herald_deadtime=True))
        assert counts.heralds == math.ceil(2500 / 3) == 834


class TestHbt:
    # beta is raised well above the reference value in these configs so
    # the heralded sample is large enough for tight g2 statistics
    def test_counts_need_flag(self):
        cfg = _config(n_slots=100_000)
        counts = simulate(cfg)
        assert counts.hbt_n2 == counts.hbt_n3 == counts.hbt_nc == 0

    def test_g2_tracks_prediction(self):
        cfg = _config(source=_hps(beta=0.05),
                      n_slots=3_000_000, seed=31, hbt_enabled=True)
        counts = simulate(cfg)
        est = estimate_metrics(counts, cfg)
        analytic = analytic_predictions(cfg)["g2"]
        assert est.g2 is not None
        tol = max(3 * est.g2.std_err, 0.05 * analytic)
        assert abs(est.g2.value - analytic) < tol

    # criterion 7's config, where core.g2_predicted's arm -> 0 limit reads 0.188039
    @pytest.mark.parametrize("source,expected", [
        (REFERENCE_SOURCE, 0.18899082616567), (SourceSpec.wcs(0.11), 1.0)],
        ids=["hps", "wcs"])
    def test_g2_prediction_is_the_estimator_limit(self, source, expected):
        # p23 / p2^2 from the arm probabilities, the limit of H*nc/(n2*n3)
        cfg = _config(source=source, detector=REF_DETECTOR, hbt_enabled=True,
                      apply_herald_deadtime=source.kind == "hps")
        assert analytic_predictions(cfg)["g2"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("loss", [1.0, 0.05, CHANNEL_11.loss, 1e-8])
    @pytest.mark.parametrize("mu,alpha_s,beta", [
        (0.01, REFERENCE_SOURCE.alpha_s, REFERENCE_SOURCE.beta),
        (0.11, REFERENCE_SOURCE.alpha_s, REFERENCE_SOURCE.beta),
        (2.0, 1.0, 0.5)], ids=["ref-mu0.01", "ref-mu0.11", "mu2-beta0.5"])
    def test_both_arm_probability_to_full_precision(self, mu, alpha_s, beta, loss):
        # by inclusion-exclusion over the herald H and the arms A2, A3, each
        # "none of" term being a Poisson zero: a pair reaches H with probability
        # beta and each arm with probability a/2, so P(H, A2, A3) sums eight
        # exponentials that cancel to ~(mu*a)^2 at high loss
        cfg = _config(source=_hps(mu=mu, alpha_s=alpha_s, beta=beta), channel=_channel(loss),
                      hbt_enabled=True)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            m, b = Decimal(mu), Decimal(cfg.source.beta.value)
            a = Decimal(cfg.source.alpha_s.value) * Decimal(loss)

            def none_of(p):
                return (-m * p).exp()

            joint = (1 - none_of(b) - 2 * none_of(a / 2) + none_of(a)
                     + 2 * none_of(b + a / 2 - b * a / 2) - none_of(b + a - b * a))
            exact = joint / (1 - none_of(b))
        expected = montecarlo._expected_counts(cfg)
        got = expected.hbt_nc / expected.gated_slots
        assert got == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    def test_wcs_g2_is_one(self):
        cfg = _config(source=SourceSpec.wcs(0.2), channel=_channel(0.5),
                      n_slots=2_000_000, seed=37, hbt_enabled=True)
        est = estimate_metrics(simulate(cfg), cfg)
        assert analytic_predictions(cfg)["g2"] == 1.0
        assert abs(est.g2.value - 1.0) < 4 * est.g2.std_err

    def test_noise_coupling_inflates_g2(self):
        base = _config(source=_hps(beta=0.05),
                       channel=_channel(1.0, 0.05), n_slots=4_000_000, seed=41,
                       hbt_enabled=True)
        coupled = dataclasses.replace(base, hbt_noise_coupling=True)
        g2_base = estimate_metrics(simulate(base), base).g2.value
        g2_coupled = estimate_metrics(simulate(coupled), coupled).g2.value
        assert g2_coupled > g2_base + 0.05

    @pytest.mark.parametrize("noise_model", NOISE_MODELS)
    def test_coupled_arms_match_exact_forms(self, noise_model):
        # each arm gets half the Poisson(s) signal photons and each noise
        # photon independently; with one Bernoulli noise photon an arm misses
        # it with probability 1 - p_n/2
        mu, loss, p_noise = 0.2, 0.5, 0.05
        cfg = _config(source=SourceSpec.wcs(mu), channel=_channel(loss, p_noise),
                      n_slots=2_000_000, seed=43, noise_model=noise_model,
                      hbt_enabled=True, hbt_noise_coupling=True)
        counts = simulate(cfg)
        s = mu * loss
        if noise_model == "poisson-per-gate":
            lam = -math.log1p(-p_noise)
            none_one, none_both = math.exp(-(s + lam) / 2), math.exp(-(s + lam))
        else:
            none_one = math.exp(-s / 2) * (1 - p_noise / 2)
            none_both = math.exp(-s) * (1 - p_noise)
        p_arm = 1 - none_one
        p_coinc = 1 - 2 * none_one + none_both
        g = counts.gated_slots
        for name, count, p in (("n2", counts.hbt_n2, p_arm), ("n3", counts.hbt_n3, p_arm),
                               ("nc", counts.hbt_nc, p_coinc)):
            z = (count / g - p) / math.sqrt(p * (1 - p) / g)
            assert abs(z) < 4.0, (name, z)

    def test_coupled_prediction_is_open(self):
        cfg = _config(channel=_channel(1.0, 1e-2), hbt_enabled=True,
                      hbt_noise_coupling=True)
        assert analytic_predictions(cfg)["g2"] is None


def _closed_form_called(*args, **kwargs):
    raise AssertionError("simulate called a closed form")


# every flag set: HPS with each deadtime combination, WCS with or without receiver deadtime
INDEPENDENCE_FLAGS = [
    (kind, model, hbt, deadtime)
    for kind, deadtimes in (("hps", ("none", "herald", "receiver", "both")),
                            ("wcs", ("none", "receiver")))
    for model, hbt, deadtime in itertools.product(NOISE_MODELS, ("off", "on", "coupled"), deadtimes)]
PREDICTION_HELPERS = ("analytic_predictions", "analytic_std_errs", "_live_fraction",
                      "_expected_counts", "_at_expected_counts", "estimate_metrics",
                      "_count_ratio")


@pytest.mark.parametrize("kind,noise_model,hbt,deadtime", INDEPENDENCE_FLAGS)
def test_simulate_takes_nothing_from_closed_forms(monkeypatch, kind, noise_model, hbt,
                                                  deadtime):
    source = SourceSpec.wcs(0.11) if kind == "wcs" else _hps(mu=0.3, alpha_s=1.0, beta=0.5)
    cfg = _config(source=source, channel=_channel(0.5, 1e-2), detector=DEAD_1US,
                  n_slots=50_000, noise_model=noise_model, hbt_enabled=hbt != "off",
                  hbt_noise_coupling=hbt == "coupled",
                  apply_herald_deadtime=deadtime in ("herald", "both"),
                  apply_receiver_deadtime=deadtime in ("receiver", "both"))
    reference = simulate(cfg)
    for name in (*core.__all__, "_gate_prob", "_click_prob"):
        if callable(getattr(core, name)):
            for module in (core, montecarlo):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _closed_form_called)
    for name in PREDICTION_HELPERS:
        monkeypatch.setattr(montecarlo, name, _closed_form_called)
    assert simulate(cfg) == reference


class TestEstimateContainer:
    def test_estimate_fields(self):
        e = Estimate(1.0, 0.1)
        assert e.value == 1.0 and e.std_err == 0.1


# (config, the quantities compare reports in order, those of them with no z,
#  and optionally fixed counts to compare in place of a simulated run)
COMPARE_CASES = {
    "hps": (_config(source=_hps(beta=BETA_3DB), channel=_channel(0.05, 1e-2),
                    n_slots=200_000, seed=3),
            ("p_t", "p_cond", "psnr", "qber", "car", "herald_rate_hz"), ()),
    # every slot heralds, so p_t and the herald rate have a null SE of 0
    "wcs-noise": (_config(source=SourceSpec.wcs(0.11), channel=_channel(0.05, 1e-3),
                          n_slots=200_000, seed=3),
                  ("p_t", "p_cond", "psnr", "qber", "car", "herald_rate_hz"),
                  ("p_t", "herald_rate_hz")),
    # psnr is inf on both sides and qber is 0 on both sides
    "no-noise": (_config(source=_hps(beta=BETA_3DB), channel=_channel(0.05),
                         n_slots=200_000, seed=3),
                 ("p_t", "p_cond", "psnr", "qber", "car", "herald_rate_hz"),
                 ("psnr", "qber")),
    # no closed form for g2 with noise in the HBT arms
    "hbt-coupled": (_config(source=_hps(beta=BETA_3DB), channel=_channel(1.0, 1e-2),
                            n_slots=200_000, seed=3, hbt_enabled=True,
                            hbt_noise_coupling=True),
                    ("p_t", "p_cond", "psnr", "qber", "g2", "car", "herald_rate_hz"),
                    ("g2",)),
    # a few hundred heralds and no accidental coincidence, so no car row
    "no-accidentals": (_config(channel=_channel(0.05, 1e-2), n_slots=200_000, seed=3),
                       ("p_t", "p_cond", "psnr", "qber", "herald_rate_hz"), (),
                       RunCounts(slots=200_000, heralds=104, gated_slots=104,
                                 signal_detections=5, noise_detections=1,
                                 registered_detections=6, errors=1, hbt_n2=0, hbt_n3=0,
                                 hbt_nc=0, car_coincidences=5, car_accidentals=0)),
    # an HPS with mu = 0 never heralds: no HBT prediction, nothing conditional
    "hps-mu0-hbt": (_config(source=_hps(mu=0.0), channel=_channel(1.0, 1e-2),
                            n_slots=10_000, seed=3, hbt_enabled=True),
                    ("p_t", "herald_rate_hz"), ("p_t", "herald_rate_hz")),
}


class TestCompare:
    @pytest.mark.parametrize("config,measured,no_z,counts",
                             [(*case, None)[:4] for case in COMPARE_CASES.values()],
                             ids=COMPARE_CASES.keys())
    def test_rows(self, config, measured, no_z, counts):
        counts = counts or simulate(config)
        rows = compare(counts, config)
        assert tuple(row.quantity for row in rows) == measured
        assert tuple(row.quantity for row in rows if row.z is None) == no_z
        est = estimate_metrics(counts, config)
        pred, errs = analytic_predictions(config), analytic_std_errs(config)
        for row in rows:
            e = getattr(est, row.quantity)
            assert (row.estimate, row.std_err) == (e.value, e.std_err)
            assert (row.analytic, row.null_se) == (pred[row.quantity], errs[row.quantity])
            if row.z is not None:
                assert row.z == (row.estimate - row.analytic) / row.null_se

    def test_quantity_lists_agree(self, monkeypatch):
        # bench/checks.py keeps its own copy of the list; it imports only the
        # standard library, so it loads here without the benchmark harness
        path = Path(__file__).resolve().parent.parent / "bench" / "checks.py"
        spec = importlib.util.spec_from_file_location("bench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, checks)
        spec.loader.exec_module(checks)
        config = _config(hbt_enabled=True)
        assert MetricsEstimate._fields == QUANTITIES
        assert tuple(analytic_predictions(config)) == QUANTITIES
        assert tuple(analytic_std_errs(config)) == QUANTITIES
        assert checks.QUANTITIES == QUANTITIES
