"""Channel-grid geometry, plan files, noise scans, and plan aggregation."""

import json

import pytest

from heraldsim.core import ChannelSpec, SourceSpec, Transmittance, link_metrics
from heraldsim.paper import REFERENCE_DETECTOR as REF_DETECTOR, REFERENCE_SOURCE as REF_SOURCE
from heraldsim.wdm import (ANCHOR_WAVELENGTH_NM, CHANNEL_COUNT,
                           CHANNEL_SPACING_HZ, NOISE_SCAN_COLUMNS, ChannelPlan,
                           NoiseScanRow, WdmChannel, aggregate,
                           channel_wavelength, load_noise_scan,
                           p_noise_from_scan)

REF_CHANNEL = ChannelSpec(Transmittance(1e-3), Transmittance(1.0), 1e-4)


class TestGrid:
    def test_frozen_wavelengths(self):
        expected = {
            1: 1308.2,
            11: 1305.3519273653985,
            16: 1303.9325363799871,
            21: 1302.5162288273712,
            64: 1290.4618160545847,
        }
        for index, nm in expected.items():
            assert channel_wavelength(index) == pytest.approx(nm, abs=1e-9)

    def test_spacing_is_uniform_in_frequency(self):
        from heraldsim.core import wavelength_to_frequency
        freqs = [wavelength_to_frequency(channel_wavelength(i) * 1e-9)
                 for i in range(1, CHANNEL_COUNT + 1)]
        for lo, hi in zip(freqs, freqs[1:]):
            assert hi - lo == pytest.approx(CHANNEL_SPACING_HZ, rel=1e-9)

    def test_wavelengths_decrease(self):
        wls = [channel_wavelength(i) for i in range(1, CHANNEL_COUNT + 1)]
        assert wls == sorted(wls, reverse=True)
        assert wls[0] == ANCHOR_WAVELENGTH_NM

    def test_index_bounds(self):
        for bad in (0, 65, -1, 1.5):
            with pytest.raises(ValueError):
                channel_wavelength(bad)


class TestWdmChannel:
    def test_defaults_to_grid_wavelength(self):
        assert WdmChannel(16).center_wavelength_nm == pytest.approx(
            channel_wavelength(16), abs=1e-12)

    def test_weight_validation(self):
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                WdmChannel(1, sfwm_weight=bad)

    def test_resolve_overrides(self):
        chan = WdmChannel(3, alpha_r=Transmittance(0.5), p_noise=0.01)
        resolved = chan.resolve(REF_CHANNEL)
        assert resolved.alpha_r.value == 0.5
        assert resolved.alpha_d.value == REF_CHANNEL.alpha_d.value
        assert resolved.p_noise == 0.01

    def test_resolve_inherits(self):
        resolved = WdmChannel(3).resolve(REF_CHANNEL)
        assert resolved == REF_CHANNEL


class TestChannelPlan:
    def test_sorts_by_index(self):
        plan = ChannelPlan((WdmChannel(21), WdmChannel(11)))
        assert [c.index for c in plan.channels] == [11, 21]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ChannelPlan((WdmChannel(1), WdmChannel(1)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChannelPlan(())

    def test_rejects_nonmonotonic_custom_wavelengths(self):
        with pytest.raises(ValueError):
            ChannelPlan((WdmChannel(1, center_wavelength_nm=1300.0),
                         WdmChannel(2, center_wavelength_nm=1301.0)))

    def test_from_dict_round_trip(self, tmp_path):
        data = {"channels": [
            {"index": 11, "sfwm_weight": 0.9, "alpha_r_db": -3.0},
            {"index": 16, "p_noise": 2e-5},
        ]}
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        plan = ChannelPlan.load(path)
        assert [c.index for c in plan.channels] == [11, 16]
        assert plan.channels[0].sfwm_weight == 0.9
        assert plan.channels[0].alpha_r.db == pytest.approx(-3.0, abs=1e-12)
        assert plan.channels[1].p_noise == 2e-5

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            ChannelPlan.from_dict({"channels": [{"index": 1, "loss_db": -3.0}]})

    def test_from_dict_requires_index(self):
        with pytest.raises(ValueError):
            ChannelPlan.from_dict({"channels": [{"sfwm_weight": 0.5}]})

    def test_from_dict_requires_channels(self):
        with pytest.raises(ValueError):
            ChannelPlan.from_dict({})

    def test_from_dict_rejects_unknown_top_level_keys(self):
        with pytest.raises(ValueError, match=r"unknown fields \['extra'\]"):
            ChannelPlan.from_dict({"channels": [{"index": 1}], "extra": 1})


class TestNoiseScan:
    def test_p_noise_from_scan(self):
        row = NoiseScanRow(1305.0, 974.0, 48.7e6)
        assert p_noise_from_scan(row) == pytest.approx(2e-5, rel=1e-12)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            NoiseScanRow(1305.0, -1.0, 48.7e6)
        with pytest.raises(ValueError):
            NoiseScanRow(1305.0, 48.7e6, 48.7e6)

    def test_load(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(",".join(NOISE_SCAN_COLUMNS)
                        + "\n1305.4,974,48700000\n1303.9,1320,48700000\n",
                        encoding="utf-8")
        rows = load_noise_scan(path)
        assert len(rows) == 2
        assert rows[1].noise_counts_per_s == 1320.0

    def test_load_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text("wavelength,counts,clock\n1305.4,974,48700000\n",
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_noise_scan(path)

    def test_load_reports_bad_row(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(",".join(NOISE_SCAN_COLUMNS) + "\n1305.4,abc,48700000\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="row 1"):
            load_noise_scan(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "scan.csv"
        path.write_text(",".join(NOISE_SCAN_COLUMNS) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_noise_scan(path)


class TestAggregate:
    def test_single_channel_matches_link_metrics(self):
        plan = ChannelPlan((WdmChannel(1),))
        agg = aggregate(plan, REF_SOURCE, REF_CHANNEL, REF_DETECTOR)
        row = agg.per_channel[0]
        lm = link_metrics(REF_SOURCE, REF_CHANNEL)
        assert row.metrics == lm
        assert row.rate_hz == pytest.approx(
            lm.p_t * lm.p_cond * REF_DETECTOR.pulse_rate_hz, rel=1e-12)
        assert agg.total_rate_hz == pytest.approx(row.rate_hz, rel=1e-12)
        assert agg.mean_qber == pytest.approx(lm.qber, rel=1e-12)

    def test_identical_channels_scale_totals(self):
        single = aggregate(ChannelPlan((WdmChannel(1),)),
                           REF_SOURCE, REF_CHANNEL, REF_DETECTOR)
        plan = ChannelPlan(tuple(WdmChannel(i) for i in range(1, 21)))
        agg = aggregate(plan, REF_SOURCE, REF_CHANNEL, REF_DETECTOR)
        assert len(agg.per_channel) == 20
        assert agg.total_rate_hz == pytest.approx(20 * single.total_rate_hz, rel=1e-12)
        assert agg.mean_qber == pytest.approx(single.mean_qber, rel=1e-12)

    def test_sfwm_weight_scales_mu(self):
        plan = ChannelPlan((WdmChannel(1, sfwm_weight=0.5),))
        agg = aggregate(plan, REF_SOURCE, REF_CHANNEL, REF_DETECTOR)
        import dataclasses
        halved = dataclasses.replace(REF_SOURCE, mu=REF_SOURCE.mu * 0.5)
        assert agg.per_channel[0].metrics == link_metrics(halved, REF_CHANNEL)

    def test_wcs_rate_uses_detection_prob(self):
        src = SourceSpec.wcs(0.11)
        agg = aggregate(ChannelPlan((WdmChannel(1),)), src, REF_CHANNEL, REF_DETECTOR)
        lm = link_metrics(src, REF_CHANNEL)
        assert agg.total_rate_hz == pytest.approx(
            lm.p_s * REF_DETECTOR.pulse_rate_hz, rel=1e-12)

    def test_mean_qber_is_rate_weighted(self):
        plan = ChannelPlan((WdmChannel(1, p_noise=1e-5),
                            WdmChannel(2, p_noise=1e-3)))
        agg = aggregate(plan, REF_SOURCE, REF_CHANNEL, REF_DETECTOR)
        rows = agg.per_channel
        expected = (sum(r.rate_hz * r.metrics.qber for r in rows)
                    / sum(r.rate_hz for r in rows))
        assert agg.mean_qber == pytest.approx(expected, rel=1e-12)
        assert rows[0].metrics.qber < agg.mean_qber < rows[1].metrics.qber

    def test_rows_record_resolved_link(self):
        plan = ChannelPlan((WdmChannel(1, sfwm_weight=0.5, p_noise=1e-3),))
        row = aggregate(plan, REF_SOURCE, REF_CHANNEL, REF_DETECTOR).per_channel[0]
        assert row.source.mu == pytest.approx(REF_SOURCE.mu * 0.5, rel=1e-15)
        assert row.source.beta == REF_SOURCE.beta
        assert row.channel_spec == ChannelSpec(REF_CHANNEL.alpha_r, REF_CHANNEL.alpha_d, 1e-3)
        assert row.metrics == link_metrics(row.source, row.channel_spec)

    def test_wcs_rows_stay_wcs(self):
        plan = ChannelPlan((WdmChannel(1, sfwm_weight=0.5),))
        row = aggregate(plan, SourceSpec.wcs(0.11), REF_CHANNEL, REF_DETECTOR).per_channel[0]
        assert row.source == SourceSpec.wcs(0.055)
