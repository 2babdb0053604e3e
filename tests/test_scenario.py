"""Scenario JSON loading, validation diagnostics, and sweep paths."""

import json

import pytest

from heraldsim.montecarlo import SimConfig
from heraldsim.scenario import (ScenarioError, build_scenario, load_scenario,
                                load_scenario_dict, numeric_leaf_paths, set_path)

HPS_SOURCE = {"kind": "hps", "mu": 0.11, "alpha_s_db": -6.5, "beta_db": -23.3}


def _write(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def _load(tmp_path, data):
    return load_scenario(_write(tmp_path, data))


class TestLoading:
    def test_minimal_hps(self, tmp_path):
        sc = _load(tmp_path, {"source": HPS_SOURCE})
        assert sc.config.source.kind == "hps"
        assert sc.config.source.alpha_s.db == pytest.approx(-6.5, abs=1e-12)
        assert sc.config.channel.loss == 1.0
        assert sc.config.detector.pulse_rate_hz == 48.7e6
        assert sc.config.n_slots == 1_000_000
        assert sc.plan_path is None

    def test_minimal_wcs(self, tmp_path):
        sc = _load(tmp_path, {"source": {"kind": "wcs", "mu": 0.11}})
        assert sc.config.source.kind == "wcs"
        assert sc.config.source.alpha_s is None

    def test_config_carries_simulation_fields(self, tmp_path):
        sc = _load(tmp_path, {"source": HPS_SOURCE,
                              "simulation": {"n_slots": 5000, "seed": 9}})
        assert isinstance(sc.config, SimConfig)
        assert sc.config.n_slots == 5000 and sc.config.seed == 9

    def test_plan_path_resolves_relative(self, tmp_path):
        path = _write(tmp_path, {"source": HPS_SOURCE, "plan": "plans/p.json"})
        sc = load_scenario(path)
        assert sc.plan_path == tmp_path / "plans" / "p.json"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError):
            load_scenario(path)


class TestValidationPaths:
    def test_missing_source(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"channel": {}})
        assert exc.value.path == "source"

    def test_unknown_top_level(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "receiver": {}})
        assert exc.value.path == "receiver"

    def test_bad_kind(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": {"kind": "led", "mu": 0.1}})
        assert exc.value.path == "source.kind"

    def test_both_linear_and_db(self, tmp_path):
        src = dict(HPS_SOURCE, alpha_s=0.2)
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": src})
        assert exc.value.path == "source.alpha_s"

    def test_missing_beta(self, tmp_path):
        src = {"kind": "hps", "mu": 0.11, "alpha_s_db": -6.5}
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": src})
        assert exc.value.path == "source.beta"

    def test_wcs_rejects_arm_fields(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": {"kind": "wcs", "mu": 0.1, "beta_db": -23.3}})
        assert exc.value.path == "source.beta_db"

    def test_unknown_channel_field(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "channel": {"loss_db": -13.0}})
        assert exc.value.path == "channel"

    def test_p_noise_range(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "channel": {"p_noise": 1.0}})
        assert exc.value.path == "channel.p_noise"

    def test_bad_noise_model(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE,
                             "simulation": {"noise_model": "uniform"}})
        assert exc.value.path == "simulation.noise_model"

    def test_wcs_with_herald_deadtime(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": {"kind": "wcs", "mu": 0.1},
                             "simulation": {"apply_herald_deadtime": True}})
        assert exc.value.path == "simulation.apply_herald_deadtime"

    def test_coupling_without_hbt(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE,
                             "simulation": {"hbt_noise_coupling": True}})
        assert exc.value.path == "simulation.hbt_noise_coupling"

    def test_boolean_flags_must_be_boolean(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE,
                             "simulation": {"hbt_enabled": 1}})
        assert exc.value.path == "simulation.hbt_enabled"

    def test_negative_n_slots(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE,
                             "simulation": {"n_slots": -5}})
        assert exc.value.path == "simulation.n_slots"

    def test_negative_mu(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": dict(HPS_SOURCE, mu=-0.1)})
        assert exc.value.path == "source.mu"

    def test_p_noise_must_be_a_number(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "channel": {"p_noise": False}})
        assert exc.value.path == "channel.p_noise"

    def test_negative_deadtime(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "detector": {"deadtime_s": -1e-6}})
        assert exc.value.path == "detector.deadtime_s"

    def test_seed_beyond_64_bits(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": HPS_SOURCE, "simulation": {"seed": 2 ** 64}})
        assert exc.value.path == "simulation.seed"


    @pytest.mark.parametrize("section,field,value", [
        ("source", "mu", True), ("source", "mu", "0.11"),
        ("source", "alpha_s_db", "x"), ("source", "beta", True),
        ("channel", "alpha_r", "0.5"), ("channel", "alpha_d_db", float("nan")),
        ("channel", "p_noise", "0.1"),
        ("detector", "pulse_rate_hz", True), ("detector", "deadtime_s", "1e-6"),
        ("simulation", "n_slots", 2.5), ("simulation", "n_slots", True),
        ("simulation", "seed", True), ("simulation", "seed", "3"),
        ("simulation", "apply_receiver_deadtime", "yes"),
        ("simulation", "apply_herald_deadtime", 0)])
    def test_mistyped_field_tagged_with_its_path(self, tmp_path, section, field, value):
        source = dict(HPS_SOURCE)
        if field == "beta":
            del source["beta_db"]
        data = {"source": source}
        data.setdefault(section, {})[field] = value
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, data)
        assert exc.value.path == f"{section}.{field}"

    def test_missing_kind(self, tmp_path):
        with pytest.raises(ScenarioError) as exc:
            _load(tmp_path, {"source": {"mu": 0.1}})
        assert exc.value.path == "source.kind"

    def test_integral_floats_become_ints(self, tmp_path):
        sc = _load(tmp_path, {"source": HPS_SOURCE,
                              "simulation": {"n_slots": 2e5, "seed": 3.0}})
        assert sc.config.n_slots == 200_000 and sc.config.seed == 3
        assert type(sc.config.n_slots) is int and type(sc.config.seed) is int


class TestSweepPaths:
    def test_numeric_leaf_paths(self, tmp_path):
        merged = load_scenario_dict(_write(tmp_path, {"source": HPS_SOURCE}))
        paths = numeric_leaf_paths(merged)
        assert "source.mu" in paths
        assert "source.alpha_s_db" in paths
        assert "channel.p_noise" in paths
        assert "detector.deadtime_s" in paths
        assert "simulation.n_slots" in paths
        assert "simulation.noise_model" not in paths
        assert "simulation.hbt_enabled" not in paths

    def test_set_path_replaces_value(self, tmp_path):
        merged = load_scenario_dict(_write(tmp_path, {"source": HPS_SOURCE}))
        out = set_path(merged, "source.mu", 0.2)
        assert out["source"]["mu"] == 0.2
        assert merged["source"]["mu"] == 0.11  # original untouched
        assert build_scenario(out).config.source.mu == 0.2

    def test_set_path_coerces_integer_leaves(self, tmp_path):
        merged = load_scenario_dict(_write(tmp_path, {"source": HPS_SOURCE}))
        n_slots = build_scenario(set_path(merged, "simulation.n_slots", 2e5)).config.n_slots
        assert n_slots == 200_000 and isinstance(n_slots, int)

    def test_seed_is_not_sweepable(self, tmp_path):
        merged = load_scenario_dict(_write(tmp_path, {"source": HPS_SOURCE}))
        assert "simulation.seed" not in numeric_leaf_paths(merged)
        with pytest.raises(ScenarioError, match="simulation.n_slots") as exc:
            set_path(merged, "simulation.seed", 3.0)
        assert exc.value.path == "simulation.seed"

    def test_set_path_unknown_lists_valid(self, tmp_path):
        merged = load_scenario_dict(_write(tmp_path, {"source": HPS_SOURCE}))
        with pytest.raises(ScenarioError, match="source.mu"):
            set_path(merged, "source.brightness", 1.0)
