"""End-to-end CLI behavior: formats, determinism, seeds, and exit codes."""

import csv
import io
import json
import os

import pytest

from heraldsim import cli
from heraldsim.cli import main
from heraldsim.core import Transmittance
from heraldsim.paper import FIG7_CHANNELS, PULSE_RATE_HZ

REF_SOURCE_JSON = {"kind": "hps", "mu": 0.11, "alpha_s_db": -6.5, "beta_db": -23.3}


def _scenario(tmp_path, name="scenario.json", **sections):
    data = {"source": dict(REF_SOURCE_JSON)}
    data.update(sections)
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


class TestAnalyze:
    def test_table_to_stdout(self, capsys, tmp_path):
        path = _scenario(tmp_path, channel={"alpha_r_db": -13.0, "p_noise": 1e-3})
        code, out, err = _run(capsys, "analyze", path)
        assert code == 0 and err == ""
        assert out.splitlines()[0].split() == ["metric", "hps", "wcs_baseline"]
        assert "psnr_gain" in out

    def test_reference_channel_values(self, capsys, tmp_path):
        # channel 16: p_noise tuned so the same-mu WCS baseline sits at PSNR 4.06
        channel = FIG7_CHANNELS[1].channel
        path = _scenario(tmp_path, channel={"alpha_r": channel.alpha_r.value,
                                            "p_noise": channel.p_noise})
        code, out, _ = _run(capsys, "analyze", path, "--format", "csv")
        _, rows = _parse_csv(out)
        by_metric = {r["metric"]: r for r in rows}
        assert float(by_metric["psnr"]["hps"]) == pytest.approx(9.18, abs=0.05)
        assert float(by_metric["psnr"]["wcs_baseline"]) == pytest.approx(4.06, rel=1e-9)
        assert 100 * float(by_metric["qber_from_psnr"]["hps"]) == pytest.approx(4.9, abs=0.1)
        gain = float(by_metric["psnr_gain"]["hps"])
        assert gain == pytest.approx(2.26, abs=0.01)

    def test_wcs_rows(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        data = json.loads((tmp_path / "scenario.json").read_text())
        data["source"] = {"kind": "wcs", "mu": 0.11}
        (tmp_path / "scenario.json").write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = _run(capsys, "analyze", path, "--format", "csv")
        header, rows = _parse_csv(out)
        assert header == ["metric", "value"]
        assert [r["metric"] for r in rows] == ["p_s", "psnr", "qber", "qber_from_psnr"]

    def test_out_defaults_to_csv(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        out_file = tmp_path / "report.csv"
        code, out, _ = _run(capsys, "analyze", path, "--out", str(out_file))
        assert code == 0 and out == ""
        header, _ = _parse_csv(out_file.read_text(encoding="utf-8"))
        assert header == ["metric", "hps", "wcs_baseline"]

    def test_json_renders_inf_as_string(self, capsys, tmp_path):
        path = _scenario(tmp_path)  # p_noise defaults to 0 -> psnr is inf
        code, out, _ = _run(capsys, "analyze", path, "--format", "json")
        rows = json.loads(out)
        psnr = next(r for r in rows if r["metric"] == "psnr")
        assert psnr["hps"] == "inf"

    def test_machine_precision(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, _ = _run(capsys, "analyze", path, "--format", "csv")
        _, rows = _parse_csv(out)
        p_t = next(r for r in rows if r["metric"] == "p_t")["hps"]
        assert len(p_t.replace("-", "").replace(".", "").replace("e", "").lstrip("0")) >= 9
        assert float(p_t) == pytest.approx(0.000514376318534796, rel=1e-11)

    def test_overflowing_db_exits_2(self, capsys, tmp_path):
        path = _scenario(tmp_path, channel={"alpha_r_db": 4000})
        code, out, err = _run(capsys, "analyze", path)
        assert code == 2 and out == ""
        assert err.startswith("error: channel.alpha_r_db:")

    def test_missing_scenario_exits_2(self, capsys, tmp_path):
        code, out, err = _run(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def test_csv_schema_and_z_scores(self, capsys, tmp_path):
        path = _scenario(tmp_path, channel={"p_noise": 1e-2},
                         simulation={"n_slots": 1_000_000, "seed": 3})
        code, out, _ = _run(capsys, "simulate", path, "--format", "csv")
        header, rows = _parse_csv(out)
        assert header == ["quantity", "estimate", "std_err", "analytic", "z_score"]
        by_q = {r["quantity"]: r for r in rows}
        for q in ("p_t", "p_cond", "qber", "herald_rate_hz"):
            assert q in by_q
        for q in ("p_t", "p_cond"):
            assert abs(float(by_q[q]["z_score"])) < 5.0

    def test_hps_without_pairs_reports_herald_rows_only(self, capsys, tmp_path):
        # mu = 0 never heralds; with HBT on, the g2 prediction is undefined too
        path = _scenario(tmp_path, source={**REF_SOURCE_JSON, "mu": 0.0},
                         channel={"p_noise": 1e-3},
                         simulation={"n_slots": 10_000, "hbt_enabled": True})
        code, out, err = _run(capsys, "simulate", path, "--format", "csv")
        assert code == 0 and err == ""
        assert [r["quantity"] for r in _parse_csv(out)[1]] == ["p_t", "herald_rate_hz"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = _scenario(tmp_path, channel={"alpha_r_db": -6.5, "p_noise": 1e-3},
                         simulation={"n_slots": 200_000, "seed": 12,
                                     "hbt_enabled": True,
                                     "apply_herald_deadtime": True,
                                     "apply_receiver_deadtime": True})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert _run(capsys, "simulate", path, "--replicas", "2", "--out", str(a))[0] == 0
        assert _run(capsys, "simulate", path, "--replicas", "2", "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_workers_do_not_change_results(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 100_000, "seed": 4})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _run(capsys, "simulate", path, "--replicas", "2", "--out", str(a))
        _run(capsys, "simulate", path, "--replicas", "2", "--workers", "2",
             "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_replicas_pool_counts(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000_000, "seed": 6})
        code, single, _ = _run(capsys, "simulate", path, "--format", "csv")
        code, pooled, _ = _run(capsys, "simulate", path, "--replicas", "4",
                               "--format", "csv")
        se_1 = float(next(r for r in _parse_csv(single)[1]
                          if r["quantity"] == "p_t")["std_err"])
        se_4 = float(next(r for r in _parse_csv(pooled)[1]
                          if r["quantity"] == "p_t")["std_err"])
        assert se_4 == pytest.approx(se_1 / 2.0, rel=0.2)

    def test_replica_json_payload(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 50_000, "seed": 6})
        code, out, _ = _run(capsys, "simulate", path, "--replicas", "3",
                            "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"pooled", "replicas"}
        assert len(payload["replicas"]) == 3
        assert payload["replicas"][0]["replica"] == 0

    def test_replica_table_section(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 50_000, "seed": 6})
        code, out, _ = _run(capsys, "simulate", path, "--replicas", "2")
        assert "per-replica estimates" in out

    def test_env_seed_changes_results(self, capsys, tmp_path, monkeypatch):
        path = _scenario(tmp_path, simulation={"n_slots": 100_000, "seed": 4})
        monkeypatch.setenv("HERALDSIM_SEED", "101")
        _, out_a, _ = _run(capsys, "simulate", path, "--format", "csv")
        monkeypatch.setenv("HERALDSIM_SEED", "102")
        _, out_b, _ = _run(capsys, "simulate", path, "--format", "csv")
        assert out_a != out_b

    def test_seed_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        path = _scenario(tmp_path, simulation={"n_slots": 100_000, "seed": 4})
        _, plain, _ = _run(capsys, "simulate", path, "--seed", "7", "--format", "csv")
        monkeypatch.setenv("HERALDSIM_SEED", "999")
        _, with_env, _ = _run(capsys, "simulate", path, "--seed", "7", "--format", "csv")
        assert plain == with_env

    def test_invalid_env_seed_exits_2(self, capsys, tmp_path, monkeypatch):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        monkeypatch.setenv("HERALDSIM_SEED", "not-a-number")
        code, out, err = _run(capsys, "simulate", path)
        assert code == 2 and "HERALDSIM_SEED" in err

    @pytest.mark.parametrize("flag,value", [
        ("--slots", "1e5"), ("--replicas", "2.0"), ("--workers", "2.0")])
    def test_integer_flags_accept_integral_floats(self, capsys, tmp_path, flag, value):
        path = _scenario(tmp_path, simulation={"n_slots": 10, "seed": 4})
        code, out, _ = _run(capsys, "simulate", path, flag, value, "--format", "json")
        assert code == 0

    @pytest.mark.parametrize("flag,value", [
        ("--replicas", "0"), ("--replicas", str(cli.MAX_REPLICAS + 1)),
        ("--slots", "0"), ("--workers", "0"), ("--workers", "-3"),
        ("--seed", "-1"), ("--seed", str(2**64))])
    def test_resource_flag_out_of_range_names_flag(self, capsys, tmp_path, monkeypatch,
                                                   flag, value):
        # SimConfig and derive_seed bound --slots and --seed as the jobs are
        # built, before any runs; --slots 0 must not fall back to n_slots
        monkeypatch.setattr(cli, "simulate", None)
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"channels": [{"index": 11}]}), encoding="utf-8")
        argvs = [["simulate", path]]
        if flag != "--replicas":
            argvs += [["sweep", path, "--param", "source.mu", "--from", "0.1", "--to", "0.2",
                       "--steps", "2", "--simulate"], ["wdm", str(plan), path, "--simulate"]]
        errs = set()
        for argv in argvs:
            code, out, err = _run(capsys, *argv, flag, value)
            assert code == 2 and out == ""
            assert err.startswith(f"error: {flag}:")
            errs.add(err)
        assert len(errs) == 1, errs

    def test_out_of_range_env_seed_names_variable(self, capsys, tmp_path, monkeypatch):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        monkeypatch.setenv("HERALDSIM_SEED", "-5")
        code, out, err = _run(capsys, "simulate", path)
        assert code == 2 and out == ""
        assert err.startswith("error: HERALDSIM_SEED:") and "-5" in err

    @pytest.mark.parametrize("command", ["sweep", "wdm"])
    @pytest.mark.parametrize("flag,value", [
        ("--slots", "1000"), ("--slots", "0"), ("--workers", "2"), ("--workers", "-3"),
        ("--seed", "7")])
    def test_simulation_flags_need_simulate(self, capsys, tmp_path, command, flag, value):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"channels": [{"index": 11}]}), encoding="utf-8")
        argv = {"sweep": ["sweep", path, "--param", "source.mu", "--from", "0.1",
                          "--to", "0.2", "--steps", "2"],
                "wdm": ["wdm", str(plan), path]}[command]
        code, out, err = _run(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}:") and "--simulate" in err

    def test_max_replicas_accepted(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_REPLICAS", 3)
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        assert _run(capsys, "simulate", path, "--replicas", "3", "--format", "csv")[0] == 0
        assert _run(capsys, "simulate", path, "--replicas", "4")[0] == 2


class TestWorkers:
    def test_pool_size_is_clamped(self, monkeypatch):
        # pure arithmetic: no pool is started for any of these
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert cli._pool_size(10 ** 6, 3) == 3
        assert cli._pool_size(10 ** 6, 10 ** 6) == 4
        assert cli._pool_size(2, 10 ** 6) == 2
        assert cli._pool_size(1, 8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._pool_size(10 ** 6, 8) == 1

    def test_wdm_simulate_uses_the_pool(self, capsys, tmp_path, monkeypatch):
        built = []

        class SerialPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        scenario = _scenario(tmp_path, simulation={"n_slots": 5_000, "seed": 5})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"channels": [{"index": 11}, {"index": 16}]}),
                        encoding="utf-8")
        argv = ["wdm", str(plan), scenario, "--simulate", "--format", "csv"]
        _, serial, _ = _run(capsys, *argv)
        assert built == []
        _, pooled, _ = _run(capsys, *argv, "--workers", "2")
        assert built == [2]
        _, clamped, _ = _run(capsys, *argv, "--workers", "8")
        assert built == [2, 2]
        assert serial == pooled == clamped

    def test_sweep_simulate_worker_count_invariant(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 20_000, "seed": 8})
        argv = ["sweep", path, "--param", "source.mu", "--from", "0.05", "--to", "0.3",
                "--steps", "3", "--simulate", "--format", "csv"]
        _, one, _ = _run(capsys, *argv, "--workers", "1")
        _, two, _ = _run(capsys, *argv, "--workers", "2")
        assert one == two

    def test_wdm_simulate_worker_count_invariant(self, capsys, tmp_path):
        scenario = _scenario(tmp_path, channel={"alpha_r_db": -6.5},
                             simulation={"n_slots": 20_000, "seed": 8})
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"channels": [{"index": 1, "sfwm_weight": 0.8},
                                                 {"index": 11, "p_noise": 1e-3}]}),
                        encoding="utf-8")
        argv = ["wdm", str(plan), scenario, "--simulate", "--format", "csv"]
        _, one, _ = _run(capsys, *argv, "--workers", "1")
        _, two, _ = _run(capsys, *argv, "--workers", "2")
        assert one == two


class TestSweep:
    def test_param_is_first_column(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, _ = _run(capsys, "sweep", path, "--param", "source.mu",
                            "--from", "0.05", "--to", "0.2", "--steps", "4",
                            "--format", "csv")
        header, rows = _parse_csv(out)
        assert header[0] == "source.mu"
        assert len(rows) == 4
        assert [float(r["source.mu"]) for r in rows] == pytest.approx(
            [0.05, 0.1, 0.15, 0.2])

    def test_gain_approx_column_matches_formula(self, capsys, tmp_path):
        alpha_s = Transmittance.from_db(-6.5).value
        path = _scenario(tmp_path, channel={"alpha_r_db": -30.0})
        code, out, _ = _run(capsys, "sweep", path, "--param", "source.mu",
                            "--from", "0.05", "--to", "0.2", "--steps", "4",
                            "--format", "csv")
        _, rows = _parse_csv(out)
        for r in rows:
            mu = float(r["source.mu"])
            expected = alpha_s / mu * (1.0 + mu)
            assert float(r["psnr_gain_approx"]) == pytest.approx(expected, rel=1e-9)
            assert float(r["psnr_gain"]) == pytest.approx(expected, rel=0.005)

    def test_single_step_matches_analyze(self, capsys, tmp_path):
        path = _scenario(tmp_path, channel={"alpha_r_db": -13.0, "p_noise": 1e-3})
        _, sweep_out, _ = _run(capsys, "sweep", path, "--param", "source.mu",
                               "--from", "0.11", "--to", "0.11", "--steps", "1",
                               "--format", "csv")
        _, analyze_out, _ = _run(capsys, "analyze", path, "--format", "csv")
        _, sweep_rows = _parse_csv(sweep_out)
        _, analyze_rows = _parse_csv(analyze_out)
        by_metric = {r["metric"]: r for r in analyze_rows}
        row = sweep_rows[0]
        for metric in ("p_s", "p_t", "p_cond", "psnr", "qber", "psnr_gain"):
            assert float(row[metric]) == pytest.approx(
                float(by_metric[metric]["hps"] or by_metric[metric]["wcs_baseline"]),
                rel=1e-11)

    def test_log_grid_is_geometric(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, _ = _run(capsys, "sweep", path, "--param", "channel.p_noise",
                            "--from", "1e-4", "--to", "1e-2", "--steps", "3",
                            "--log", "--format", "csv")
        _, rows = _parse_csv(out)
        values = [float(r["channel.p_noise"]) for r in rows]
        assert values == pytest.approx([1e-4, 1e-3, 1e-2], rel=1e-9)

    def test_noise_sweep_narrative(self, capsys, tmp_path):
        # where the WCS baseline crosses the 10% QBER line the heralded
        # link still sits below the 5.7% reference ceiling
        path = _scenario(tmp_path, channel={"alpha_r_db": -13.0})
        code, out, _ = _run(capsys, "sweep", path, "--param", "channel.p_noise",
                            "--from", "1e-4", "--to", "1e-2", "--steps", "25",
                            "--log", "--format", "csv")
        _, rows = _parse_csv(out)
        crossing = next(i for i, r in enumerate(rows)
                        if float(r["qber_wcs"]) > 0.10)
        assert crossing > 0
        assert float(rows[crossing - 1]["qber_wcs"]) <= 0.10
        for i in (crossing - 1, crossing):
            assert float(rows[i]["qber"]) < 0.057

    def test_wcs_sweep_columns(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        data = {"source": {"kind": "wcs", "mu": 0.11}}
        (tmp_path / "scenario.json").write_text(json.dumps(data), encoding="utf-8")
        code, out, _ = _run(capsys, "sweep", path, "--param", "source.mu",
                            "--from", "0.1", "--to", "0.2", "--steps", "2",
                            "--format", "csv")
        header, _ = _parse_csv(out)
        assert header == ["source.mu", "p_s", "psnr", "qber"]

    def test_simulate_columns(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 50_000, "seed": 3})
        code, out, _ = _run(capsys, "sweep", path, "--param", "source.mu",
                            "--from", "0.1", "--to", "0.2", "--steps", "2",
                            "--simulate", "--format", "csv")
        header, rows = _parse_csv(out)
        for col in ("sim_p_t", "sim_p_t_se", "sim_p_cond", "sim_p_cond_se",
                    "sim_psnr", "sim_psnr_se", "sim_qber", "sim_qber_se"):
            assert col in header
        assert float(rows[0]["sim_p_t"]) > 0.0

    def test_unknown_param_lists_valid_paths(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", "source.brightness",
                              "--from", "0.1", "--to", "0.2", "--steps", "2")
        assert code == 2
        assert "source.mu" in err

    def test_swept_seed_rejected(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        code, out, err = _run(capsys, "sweep", path, "--param", "simulation.seed",
                              "--from", "1", "--to", "5", "--steps", "2", "--simulate")
        assert code == 2 and out == ""
        assert "not a sweepable parameter" in err and "source.mu" in err

    def test_unsweepable_param_named_once(self, capsys, tmp_path):
        path = _scenario(tmp_path, simulation={"n_slots": 1_000})
        code, out, err = _run(capsys, "sweep", path, "--param", "simulation.seed",
                              "--from", "1", "--to", "5", "--steps", "3", "--simulate")
        assert code == 2 and out == ""
        assert err.startswith("error: simulation.seed: not a sweepable parameter")
        assert err.count("simulation.seed") == 1

    def test_invalid_grid_point_names_path_once(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", "channel.p_noise",
                              "--from", "0.5", "--to", "1.0", "--steps", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: channel.p_noise: ")
        assert err.count("channel.p_noise") == 1 and "1.0" in err

    def test_non_integral_slot_grid_names_range_and_value(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", "simulation.n_slots",
                              "--from", "1", "--to", "2.5", "--steps", "2")
        assert code == 2 and out == ""
        assert err == ("error: simulation.n_slots: must be an integer >= 1, got 2.5"
                       " (swept value 2.5)\n")

    @pytest.mark.parametrize("param,start,stop", [
        ("detector.deadtime_s", "0", "1e-5"), ("detector.pulse_rate_hz", "1e6", "2e6"),
        ("simulation.n_slots", "1000", "2000")])
    def test_simulation_param_needs_simulate(self, capsys, tmp_path, param, start, stop):
        # the closed-form columns would repeat one row for every grid value
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", param,
                              "--from", start, "--to", stop, "--steps", "2")
        assert code == 2 and out == ""
        assert err == f"error: --param: {param} has no effect without --simulate\n"

    def test_slots_flag_refused_when_sweeping_slots(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", "simulation.n_slots",
                              "--from", "1000", "--to", "4000", "--steps", "2",
                              "--simulate", "--seed", "1", "--slots", "500")
        assert code == 2 and out == ""
        assert err == "error: --slots: has no effect when --param is simulation.n_slots\n"

    def test_zero_steps_rejected(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        code, _, err = _run(capsys, "sweep", path, "--param", "source.mu",
                            "--from", "0.1", "--to", "0.2", "--steps", "0")
        assert code == 2

    def test_log_grid_needs_positive_endpoints(self, capsys, tmp_path):
        path = _scenario(tmp_path)
        # a one-point grid is checked too, though it needs no ratio
        for steps in ("3", "1"):
            code, _, err = _run(capsys, "sweep", path, "--param", "source.mu",
                                "--from", "0", "--to", "0.2", "--steps", steps, "--log")
            assert code == 2
            assert err.startswith("error: --log: log grids need positive endpoints")

    @pytest.mark.parametrize("start,stop,flag,value", [
        ("inf", "1", "--from", "inf"), ("0", "nan", "--to", "nan"),
        ("-inf", "1", "--from", "-inf"), ("0", "inf", "--to", "inf")])
    def test_non_finite_endpoint_names_flag(self, capsys, tmp_path, start, stop, flag, value):
        # a linear grid would turn inf + (-inf)*0 into a nan point
        path = _scenario(tmp_path)
        code, out, err = _run(capsys, "sweep", path, "--param", "channel.p_noise",
                              f"--from={start}", f"--to={stop}", "--steps", "3")
        assert code == 2 and out == ""
        assert err == f"error: {flag}: must be a finite number, got {value}\n"


class TestInfer:
    def test_rate_only(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--format", "csv")
        _, rows = _parse_csv(out)
        by_q = {r["quantity"]: r for r in rows}
        # h = r/f, p = h/(1 - 487 h), beta*mu = -ln(1 - p), in 50-digit mpmath
        assert float(by_q["beta_mu"]["value"]) == pytest.approx(
            0.00051347883028072349114, rel=1e-11)
        assert "mu_from_rate" not in by_q

    def test_with_beta_yields_mu(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--beta-db", "-23.3",
                            "--format", "csv")
        _, rows = _parse_csv(out)
        by_q = {r["quantity"]: r for r in rows}
        assert float(by_q["mu_from_rate"]["value"]) == pytest.approx(0.110, abs=0.005)

    def test_consistent_g2(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--beta-db", "-23.3",
                            "--g2", "0.188", "--format", "csv")
        _, rows = _parse_csv(out)
        by_q = {r["quantity"]: r for r in rows}
        assert float(by_q["mu_from_g2"]["value"]) == pytest.approx(0.110, abs=0.005)
        assert by_q["consistency"]["value"] == "ok"

    def test_mismatched_g2_warns(self, capsys, tmp_path):
        # g2 implying mu about 20% above the rate-derived value
        code, out, _ = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--beta-db", "-23.3",
                            "--g2", "0.2189")
        assert code == 0
        assert "note:" in out

    def test_gross_g2_mismatch_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--beta-db", "-23.3",
                            "--g2", "0.52")
        assert code == 2 and "error:" in err

    def test_zero_rate_beside_a_g2_exits_2(self, capsys, tmp_path):
        code, out, err = _run(capsys, "infer", "--rate", "0", "--deadtime", "10e-6",
                              "--pulse-rate", "48.7e6", "--g2", "0.1", "--beta-db", "-23.3")
        assert code == 2 and out == ""
        assert err.startswith("error: mu from rate (0) and from g2 (0.05409) disagree")

    def test_saturated_rate_exits_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, "infer", "--rate", "1e9", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6")
        assert code == 2 and "error:" in err
        assert err.startswith("error: --rate: must be below")
        assert "one herald per 488 slots" in err

    def test_g2_without_beta(self, capsys, tmp_path):
        code, out, _ = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                            "--pulse-rate", "48.7e6", "--g2", "0.188",
                            "--format", "csv")
        _, rows = _parse_csv(out)
        by_q = {r["quantity"]: r for r in rows}
        assert "mu_from_g2" in by_q and "mu_from_rate" not in by_q


class TestReproduce:
    @pytest.mark.parametrize("preset", ["fig7", "chi-table", "appendixB", "grid"])
    def test_presets_pass(self, capsys, preset):
        code, out, _ = _run(capsys, "reproduce", preset, "--format", "csv")
        assert code == 0
        _, rows = _parse_csv(out)
        assert rows and all(r["status"] == "PASS" for r in rows)

    def test_fig7_has_narrative_checks(self, capsys):
        code, out, _ = _run(capsys, "reproduce", "fig7", "--format", "csv")
        _, rows = _parse_csv(out)
        names = {r["check"] for r in rows}
        assert "hps_qber_max_pct" in names
        assert "wcs_qber_pct_where_psnr_below_4.0" in names
        assert len(rows) == 11

    def test_table_reports_tally(self, capsys):
        code, out, _ = _run(capsys, "reproduce", "grid")
        assert code == 0
        assert "5/5 checks passed" in out

    def test_unknown_preset_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "everything"])


class TestErrorRule:
    """A bad scenario or plan field exits 2 with ``<path>: must be ...``."""

    @pytest.mark.parametrize("path,value", [
        ("source.alpha_s", 1.5), ("source.alpha_s_db", "x"), ("channel.alpha_r_db", 1),
        ("channel.p_noise", 1.0), ("simulation.n_slots", 2.5),
        ("channels[0].alpha_r_db", 1), ("channels[0].p_noise", 1.0)])
    def test_field_error_names_its_path_once(self, capsys, tmp_path, path, value):
        section, field = path.split(".")
        sections, argv = {"source": dict(REF_SOURCE_JSON)}, ["analyze"]
        if section == "channels[0]":
            plan = tmp_path / "plan.json"
            plan.write_text(json.dumps({"channels": [{"index": 1, field: value}]}),
                            encoding="utf-8")
            argv = ["wdm", str(plan)]
        else:
            fragment = sections.setdefault(section, {})
            fragment.pop("alpha_s_db", None)  # alpha_s and alpha_s_db exclude each other
            fragment[field] = value
        code, out, err = _run(capsys, *argv, _scenario(tmp_path, **sections))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f" {path}: must be " in err
        assert err.count(path) == 1
        if field.endswith("_db"):  # the value the file gave, not its linear form
            assert err.endswith(f", got {value!r}\n")

    def test_db_flag_error_quotes_the_flag_and_its_db_value(self, capsys):
        code, out, err = _run(capsys, "infer", "--rate", "20e3", "--deadtime", "10e-6",
                              "--pulse-rate", "48.7e6", "--beta-db", "5")
        assert code == 2 and out == ""
        assert err == "error: --beta-db: must be a finite number <= 0, got 5.0\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--rate", "-1", "must be a finite number >= 0, got -1.0"),
        ("--deadtime", "nan", "must be a finite number >= 0, got nan"),
        ("--pulse-rate", "0", "must be a finite number > 0, got 0.0"),
        ("--g2", "1", "must be a finite number in [0, 1), got 1.0")])
    def test_infer_field_error_names_its_flag(self, capsys, flag, value, message):
        flags = {"--rate": "20e3", "--deadtime": "10e-6", "--pulse-rate": "48.7e6",
                 flag: value}
        code, out, err = _run(capsys, "infer", *(x for kv in flags.items() for x in kv))
        assert code == 2 and out == ""
        assert err == f"error: {flag}: {message}\n"

    def test_overflowing_deadtime_is_a_field_error(self, capsys, tmp_path):
        # 1e301 s spans more pulses than a float holds at any clock above 1.8e7 Hz
        path = _scenario(tmp_path, detector={"deadtime_s": 1e301},
                         simulation={"n_slots": 1000})
        for command in ("analyze", "simulate"):
            code, out, err = _run(capsys, command, path)
            assert code == 2 and out == ""
            assert err.startswith("error: detector.deadtime_s: must span a finite number")


class TestWdm:
    def _plan(self, tmp_path, channels, name="plan.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"channels": channels}), encoding="utf-8")
        return str(path)

    def test_single_channel_matches_analyze(self, capsys, tmp_path):
        scenario = _scenario(tmp_path, channel={"alpha_r_db": -13.0, "p_noise": 1e-4})
        plan = self._plan(tmp_path, [{"index": 1}])
        code, out, _ = _run(capsys, "wdm", plan, scenario, "--format", "csv")
        header, rows = _parse_csv(out)
        assert header == ["channel", "wavelength_nm", "p_t", "p_cond", "psnr",
                          "qber", "rate_hz"]
        assert len(rows) == 2 and rows[1]["channel"] == "total"
        _, analyze_out, _ = _run(capsys, "analyze", scenario, "--format", "csv")
        by_metric = {r["metric"]: r for r in _parse_csv(analyze_out)[1]}
        assert float(rows[0]["p_cond"]) == pytest.approx(
            float(by_metric["p_cond"]["hps"]), rel=1e-11)
        expected_rate = (float(by_metric["p_t"]["hps"])
                         * float(by_metric["p_cond"]["hps"]) * PULSE_RATE_HZ)
        assert float(rows[0]["rate_hz"]) == pytest.approx(expected_rate, rel=1e-9)
        assert float(rows[1]["rate_hz"]) == pytest.approx(expected_rate, rel=1e-9)

    def test_identical_channels_scale(self, capsys, tmp_path):
        scenario = _scenario(tmp_path, channel={"alpha_r_db": -13.0, "p_noise": 1e-4})
        single = self._plan(tmp_path, [{"index": 1}], name="one.json")
        many = self._plan(tmp_path, [{"index": i} for i in range(1, 21)],
                          name="many.json")
        _, out_one, _ = _run(capsys, "wdm", single, scenario, "--format", "csv")
        _, out_many, _ = _run(capsys, "wdm", many, scenario, "--format", "csv")
        total_one = float(_parse_csv(out_one)[1][-1]["rate_hz"])
        total_many = float(_parse_csv(out_many)[1][-1]["rate_hz"])
        assert total_many == pytest.approx(20 * total_one, rel=1e-9)

    def test_scenario_plan_reference(self, capsys, tmp_path):
        self._plan(tmp_path, [{"index": 11}, {"index": 16}])
        scenario = _scenario(tmp_path, plan="plan.json")
        code, out, _ = _run(capsys, "wdm", scenario, "--format", "csv")
        assert code == 0
        _, rows = _parse_csv(out)
        assert [r["channel"] for r in rows] == ["11", "16", "total"]

    def test_no_plan_anywhere_exits_2(self, capsys, tmp_path):
        scenario = _scenario(tmp_path)
        code, _, err = _run(capsys, "wdm", scenario)
        assert code == 2 and "plan" in err

    def test_simulate_columns_deterministic(self, capsys, tmp_path):
        scenario = _scenario(tmp_path, channel={"alpha_r_db": -6.5},
                             simulation={"n_slots": 100_000, "seed": 5})
        plan = self._plan(tmp_path, [{"index": 11}, {"index": 16}])
        code, out_a, _ = _run(capsys, "wdm", plan, scenario, "--simulate",
                              "--format", "csv")
        header, rows = _parse_csv(out_a)
        assert "sim_p_t" in header and "sim_qber_se" in header
        assert float(rows[0]["sim_p_t"]) > 0.0
        _, out_b, _ = _run(capsys, "wdm", plan, scenario, "--simulate",
                           "--format", "csv")
        assert out_a == out_b

    def test_simulate_independent_of_plan_order(self, capsys, tmp_path):
        scenario = _scenario(tmp_path, channel={"alpha_r_db": -6.5},
                             simulation={"n_slots": 100_000, "seed": 5})
        entries = [{"index": 11, "sfwm_weight": 0.9}, {"index": 21, "p_noise": 1e-3}]
        forward = self._plan(tmp_path, entries, name="forward.json")
        backward = self._plan(tmp_path, entries[::-1], name="backward.json")
        _, out_f, _ = _run(capsys, "wdm", forward, scenario, "--simulate",
                           "--format", "csv")
        _, out_b, _ = _run(capsys, "wdm", backward, scenario, "--simulate",
                           "--format", "csv")
        assert float(_parse_csv(out_f)[1][0]["sim_p_t"]) > 0.0
        assert out_f == out_b

    def test_fig7_noise_overrides(self, capsys, tmp_path):
        # per-channel p_noise values that pin the WCS baseline PSNR at the
        # three reference channels; heralded QBER then lands on the
        # reference percentages
        channels = [{"index": point.index, "p_noise": point.channel.p_noise}
                    for point in FIG7_CHANNELS]
        plan = self._plan(tmp_path, channels)
        scenario = _scenario(tmp_path, channel={"alpha_r": 1e-3})
        code, out, _ = _run(capsys, "wdm", plan, scenario, "--format", "csv")
        _, rows = _parse_csv(out)
        for row, expected_pct in zip(rows[:3], (5.7, 4.9, 5.4)):
            assert 100 * float(row["qber"]) == pytest.approx(expected_pct, abs=0.1)

    @pytest.mark.parametrize("entry,field", [
        ({"index": 1, "p_noise": "0.1"}, "p_noise"),
        ({"index": 1, "alpha_r_db": "x"}, "alpha_r_db"),
        ({"index": 1, "center_wavelength_nm": "x"}, "center_wavelength_nm"),
        ({"index": True}, "index"),
        ({"index": 1, "center_wavelength_nm": True}, "center_wavelength_nm")])
    def test_mistyped_plan_entry_exits_2(self, capsys, tmp_path, entry, field):
        scenario = _scenario(tmp_path)
        plan = self._plan(tmp_path, [entry])
        code, out, err = _run(capsys, "wdm", plan, scenario, "--format", "csv")
        assert code == 2 and out == ""
        assert err.startswith("error: plan: ") and f"channels[0].{field}: " in err
        assert "Traceback" not in err

    def test_broken_plan_exits_2(self, capsys, tmp_path):
        scenario = _scenario(tmp_path)
        bad = tmp_path / "plan.json"
        bad.write_text(json.dumps({"channels": [{"index": 1, "index_2": 5}]}),
                       encoding="utf-8")
        code, _, err = _run(capsys, "wdm", str(bad), scenario)
        assert code == 2 and "plan" in err
