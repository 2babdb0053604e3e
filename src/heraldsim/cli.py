"""Command-line front end.

Subcommands: ``analyze`` (closed-form link report), ``simulate`` (Monte
Carlo estimates with z-scores against the closed forms), ``sweep``
(parameter scans to CSV), ``infer`` (source calibration from count
rates), ``reproduce`` (built-in reference checks with pass/fail exit
status), and ``wdm`` (channel-plan aggregation).

Output goes to stdout as a human table by default; ``--out`` writes a
file (CSV unless ``--format`` says otherwise).  Machine formats render
floats with 12 significant digits; non-finite values appear as ``inf``,
``-inf``, or ``nan`` (as JSON strings, since JSON has no literals for
them).  The environment variable ``HERALDSIM_SEED`` overrides the
scenario's seed; an explicit ``--seed`` flag beats both.  ``simulate``,
``sweep --simulate`` and ``wdm --simulate`` share one job runner:
``--workers N`` runs their simulations in up to N processes without
changing any output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import paper
from .calibration import MeasuredCounts, beta_mu_from_rate, calibrate_source, mu_from_g2
from .core import (DetectorSpec, Transmittance, _integer, _tagged, g2_predicted, linear_to_db,
                   link_metrics, psnr_gain, psnr_gain_approx, qber_from_psnr, rate_penalty)
from .montecarlo import (_MASK64, QUANTITIES, RunCounts, compare, derive_seed,
                         estimate_metrics, simulate)
from .scenario import (Scenario, ScenarioError, build_scenario, load_scenario,
                       load_scenario_dict, set_path)
from .wdm import ChannelPlan, aggregate, channel_wavelength

__all__ = ["main"]

SEED_ENV = "HERALDSIM_SEED"
MAX_REPLICAS = 1000

SWEEP_SIM_QUANTITIES = ("p_t", "p_cond", "psnr", "qber")
WDM_SIM_QUANTITIES = ("p_t", "p_cond", "qber")

# ---------------------------------------------------------------- formatting

def _fmt(x, digits: str = ".12g") -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, digits)
    return str(x)


def _json_cell(x):
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


def _render_table(header: tuple, rows: list, digits: str = ".6g") -> str:
    cells = [[_fmt(c, digits) for c in header]]
    cells += [[_fmt(c, digits) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    lines = []
    for j, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _render_csv(header: tuple, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(c) for c in row])
    return buf.getvalue()


def _render_json(header: tuple, rows: list, payload=None) -> str:
    if payload is None:
        payload = [dict(zip(header, (_json_cell(c) for c in row))) for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, header: tuple, rows: list, *, notes: tuple = (),
          extra_tables: tuple = (), json_payload=None) -> None:
    fmt = args.format or ("csv" if args.out else "table")
    if fmt == "table":
        text = _render_table(header, rows)
        for title, hdr, extra in extra_tables:
            text += f"\n{title}\n" + _render_table(hdr, extra)
        for note in notes:
            text += f"{note}\n"
    elif fmt == "csv":
        text = _render_csv(header, rows)
    else:
        text = _render_json(header, rows, json_payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _bounded(flag: str, value, lo: int, hi: float) -> int:
    """``value`` if it is an integer in [lo, hi], else an error naming ``flag``."""
    return _tagged("", _integer, flag, value, lo, hi)


def _check_flags(args) -> None:
    """Bound every integer flag the command takes, before any work.

    ``--slots``, ``--workers`` and ``--seed`` act only on simulations, so
    ``sweep`` and ``wdm`` refuse them without ``--simulate``.  A simulating
    command without ``--seed`` takes its base seed from ``HERALDSIM_SEED``
    here, if that is set.
    """
    simulating = getattr(args, "simulate", True)
    bounds = (("steps", 1, math.inf), ("replicas", 1, MAX_REPLICAS),
              ("slots", 1, math.inf), ("workers", 1, math.inf), ("seed", 0, _MASK64))
    for dest, lo, hi in bounds:
        value = getattr(args, dest, None)
        if value is None:
            continue
        if dest in ("slots", "workers", "seed") and not simulating:
            raise ScenarioError(f"--{dest}", "has no effect without --simulate")
        _bounded(f"--{dest}", value, lo, hi)
    env = os.environ.get(SEED_ENV)
    if "seed" in vars(args) and simulating and args.seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ScenarioError(SEED_ENV, f"must be an integer, got {env!r}") from None
        args.seed = _bounded(SEED_ENV, seed, 0, _MASK64)


def _pool_size(workers: int, n_jobs: int) -> int:
    """Worker processes for a run: never more than its jobs or the CPUs."""
    return min(workers, n_jobs, os.cpu_count() or 1)


def _run_jobs(args, jobs: list) -> tuple[list, list]:
    """Simulate ``(SimConfig, run index)`` jobs; return the configs run and their counts.

    The base seed is ``--seed`` (or ``HERALDSIM_SEED``, see ``_check_flags``),
    else the first job's seed.  Each job runs ``derive_seed(base, run index)``
    over ``--slots`` or its own ``n_slots`` slots.  With ``--workers N > 1``
    the jobs share one process pool; no result depends on N.
    """
    base_seed = args.seed if args.seed is not None else jobs[0][0].seed
    configs = [replace(cfg, n_slots=args.slots or cfg.n_slots,
                       seed=derive_seed(base_seed, index))
               for cfg, index in jobs]
    workers = _pool_size(args.workers or 1, len(configs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return configs, list(pool.map(simulate, configs))
    return configs, [simulate(cfg) for cfg in configs]


def _sim_header(quantities: tuple) -> tuple:
    return tuple(col for q in quantities for col in (f"sim_{q}", f"sim_{q}_se"))


def _sim_cells(counts: RunCounts, config, quantities: tuple) -> tuple:
    """``(estimate, std_err)`` per quantity; ``(None, None)`` where undefined."""
    est = estimate_metrics(counts, config)
    cells = ()
    for q in quantities:
        e = getattr(est, q)
        cells += (e.value, e.std_err) if e is not None else (None, None)
    return cells


# ---------------------------------------------------------------- analyze

def _analyze_rows(scenario: Scenario) -> tuple[tuple, list]:
    source, channel = scenario.config.source, scenario.config.channel
    metrics = link_metrics(source, channel)
    if source.kind == "wcs":
        header = ("metric", "value")
        rows = [
            ("p_s", metrics.p_s),
            ("psnr", metrics.psnr),
            ("qber", metrics.qber),
            ("qber_from_psnr", qber_from_psnr(metrics.psnr)),
        ]
        return header, rows
    header = ("metric", "hps", "wcs_baseline")
    rows = [
        ("p_s", None, metrics.p_s),
        ("p_t", metrics.p_t, None),
        ("p_cond", metrics.p_cond, None),
        ("heralding_efficiency", metrics.heralding_efficiency, None),
        ("psnr", metrics.psnr, metrics.psnr_wcs),
        ("qber", metrics.qber, metrics.qber_wcs),
        ("qber_from_psnr", qber_from_psnr(metrics.psnr), qber_from_psnr(metrics.psnr_wcs)),
        ("qber_delta", metrics.qber - metrics.qber_wcs, None),
        ("psnr_gain", metrics.psnr_gain, None),
        ("psnr_gain_approx", psnr_gain_approx(source), None),
        ("rate_penalty", metrics.rate_penalty, None),
        ("rate_penalty_db", linear_to_db(metrics.rate_penalty), None),
    ]
    return header, rows


def _cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    header, rows = _analyze_rows(scenario)
    _emit(args, header, rows)
    return 0


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    configs, counts = _run_jobs(args, [(scenario.config, i) for i in range(args.replicas)])
    pooled = RunCounts.merge(counts)
    pooled_config = replace(configs[0], n_slots=sum(c.n_slots for c in configs))
    header = ("quantity", "estimate", "std_err", "analytic", "z_score")
    rows = [(r.quantity, r.estimate, r.std_err, r.analytic, r.z)
            for r in compare(pooled, pooled_config)]

    extra_tables = ()
    json_payload = None
    if args.replicas > 1:
        rep_header = ("replica",) + QUANTITIES
        # every other cell of _sim_cells: the estimates without their SEs
        rep_rows = [(i,) + _sim_cells(c, cfg, QUANTITIES)[::2]
                    for i, (c, cfg) in enumerate(zip(counts, configs))]
        extra_tables = (("per-replica estimates", rep_header, rep_rows),)
        json_payload = {
            "pooled": [dict(zip(header, (_json_cell(c) for c in row))) for row in rows],
            "replicas": [dict(zip(rep_header, (_json_cell(c) for c in row)))
                         for row in rep_rows],
        }
    _emit(args, header, rows, extra_tables=extra_tables, json_payload=json_payload)
    return 0


# ---------------------------------------------------------------- sweep

def _sweep_values(args) -> list[float]:
    if args.steps == 1:
        return [args.start]
    if args.log:
        if args.start <= 0.0 or args.stop <= 0.0:
            raise ScenarioError("--log", "log grids need positive endpoints")
        ratio = (args.stop / args.start) ** (1.0 / (args.steps - 1))
        return [args.start * ratio ** i for i in range(args.steps)]
    step = (args.stop - args.start) / (args.steps - 1)
    return [args.start + step * i for i in range(args.steps)]


def _cmd_sweep(args) -> int:
    merged = load_scenario_dict(args.scenario)
    values = _sweep_values(args)
    grid = []
    for v in values:
        # set_path refuses an unsweepable --param at the first value, outside the try
        fragment = set_path(merged, args.param, v)
        try:
            grid.append(build_scenario(fragment).config)
        except ScenarioError as exc:
            raise ScenarioError(exc.path, f"{exc.message} (swept value {v!r})") from exc
    is_hps = grid[0].source.kind == "hps"
    if is_hps:
        header = (args.param, "p_s", "p_t", "p_cond", "heralding_efficiency",
                  "psnr", "qber", "psnr_gain", "psnr_gain_approx", "rate_penalty",
                  "psnr_wcs", "qber_wcs")
    else:
        header = (args.param, "p_s", "psnr", "qber")

    sim_cells = [()] * len(values)
    if args.simulate:
        configs, counts = _run_jobs(args, [(cfg, i) for i, cfg in enumerate(grid)])
        sim_cells = [_sim_cells(c, cfg, SWEEP_SIM_QUANTITIES)
                     for c, cfg in zip(counts, configs)]
        header += _sim_header(SWEEP_SIM_QUANTITIES)

    rows = []
    for v, cfg, cells in zip(values, grid, sim_cells):
        metrics = link_metrics(cfg.source, cfg.channel)
        if is_hps:
            row = (v, metrics.p_s, metrics.p_t, metrics.p_cond,
                   metrics.heralding_efficiency, metrics.psnr, metrics.qber,
                   metrics.psnr_gain, psnr_gain_approx(cfg.source),
                   metrics.rate_penalty, metrics.psnr_wcs, metrics.qber_wcs)
        else:
            row = (v, metrics.p_s, metrics.psnr, metrics.qber)
        rows.append(row + cells)
    _emit(args, header, rows)
    return 0


# ---------------------------------------------------------------- infer

def _cmd_infer(args) -> int:
    detector = DetectorSpec(pulse_rate_hz=args.pulse_rate, deadtime_s=args.deadtime)
    measured = MeasuredCounts(args.rate, detector, g2=args.g2)
    notes = []
    if args.beta_db is not None:
        result = calibrate_source(measured, Transmittance.from_db(args.beta_db))
        rows = [("beta_mu", result.beta_mu), ("mu_from_rate", result.mu_from_rate)]
        if result.mu_from_g2 is not None:
            rows += [("mu_from_g2", result.mu_from_g2), ("mismatch", result.mismatch),
                     ("consistency", "warning" if result.warning else "ok")]
            if result.warning:
                notes.append(f"note: {result.warning}")
    else:
        beta_mu = beta_mu_from_rate(measured)
        rows = [("beta_mu", beta_mu)]
        if args.g2 is not None:
            rows.append(("mu_from_g2", mu_from_g2(args.g2, beta_mu)))
    _emit(args, ("quantity", "value"), rows, notes=tuple(notes))
    return 0


# ---------------------------------------------------------------- reproduce

def _row_abs(name: str, expected: float, actual: float, tol: float) -> tuple:
    status = "PASS" if abs(actual - expected) <= tol else "FAIL"
    return (name, expected, actual, tol, status)


def _row_bound(name: str, bound_text: str, actual: float, ok: bool) -> tuple:
    return (name, bound_text, actual, "strict", "PASS" if ok else "FAIL")


def _preset_fig7() -> list:
    rows = []
    hps_qber_pcts = []
    failing_wcs_qber_pcts = []
    for point in paper.FIG7_CHANNELS:
        label = f"channel{point.index}"
        metrics = link_metrics(paper.REFERENCE_SOURCE, point.channel)
        qber_hps_pct = 100.0 * qber_from_psnr(metrics.psnr)
        qber_wcs_pct = 100.0 * qber_from_psnr(point.psnr_wcs)
        rows.append(_row_abs(f"{label}.psnr_hps", point.psnr_hps, metrics.psnr, 0.05))
        rows.append(_row_abs(f"{label}.qber_hps_pct", point.qber_hps_pct, qber_hps_pct, 0.1))
        rows.append(_row_abs(f"{label}.qber_wcs_pct", point.qber_wcs_pct, qber_wcs_pct, 0.1))
        hps_qber_pcts.append(qber_hps_pct)
        if point.psnr_wcs < paper.PSNR_FAIL:
            failing_wcs_qber_pcts.append(qber_wcs_pct)
    # narrative claims: heralding keeps QBER workable where the WCS link fails
    worst_hps = max(hps_qber_pcts)
    rows.append(_row_bound("hps_qber_max_pct", f"< {paper.QBER_OK_PCT}", worst_hps,
                           worst_hps < paper.QBER_OK_PCT))
    if failing_wcs_qber_pcts:
        worst_wcs = min(failing_wcs_qber_pcts)
        rows.append(_row_bound(f"wcs_qber_pct_where_psnr_below_{paper.PSNR_FAIL}",
                               f"> {paper.QBER_FAIL_PCT}", worst_wcs,
                               worst_wcs > paper.QBER_FAIL_PCT))
    return rows


def _preset_chi_table() -> list:
    rows = []
    for alpha_s, expected in paper.CHI_TABLE:
        source = replace(paper.REFERENCE_SOURCE, alpha_s=alpha_s)
        label = f"psnr_gain.alpha_s_{_fmt(alpha_s.value, '.3g')}"
        rows.append(_row_abs(label, expected, psnr_gain(source), 0.01))
    penalty_db = linear_to_db(rate_penalty(paper.REFERENCE_SOURCE))
    rows.append(_row_abs("rate_penalty_db", paper.RATE_PENALTY_DB, penalty_db, 0.05))
    return rows


def _preset_appendix_b() -> list:
    measured = MeasuredCounts(paper.APPENDIX_B_HERALD_RATE_HZ, paper.REFERENCE_DETECTOR)
    result = calibrate_source(measured, paper.REFERENCE_SOURCE.beta)
    rows = [_row_abs("mu_from_rate", paper.APPENDIX_B_MU, result.mu_from_rate, 0.005)]
    g2_ref = g2_predicted(paper.REFERENCE_SOURCE)
    rows.append(_row_abs("g2_at_reference_mu", paper.APPENDIX_B_G2, g2_ref, 0.001))
    mu_back = mu_from_g2(g2_predicted(result.source), result.beta_mu)
    rel = abs(mu_back - result.mu_from_rate) / result.mu_from_rate
    rows.append(_row_bound("mu_g2_roundtrip_rel_err", "< 1e-9", rel, rel < 1e-9))
    return rows


def _preset_grid() -> list:
    return [_row_abs(f"channel{idx}.wavelength_nm", nm, channel_wavelength(idx), 0.1)
            for idx, nm in paper.GRID_WAVELENGTHS_NM]


PRESETS = {
    "fig7": _preset_fig7,
    "chi-table": _preset_chi_table,
    "appendixB": _preset_appendix_b,
    "grid": _preset_grid,
}


def _cmd_reproduce(args) -> int:
    rows = PRESETS[args.preset]()
    failed = [r for r in rows if r[4] != "PASS"]
    notes = (f"{len(rows) - len(failed)}/{len(rows)} checks passed",)
    _emit(args, ("check", "expected", "actual", "tolerance", "status"), rows,
          notes=notes)
    return 0 if not failed else 1


# ---------------------------------------------------------------- wdm

def _cmd_wdm(args) -> int:
    plan_arg, scenario_arg = args.plan, args.scenario
    if scenario_arg is None:
        plan_arg, scenario_arg = None, plan_arg
    scenario = load_scenario(scenario_arg)
    plan_path = Path(plan_arg) if plan_arg is not None else scenario.plan_path
    if plan_path is None:
        raise ScenarioError("plan", "no plan file given and the scenario names none")
    try:
        plan = ChannelPlan.load(plan_path)
    except OSError as exc:
        raise ScenarioError("plan", f"cannot read {plan_path}: {exc}") from exc
    except ValueError as exc:
        raise ScenarioError("plan", f"{plan_path}: {exc}") from exc

    base = scenario.config
    agg = aggregate(plan, base.source, base.channel, base.detector)
    header = ("channel", "wavelength_nm", "p_t", "p_cond", "psnr", "qber", "rate_hz")
    rows = [(row.channel.index, row.channel.center_wavelength_nm, row.metrics.p_t,
             row.metrics.p_cond, row.metrics.psnr, row.metrics.qber, row.rate_hz)
            for row in agg.per_channel]
    totals = ("total", None, None, None, None, agg.mean_qber, agg.total_rate_hz)
    if args.simulate:
        # run index = channel index, so no estimate depends on plan order
        jobs = [(replace(base, source=row.source, channel=row.channel_spec),
                 row.channel.index) for row in agg.per_channel]
        configs, counts = _run_jobs(args, jobs)
        rows = [cells + _sim_cells(c, cfg, WDM_SIM_QUANTITIES)
                for cells, c, cfg in zip(rows, counts, configs)]
        sim_columns = _sim_header(WDM_SIM_QUANTITIES)
        header += sim_columns
        totals += (None,) * len(sim_columns)
    rows.append(totals)
    _emit(args, header, rows)
    return 0


# ---------------------------------------------------------------- parser

def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return _integer("value", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write output to PATH (default format: csv)")
    parser.add_argument("--format", choices=("table", "csv", "json"), default=None,
                        help="output format (default: table to stdout, csv to --out)")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slots", type=_int_arg, default=None,
                        help="override simulation.n_slots")
    parser.add_argument("--seed", type=_int_arg, default=None,
                        help="base RNG seed (beats HERALDSIM_SEED and the scenario)")
    parser.add_argument("--workers", type=_int_arg, default=None,
                        help="run independent simulations in up to N worker processes "
                             "(at most one per job and per CPU)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Link analytics and Monte Carlo simulation for heralded-photon "
                    "QKD over noisy fiber channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="closed-form link metrics for a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo estimates vs the closed forms")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--replicas", type=_int_arg, default=1,
                   help=f"independent runs pooled into the estimates (1 to {MAX_REPLICAS})")
    _add_sim_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="scan one scenario parameter")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--param", required=True,
                   help="dotted path of a numeric scenario field, e.g. channel.p_noise")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=_int_arg, required=True)
    p.add_argument("--log", action="store_true", help="geometric instead of linear grid")
    p.add_argument("--simulate", action="store_true",
                   help="add Monte Carlo estimate columns per grid point")
    _add_sim_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("infer", help="source calibration from herald counts")
    p.add_argument("--rate", type=float, required=True, help="observed herald rate in Hz")
    p.add_argument("--deadtime", type=float, required=True, help="detector deadtime in s")
    p.add_argument("--pulse-rate", dest="pulse_rate", type=float, required=True,
                   help="pump pulse rate in Hz")
    p.add_argument("--g2", type=float, default=None, help="measured heralded g2(0)")
    p.add_argument("--beta-db", dest="beta_db", type=float, default=None,
                   help="herald-arm transmittance in dB")
    _add_output_flags(p)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("reproduce", help="built-in reference checks")
    p.add_argument("preset", choices=sorted(PRESETS))
    _add_output_flags(p)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("wdm", help="aggregate a WDM channel plan")
    p.add_argument("plan", help="channel plan JSON (or the scenario, if it names a plan)")
    p.add_argument("scenario", nargs="?", default=None, help="scenario JSON file")
    p.add_argument("--simulate", action="store_true",
                   help="add Monte Carlo estimate columns per channel")
    _add_sim_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=_cmd_wdm)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
