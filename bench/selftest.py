"""Self-test of the benchmark harness at tiny slot counts.

Run from the repository root: ``python3 bench/selftest.py``.  Exits 0 when
every check passes and 1 otherwise.  It checks that:

- every workload, untraced and traced, prints each metric named in
  ``BENCHMARK.json`` (and ``failed_frac`` and ``z_outliers``) with its unit,
  and that no op fails;
- the z check flags a prediction shifted by ten standard errors;
- the CLI checks reject a nonzero exit, a malformed table, a failed
  ``reproduce`` row and a stdout that changes between repeats.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCALE = 1 / 256

problems: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_metric_output(spec: dict) -> None:
    import run

    for name in run.NAMES:
        for trace in (False, True):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.run_one(name, 0, 0.0, trace, scale=SCALE)
            lines = out.getvalue().splitlines()
            result = json.loads(lines[-1])
            wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            label = f"{name} trace {int(trace)}"
            expect(code == 0 and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: exit 0, ops attempted, none failed")
            expect(got == wanted, f"{label}: result metrics and units match BENCHMARK.json")
            printed = {tuple(line.split()[::2]) for line in lines if line.startswith("  ")}
            for metric, unit in {**wanted, **run.END_TO_END_COUNTS}.items():
                if (metric, unit) not in printed:
                    expect(False, f"{label}: {metric} printed with unit {unit}")


def check_z_trips() -> None:
    import checks
    import workloads
    from heraldsim import montecarlo

    op = workloads.build("hps-sparse", 0).ops[-2]
    cfg = replace(op.config, n_slots=200_000, seed=3)
    counts = montecarlo.simulate(cfg)
    est = montecarlo.estimate_metrics(counts, cfg)
    pred = montecarlo.analytic_predictions(cfg)
    errs = montecarlo.analytic_std_errs(cfg)
    clean = checks.check_estimates(est, pred, errs, cfg)
    expect(not clean.outliers(), "z check: no outlier against the true prediction")
    shifted = {**pred, "p_t": pred["p_t"] + 10 * errs["p_t"]}
    tripped = checks.check_estimates(est, shifted, errs, cfg)
    expect([q for q, _, _ in tripped.outliers()] == ["p_t"],
           "z check: p_t shifted by 10 SE is an outlier")


def check_cli_checks() -> None:
    import checks
    import workloads

    good = "quantity,value\nbeta_mu,0.5\n"
    expect(checks.check_cli("infer", "csv", 0, good).error is None, "cli check: good CSV passes")
    expect(checks.check_cli("infer", "csv", 2, good).error is not None,
           "cli check: nonzero exit fails")
    expect(checks.check_cli("infer", "csv", 0, good + "x\n").error is not None,
           "cli check: ragged CSV fails")
    failing = "check,expected,actual,tolerance,status\nrate,1,2,0.1,FAIL\n"
    expect(checks.check_cli("reproduce", "csv", 0, failing).error is not None,
           "cli check: a FAIL row of reproduce fails")

    class Flaky:
        label, slots, twin_of, calls = "flaky", 0, None, 0

        def run(self, pass_index):
            self.calls += 1
            return 0.0, checks.Outcome(), f"quantity,value\nx,{self.calls}\n"

    workload = workloads.Workload("flaky", [Flaky()])
    workload.run_op(0, 0)
    _, outcome, _ = workload.run_op(0, 1)
    expect(outcome.error is not None, "determinism check: changed stdout fails")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_z_trips()
    check_cli_checks()
    check_metric_output(spec)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
