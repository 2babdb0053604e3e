"""Monte Carlo cross-check of the closed-form link metrics.

Loads a reference scenario, runs the time-slot simulator, and lines the
estimates up against the analytic predictions with the z-scores of the
CLI's ``simulate`` z_score column (null standard errors).  Then it
shows the two properties the simulator guarantees: bit-identical
results for the same seed, and standard errors that shrink as the
square root of the slot count.

    python3 demos/simulator_cross_check.py
"""

from dataclasses import replace
from pathlib import Path

from heraldsim import analytic_std_errs, compare, load_scenario, simulate

SCENARIO = Path(__file__).parent / "data" / "scenario_reference.json"


def _opt(x, spec: str) -> str:
    return "-" if x is None else format(x, spec)


def z_table(cfg) -> None:
    print(f"{cfg.n_slots:,} slots, seed {cfg.seed}; z is in null standard errors")
    print(f"  {'quantity':>14}  {'estimate':>12}  {'std err':>10}  {'analytic':>12}  "
          f"{'null SE':>10}  {'z':>6}")
    for row in compare(simulate(cfg), cfg):
        print(f"  {row.quantity:>14}  {row.estimate:12.6g}  {row.std_err:10.3g}  "
              f"{_opt(row.analytic, '.6g'):>12}  {_opt(row.null_se, '.3g'):>10}  "
              f"{_opt(row.z, '+.2f'):>6}")


def determinism(cfg) -> None:
    a = simulate(cfg)
    b = simulate(cfg)
    print(f"\nsame seed, same counts: {a == b}")


def error_scaling(cfg) -> None:
    errs_1 = analytic_std_errs(cfg)
    errs_4 = analytic_std_errs(replace(cfg, n_slots=4 * cfg.n_slots))
    ratio = errs_1["p_cond"] / errs_4["p_cond"]
    print(f"4x the slots cuts the p_cond standard error by {ratio:.3f} (expect 2)")


def main() -> None:
    cfg = load_scenario(SCENARIO).config
    z_table(cfg)
    determinism(cfg)
    error_scaling(cfg)


if __name__ == "__main__":
    main()
