"""heraldsim benchmark: end-to-end and per-layer metrics of three workloads.

Run from the repository root::

    python3 bench/run.py --workload hps-sparse --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

A run sets the workload up ``SETUP_SAMPLES`` times in fresh processes
(``setup_s``), runs one warm-up pass over its op list, then repeats the list
for ``--seconds`` and at least ``MIN_PASSES`` times.  Each pass reseeds the
library ops from ``--seed``; ``cli-mix`` repeats its fixed argv list, so every
stdout must match its first run.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics from
the traced ones; the difference between the two is ``trace.overhead_frac``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record (environment, sample counts,
failures, outliers) and, for traced runs, the spans are written under
``.bench_out/``.  ``--workload all`` runs every workload untraced and traced,
each in its own process.

The run exits 2 without a result when heraldsim cannot be imported from the
checkout's ``src`` directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
NAMES = ("hps-sparse", "wcs-dense", "cli-mix")

SETUP_SAMPLES = 7
MIN_PASSES = 11          # the op_tail sample sits inside the slowest op kind
MIN_TRACED_PASSES = 4
MAX_SECONDS = 120.0      # stop adding passes past this, whatever the minimum

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "slots_per_s": "1/s", "peak_rss_mb": "MB",
}
# End-to-end too, but 0 at baseline on some workloads, so they are printed and
# recorded rather than gated: failures also show in ``failed``.
END_TO_END_COUNTS = {"failed_frac": "fraction", "z_outliers": "count"}

# wdm and cli call into the other layers, so their own cost is the self time
PER_LAYER = {
    "montecarlo.simulate.busy_s": "s",
    "montecarlo.simulate.calls": "count",
    "montecarlo.estimate.busy_s": "s",
    "montecarlo.estimate.calls": "count",
    "scenario.busy_s": "s",
    "scenario.calls": "count",
    "core.busy_s": "s",
    "core.calls": "count",
    "calibration.busy_s": "s",
    "calibration.calls": "count",
    "wdm.self_s": "s",
    "wdm.calls": "count",
    "cli.self_s": "s",
    "cli.calls": "count",
    "montecarlo.simulate.slots": "count",
    "montecarlo.simulate.heralds": "count",
    "montecarlo.simulate.gated_slots": "count",
    "montecarlo.simulate.ns_per_slot": "ns",
    "montecarlo.simulate.gated_frac": "fraction",
    "montecarlo.simulate.ns_per_gated": "ns",
    "montecarlo.simulate.per_call_s": "s",
    "montecarlo.simulate.wall_frac": "fraction",
    "wdm.channels": "count",
    "cli.bytes_out": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "check.z_outliers": "count",
}


@dataclass
class PassResult:
    traced: bool
    wall: float
    times: list
    outcomes: list
    bytes_out: int
    spans: tuple = (0, 0)
    counts: Counter | None = None


def run_pass(workload, pass_index: int, tracer=None) -> PassResult:
    times, outcomes, bytes_out = [], [], 0
    if tracer is not None:
        tracer.install()
        tracer.counts = Counter()
        first_span = len(tracer.spans)
    try:
        started = perf_counter()
        for i in range(len(workload.ops)):
            if tracer is not None:
                tracer.op = (pass_index, i)
            elapsed, outcome, nbytes = workload.run_op(i, pass_index)
            times.append(elapsed)
            outcomes.append(outcome)
            bytes_out += nbytes
        wall = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = PassResult(tracer is not None, wall, times, outcomes, bytes_out)
    if tracer is not None:
        result.spans = (first_span, len(tracer.spans))
        result.counts = tracer.counts
    return result


def measure(workload, seconds: float, trace: bool, tracer) -> tuple:
    """Warm-up pass, then passes until ``seconds`` and the minimum counts."""
    started = perf_counter()
    warm = run_pass(workload, 0)
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes) + 1, tracer if traced else None))
        n_traced = sum(p.traced for p in passes)
        n_plain = len(passes) - n_traced
        enough = (min(n_plain, n_traced) >= MIN_TRACED_PASSES if trace
                  else n_plain >= MIN_PASSES)
        elapsed = perf_counter() - started
        if (enough and elapsed >= seconds) or (elapsed >= MAX_SECONDS and len(passes) >= 4):
            return warm, passes


def tail(samples: list) -> tuple:
    """Sample at the highest percentile with ten samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def setup_times(workload: str, seed: int) -> list:
    probe = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def end_to_end(workload, passes: list, setup: list) -> tuple:
    times = [t for p in passes for t in p.times]
    slots = sum(op.slots for op in workload.ops)
    tail_value, tail_pct, beyond = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_value,
        "slots_per_s": statistics.median(slots / sum(p.times) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": {"median_of": len(setup), "values": setup},
        "wall_s": {"median_of_passes": len(passes), "values": [p.wall for p in passes]},
        "op_p50_s": {"median_of_ops": len(times)},
        "op_tail_s": {"percentile": tail_pct, "ops": len(times), "ops_beyond": beyond},
        "slots_per_s": {"median_of_passes": len(passes), "slots_per_pass": slots},
    }
    return metrics, samples


def per_layer(tracer, passes: list) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    rows = []
    for p in traced:
        totals = tracing.layer_totals(tracer.spans, *p.spans)
        row = {f"{layer}.{kind}": value for layer, kinds in totals.items()
               for kind, value in kinds.items()}
        sim, c = totals["montecarlo.simulate"], p.counts
        row.update({
            "montecarlo.simulate.slots": c["slots"],
            "montecarlo.simulate.heralds": c["heralds"],
            "montecarlo.simulate.gated_slots": c["gated_slots"],
            "montecarlo.simulate.ns_per_slot": _ratio(sim["busy_s"] * 1e9, c["slots"]),
            "montecarlo.simulate.gated_frac": _ratio(c["gated_slots"], c["slots"]),
            "montecarlo.simulate.ns_per_gated": _ratio(sim["busy_s"] * 1e9, c["gated_slots"]),
            "montecarlo.simulate.per_call_s": _ratio(sim["busy_s"], sim["calls"]),
            "montecarlo.simulate.wall_frac": sim["busy_s"] / p.wall,
            "wdm.channels": c["channels"],
            "cli.bytes_out": p.bytes_out,
        })
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows) for name in PER_LAYER
               if name in rows[0]}
    traced_wall = statistics.median(p.wall for p in traced)
    plain_wall = statistics.median(p.wall for p in plain)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_summary(workload, warm: PassResult, passes: list) -> dict:
    """Failures and z outliers over every pass, warm-up included."""
    every = [warm, *passes]
    outcomes = [o for p in every for o in p.outcomes]
    failures = Counter(o.error for o in outcomes if o.error)
    per_pass = [sum(len(o.outliers()) for o in p.outcomes) for p in every]
    flagged = [(i, q, known) for p in every for i, o in enumerate(p.outcomes)
               for q, _, known in o.outliers()]
    # an outlier no known bias explains, in more than half of the passes,
    # is a wrong result rather than chance
    hits = Counter((i, q) for i, q, known in flagged if not known)
    persistent = sorted(f"{workload.ops[i].label}: {q}" for (i, q), n in hits.items()
                        if n > len(every) / 2)
    return {
        "attempted": len(outcomes),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "z_outliers": statistics.median(per_pass[1:]),
        "z_checked": sum(len(o.zs) for o in outcomes),
        "z_skipped": sum(o.skipped for o in outcomes),
        "outliers": sorted({f"{workload.ops[i].label}: {q}" + (" (known bias)" if known else "")
                            for i, q, known in flagged}),
        "persistent_unexplained_outliers": persistent,
    }


def environment(name: str, seed: int, workload) -> dict:
    import heraldsim
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "heraldsim": heraldsim.__version__,
        "commit": _git_commit(),
        "workload": name,
        "seed": seed,
        "slots_per_op": {op.label: op.slots for op in workload.ops},
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _print_metric(name: str, value, unit: str) -> None:
    print(f"  {name:36s} {value!r:>24} {unit}")


def run_one(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> int:
    """One workload run; ``scale`` shrinks its slot counts (for the self-test)."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import heraldsim from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import heraldsim

    if not Path(heraldsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: heraldsim imported from {heraldsim.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    workload = workloads.build(name, seed, scale)
    setup = setup_times(name, seed)
    tracer = tracing.Tracer() if trace else None
    warm, passes = measure(workload, seconds, trace, tracer)

    checks = check_summary(workload, warm, passes)
    plain = [p for p in passes if not p.traced]
    e2e, samples = end_to_end(workload, plain, setup)
    e2e_counts = {"failed_frac": checks["failed"] / checks["attempted"],
                  "z_outliers": checks["z_outliers"]}
    if trace:
        reported = per_layer(tracer, passes)
        reported["check.z_outliers"] = checks["z_outliers"]
        units = PER_LAYER
    else:
        reported, units = e2e, END_TO_END
    correct = checks["failed"] == 0 and not checks["persistent_unexplained_outliers"]
    env = environment(name, seed, workload)

    print(f"heraldsim benchmark: workload {name}, seed {seed}, "
          f"{len(passes)} passes + 1 warm-up, trace {int(trace)}")
    print("env " + json.dumps(env))
    print("end-to-end:" if not trace else "per-layer (traced passes):")
    for metric, unit in units.items():
        _print_metric(metric, reported[metric], unit)
    for metric, unit in END_TO_END_COUNTS.items():
        _print_metric(metric, e2e_counts[metric], unit)
    print(f"samples {json.dumps(samples)}")
    print(f"checks: {checks['z_checked']} z-checked, {checks['z_skipped']} skipped "
          f"(no prediction, no SE or too few counts); "
          f"outliers beyond 5 SE: {checks['outliers']}")
    for error, count in checks["failures"].items():
        print(f"FAILED x{count}: {error}")
    if checks["persistent_unexplained_outliers"]:
        print(f"WRONG: {checks['persistent_unexplained_outliers']}")
    if trace:
        print("note: spans are not collected from --workers 2 processes; "
              "their time shows as cli.self_s")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    record = {"env": env, "metrics": reported, **e2e_counts, "samples": samples,
              "checks": checks, "op_median_s": {
                  op.label: statistics.median(p.times[i] for p in plain)
                  for i, op in enumerate(workload.ops)}}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": checks["attempted"], "failed": checks["failed"],
        "metrics": {m: {"value": reported[m], "unit": u} for m, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(done.stdout, end="")
                return done.returncode
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{name}/{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
