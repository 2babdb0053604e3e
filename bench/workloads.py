"""The benchmark's three workloads: op lists built from a workload seed.

Each workload is a closed loop with one client: the next op starts when the
previous one returns.  An op is one simulate + estimate + check of one cell
(library workloads) or one in-process ``heraldsim.cli.main(argv)`` call
(``cli-mix``).  The benchmark derives every op seed from the workload seed;
the program sees only the configs and argv lists.

- ``hps-sparse``: the criterion-6 grid (36 HPS cells) plus the criterion-7
  and criterion-8 cells.  Only 5e-5 to 1.5e-3 of the slots are gated, so
  nearly all slot work goes to slots that cannot produce a count.
- ``wcs-dense``: a WCS on the reference channel under six flag sets.  Every
  slot is gated, so a herald-driven engine should change nothing here; the
  time goes to per-gated-slot work (lockout scans, binomial and error draws).
- ``cli-mix``: every subcommand over small inputs, with determinism twins.
  Many small ``simulate`` calls instead of a few large ones, plus the
  scenario, core, calibration, wdm and rendering code the other two barely
  touch.

Importing this module imports heraldsim, so callers put the checkout's
``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from heraldsim import cli, montecarlo, scenario, wdm
from heraldsim.core import ChannelSpec, DetectorSpec, SourceSpec, Transmittance
from heraldsim.montecarlo import SimConfig

import checks

DATA = Path(__file__).resolve().parent / "data"

HPS_SLOTS = 1 << 19
WCS_SLOTS = 2_000_000
CLI_SLOTS = 20_000

PULSE_RATE_HZ = 48.7e6
NO_DEADTIME = DetectorSpec(pulse_rate_hz=PULSE_RATE_HZ, deadtime_s=0.0)
REF_DETECTOR = DetectorSpec(pulse_rate_hz=PULSE_RATE_HZ, deadtime_s=10e-6)
ALPHA_S = Transmittance.from_db(-6.5)
BETA = Transmittance.from_db(-23.3)
UNITY = Transmittance(1.0)
# Reference channel 11: reporting loss 1e-3 and the noise that puts a
# mu = 0.11 WCS at PSNR 3.45.
REF_CHANNEL = ChannelSpec(Transmittance(1e-3), UNITY, 3.19e-5)


def op_seed(*parts: int) -> int:
    """64-bit seed derived from integers, the same on every platform."""
    text = ",".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little")


class LibraryOp:
    """simulate + estimate + check of one cell, reseeded on every pass."""

    def __init__(self, label: str, config: SimConfig, seed: int) -> None:
        self.label, self.config, self.seed = label, config, seed
        self.slots = config.n_slots

    def run(self, pass_index: int):
        cfg = replace(self.config, seed=op_seed(self.seed, pass_index))
        started = perf_counter()
        try:
            counts = montecarlo.simulate(cfg)
            est = montecarlo.estimate_metrics(counts, cfg)
            pred = montecarlo.analytic_predictions(cfg)
            errs = montecarlo.analytic_std_errs(cfg)
            outcome = checks.check_estimates(est, pred, errs, cfg)
            outcome.error = checks.check_counts(counts, cfg)
        except Exception as exc:
            traceback.print_exc()
            outcome = checks.Outcome(error=f"{type(exc).__name__}: {exc}")
        return perf_counter() - started, outcome, None


class CliOp:
    """One ``cli.main(argv)`` call with stdout and stderr captured in memory."""

    def __init__(self, label: str, argv: list, slots: int = 0, twin_of: int | None = None):
        self.label, self.argv, self.slots, self.twin_of = label, argv, slots, twin_of
        self.fmt = argv[argv.index("--format") + 1]

    def run(self, pass_index: int):
        out, err = io.StringIO(), io.StringIO()
        started = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects an argv by exiting
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            elapsed = perf_counter() - started
            traceback.print_exc()
            return elapsed, checks.Outcome(error=f"{type(exc).__name__}: {exc}"), None
        elapsed = perf_counter() - started
        outcome = checks.check_cli(self.argv[0], self.fmt, code, out.getvalue())
        if outcome.error and err.getvalue():
            outcome.error += f" ({err.getvalue().strip()})"
        return elapsed, outcome, out.getvalue()


@dataclass
class Workload:
    name: str
    ops: list
    digests: dict = field(default_factory=dict)

    def run_op(self, index: int, pass_index: int):
        """Run one op: (seconds, outcome, stdout bytes).

        A CLI op's stdout must match its first run and its twin's.
        """
        op = self.ops[index]
        elapsed, outcome, text = op.run(pass_index)
        if text is None:
            return elapsed, outcome, 0
        data = text.encode()
        if outcome.error is None:
            digest = hashlib.sha256(data).digest()
            if self.digests.setdefault(index, digest) != digest:
                outcome.error = "stdout differs from the first run of the same argv"
            elif op.twin_of is not None and self.digests.get(op.twin_of) != digest:
                outcome.error = f"stdout differs from its twin {self.ops[op.twin_of].label}"
        return elapsed, outcome, len(data)


def _scaled(slots: int, scale: float) -> int:
    return max(1000, round(slots * scale))


def _hps_sparse(seed: int, scale: float) -> list:
    n = _scaled(HPS_SLOTS, scale)
    cells = []
    for mu in (0.01, 0.11, 0.3):
        for loss_db in (0.0, -6.5, -13.0, -23.3):
            for p_noise in (0.0, 1e-3, 1e-2):
                cells.append((f"grid mu={mu} alpha_r={loss_db}dB p_noise={p_noise}", SimConfig(
                    source=SourceSpec.hps(mu, ALPHA_S, BETA),
                    channel=ChannelSpec(Transmittance.from_db(loss_db), UNITY, p_noise),
                    detector=NO_DEADTIME, n_slots=n)))
    no_noise = ChannelSpec(UNITY, UNITY, 0.0)
    cells.append(("criterion-7 herald deadtime + HBT", SimConfig(
        source=SourceSpec.hps(0.11, ALPHA_S, BETA), channel=no_noise,
        detector=REF_DETECTOR, n_slots=n, apply_herald_deadtime=True, hbt_enabled=True)))
    cells.append(("criterion-8 herald deadtime", SimConfig(
        source=SourceSpec.hps(0.1, UNITY, Transmittance(0.00513)), channel=no_noise,
        detector=REF_DETECTOR, n_slots=n, apply_herald_deadtime=True)))
    return [LibraryOp(label, cfg, op_seed(seed, i)) for i, (label, cfg) in enumerate(cells)]


def _wcs_dense(seed: int, scale: float) -> list:
    n = _scaled(WCS_SLOTS, scale)
    wcs = SourceSpec.wcs(0.11)
    dead_1us = DetectorSpec(pulse_rate_hz=PULSE_RATE_HZ, deadtime_s=1e-6)
    near = ChannelSpec(Transmittance(0.2), UNITY, REF_CHANNEL.p_noise)
    cells = [
        ("plain", SimConfig(wcs, REF_CHANNEL, NO_DEADTIME, n)),
        ("poisson noise", SimConfig(wcs, REF_CHANNEL, NO_DEADTIME, n,
                                    noise_model="poisson-per-gate")),
        ("receiver deadtime 10us", SimConfig(wcs, REF_CHANNEL, REF_DETECTOR, n,
                                             apply_receiver_deadtime=True)),
        ("HBT + receiver deadtime 1us, alpha_r=0.2", SimConfig(
            wcs, near, dead_1us, n, hbt_enabled=True, apply_receiver_deadtime=True)),
        ("HBT + noise coupling + poisson noise", SimConfig(
            wcs, REF_CHANNEL, NO_DEADTIME, n, noise_model="poisson-per-gate",
            hbt_enabled=True, hbt_noise_coupling=True)),
        ("plain, 4x slots", SimConfig(wcs, REF_CHANNEL, NO_DEADTIME, 4 * n)),
    ]
    return [LibraryOp(label, cfg, op_seed(seed, i)) for i, (label, cfg) in enumerate(cells)]


def _cli_mix(seed: int, scale: float) -> list:
    hps, plan = str(DATA / "hps.json"), str(DATA / "plan.json")
    # parse the inputs once here, so bad data fails set-up rather than an op
    merged = scenario.load_scenario_dict(hps)
    scenario.build_scenario(merged)
    channels = len(wdm.ChannelPlan.load(plan).channels)
    n = _scaled(CLI_SLOTS, scale)
    sim = ["--slots", str(n), "--format"]
    twin = ["sweep", hps, "--param", "source.mu", "--from", "0.02", "--to", "0.3",
            "--steps", "6", "--simulate", "--seed", str(op_seed(seed, 4))]
    ops = [
        CliOp("analyze", ["analyze", hps, "--format", "csv"]),
        CliOp("sweep 200 log steps", [
            "sweep", hps, "--param", "channel.p_noise", "--from", "1e-5", "--to", "1e-1",
            "--steps", "200", "--log", "--format", "csv"]),
        CliOp("sweep --simulate", [
            "sweep", hps, "--param", "channel.alpha_r_db", "--from", "0", "--to", "-20",
            "--steps", "8", "--simulate", "--seed", str(op_seed(seed, 1)), *sim, "csv"], 8 * n),
        CliOp("wdm --simulate", [
            "wdm", hps, "--simulate", "--seed", str(op_seed(seed, 2)), *sim, "csv"],
            channels * n),
        CliOp("simulate --replicas 8", [
            "simulate", hps, "--replicas", "8", "--seed", str(op_seed(seed, 3)),
            *sim, "json"], 8 * n),
        CliOp("wdm", ["wdm", plan, hps, "--format", "csv"]),
        *(CliOp(f"reproduce {p}", ["reproduce", p, "--format", "csv"])
          for p in ("fig7", "chi-table", "appendixB", "grid")),
        CliOp("infer", ["infer", "--rate", "20e3", "--deadtime", "10e-6",
                        "--pulse-rate", "48.7e6", "--g2", "0.188", "--beta-db", "-23.3",
                        "--format", "csv"]),
        CliOp("sweep --simulate --workers 1", [*twin, "--workers", "1", *sim, "csv"], 6 * n),
    ]
    ops.append(CliOp("sweep --simulate --workers 2", [*twin, "--workers", "2", *sim, "csv"],
                     6 * n, twin_of=len(ops) - 1))
    return ops


WORKLOADS = {"hps-sparse": _hps_sparse, "wcs-dense": _wcs_dense, "cli-mix": _cli_mix}


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload's op list; ``scale`` shrinks slot counts for self-tests."""
    return Workload(name, WORKLOADS[name](seed, scale))
