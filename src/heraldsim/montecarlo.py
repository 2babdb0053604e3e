"""Time-slot Monte Carlo simulator for heralded and weak-coherent links.

Each pump pulse is one time slot.  A slot draws a Poisson photon-pair
count (HPS) or photon count (WCS), thins each photon independently
through the relevant transmittances with threshold detection at both
ends, adds channel noise on gated slots, applies the basis-error
bookkeeping, and optionally splits the receiver photons 50/50 for an
HBT g2(0) measurement.  Tallies accumulate into :class:`RunCounts`;
:func:`estimate_metrics` turns them into estimates with binomial
standard errors.  One rule gives every prediction: it is the estimator
at the expected tallies (slot counts times per-slot probabilities), and
its null SE (:func:`analytic_std_errs`) is the estimator's SE there;
:func:`compare` lines both up with a run's estimates as z-scores.  So
g2 is predicted as ``p23 / p2**2`` (1 for a WCS); receiver deadtime
thins p_cond, cancels from psnr and qber, and leaves g2 unpredicted
when it alone drops clicks; and a quantity with no estimate at the
expected tallies has no prediction.

Determinism: identical ``(config, seed)`` produce bit-identical
:class:`RunCounts`.  The draw layout is part of that contract.  Each
chunk of slots draws, in order: one Poisson photon (pair) count per
slot; for an HPS, one uniform per slot for the herald click; one
binomial surviving-signal-photon count per slot; when ``p_noise > 0``,
one noise-photon count per gated slot (a uniform against ``p_noise``
under the Bernoulli model, a Poisson count under the Poisson model);
one uniform per gated noise click for the basis error; and with
``hbt_enabled``, one binomial(1/2) split per gated slot.  Flags add or
drop stages but never change how a stage draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import core
from .core import ChannelSpec, DetectorSpec, SourceSpec, _integer

__all__ = [
    "NOISE_MODELS",
    "SimConfig",
    "RunCounts",
    "Estimate",
    "MetricsEstimate",
    "QUANTITIES",
    "Comparison",
    "derive_seed",
    "simulate",
    "estimate_metrics",
    "analytic_predictions",
    "analytic_std_errs",
    "compare",
]

NOISE_MODELS = ("bernoulli-per-gate", "poisson-per-gate")

_CHUNK = 1 << 21
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimConfig:
    """Immutable description of one simulation run.

    ``noise_model`` selects how gated-slot noise is drawn: one Bernoulli
    trial per gate (exactly the at-most-one-noise-photon error model) or
    a Poisson photon count with the same click probability.  The two
    extension flags follow the base model's exclusions: receiver deadtime
    and HBT noise coupling are off unless explicitly enabled.
    """

    source: SourceSpec
    channel: ChannelSpec
    detector: DetectorSpec
    n_slots: int
    seed: int = 0
    noise_model: str = "bernoulli-per-gate"
    apply_herald_deadtime: bool = False
    hbt_enabled: bool = False
    hbt_noise_coupling: bool = False
    apply_receiver_deadtime: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_slots", _integer("n_slots", self.n_slots, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, _MASK64))
        for flag in ("apply_herald_deadtime", "hbt_enabled", "hbt_noise_coupling",
                     "apply_receiver_deadtime"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be true or false, got {getattr(self, flag)!r}")
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"noise_model must be one of {NOISE_MODELS}, got {self.noise_model!r}")
        if self.apply_herald_deadtime and self.source.kind == core.WCS:
            raise ValueError("apply_herald_deadtime requires an HPS; a WCS has no herald detector")
        if self.hbt_noise_coupling and not self.hbt_enabled:
            raise ValueError("hbt_noise_coupling requires hbt_enabled")

    @property
    def deadtime_slots(self) -> int:
        """Slots locked after a detection: ceil(deadtime_s * pulse_rate_hz).

        The product is rounded to 1e-6 slots first so that exactly
        integral deadtimes are not pushed up a slot by float noise.
        """
        return math.ceil(round(self.detector.deadtime_s * self.detector.pulse_rate_hz, 6))


@dataclass(frozen=True)
class RunCounts:
    """Raw tallies from one run.

    ``heralds`` is the herald-click count (for a WCS every slot counts as
    heralded); ``gated_slots`` is the number of slots whose receiver gate
    opened.  Detection tallies refer to gated slots only.  ``hbt_*`` are
    the two HBT arm counts and their coincidences; ``car_*`` are the
    same-slot and shifted-slot herald/signal coincidence windows.
    """

    slots: int
    heralds: int
    gated_slots: int
    signal_detections: int
    noise_detections: int
    registered_detections: int
    errors: int
    hbt_n2: int
    hbt_n3: int
    hbt_nc: int
    car_coincidences: int
    car_accidentals: int

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _integer(f.name, getattr(self, f.name), 0))
        if self.heralds > self.slots:
            raise ValueError("heralds cannot exceed slots")
        if self.errors > self.registered_detections:
            raise ValueError("errors cannot exceed registered_detections")
        if self.hbt_nc > min(self.hbt_n2, self.hbt_n3):
            raise ValueError("hbt_nc cannot exceed min(hbt_n2, hbt_n3)")

    @classmethod
    def merge(cls, runs: "list[RunCounts] | tuple[RunCounts, ...]") -> "RunCounts":
        """Field-wise sum, for pooling independent replicas."""
        if not runs:
            raise ValueError("merge requires at least one RunCounts")
        return cls(*(sum(getattr(r, f.name) for r in runs) for f in fields(cls)))


@dataclass(frozen=True)
class Estimate:
    """Point estimate with a first-order standard error."""

    value: float
    std_err: float


@dataclass(frozen=True)
class MetricsEstimate:
    """Estimated link metrics; None marks quantities the run cannot report."""

    p_t: Estimate | None
    p_cond: Estimate | None
    psnr: Estimate | None
    qber: Estimate | None
    g2: Estimate | None
    car: Estimate | None
    herald_rate_hz: Estimate | None


# The estimated quantities, in the order of MetricsEstimate's fields.
QUANTITIES = ("p_t", "p_cond", "psnr", "qber", "g2", "car", "herald_rate_hz")


class Comparison(NamedTuple):
    """One row of :func:`compare`."""

    quantity: str
    estimate: float
    std_err: float
    analytic: float | None
    null_se: float | None
    z: float | None


def derive_seed(seed: int, run_index: int) -> int:
    """Decorrelated 64-bit seed for run number ``run_index``.

    Mixes the base seed and the run index through the SplitMix64
    finalizer.  The mapping is fixed: replicas, sweep points, and WDM
    channels must reproduce bit-identically across processes and
    platforms given the same base seed and index.
    """
    seed = _integer("seed", seed, 0, _MASK64)
    run_index = _integer("run_index", run_index, 0)
    z = (seed + (run_index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _p_any(k: np.ndarray, p: float) -> np.ndarray:
    """P(at least one of k photons survives Bernoulli(p) thinning)."""
    if p >= 1.0:
        return (k > 0).astype(float)
    return -np.expm1(k * math.log1p(-p))


def _lockout(idx_abs: np.ndarray, locked_until: int, lock: int) -> tuple[np.ndarray, int]:
    """Keep events separated by at least ``lock`` slots.

    ``idx_abs`` is a sorted array of absolute candidate slot indices.
    Returns a keep mask over ``idx_abs`` and the first absolute slot at
    which the detector is live again, for carrying across chunks.
    """
    keep = np.zeros(idx_abs.size, dtype=bool)
    pos = int(np.searchsorted(idx_abs, locked_until))
    while pos < idx_abs.size:
        keep[pos] = True
        locked_until = int(idx_abs[pos]) + lock + 1
        pos = int(np.searchsorted(idx_abs, locked_until))
    return keep, locked_until


def simulate(config: SimConfig) -> RunCounts:
    """Run the slot-by-slot simulation and return raw tallies.

    Per slot: draw the Poisson photon (pair) count; decide the herald
    click by thinning through the herald arm (WCS: implicit herald, all
    slots gated); thin the photons through the full signal path to a
    surviving-photon count.  Gated slots draw a noise-photon count per
    ``noise_model`` (0 or 1, or Poisson) and click on any signal or noise
    photon.  One error rule covers both noise models: a click with ``k``
    noise photons errs with probability 1/2 without signal and
    ``(1 - 0.5^k)/2`` with it (1/4 at ``k = 1``).  Optional herald
    deadtime locks the herald detector for ``deadtime_slots`` slots after
    an accepted herald; optional receiver deadtime suppresses gated
    detections the same way on the receiver side.  With ``hbt_enabled``,
    the surviving signal photons (and, under ``hbt_noise_coupling``, the
    noise photons) route 50/50 onto two detectors whose counts and
    coincidences are tallied.  CAR windows pair each herald with the
    signal click of the same slot (coincidence) and of the next slot
    (accidental); both ignore receiver deadtime.

    Slot arithmetic is vectorized in fixed-size chunks; only the
    deadtime lockouts scan sequentially, over accepted events.
    """
    rng = np.random.default_rng(config.seed)
    src, ch = config.source, config.channel
    is_hps = src.kind == core.HPS
    arm = (src.alpha_s.value if is_hps else 1.0) * ch.loss
    p_noise = ch.p_noise
    noise_lam = -math.log1p(-p_noise)
    lock = config.deadtime_slots

    n = config.n_slots
    heralds = sig_total = noise_total = reg_total = err_total = 0
    n2_total = n3_total = nc_total = 0
    coin_total = acc_total = 0
    herald_locked_until = 0
    rx_locked_until = 0
    prev_herald = False

    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        k = rng.poisson(src.mu, m)
        photons = np.flatnonzero(k)

        if is_hps:
            # only slots with photons can herald; a uniform for every slot keeps the stream
            u = rng.random(m)
            herald = np.zeros(m, dtype=bool)
            herald[photons] = u[photons] < _p_any(k[photons], src.beta.value)
            if config.apply_herald_deadtime:
                idx = np.flatnonzero(herald)
                keep, herald_locked_until = _lockout(idx + start, herald_locked_until, lock)
                herald = np.zeros(m, dtype=bool)
                herald[idx[keep]] = True
        else:
            herald = np.ones(m, dtype=bool)

        # binomial draws nothing for a zero count, so skipping k == 0 keeps the stream
        n_sig = np.zeros(m, dtype=np.int64)
        n_sig[photons] = rng.binomial(k[photons], arm)
        sig = n_sig > 0
        gi = np.flatnonzero(herald)
        g = gi.size
        ns_g = n_sig[gi]

        if p_noise == 0.0:
            kn_g = np.zeros(g, dtype=np.int64)
        elif config.noise_model == "poisson-per-gate":
            kn_g = rng.poisson(noise_lam, g)
        else:
            kn_g = (rng.random(g) < p_noise).astype(np.int64)

        coin_total += int(np.count_nonzero(ns_g))
        if config.apply_receiver_deadtime:
            det_pos = np.flatnonzero(ns_g + kn_g)
            keep, rx_locked_until = _lockout(gi[det_pos] + start, rx_locked_until, lock)
            dead = det_pos[~keep]
            ns_g[dead] = 0
            kn_g[dead] = 0
        sig_g = ns_g > 0
        noise_g = kn_g > 0

        err_pos = np.flatnonzero(noise_g)
        u = rng.random(err_pos.size)
        p_err = np.where(sig_g[err_pos], 0.5 * -np.expm1(kn_g[err_pos] * math.log(0.5)), 0.5)
        err_total += int(np.count_nonzero(u < p_err))

        if config.hbt_enabled:
            split = ns_g + kn_g if config.hbt_noise_coupling else ns_g
            n2 = rng.binomial(split, 0.5)
            c2 = n2 > 0
            c3 = split > n2
            n2_total += int(np.count_nonzero(c2))
            n3_total += int(np.count_nonzero(c3))
            nc_total += int(np.count_nonzero(c2 & c3))

        heralds += g
        sig_total += int(np.count_nonzero(sig_g))
        noise_total += int(np.count_nonzero(noise_g))
        reg_total += int(np.count_nonzero(sig_g | noise_g))

        acc_total += int(np.count_nonzero(herald[:-1] & sig[1:]))
        if prev_herald and bool(sig[0]):
            acc_total += 1
        prev_herald = bool(herald[-1])

    return RunCounts(
        slots=n,
        heralds=heralds,
        gated_slots=heralds,
        signal_detections=sig_total,
        noise_detections=noise_total,
        registered_detections=reg_total,
        errors=err_total,
        hbt_n2=n2_total,
        hbt_n3=n3_total,
        hbt_nc=nc_total,
        car_coincidences=coin_total,
        car_accidentals=acc_total,
    )


def _binom_estimate(successes: int, trials: int) -> Estimate | None:
    if trials <= 0:
        return None
    p = successes / trials
    return Estimate(p, math.sqrt(p * (1.0 - p) / trials))


def _ratio_estimate(num: int, den: int, num_trials: int, den_trials: int) -> Estimate | None:
    """First-order SE of a count ratio with binomial numerator/denominator."""
    if den <= 0:
        return None
    value = num / den
    if num <= 0:
        return Estimate(0.0, 0.0)
    rel = math.sqrt((1.0 - num / num_trials) / num + (1.0 - den / den_trials) / den)
    return Estimate(value, value * rel)


def estimate_metrics(counts: RunCounts, config: SimConfig) -> MetricsEstimate:
    """Point estimates and standard errors from raw tallies.

    Ratios use first-order error propagation of binomial counting
    errors.  ``psnr`` is ``Estimate(inf, inf)`` when signal clicks were
    seen but no noise clicks; quantities whose denominators are zero (or
    that the config did not measure, like g2 without ``hbt_enabled``)
    come back as None.  ``herald_rate_hz`` is the raw observed rate with
    no deadtime back-correction.
    """
    p_t = _binom_estimate(counts.heralds, counts.slots)
    p_cond = _binom_estimate(counts.signal_detections, counts.gated_slots)

    if counts.noise_detections == 0:
        psnr = Estimate(math.inf, math.inf) if counts.signal_detections > 0 else None
    else:
        psnr = _ratio_estimate(counts.signal_detections, counts.noise_detections,
                               counts.gated_slots, counts.gated_slots)

    qber = _binom_estimate(counts.errors, counts.registered_detections)

    g2 = None
    if config.hbt_enabled and counts.hbt_n2 > 0 and counts.hbt_n3 > 0:
        value = counts.heralds * counts.hbt_nc / (counts.hbt_n2 * counts.hbt_n3)
        if counts.hbt_nc == 0 or counts.heralds == 0:
            g2 = Estimate(value, 0.0)
        else:
            rel = math.sqrt(
                (1.0 - counts.heralds / counts.slots) / counts.heralds
                + (1.0 - counts.hbt_nc / counts.gated_slots) / counts.hbt_nc
                + (1.0 - counts.hbt_n2 / counts.gated_slots) / counts.hbt_n2
                + (1.0 - counts.hbt_n3 / counts.gated_slots) / counts.hbt_n3)
            g2 = Estimate(value, value * rel)

    car = _ratio_estimate(counts.car_coincidences, counts.car_accidentals,
                          counts.slots, counts.slots)

    rate = None
    if p_t is not None:
        f = config.detector.pulse_rate_hz
        rate = Estimate(p_t.value * f, p_t.std_err * f)

    return MetricsEstimate(p_t=p_t, p_cond=p_cond, psnr=psnr, qber=qber,
                           g2=g2, car=car, herald_rate_hz=rate)


def _live_fraction(config: SimConfig, q: float) -> float:
    """Share of receiver clicks that survive the receiver lockout.

    A slot clicks i.i.d. with probability ``q`` and an accepted click
    locks the next ``L`` slots, so accepted clicks renew every
    ``L + 1/q`` slots and a share ``1/(1 + L*q)`` of the clicks is kept.
    With herald deadtime as well, gated slots lie more than ``L`` apart
    and no click is lost.
    """
    if not config.apply_receiver_deadtime or config.apply_herald_deadtime:
        return 1.0
    return 1.0 / (1.0 + config.deadtime_slots * q)


# RunCounts' fields as floats, for the expected tallies of a run
_ExpectedCounts = NamedTuple("_ExpectedCounts", [(f.name, float) for f in fields(RunCounts)])


def _expected_counts(config: SimConfig) -> _ExpectedCounts:
    """Expected value of every :class:`RunCounts` tally, from per-slot probabilities.

    Each tally is its slot count times the probability :func:`simulate`
    adds to it per slot.  A slot is gated with core's gate probability,
    thinned under herald deadtime: an accepted herald locks the next
    ``L`` slots, so acceptances renew every ``L + 1/p`` slots and the
    rate is ``p / (1 + L*p)``.  A gated slot clicks with core's click
    probability (0 for an HPS that never heralds).  Errors follow
    simulate's one rule: a click with ``k`` noise photons errs with
    probability 1/2 without signal and ``(1 - 0.5^k)/2`` with it, so a
    gated slot errs with probability ``((1 - p_c)*p_n + p_c*E[1 - 0.5^k]) / 2``.
    An HBT arm clicks with the click probability at half the loss; both
    arms click with ``p2**2`` for a WCS, and for an HPS with P(both arms)
    less P(no herald, both arms), over ``p_t``.  The arms get no closed
    form when noise is coupled into them.
    """
    src, ch = config.source, config.channel
    n, p_n = config.n_slots, ch.p_noise
    h = p_gate = core._gate_prob(src)
    if config.apply_herald_deadtime:
        h = p_gate / (1.0 + config.deadtime_slots * p_gate)
    p_c = core._click_prob(src, ch.loss) if p_gate > 0.0 else 0.0
    # the CAR accidental window sees a slot's signal click whether or not it is gated
    arm = ch.loss if src.alpha_s is None else src.alpha_s.value * ch.loss
    p_marg = -math.expm1(-arm * src.mu)
    # mixed = E[1 - 0.5^k]; under the Poisson model k ~ Poisson(-ln(1 - p_n)),
    # so E[0.5^k] = sqrt(1 - p_n)
    if config.noise_model == "poisson-per-gate":
        mixed = -math.expm1(0.5 * math.log1p(-p_n))
    else:
        mixed = p_n / 2.0
    p_click = p_c + (1.0 - p_c) * p_n
    live = _live_fraction(config, h * p_click)
    gated = n * h
    # the receiver lockout thins every click tally but the CAR windows
    live_gated = gated * live
    # H*nc/(n2*n3) grows as 1/live once the lockout drops clicks, so g2 then gets no arms
    p2 = p23 = 0.0
    if (config.hbt_enabled and live == 1.0 and p_gate > 0.0
            and not (config.hbt_noise_coupling and p_n > 0.0)):
        p2 = core._click_prob(src, ch.loss / 2.0)
        if src.kind == core.WCS:
            p23 = p2 * p2
        else:
            # P(herald, both arms) = P(both arms) - P(no herald, both arms), with
            # x = mu*a/2 per arm; the equal 2*p2 - p_c would cancel at high loss
            x, beta = src.mu * src.alpha_s.value * ch.loss / 2.0, src.beta.value
            p23 = (math.expm1(-x) ** 2
                   - math.exp(-beta * src.mu) * math.expm1(-x * (1.0 - beta)) ** 2) / p_gate
    return _ExpectedCounts(
        slots=n, heralds=gated, gated_slots=gated,
        signal_detections=live_gated * p_c, noise_detections=live_gated * p_n,
        registered_detections=live_gated * p_click,
        errors=live_gated * ((1.0 - p_c) * p_n + p_c * mixed) / 2.0,
        hbt_n2=live_gated * p2, hbt_n3=live_gated * p2, hbt_nc=live_gated * p23,
        car_coincidences=gated * p_c, car_accidentals=gated * p_marg)


def _at_expected_counts(config: SimConfig, part: str) -> dict[str, float | None]:
    est = estimate_metrics(_expected_counts(config), config)
    return {q: None if (e := getattr(est, q)) is None else getattr(e, part) for q in QUANTITIES}


def analytic_predictions(config: SimConfig) -> dict[str, float | None]:
    """Expected value of each estimated quantity: the estimator at the expected tallies.

    Keys mirror :class:`MetricsEstimate`; None marks quantities the
    estimators cannot report at those tallies.
    """
    return _at_expected_counts(config, "value")


def analytic_std_errs(config: SimConfig) -> dict[str, float | None]:
    """Null standard errors: :func:`estimate_metrics`'s SEs at the expected tallies.

    These are the standard errors a correct simulation should exhibit,
    computed without looking at the realized tallies; z-scores built on
    them stay meaningful even when a cell's realized counts are tiny.
    """
    return _at_expected_counts(config, "std_err")


def compare(counts: RunCounts, config: SimConfig) -> list[Comparison]:
    """Each quantity the run measured beside its prediction, in QUANTITIES order.

    Quantities :func:`estimate_metrics` returns as None get no row.
    ``analytic`` and ``null_se`` are the estimate and its SE at the
    expected tallies; ``z`` is ``(estimate - analytic) / null_se``, None
    unless all three are finite and ``null_se > 0``.
    """
    est = estimate_metrics(counts, config)
    expected = estimate_metrics(_expected_counts(config), config)
    rows = []
    for q in QUANTITIES:
        e, x = getattr(est, q), getattr(expected, q)
        if e is None:
            continue
        analytic, se = (None, None) if x is None else (x.value, x.std_err)
        z = None
        if (analytic is not None and math.isfinite(analytic) and math.isfinite(e.value)
                and se is not None and math.isfinite(se) and se > 0.0):
            z = (e.value - analytic) / se
        rows.append(Comparison(q, e.value, e.std_err, analytic, se, z))
    return rows
