"""Time-slot Monte Carlo simulator for heralded and weak-coherent links.

Each pump pulse is one time slot.  A slot draws a Poisson photon-pair
count (HPS) or photon count (WCS), thins each photon independently
through the relevant transmittances with threshold detection at both
ends, adds channel noise on gated slots, applies the basis-error
bookkeeping, and optionally splits the receiver photons 50/50 for an
HBT g2(0) measurement.  Tallies accumulate into :class:`RunCounts`;
:func:`estimate_metrics` turns tallies into point estimates with
binomial standard errors, and :func:`analytic_predictions` computes
the closed-form values every estimate should converge to.

Determinism: identical ``(config, seed)`` produce bit-identical
:class:`RunCounts`.  The draw layout (order and shape of RNG calls per
chunk) is fixed for a given set of config flags and is part of that
contract; changing flags changes the layout and therefore the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import core
from .core import ChannelSpec, DetectorSpec, SourceSpec, _integer, qber_exact

__all__ = [
    "NOISE_MODELS",
    "SimConfig",
    "RunCounts",
    "Estimate",
    "MetricsEstimate",
    "derive_seed",
    "simulate",
    "estimate_metrics",
    "analytic_predictions",
    "analytic_std_errs",
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
    if p <= 0.0:
        return np.zeros(k.shape)
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
    slots gated); in gated slots thin the signal photons through the
    full signal path with threshold detection, draw channel noise per
    ``noise_model``, and resolve basis errors (noise-only detections err
    with probability 1/2, signal+noise detections with probability 1/4
    under the Bernoulli model, or ``(1 - 0.5^k_noise)/2`` under the
    Poisson model).  Optional herald deadtime locks the herald detector
    for ``deadtime_slots`` slots after an accepted herald; optional
    receiver deadtime suppresses gated detections the same way on the
    receiver side.  With ``hbt_enabled``, surviving signal photons route
    50/50 onto two detectors whose counts and coincidences are tallied.
    CAR windows pair each herald with the gated signal click of the same
    slot (coincidence) and with the candidate signal click of the next
    slot (accidental); both ignore receiver deadtime.

    Slot arithmetic is vectorized in fixed-size chunks; only the
    deadtime lockouts scan sequentially, over accepted events.
    """
    rng = np.random.default_rng(config.seed)
    src, ch, det = config.source, config.channel, config.detector
    is_hps = src.kind == core.HPS
    arm = (src.alpha_s.value if is_hps else 1.0) * ch.loss
    beta = src.beta.value if is_hps else 1.0
    mu = src.mu
    p_noise = ch.p_noise
    poisson_noise = config.noise_model == "poisson-per-gate"
    noise_lam = -math.log1p(-p_noise) if (poisson_noise and p_noise > 0.0) else 0.0
    lock = config.deadtime_slots

    n = config.n_slots
    heralds = gated_total = sig_total = noise_total = reg_total = err_total = 0
    n2_total = n3_total = nc_total = 0
    coin_total = acc_total = 0
    herald_locked_until = 0
    rx_locked_until = 0
    prev_herald = False

    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        k = rng.poisson(mu, m)

        if is_hps:
            cand = rng.random(m) < _p_any(k, beta)
            if config.apply_herald_deadtime:
                idx = np.flatnonzero(cand)
                keep, herald_locked_until = _lockout(idx + start, herald_locked_until, lock)
                herald = np.zeros(m, dtype=bool)
                herald[idx[keep]] = True
            else:
                herald = cand
        else:
            herald = np.ones(m, dtype=bool)

        if config.hbt_enabled:
            n_sig = rng.binomial(k, arm) if arm > 0.0 else np.zeros(m, dtype=np.int64)
            sig = n_sig > 0
        else:
            sig = rng.random(m) < _p_any(k, arm)

        gated = herald
        gi = np.flatnonzero(gated)
        g = gi.size
        sig_g = sig[gi]

        if p_noise > 0.0 and g > 0:
            if poisson_noise:
                kn_g = rng.poisson(noise_lam, g)
                noise_g = kn_g > 0
            else:
                noise_g = rng.random(g) < p_noise
                kn_g = noise_g.astype(np.int64)
        else:
            noise_g = np.zeros(g, dtype=bool)
            kn_g = np.zeros(g, dtype=np.int64)

        sig_car = sig_g.copy()
        if config.apply_receiver_deadtime:
            det_mask = sig_g | noise_g
            det_pos = np.flatnonzero(det_mask)
            keep, rx_locked_until = _lockout(gi[det_pos] + start, rx_locked_until, lock)
            dead = det_pos[~keep]
            sig_g[dead] = False
            noise_g[dead] = False
            kn_g[dead] = 0

        err_pos = np.flatnonzero(noise_g)
        if err_pos.size:
            u = rng.random(err_pos.size)
            if poisson_noise:
                p_both = 0.5 * -np.expm1(kn_g[err_pos] * math.log(0.5))
            else:
                p_both = 0.25
            p_err = np.where(sig_g[err_pos], p_both, 0.5)
            err_total += int(np.count_nonzero(u < p_err))

        if config.hbt_enabled and g > 0:
            ns_g = n_sig[gi]
            if config.apply_receiver_deadtime:
                ns_g = np.where(sig_g, ns_g, 0)
            n2 = rng.binomial(ns_g, 0.5)
            c2 = n2 > 0
            c3 = (ns_g - n2) > 0
            if config.hbt_noise_coupling and p_noise > 0.0:
                if poisson_noise:
                    kn2 = rng.binomial(kn_g, 0.5)
                    c2 |= kn2 > 0
                    c3 |= (kn_g - kn2) > 0
                else:
                    route = rng.random(g) < 0.5
                    c2 |= noise_g & route
                    c3 |= noise_g & ~route
            n2_total += int(np.count_nonzero(c2))
            n3_total += int(np.count_nonzero(c3))
            nc_total += int(np.count_nonzero(c2 & c3))

        heralds += int(np.count_nonzero(herald))
        gated_total += g
        sig_total += int(np.count_nonzero(sig_g))
        noise_total += int(np.count_nonzero(noise_g))
        reg_total += int(np.count_nonzero(sig_g | noise_g))

        coin_total += int(np.count_nonzero(herald[gi] & sig_car))
        acc_total += int(np.count_nonzero(herald[:-1] & sig[1:]))
        if prev_herald and bool(sig[0]):
            acc_total += 1
        prev_herald = bool(herald[-1])

    return RunCounts(
        slots=n,
        heralds=heralds,
        gated_slots=gated_total,
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


def _qber_poisson_noise(p_qkd: float, p_noise: float) -> float:
    """Exact QBER under the Poisson noise model.

    With a Poisson noise count of mean ``-ln(1 - p_noise)``, the
    signal+noise error probability generalizes from 1/4 to
    ``(1 - sqrt(1 - p_noise)) / 2`` after averaging over the count.
    """
    p_err = ((1.0 - p_qkd) * p_noise / 2.0
             + p_qkd * (1.0 - math.sqrt(1.0 - p_noise)) / 2.0)
    p_reg = p_qkd + (1.0 - p_qkd) * p_noise
    if p_reg == 0.0:
        return 0.0
    return p_err / p_reg


def _herald_fraction(config: SimConfig) -> float:
    """Expected heralds per slot, including herald-deadtime thinning.

    An accepted herald locks the next ``L`` slots, so acceptances renew
    every ``L + 1/p`` slots on average and the rate is ``p / (1 + L*p)``.
    """
    if config.source.kind == core.WCS:
        return 1.0
    p = core.hps_herald_prob(config.source)
    if not config.apply_herald_deadtime:
        return p
    lock = config.deadtime_slots
    return p / (1.0 + lock * p)


def _hbt_arm_probs(config: SimConfig) -> tuple[float, float] | None:
    """Per-gated-slot click probabilities (one arm, both arms) for HBT.

    Derived from the same joint threshold-detection formula as the
    conditional detection probability, with the 50/50 splitter halving
    the arm transmittance.  None when noise is coupled into the arms
    (no closed form is provided for that extension).
    """
    if config.hbt_noise_coupling and config.channel.p_noise > 0.0:
        return None
    src, ch = config.source, config.channel
    if src.kind == core.WCS:
        half = -math.expm1(-ch.loss * src.mu / 2.0)
        return half, half * half
    arm = src.alpha_s.value * ch.loss
    mu, beta = src.mu, src.beta.value
    p2 = core._conditional_detection(mu, beta, arm / 2.0)
    p23 = 2.0 * p2 - core._conditional_detection(mu, beta, arm)
    return p2, p23


def analytic_predictions(config: SimConfig) -> dict[str, float | None]:
    """Closed-form expected value for each estimated quantity.

    Keys mirror :class:`MetricsEstimate`.  ``g2`` is the model
    prediction for the heralded source (1.0 for a WCS); ``car`` is the
    ratio of conditional to unconditional signal-click probability.
    None marks quantities without a defined prediction for this config
    (for example psnr with no signal path, or g2 with noise coupled
    into the HBT arms).  Receiver deadtime is not modeled analytically;
    with that flag enabled the detection-side predictions are upper
    bounds.
    """
    src, ch = config.source, config.channel
    is_hps = src.kind == core.HPS
    h = _herald_fraction(config)
    if is_hps:
        p_qkd = core.hps_conditional_detection(src, ch) if src.mu > 0.0 else None
        p_marg = -math.expm1(-src.alpha_s.value * ch.loss * src.mu)
        g2 = core.g2_predicted(src) if config.hbt_enabled else None
    else:
        p_qkd = core.wcs_detection_prob(src, ch)
        p_marg = p_qkd
        g2 = 1.0 if config.hbt_enabled else None
    if config.hbt_enabled and _hbt_arm_probs(config) is None:
        g2 = None

    p_noise = ch.p_noise
    psnr_val = None
    qber_val = None
    car = None
    if p_qkd is not None:
        psnr_val = math.inf if p_noise == 0.0 else p_qkd / p_noise
        if config.noise_model == "poisson-per-gate":
            qber_val = _qber_poisson_noise(p_qkd, p_noise)
        else:
            qber_val = qber_exact(p_qkd, p_noise)
        car = p_qkd / p_marg if p_marg > 0.0 else None

    return {
        "p_t": h,
        "p_cond": p_qkd,
        "psnr": psnr_val,
        "qber": qber_val,
        "g2": g2,
        "car": car,
        "herald_rate_hz": h * config.detector.pulse_rate_hz,
    }


def analytic_std_errs(config: SimConfig) -> dict[str, float | None]:
    """Null standard errors from analytic probabilities and expected counts.

    These are the standard errors a correct simulation should exhibit,
    computed without looking at the realized tallies; z-scores built on
    them stay meaningful even when a cell's realized counts are tiny.
    None marks quantities with no finite prediction or SE.
    """
    pred = analytic_predictions(config)
    n = config.n_slots
    h = pred["p_t"]
    exp_gated = n * h
    out: dict[str, float | None] = {q: None for q in pred}

    out["p_t"] = math.sqrt(h * (1.0 - h) / n)
    out["herald_rate_hz"] = out["p_t"] * config.detector.pulse_rate_hz

    pc = pred["p_cond"]
    if pc is not None and exp_gated > 0.0:
        out["p_cond"] = math.sqrt(pc * (1.0 - pc) / exp_gated)
        pn = config.channel.p_noise
        if 0.0 < pn and 0.0 < pc:
            psnr_val = pred["psnr"]
            out["psnr"] = psnr_val * math.sqrt(
                (1.0 - pc) / (exp_gated * pc) + (1.0 - pn) / (exp_gated * pn))
        q = pred["qber"]
        exp_reg = exp_gated * (pc + (1.0 - pc) * pn)
        if q is not None and 0.0 < q < 1.0 and exp_reg > 0.0:
            out["qber"] = math.sqrt(q * (1.0 - q) / exp_reg)
        p_marg = pc / pred["car"] if pred["car"] else None
        if p_marg and pc > 0.0:
            exp_coin = exp_gated * pc
            exp_acc = n * h * p_marg
            if exp_coin > 0.0 and exp_acc > 0.0:
                out["car"] = pred["car"] * math.sqrt(
                    (1.0 - h * pc) / exp_coin + (1.0 - h * p_marg) / exp_acc)

    if config.hbt_enabled:
        arm_probs = _hbt_arm_probs(config)
        if arm_probs is not None and exp_gated > 0.0:
            p2, p23 = arm_probs
            exp_nc = exp_gated * p23
            exp_n2 = exp_gated * p2
            if exp_nc > 0.0 and exp_n2 > 0.0:
                g2_center = p23 / (p2 * p2)
                out["g2"] = g2_center * math.sqrt(
                    (1.0 - h) / (n * h) + (1.0 - p23) / exp_nc
                    + 2.0 * (1.0 - p2) / exp_n2)

    return out
