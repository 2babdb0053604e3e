"""Time-slot Monte Carlo simulator for heralded and weak-coherent links.

Each pump pulse is one time slot.  A slot draws a Poisson photon-pair
count (HPS) or photon count (WCS), thins each photon independently
through the relevant transmittances with threshold detection at both
ends, adds channel noise on gated slots, applies the basis-error
bookkeeping, and optionally splits the receiver photons 50/50 for an HBT
g2(0) measurement.  Tallies accumulate into :class:`RunCounts`;
:func:`estimate_metrics` turns them into estimates, each a ratio of
binomial counts ``c`` of ``t`` trials with relative standard error
``rel**2 = sum((1 - c/t)/c)``.  One rule gives every prediction: it is
the estimator at the expected tallies (slot counts times per-slot
probabilities), and its null SE (:func:`analytic_std_errs`) is the
estimator's SE there; :func:`compare` lines both up with a run's
estimates as z-scores.  So g2 is predicted as ``p23 / p2**2`` (1 for a
WCS); receiver deadtime thins p_cond, cancels from psnr and qber, and
leaves g2 unpredicted when it alone drops clicks; and a quantity with no
estimate at the expected tallies has no prediction.

Determinism: the same config, seed and package version give
bit-identical :class:`RunCounts`; across versions only
:func:`derive_seed` is fixed.  Flags add or drop stages but never change
how a stage draws.  The current engines draw, in order:

- HPS, per chunk of slots: one Poisson photon-pair count per slot; one
  uniform per slot for the herald click; one binomial
  surviving-signal-photon count per slot; when ``p_noise > 0``, one
  noise-photon count per gated slot (a uniform against ``p_noise`` under
  the Bernoulli model, a Poisson count under the Poisson model); one
  uniform per gated noise click for the basis error; and with
  ``hbt_enabled``, one binomial(1/2) split per gated slot.
- WCS, per batch of events (slots that hold a signal survivor or a noise
  photon): one geometric gap per event; under the Poisson model or
  without noise, one uniform and one Poisson count per event for a
  zero-truncated total, then, with noise, one binomial signal share per
  event; under the Bernoulli model with noise, one uniform per event for
  its noise photon, one Poisson survivor count per noisy event and one
  uniform and one Poisson count per quiet one; one uniform per noisy
  event for the basis error; with ``hbt_enabled``, one binomial(1/2)
  split per event; and after the last batch, under receiver deadtime,
  one binomial count of signal slots inside the locked windows.
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


class Estimate(NamedTuple):
    """Point estimate with a first-order standard error."""

    value: float
    std_err: float


class MetricsEstimate(NamedTuple):
    """Estimated link metrics; None marks quantities the run cannot report."""

    p_t: Estimate | None
    p_cond: Estimate | None
    psnr: Estimate | None
    qber: Estimate | None
    g2: Estimate | None
    car: Estimate | None
    herald_rate_hz: Estimate | None


QUANTITIES = MetricsEstimate._fields


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


def _errors_and_arms(rng: np.random.Generator, config: SimConfig, ns: np.ndarray,
                     kn: np.ndarray) -> tuple[int, int, int, int]:
    """Basis errors and HBT ``(n2, n3, nc)`` of slots holding ``ns`` signal, ``kn`` noise photons.

    A click with ``k`` noise photons errs with probability 1/2 without
    signal and ``(1 - 0.5^k)/2`` with it.  With ``hbt_enabled`` the signal
    photons (and, under ``hbt_noise_coupling``, the noise photons) split
    50/50 onto the two arms.  Draws one uniform per noisy slot, then,
    with ``hbt_enabled``, one binomial per slot.
    """
    err_pos = np.flatnonzero(kn)
    u = rng.random(err_pos.size)
    p_err = np.where(ns[err_pos] > 0, 0.5 * -np.expm1(kn[err_pos] * math.log(0.5)), 0.5)
    errors = int(np.count_nonzero(u < p_err))
    if not config.hbt_enabled:
        return errors, 0, 0, 0
    split = ns + kn if config.hbt_noise_coupling else ns
    n2 = rng.binomial(split, 0.5)
    c2 = n2 > 0
    c3 = split > n2
    return (errors, int(np.count_nonzero(c2)), int(np.count_nonzero(c3)),
            int(np.count_nonzero(c2 & c3)))


def _ztp(rng: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """``size`` zero-truncated Poisson(``lam``) draws, exactly and without rejection.

    Given at least one arrival of a rate-``lam`` process on [0, 1], the
    first comes at ``t1 = -log1p(u*expm1(-lam))/lam`` and the others are
    Poisson(``lam*(1 - t1)``); ``lam*(1 - t1)`` is clipped at 0 against
    rounding.
    """
    rest = lam + np.log1p(rng.random(size) * math.expm1(-lam))
    return 1 + rng.poisson(np.maximum(rest, 0.0))


def simulate(config: SimConfig) -> RunCounts:
    """Run the slot-level simulation and return raw tallies.

    Per slot: draw the Poisson photon (pair) count; decide the herald
    click by thinning through the herald arm (WCS: implicit herald, all
    slots gated); thin the photons through the full signal path to a
    surviving-photon count.  Gated slots draw a noise-photon count per
    ``noise_model`` (0 or 1, or Poisson) and click on any signal or noise
    photon.  One error rule covers both noise models: a click with ``k``
    noise photons errs with probability 1/2 without signal and
    ``(1 - 0.5^k)/2`` with it (1/4 at ``k = 1``).  Optional herald
    deadtime locks the herald detector for ``detector.deadtime_slots``
    slots after an accepted herald; optional receiver deadtime suppresses
    gated detections the same way on the receiver side.  With ``hbt_enabled``,
    the surviving signal photons (and, under ``hbt_noise_coupling``, the
    noise photons) route 50/50 onto two detectors whose counts and
    coincidences are tallied.  CAR windows pair each herald with the
    signal click of the same slot (coincidence) and of the next slot
    (accidental); both ignore receiver deadtime.

    The chunked slot loop below is HPS-only: slot arithmetic is vectorized
    in fixed-size chunks, and only the deadtime lockouts scan
    sequentially, over accepted events.  A WCS takes the click-driven
    path of :func:`_simulate_wcs`, which draws only the slots where
    something can click, so its cost grows with its clicks, not its slots.
    """
    if config.source.kind == core.WCS:
        return _simulate_wcs(config)
    rng = np.random.default_rng(config.seed)
    src, ch = config.source, config.channel
    arm = src.alpha_s.value * ch.loss
    p_noise = ch.p_noise
    noise_lam = -math.log1p(-p_noise)
    lock = config.detector.deadtime_slots

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

        # only slots with photons can herald; a uniform for every slot keeps the stream
        u = rng.random(m)
        herald = np.zeros(m, dtype=bool)
        herald[photons] = u[photons] < _p_any(k[photons], src.beta.value)
        if config.apply_herald_deadtime:
            idx = np.flatnonzero(herald)
            keep, herald_locked_until = _lockout(idx + start, herald_locked_until, lock)
            herald = np.zeros(m, dtype=bool)
            herald[idx[keep]] = True

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

        errors, n2, n3, nc = _errors_and_arms(rng, config, ns_g, kn_g)
        err_total += errors
        n2_total += n2
        n3_total += n3
        nc_total += nc

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


def _simulate_wcs(config: SimConfig) -> RunCounts:
    """Click-driven WCS run: the same tallies as a slot loop, drawn only at clicks.

    Every slot is gated, and a slot holds Poisson(``a``) signal survivors,
    ``a = mu*loss`` (the thinning of Poisson(mu) photons), plus its noise.
    It is an event, and clicks, with ``q = 1 - exp(-a)*(1 - p_noise)``
    under both noise models, so events sit Geometric(``q``) slots apart.
    Under receiver deadtime an accepted click locks the next ``L`` slots,
    so accepted clicks renew ``L`` + Geometric(``q``) slots apart, from a
    live slot 0.  Each event draws its counts given that it is one: under
    the Poisson model (or without noise) a zero-truncated Poisson total
    split binomially between signal and noise; under the Bernoulli model
    a noise photon with probability ``p_noise/q``, then Poisson(``a``)
    survivors beside it or zero-truncated Poisson(``a``) ones without.
    The CAR windows ignore the lockout, so the signal slots inside locked
    windows come from one binomial draw; the accidentals are the
    coincidences less a survivor in slot 0, whose window would lie past
    the run.  Events come in batches sized from their expected count, so
    memory does not grow with ``n_slots``.
    """
    rng = np.random.default_rng(config.seed)
    ch = config.channel
    n, p_noise = config.n_slots, ch.p_noise
    a = config.source.mu * ch.loss
    noise_lam = -math.log1p(-p_noise)
    q = -math.expm1(-a + math.log1p(-p_noise))
    lock = min(config.detector.deadtime_slots, n) if config.apply_receiver_deadtime else 0
    joint = p_noise == 0.0 or config.noise_model == "poisson-per-gate"

    sig_total = noise_total = reg_total = err_total = 0
    n2_total = n3_total = nc_total = 0
    locked = slot0 = 0
    last = -1 - lock  # a click accepted just in time to leave slot 0 live
    k = m = 0
    while q > 0.0 and k == m:
        expected = (n - last) * q / (1.0 + lock * q)
        m = min(_CHUNK, int(expected + 6.0 * math.sqrt(expected) + 16.0))
        # geometric saturates at 2**63 - 1 for q below ~1e-19; a gap clipped at
        # n + 1 still ends the run, and keeps the cumsum below 2**63 for n < 2**40
        pos = last + np.cumsum(lock + np.minimum(rng.geometric(q, m), n + 1))
        k = int(np.searchsorted(pos, n))
        pos = pos[:k]
        if k == 0:
            break
        last = int(pos[-1])

        if joint:
            total = _ztp(rng, a + noise_lam, k)
            sig = total if p_noise == 0.0 else rng.binomial(total, a / (a + noise_lam))
            noise = total - sig
        else:
            # at a == 0 every event is noisy; drawing that keeps ZTP(0) out
            noisy = rng.random(k) < p_noise / q if a > 0.0 else np.ones(k, dtype=bool)
            n_noisy = int(np.count_nonzero(noisy))
            sig = np.empty(k, dtype=np.int64)
            sig[noisy] = rng.poisson(a, n_noisy)
            sig[~noisy] = _ztp(rng, a, k - n_noisy)
            noise = noisy.astype(np.int64)

        errors, n2, n3, nc = _errors_and_arms(rng, config, sig, noise)
        err_total += errors
        n2_total += n2
        n3_total += n3
        nc_total += nc
        sig_total += int(np.count_nonzero(sig))
        noise_total += int(np.count_nonzero(noise))
        reg_total += k
        if lock:
            locked += int(np.minimum(lock, n - 1 - pos).sum())
        if pos[0] == 0:
            slot0 = int(sig[0] > 0)

    coin = sig_total + (int(rng.binomial(locked, -math.expm1(-a))) if locked else 0)
    return RunCounts(
        slots=n,
        heralds=n,
        gated_slots=n,
        signal_detections=sig_total,
        noise_detections=noise_total,
        registered_detections=reg_total,
        errors=err_total,
        hbt_n2=n2_total,
        hbt_n3=n3_total,
        hbt_nc=nc_total,
        car_coincidences=coin,
        car_accidentals=coin - slot0,
    )


def _count_ratio(num: tuple, den: tuple) -> Estimate | None:
    """Product of the ``num`` counts over that of the ``den`` counts, with its SE.

    Each term is a ``(count, trials)`` pair with a binomial count ``c`` of
    ``t`` trials; ``rel**2 = sum((1 - c/t)/c)`` over all terms.  A fraction
    ``c/n`` is ``(c, n)`` over ``(n, n)``, whose fixed ``n`` adds nothing.
    None when a ``den`` count is 0; ``(0, 0)`` when a ``num`` count is.
    """
    top = bottom = 1
    rel2 = 0.0
    for c, t in den:
        if c == 0:
            return None
        bottom *= c
        rel2 += (1.0 - c / t) / c
    for c, t in num:
        if c == 0:
            return Estimate(0.0, 0.0)
        top *= c
        rel2 += (1.0 - c / t) / c
    value = top / bottom
    # value**2 * rel2, in the order that most often rounds a fraction's SE as sqrt(p(1-p)/n)
    return Estimate(value, math.sqrt(value * rel2 * top / bottom))


def estimate_metrics(counts: RunCounts, config: SimConfig) -> MetricsEstimate:
    """Point estimates and standard errors from raw tallies.

    Every quantity is a ratio of counts, estimated by one rule
    (:func:`_count_ratio`).  ``psnr`` is ``Estimate(inf, inf)`` when
    signal clicks were seen but no noise clicks; quantities whose
    denominators are zero (or that the config did not measure, like g2
    without ``hbt_enabled``) come back as None.  ``herald_rate_hz`` is
    the raw observed rate with no deadtime back-correction.
    """
    c = counts
    n, gated = c.slots, c.gated_slots
    p_t = _count_ratio(((c.heralds, n),), ((n, n),))
    p_cond = _count_ratio(((c.signal_detections, gated),), ((gated, gated),))

    if c.noise_detections == 0:
        psnr = Estimate(math.inf, math.inf) if c.signal_detections > 0 else None
    else:
        psnr = _count_ratio(((c.signal_detections, gated),), ((c.noise_detections, gated),))

    reg = c.registered_detections
    qber = _count_ratio(((c.errors, reg),), ((reg, reg),))

    g2 = _count_ratio(((c.heralds, n), (c.hbt_nc, gated)),
                      ((c.hbt_n2, gated), (c.hbt_n3, gated))) if config.hbt_enabled else None

    car = _count_ratio(((c.car_coincidences, n),), ((c.car_accidentals, n),))

    f = config.detector.pulse_rate_hz
    rate = None if p_t is None else Estimate(p_t.value * f, p_t.std_err * f)

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
    return 1.0 / (1.0 + config.detector.deadtime_slots * q)


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
    An HBT arm clicks with the click probability at half the loss, and
    both arms with core's two-arm click probability.  The arms get no
    closed form when noise is coupled into them.
    """
    src, ch = config.source, config.channel
    n, p_n = config.n_slots, ch.p_noise
    h = p_gate = core._gate_prob(src)
    if config.apply_herald_deadtime:
        h = p_gate / (1.0 + config.detector.deadtime_slots * p_gate)
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
        p23 = core._click_prob(src, ch.loss, arms=2)
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
