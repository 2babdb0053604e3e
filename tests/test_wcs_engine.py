"""The click-driven WCS path of ``simulate`` against a plain slot loop.

``slot_loop_wcs`` is the WCS slot loop the package ran before its WCS
path became click-driven: every slot draws its photons, survivors and
noise.  The grid compares the two in distribution; the exact tests pin
tallies that the physics fixes outright.
"""

import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest

from heraldsim.core import ChannelSpec, DetectorSpec, SourceSpec, Transmittance
from heraldsim.montecarlo import RunCounts, SimConfig, derive_seed, simulate

CONSTANT_FIELDS = ("slots", "heralds", "gated_slots")


def slot_loop_wcs(config: SimConfig) -> RunCounts:
    """Reference WCS run, one slot at a time over the whole run."""
    rng = np.random.default_rng(config.seed)
    ch = config.channel
    n, p_noise = config.n_slots, ch.p_noise
    k = rng.poisson(config.source.mu, n)
    ns = rng.binomial(k, ch.loss)
    if p_noise == 0.0:
        kn = np.zeros(n, dtype=np.int64)
    elif config.noise_model == "poisson-per-gate":
        kn = rng.poisson(-math.log1p(-p_noise), n)
    else:
        kn = (rng.random(n) < p_noise).astype(np.int64)

    # the CAR windows ignore the receiver lockout; every slot is gated
    coin = int(np.count_nonzero(ns))
    acc = int(np.count_nonzero(ns[1:]))
    if config.apply_receiver_deadtime:
        lock, live_from = config.detector.deadtime_slots, 0
        for s in np.flatnonzero(ns + kn).tolist():
            if s < live_from:
                ns[s] = kn[s] = 0
            else:
                live_from = s + lock + 1
    sig, noise = ns > 0, kn > 0

    err_pos = np.flatnonzero(noise)
    u = rng.random(err_pos.size)
    p_err = np.where(sig[err_pos], 0.5 * -np.expm1(kn[err_pos] * math.log(0.5)), 0.5)
    n2 = n3 = nc = 0
    if config.hbt_enabled:
        split = ns + kn if config.hbt_noise_coupling else ns
        h2 = rng.binomial(split, 0.5)
        c2, c3 = h2 > 0, split > h2
        n2, n3 = int(np.count_nonzero(c2)), int(np.count_nonzero(c3))
        nc = int(np.count_nonzero(c2 & c3))
    return RunCounts(
        slots=n, heralds=n, gated_slots=n,
        signal_detections=int(np.count_nonzero(sig)),
        noise_detections=int(np.count_nonzero(noise)),
        registered_detections=int(np.count_nonzero(sig | noise)),
        errors=int(np.count_nonzero(u < p_err)),
        hbt_n2=n2, hbt_n3=n3, hbt_nc=nc,
        car_coincidences=coin, car_accidentals=acc)


def _wcs(mu=0.11, loss=1.0, p_noise=0.0, lock=None, n_slots=100_000, seed=0, **flags):
    """A WCS config; ``lock`` slots of receiver deadtime when given."""
    return SimConfig(
        source=SourceSpec.wcs(mu),
        channel=ChannelSpec(Transmittance(loss), Transmittance(1.0), p_noise),
        detector=DetectorSpec(pulse_rate_hz=1e6, deadtime_s=(lock or 0) * 1e-6),
        n_slots=n_slots, seed=seed, apply_receiver_deadtime=lock is not None, **flags)


HBT = {"off": {}, "on": {"hbt_enabled": True},
       "coupled": {"hbt_enabled": True, "hbt_noise_coupling": True}}
MODEL = {"B": "bernoulli-per-gate", "P": "poisson-per-gate"}

# (noise model, p_noise, HBT, receiver lockout L, mu, loss, slots, replicas)
GRID = [
    ("B", 1e-2, "off", None, 0.11, 1e-3, 2_000_000, 1),
    ("P", 1e-2, "on", None, 0.11, 1e-3, 2_000_000, 1),
    ("B", 0.0, "on", None, 2.0, 1.0, 200_000, 1),
    ("B", 1e-2, "off", None, 2.0, 0.2, 500_000, 1),
    ("P", 1e-2, "coupled", None, 2.0, 0.2, 300_000, 1),
    ("P", 0.0, "coupled", 49, 0.11, 0.2, 1_000_000, 1),
    ("B", 1e-2, "coupled", 49, 0.11, 0.2, 1_000_000, 1),
    ("P", 1e-2, "off", 49, 2.0, 1e-3, 2_000_000, 1),
    ("P", 1e-2, "on", 1, 2.0, 1.0, 200_000, 1),
    ("B", 1e-2, "on", 1, 0.11, 1.0, 1_000_000, 1),
    ("B", 0.0, "coupled", 1, 2.0, 0.2, 300_000, 1),
    ("P", 1e-2, "on", 49, 0.11, 1.0, 1_000_000, 1),
    ("P", 0.0, "on", 1, 0.11, 1e-3, 2_000_000, 1),
    ("B", 1e-2, "off", 487, 2.0, 0.2, 1_000_000, 1),
    ("B", 1e-2, "on", 487, 2.0, 1.0, 1_000_000, 1),
    ("P", 1e-2, "coupled", 487, 0.11, 1.0, 2_000_000, 1),
    ("B", 0.0, "off", 487, 0.11, 1e-3, 2_000_000, 1),
    # a run shorter than its lockout: one accepted click, then a window cut at the run's end
    ("P", 1e-2, "coupled", 487, 2.0, 1.0, 300, 100),
]
GRID_IDS = [f"{m}-pn{pn}-hbt_{h}-L{lock}-mu{mu}-loss{loss}-n{n}x{r}"
            for m, pn, h, lock, mu, loss, n, r in GRID]

BASE_SEED = 20_251_021
Z_BOUND = 4.5  # fixed before the first run: ~130 comparisons, family-wise ~1e-3
MIN_COUNT = 25  # fields the reference counts fewer times than this are skipped


def _pooled(run, cfg, first_index, replicas):
    return RunCounts.merge([run(dataclasses.replace(cfg, seed=derive_seed(BASE_SEED, i)))
                            for i in range(first_index, first_index + 2 * replicas, 2)])


@pytest.mark.parametrize("cell", range(len(GRID)), ids=GRID_IDS)
def test_click_path_matches_slot_loop(cell):
    """Two-sample z on every tally, the click path against the slot loop.

    Each count's variance is taken as binomial over the run's slots,
    ``c*(1 - c/N)``: exact for independent slots and an overestimate for
    the more regular click trains a lockout leaves, so the test errs
    towards passing there.  Tallies with fewer than ``MIN_COUNT`` reference
    counts are skipped, because the normal approximation fails there.
    """
    model, p_noise, hbt, lock, mu, loss, n, replicas = GRID[cell]
    cfg = _wcs(mu, loss, p_noise, lock, n, noise_model=MODEL[model], **HBT[hbt])
    first = 1000 * cell
    ref = _pooled(slot_loop_wcs, cfg, first, replicas)
    new = _pooled(simulate, cfg, first + 1, replicas)
    total = n * replicas
    for name in CONSTANT_FIELDS:
        assert getattr(new, name) == getattr(ref, name) == total, name
    compared, far = 0, {}
    for f in fields(RunCounts):
        c_ref, c_new = getattr(ref, f.name), getattr(new, f.name)
        if f.name in CONSTANT_FIELDS or c_ref < MIN_COUNT:
            continue
        var = c_ref * (1.0 - c_ref / total) + c_new * (1.0 - c_new / total)
        z = (c_new - c_ref) / math.sqrt(var) if var > 0.0 else (0.0 if c_new == c_ref else math.inf)
        compared += 1
        if abs(z) > Z_BOUND:
            far[f.name] = (c_ref, c_new, z)
    assert compared >= 4 and not far, far


class TestExactTallies:
    @pytest.mark.parametrize("lock", [1, 49, 487])
    def test_saturated_source_clicks_once_per_lockout(self, lock):
        n = 10_000
        counts = simulate(_wcs(mu=50.0, lock=lock, n_slots=n))
        assert counts.signal_detections == counts.registered_detections == math.ceil(n / (lock + 1))
        # the CAR windows ignore the lockout
        assert counts.car_coincidences == n and counts.car_accidentals == n - 1

    @pytest.mark.parametrize("lock", [None, 1])
    @pytest.mark.parametrize("n,accidentals", [(1, 0), (2, 1)])
    def test_accidentals_at_the_shortest_runs(self, lock, n, accidentals):
        counts = simulate(_wcs(mu=50.0, lock=lock, n_slots=n))
        assert counts.car_coincidences == n
        assert counts.car_accidentals == accidentals
        assert counts.registered_detections == (1 if lock else n)

    def test_vanishing_click_rate_over_a_long_run(self):
        # q ~ 1e-26: the geometric gap saturates at 2**63 - 1, and an
        # unclipped cumsum of such gaps wraps round to slots inside the run
        counts = simulate(_wcs(mu=0.11, loss=1e-25, n_slots=1_000_000_000, seed=3))
        assert counts.heralds == counts.gated_slots == 1_000_000_000
        assert (counts.registered_detections == counts.signal_detections
                == counts.car_coincidences == counts.car_accidentals == 0)

    @pytest.mark.parametrize("model", MODEL.values())
    def test_zero_mu_gives_only_noise_clicks(self, model):
        counts = simulate(_wcs(mu=0.0, p_noise=0.05, n_slots=100_000, noise_model=model,
                               hbt_enabled=True))
        assert counts.signal_detections == counts.car_coincidences == 0
        assert counts.hbt_n2 == counts.hbt_n3 == 0
        assert counts.noise_detections == counts.registered_detections > 4000
        assert 0 < counts.errors < counts.noise_detections

    def test_no_signal_and_no_noise_never_clicks(self):
        counts = simulate(_wcs(mu=0.0, lock=3, n_slots=1000))
        assert counts == RunCounts(1000, 1000, 1000, *[0] * 9)
