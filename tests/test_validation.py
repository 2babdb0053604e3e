"""One numeric-validation rule at every site that checks a number.

Each site is fed a bool, a numeric string, nan, inf and an out-of-range
value.  Every one must raise ValueError (never TypeError) with a message
that starts with the parameter's name, the convention scenario and plan
parsing rely on to tag errors with a field path.
"""

import dataclasses
import math

import pytest

from heraldsim.calibration import MeasuredCounts, mu_from_g2, solve_channel_loss
from heraldsim.core import (ChannelSpec, DetectorSpec, SourceSpec, Transmittance,
                            _integer, _real, db_to_linear, frequency_to_wavelength,
                            linear_to_db, qber_exact, wavelength_to_frequency)
from heraldsim.montecarlo import RunCounts, SimConfig, derive_seed
from heraldsim.paper import REFERENCE_DETECTOR as DETECTOR, REFERENCE_SOURCE as HPS
from heraldsim.wdm import NoiseScanRow, WdmChannel, channel_wavelength

CHANNEL = ChannelSpec(Transmittance(1e-3), Transmittance(1.0), 1e-4)
ZERO_COUNTS = {f.name: 0 for f in dataclasses.fields(RunCounts)}

# (site, name the message must start with, call with the value, an out-of-range
# value or None where every finite value is valid)
REAL_SITES = [
    ("db_to_linear", "db", db_to_linear, 4000),  # 10 ** 400 overflows a float
    ("linear_to_db", "ratio", linear_to_db, -1.0),
    ("wavelength_to_frequency", "wavelength_m", wavelength_to_frequency, 0.0),
    ("frequency_to_wavelength", "frequency_hz", frequency_to_wavelength, -1.0),
    ("Transmittance", "transmittance", Transmittance, 1.5),
    ("SourceSpec.mu", "mu", SourceSpec.wcs, -0.1),
    ("SourceSpec.alpha_s", "alpha_s", lambda v: SourceSpec.hps(0.1, v, 0.5), 1.5),
    ("SourceSpec.beta", "beta", lambda v: SourceSpec.hps(0.1, 0.5, v), 0.0),
    ("ChannelSpec.alpha_r", "alpha_r", lambda v: ChannelSpec(v, 1.0), 1.5),
    ("ChannelSpec.alpha_d", "alpha_d", lambda v: ChannelSpec(1.0, v), 0.0),
    ("ChannelSpec.p_noise", "p_noise", lambda v: ChannelSpec(1.0, 1.0, v), 1.0),
    ("DetectorSpec.pulse_rate_hz", "pulse_rate_hz", DetectorSpec, 0.0),
    ("DetectorSpec.deadtime_s", "deadtime_s", lambda v: DetectorSpec(1e6, v), -1e-9),
    ("qber_exact.p_qkd", "p_qkd", lambda v: qber_exact(v, 0.0), 1.5),
    ("qber_exact.p_noise", "p_noise", lambda v: qber_exact(0.0, v), 1.0),
    ("MeasuredCounts.herald_rate_hz", "herald_rate_hz",
     lambda v: MeasuredCounts(v, DETECTOR), -1.0),
    ("MeasuredCounts.g2", "g2", lambda v: MeasuredCounts(1e3, DETECTOR, g2=v), 1.0),
    ("mu_from_g2.g2", "g2", lambda v: mu_from_g2(v, 0.0), 1.0),
    ("mu_from_g2.beta_mu", "beta_mu", lambda v: mu_from_g2(0.1, v), -1e-3),
    ("solve_channel_loss", "measured_p_cond", lambda v: solve_channel_loss(v, HPS), 0.0),
    ("WdmChannel.center_wavelength_nm", "center_wavelength_nm",
     lambda v: WdmChannel(1, center_wavelength_nm=v), 0.0),
    ("WdmChannel.sfwm_weight", "sfwm_weight", lambda v: WdmChannel(1, sfwm_weight=v), 1.5),
    ("WdmChannel.alpha_r", "alpha_r", lambda v: WdmChannel(1, alpha_r=v), 1.5),
    ("WdmChannel.alpha_d", "alpha_d", lambda v: WdmChannel(1, alpha_d=v), 0.0),
    ("WdmChannel.p_noise", "p_noise", lambda v: WdmChannel(1, p_noise=v), 1.0),
    ("NoiseScanRow.laser_wavelength_nm", "laser_wavelength_nm",
     lambda v: NoiseScanRow(v, 974.0, 48.7e6), 0.0),
    ("NoiseScanRow.noise_counts_per_s", "noise_counts_per_s",
     lambda v: NoiseScanRow(1305.0, v, 48.7e6), -1.0),
    ("NoiseScanRow.clock_rate_hz", "clock_rate_hz",
     lambda v: NoiseScanRow(1305.0, 0.0, v), 0.0),
]

INTEGER_SITES = [
    ("channel_wavelength", "index", channel_wavelength, 65),
    ("WdmChannel.index", "index", WdmChannel, 0),
    ("SimConfig.n_slots", "n_slots", lambda v: SimConfig(HPS, CHANNEL, DETECTOR, v), 0),
    ("SimConfig.seed", "seed", lambda v: SimConfig(HPS, CHANNEL, DETECTOR, 10, seed=v),
     2 ** 64),
    ("derive_seed.seed", "seed", lambda v: derive_seed(v, 0), -1),
    ("derive_seed.run_index", "run_index", lambda v: derive_seed(0, v), -1),
] + [
    (f"RunCounts.{name}", name,
     lambda v, name=name: RunCounts(**{**ZERO_COUNTS, name: v}), -1)
    for name in ZERO_COUNTS
]

BAD_FOR_ALL = [True, False, "0.1", math.nan, math.inf, -math.inf]
BEYOND_FLOAT = 10 ** 400  # an int that float() cannot hold


def _cases(sites, extra):
    for site, name, call, out_of_range in sites:
        bad = BAD_FOR_ALL + extra + ([] if out_of_range is None else [out_of_range])
        for value in bad:
            label = "10**400" if value is BEYOND_FLOAT else repr(value)
            yield pytest.param(name, call, value, id=f"{site}-{label}")


@pytest.mark.parametrize("name,call,value", _cases(REAL_SITES, [BEYOND_FLOAT]))
def test_real_sites_raise_value_error_naming_the_parameter(name, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("name,call,value", _cases(INTEGER_SITES, [2.5, "1"]))
def test_integer_sites_raise_value_error_naming_the_parameter(name, call, value):
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("flag", ["apply_herald_deadtime", "hbt_enabled",
                                  "hbt_noise_coupling", "apply_receiver_deadtime"])
@pytest.mark.parametrize("value", ["no", 1, 0, None])
def test_sim_config_flags_must_be_bool(flag, value):
    with pytest.raises(ValueError) as exc:
        SimConfig(HPS, CHANNEL, DETECTOR, 10, **{flag: value})
    assert str(exc.value).startswith(f"{flag} must be true or false")


class TestHelpers:
    def test_real_returns_float(self):
        assert _real("x", 3, 0.0) == 3.0 and isinstance(_real("x", 3, 0.0), float)

    def test_real_bounds_open_and_closed(self):
        assert _real("x", 0.0, 0.0, 1.0) == 0.0
        assert _real("x", 1.0, 0.0, 1.0) == 1.0
        with pytest.raises(ValueError, match=r"^x must be a finite number in \(0, 1\)"):
            _real("x", 0.0, 0.0, 1.0, lo_open=True, hi_open=True)
        with pytest.raises(ValueError, match=r"^x must be a finite number in \[0, 1\)"):
            _real("x", 1.0, 0.0, 1.0, hi_open=True)

    def test_integer_accepts_integral_floats(self):
        assert _integer("n", 2e5, 1) == 200_000
        assert isinstance(_integer("n", 2e5, 1), int)
        assert _integer("n", 2 ** 64 - 1, 0, 2 ** 64 - 1) == 2 ** 64 - 1

    def test_integer_sites_store_ints(self):
        cfg = SimConfig(HPS, CHANNEL, DETECTOR, 1e3, seed=7.0)
        assert (cfg.n_slots, cfg.seed) == (1000, 7)
        assert type(cfg.n_slots) is int and type(cfg.seed) is int
        assert WdmChannel(11.0).index == 11 and type(WdmChannel(11.0).index) is int
        assert channel_wavelength(11.0) == channel_wavelength(11)
        assert derive_seed(5.0, 2.0) == derive_seed(5, 2)
