"""Scenario files: JSON descriptions of a source, channel, and detector.

A scenario pins everything a CLI run needs.  Field names carry explicit
units (``alpha_s_db``, ``deadtime_s``); transmittances may be given
either linear (``alpha_r``) or in dB (``alpha_r_db``), never both.
Validation reports the dotted path of the offending field so errors in
nested fragments stay findable.  This module checks only JSON shape:
objects, known keys, required keys.  Types, value ranges and cross-field
rules belong to the domain objects it builds (a number must be a JSON
number, not a boolean or a string; a flag must be true or false), whose
errors it tags with the field path.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

from .core import ChannelSpec, DetectorSpec, SourceSpec, Transmittance, _integer
from .montecarlo import SimConfig
from .paper import DEADTIME_S, PULSE_RATE_HZ

__all__ = ["ScenarioError", "Scenario", "SCENARIO_DEFAULTS", "load_scenario_dict",
           "build_scenario", "load_scenario", "numeric_leaf_paths", "set_path"]


class ScenarioError(ValueError):
    """Scenario content problem, tagged with the dotted field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


SCENARIO_DEFAULTS: dict = {
    "channel": {"alpha_r_db": 0.0, "alpha_d_db": 0.0, "p_noise": 0.0},
    "detector": {"pulse_rate_hz": PULSE_RATE_HZ, "deadtime_s": DEADTIME_S},
    "simulation": {
        "n_slots": 1_000_000,
        "seed": 0,
        "noise_model": "bernoulli-per-gate",
        "apply_herald_deadtime": False,
        "hbt_enabled": False,
        "hbt_noise_coupling": False,
        "apply_receiver_deadtime": False,
    },
}

_SECTION_KEYS = {
    "source": {"kind", "mu", "alpha_s", "alpha_s_db", "beta", "beta_db"},
    "channel": {"alpha_r", "alpha_r_db", "alpha_d", "alpha_d_db", "p_noise"},
    "detector": set(SCENARIO_DEFAULTS["detector"]),
    "simulation": set(SCENARIO_DEFAULTS["simulation"]),
}


def _require_object(path: str, value) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(path, f"must be an object, got {type(value).__name__}")
    return value


def _check_keys(path: str, section: dict, allowed: set) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(path, f"unknown fields {sorted(unknown)}; "
                                  f"allowed: {sorted(allowed)}")


def _construct(section: str, cls, **fields):
    """Build ``cls(**fields)``, tagging a ValueError with the field it names.

    The domain objects start each message with the field's name.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        message = str(exc)
        name, _, rest = message.partition(" ")
        if name in fields:
            raise ScenarioError(f"{section}.{name}", rest) from exc
        raise ScenarioError(section, message) from exc


def _transmittance(section: dict, section_path: str, name: str,
                   required: bool) -> Transmittance | None:
    """Resolve a linear-or-dB transmittance pair like alpha_r / alpha_r_db."""
    has_lin, has_db = name in section, f"{name}_db" in section
    if has_lin and has_db:
        raise ScenarioError(f"{section_path}.{name}",
                            f"give either {name} or {name}_db, not both")
    if not has_lin and not has_db:
        if required:
            raise ScenarioError(f"{section_path}.{name}",
                                f"missing; give {name} or {name}_db")
        return None
    key = f"{name}_db" if has_db else name
    try:
        return Transmittance.from_db(section[key]) if has_db else Transmittance(section[key])
    except ValueError as exc:
        raise ScenarioError(f"{section_path}.{key}", str(exc)) from exc


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: built domain objects plus the simulation fragment."""

    source: SourceSpec
    channel: ChannelSpec
    detector: DetectorSpec
    simulation: dict
    plan_path: Path | None

    def sim_config(self, **overrides) -> SimConfig:
        params = {**self.simulation, **overrides}
        return SimConfig(source=self.source, channel=self.channel,
                         detector=self.detector, **params)


def load_scenario_dict(path: "str | Path") -> dict:
    """Parse a scenario file and merge in defaults; no semantic validation yet.

    The returned dict is what sweeps mutate: every numeric leaf is a
    valid sweep parameter path.
    """
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError("", f"cannot read scenario {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"scenario {p} is not valid JSON: {exc}") from exc
    raw = _require_object("", raw)
    merged = copy.deepcopy(SCENARIO_DEFAULTS)
    for key, value in raw.items():
        if key in ("source", "channel", "detector", "simulation"):
            section = _require_object(key, value)
            merged.setdefault(key, {})
            merged[key].update(copy.deepcopy(section))
            if key == "channel":
                # a linear transmittance replaces the defaulted dB form
                for name in ("alpha_r", "alpha_d"):
                    if name in section and f"{name}_db" not in section:
                        merged[key].pop(f"{name}_db", None)
        elif key == "plan":
            merged["plan"] = value
        else:
            raise ScenarioError(key, "unknown top-level section; expected "
                                     "source, channel, detector, simulation, plan")
    if "source" not in merged:
        raise ScenarioError("source", "missing; a scenario must define its source")
    merged["_dir"] = str(p.parent)
    return merged


def build_scenario(merged: dict) -> Scenario:
    """Validate a merged scenario dict and construct the domain objects."""
    src_raw = _require_object("source", merged.get("source"))
    _check_keys("source", src_raw, _SECTION_KEYS["source"])
    kind = src_raw.get("kind")
    if "mu" not in src_raw:
        raise ScenarioError("source.mu", "missing")
    alpha_s = beta = None
    if kind == "wcs":
        for name in ("alpha_s", "alpha_s_db", "beta", "beta_db"):
            if name in src_raw:
                raise ScenarioError(f"source.{name}", "not allowed for a WCS")
    elif kind == "hps":
        alpha_s = _transmittance(src_raw, "source", "alpha_s", required=True)
        beta = _transmittance(src_raw, "source", "beta", required=True)
    source = _construct("source", SourceSpec, kind=kind, mu=src_raw["mu"],
                        alpha_s=alpha_s, beta=beta)

    ch_raw = _require_object("channel", merged.get("channel", {}))
    _check_keys("channel", ch_raw, _SECTION_KEYS["channel"])
    if "alpha_r" not in ch_raw and "alpha_r_db" not in ch_raw:
        ch_raw = {**ch_raw, "alpha_r_db": SCENARIO_DEFAULTS["channel"]["alpha_r_db"]}
    if "alpha_d" not in ch_raw and "alpha_d_db" not in ch_raw:
        ch_raw = {**ch_raw, "alpha_d_db": SCENARIO_DEFAULTS["channel"]["alpha_d_db"]}
    alpha_r = _transmittance(ch_raw, "channel", "alpha_r", required=True)
    alpha_d = _transmittance(ch_raw, "channel", "alpha_d", required=True)
    channel = _construct("channel", ChannelSpec, alpha_r=alpha_r, alpha_d=alpha_d,
                         p_noise=ch_raw.get("p_noise", 0.0))

    det_raw = _require_object("detector", merged.get("detector", {}))
    _check_keys("detector", det_raw, _SECTION_KEYS["detector"])
    detector = _construct("detector", DetectorSpec,
                          **{**SCENARIO_DEFAULTS["detector"], **det_raw})

    sim_raw = _require_object("simulation", merged.get("simulation", {}))
    _check_keys("simulation", sim_raw, _SECTION_KEYS["simulation"])
    config = _construct("simulation", SimConfig, source=source, channel=channel,
                        detector=detector, **{**SCENARIO_DEFAULTS["simulation"], **sim_raw})
    simulation = {key: getattr(config, key) for key in SCENARIO_DEFAULTS["simulation"]}

    plan_path = None
    if merged.get("plan") is not None:
        if not isinstance(merged["plan"], str):
            raise ScenarioError("plan", f"must be a path string, got {merged['plan']!r}")
        plan_path = Path(merged.get("_dir", ".")) / merged["plan"]

    return Scenario(source, channel, detector, simulation, plan_path)


def load_scenario(path: "str | Path") -> Scenario:
    return build_scenario(load_scenario_dict(path))


def numeric_leaf_paths(merged: dict) -> list[str]:
    """Dotted paths of every sweepable (numeric, non-boolean, non-seed) leaf."""
    paths = []
    for section in ("source", "channel", "detector", "simulation"):
        fragment = merged.get(section)
        if not isinstance(fragment, dict):
            continue
        for key in sorted(fragment):
            value = fragment[key]
            # a run derives every job seed from one base seed, so a swept
            # seed would be ignored
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or (section, key) == ("simulation", "seed")):
                continue
            paths.append(f"{section}.{key}")
    return paths


def set_path(merged: dict, dotted: str, value: float) -> dict:
    """Copy of the merged dict with one numeric leaf replaced."""
    if dotted not in numeric_leaf_paths(merged):
        raise ScenarioError(dotted, "not a sweepable parameter; valid paths: "
                                    + ", ".join(numeric_leaf_paths(merged)))
    section, key = dotted.split(".", 1)
    if key == "n_slots":
        try:
            value = _integer(key, value)
        except ValueError as exc:
            raise ScenarioError(dotted, str(exc).partition(" ")[2]) from exc
    out = copy.deepcopy(merged)
    out[section][key] = value
    return out
