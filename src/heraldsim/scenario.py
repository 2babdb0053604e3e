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
from dataclasses import dataclass, fields
from pathlib import Path

from .core import (ChannelSpec, DetectorSpec, ScenarioError, SourceSpec, _check_keys,
                   _require_object, _tagged, _transmittance_field)
from .montecarlo import SimConfig
from .paper import DEADTIME_S, PULSE_RATE_HZ

__all__ = ["ScenarioError", "Scenario", "SCENARIO_DEFAULTS", "load_scenario_dict",
           "build_scenario", "load_scenario", "numeric_leaf_paths", "set_path"]


# simulation fields other than n_slots take their SimConfig defaults
SCENARIO_DEFAULTS: dict = {
    "channel": {"alpha_r_db": 0.0, "alpha_d_db": 0.0, "p_noise": 0.0},
    "detector": {"pulse_rate_hz": PULSE_RATE_HZ, "deadtime_s": DEADTIME_S},
    "simulation": {"n_slots": 1_000_000},
}

_SECTION_KEYS = {
    "source": {"kind", "mu", "alpha_s", "alpha_s_db", "beta", "beta_db"},
    "channel": {"alpha_r", "alpha_r_db", "alpha_d", "alpha_d_db", "p_noise"},
    "detector": {f.name for f in fields(DetectorSpec)},
    "simulation": {f.name for f in fields(SimConfig)} - {"source", "channel", "detector"},
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: the run it describes and the channel plan it names."""

    config: SimConfig
    plan_path: Path | None


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
    """Validate a dict from :func:`load_scenario_dict` and build its SimConfig."""
    sections = {}
    for name, allowed in _SECTION_KEYS.items():
        sections[name] = _require_object(name, merged.get(name))
        _check_keys(name, sections[name], allowed)
    src, ch = sections["source"], sections["channel"]
    if "mu" not in src:
        raise ScenarioError("source.mu", "missing")
    arms = {}
    if src.get("kind") == "wcs":
        for name in ("alpha_s", "alpha_s_db", "beta", "beta_db"):
            if name in src:
                raise ScenarioError(f"source.{name}", "not allowed for a WCS")
    elif src.get("kind") == "hps":
        for name in ("alpha_s", "beta"):
            arms[name] = _transmittance_field("source", src, name)
            if arms[name] is None:
                raise ScenarioError(f"source.{name}", f"missing; give {name} or {name}_db")
    source = _tagged("source", SourceSpec, kind=src.get("kind"), mu=src["mu"], **arms)
    channel = _tagged("channel", ChannelSpec, p_noise=ch.get("p_noise"),
                      **{name: _transmittance_field("channel", ch, name)
                         for name in ("alpha_r", "alpha_d")})
    detector = _tagged("detector", DetectorSpec, **sections["detector"])
    config = _tagged("simulation", SimConfig, source=source, channel=channel,
                     detector=detector, **sections["simulation"])

    plan_path = None
    if merged.get("plan") is not None:
        if not isinstance(merged["plan"], str):
            raise ScenarioError("plan", f"must be a path string, got {merged['plan']!r}")
        plan_path = Path(merged.get("_dir", ".")) / merged["plan"]

    return Scenario(config, plan_path)


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
    out = copy.deepcopy(merged)
    out[section][key] = value
    return out
