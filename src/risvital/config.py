"""Declarative scenario configs: strict parsing, loading, round-trip.

A config is one YAML document with radar / ris / placement / physiology /
channel / processing / strategy / sweep sections. `SCHEMA` maps each
section to its dataclass and each key to a field and a value kind; it
drives both `parse_config` and `serialize_config`. Defaults live in the
dataclasses (the placement's in `default_placement`); only the sweep
section, which has no dataclass, keeps its defaults here.

Every section is a mapping and unknown keys are rejected. Quantities carry
unit suffixes ("7.15 GHz", "250 ms", "10 mW", "-3 dBm", "2 cm", "10 dB") or
are finite bare SI numbers, and what they derive (watts, Rician factor,
wavelength, slow rate, noise scale) must not overflow; counts are whole
numbers, and sizes (RIS rows and cols, fast-time samples, zero-pad factor,
hysteresis windows) whole numbers >= 1; the radar has at least 2 elements, a
positive carrier frequency and a positive pulse interval; the band's low
edge is in (0, slow rate / 2); a window (duration x slow rate) holds at
least 2 slow-time samples; table gains lie in [0, 1]; distortion strength
and adaptation step are >= 0; flags are true/false; `clutter_window` is an
odd count no longer than a window, or off; a `trace_file`'s front column
holds duration x slow-rate finite samples; the sweep's `gammas` are a
non-empty list of shares in [0, 1]; the RCS models, noise scale, channel
model and receive weights build (reflectivity >= 0, gain exponent > 0,
clutter strength >= 0, total power > 0, RIS spacing > 0, target and RIS off
the radar's vertical at steering vectors it can tell apart). Any violation,
including the dataclasses' own checks, raises `ConfigError`.
`parse_config` builds these by reading the scenario's cached properties,
which every run then reuses; it reads the trace only from a `trace_file`.
"""

import hashlib
import json
import math
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .physio import check_breath_rate
from .scenario import (ChannelConfig, PhysioConfig, ProcessingConfig,
                       RadarConfig, RisPanel, Scenario, db_to_linear,
                       dbm_to_watts, default_placement)
from .strategy import StrategyConfig


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


_UNIT_TABLES = {
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3},
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6},
    "db": {"dB": 1.0},
}


def _require(ok: bool, value, key: str, what: str):
    if not ok:
        raise ConfigError(f"{key}: expected {what}, got {value!r}")
    return value


def _number(value, key: str) -> float:
    # PyYAML reads an exponent without a dot (`1e-10`) as a string.
    try:
        number = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = math.nan
    _require(math.isfinite(number), value, key, "a finite number")
    return number


def _finite(derive, value, key: str):
    """`derive()`; an overflow, raised or warned, is a config error on `key`."""
    derived = math.inf
    with suppress(OverflowError, FloatingPointError), np.errstate(over="raise"):
        derived = derive()
    _require(math.isfinite(derived), value, key, "a value that does not overflow")
    return derived


def parse_quantity(value, kind: str, key: str = "") -> float:
    """Parse a number-with-unit string (or bare SI number) of a given kind."""
    table = _UNIT_TABLES[kind]
    key = key or "quantity"
    parts = value.split() if isinstance(value, str) else [value]
    if len(parts) == 1:
        return _number(parts[0], key)
    _require(len(parts) == 2, value, key, "'<number> <unit>'")
    magnitude, unit = _number(parts[0], key), parts[1]
    if kind == "power" and unit == "dBm":
        return _finite(lambda: dbm_to_watts(magnitude), value, key)
    if unit not in table:
        raise ConfigError(f"{key}: unit {unit!r} does not measure {kind}; "
                          f"use {', '.join(table)}")
    return _finite(lambda: magnitude * table[unit], value, key)


def _count(value, key: str, least: int = 0) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _require(type(value) is int and value >= least, value, key,
                    f"a whole number >= {least}")


def _list(value, key: str, what: str, length=None):
    return _require(isinstance(value, (list, tuple))
                    and length in (None, len(value)), value, key, what)


def _vector(value, key: str) -> np.ndarray:
    return np.array([_number(v, key) for v in
                     _list(value, key, "a 3-vector in metres", 3)])


def _window(value, key: str):
    if value is None or value is False or value == "off":  # YAML off is false
        return None
    window = _count(value, key)
    return _require(window >= 3 and window % 2 == 1, window, key,
                    "an odd count >= 3 or off")


def _shares(value, key: str) -> list:
    what = "a non-empty list of shares in [0, 1]"
    shares = [_number(x, key) for x in _list(value, key, what)]
    return _require(shares and all(0.0 <= g <= 1.0 for g in shares),
                    shares, key, what)


def _band(value, key: str) -> tuple:
    low, high = (parse_quantity(v, "frequency", key)
                 for v in _list(value, key, "[low, high]", 2))
    return _require(low < high, (low, high), key, "low < high")


_KINDS = {
    **{kind: (lambda value, key, kind=kind: parse_quantity(value, kind, key))
       for kind in _UNIT_TABLES},
    "number": _number,
    "count": _count,
    "size": lambda v, key: _count(v, key, 1),
    "flag": lambda v, key: _require(isinstance(v, bool), v, key,
                                    "true or false"),
    "text": lambda v, key: _require(isinstance(v, str), v, key, "a string"),
    "vector": _vector,
    # None stands for auto, resolved against the placement in parse_config.
    "chest": lambda v, key: None if v == "auto" else _vector(v, key),
    "window": _window,
    "band": _band,
    "table": lambda v, key: tuple(
        tuple(_number(x, key) for x in _list(row, key, "[angle_deg, gain]", 2))
        for row in _list(v, key, "a list of [angle_deg, gain] pairs")),
    "shares": _shares,
}

# YAML section -> (Scenario attribute, default factory, rows of
# (YAML key, dataclass field, kind)). The strategy section is the
# StrategyConfig that parse_config returns beside the Scenario.
SCHEMA = {
    "radar": ("radar", RadarConfig, (
        ("element_count", "element_count", "count"),
        ("carrier_frequency", "carrier_frequency", "frequency"),
        ("bandwidth", "bandwidth", "frequency"),
        ("fast_time_samples", "fast_time_samples", "size"),
        ("pulse_repetition_interval", "pulse_repetition_interval", "time"),
        ("total_power", "total_power", "power"),
        ("noise_figure", "noise_figure_db", "db"),
        ("tone_frequency", "tone_frequency", "frequency"),
        ("element_spacing", "element_spacing", "length"),
    )),
    "ris": ("ris", RisPanel, (
        ("rows", "rows", "size"),
        ("cols", "cols", "size"),
        ("element_spacing", "element_spacing", "length"),
        ("phase_bits", "phase_bits", "count"),
    )),
    "placement": ("placement", default_placement, (
        ("radar", "radar_position", "vector"),
        ("ris_center", "ris_center", "vector"),
        ("ris_normal", "ris_normal", "vector"),
        ("target", "target_position", "vector"),
        ("chest_normal", "chest_normal", "chest"),
    )),
    "physiology": ("physio", PhysioConfig, (
        ("breathing_rate", "breath_rate", "frequency"),
        ("peak_to_peak", "peak_to_peak", "length"),
        ("duration", "duration", "time"),
        ("harmonics", "harmonics", "count"),
        ("drift", "drift", "length"),
        ("reflectivity_ris", "reflectivity_ris", "number"),
        ("reflectivity_direct", "reflectivity_direct", "number"),
        ("gain_exponent", "gain_exponent", "number"),
        ("gain_table", "gain_table", "table"),
        ("distortion_strength", "distortion_strength", "number"),
        ("trace_file", "trace_file", "text"),
    )),
    "channel": ("channel", ChannelConfig, (
        ("rician_k", "k_rice_db", "db"),
        ("clutter_strength", "clutter_strength", "number"),
    )),
    "processing": ("processing", ProcessingConfig, (
        ("clutter_window", "clutter_window", "window"),
        ("zero_pad_factor", "zero_pad_factor", "size"),
        ("band", "band", "band"),
        ("detrend", "detrend", "flag"),
    )),
    "strategy": ("strategy", StrategyConfig, (
        ("kind", "kind", "text"),
        ("ris_share", "ris_share", "number"),
        ("adaptation_step", "adaptation_step", "number"),
        ("prominence_threshold", "prominence_threshold_db", "db"),
        ("hysteresis_windows", "hysteresis_windows", "size"),
        ("initial_path", "initial_path", "text"),
        ("ideal", "ideal", "flag"),
    )),
}
SWEEP_ROWS = (("gammas", "gammas", "shares"), ("seeds", "seeds", "count"))


def _reject_unknown(section: dict, name: str) -> None:
    if section:
        raise ConfigError(f"unknown keys in {name!r} section: "
                          + ", ".join(sorted(map(str, section))))


def _parse_section(doc: dict, name: str, rows) -> dict:
    """Pop section `name` from `doc` and parse its keys into field values."""
    section = doc.pop(name, {})
    section = dict(_require(isinstance(section, dict), section,
                            f"{name!r} section", "a mapping"))
    fields = {field: _KINDS[kind](section.pop(key), f"{name}.{key}")
              for key, field, kind in rows if key in section}
    _reject_unknown(section, name)
    return fields


def parse_config(doc: dict):
    """Build (Scenario, StrategyConfig, sweep dict) from a parsed document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    doc = dict(doc)
    fields = {attr: _parse_section(doc, name, rows)
              for name, (attr, _, rows) in SCHEMA.items()}
    sweep = {"gammas": [round(0.1 * i, 1) for i in range(11)], "seeds": 20}
    sweep.update(_parse_section(doc, "sweep", SWEEP_ROWS))
    _reject_unknown(doc, "top-level")

    defaults = {attr: make() for attr, make, _ in SCHEMA.values()}
    placement, base = fields["placement"], defaults["placement"]
    if placement.get("chest_normal") is None:  # auto: face the RIS
        facing = (placement.get("ris_center", base.ris_center)
                  - placement.get("target_position", base.target_position))
        placement["chest_normal"] = facing / np.linalg.norm(facing)
    try:
        built = {attr: replace(default, **fields[attr])
                 for attr, default in defaults.items()}
        strategy = built.pop("strategy")
        scenario = Scenario(**built)
        # Read the scenario's seed-independent parts here, so that their
        # checks report as config errors; every run reuses them.
        radar = scenario.radar
        for key, derived in (("carrier_frequency", "wavelength"),
                             ("pulse_repetition_interval", "slow_rate")):
            value = getattr(radar, key)
            _require(value > 0, value, f"radar.{key}", "a positive value")
            _finite(lambda: getattr(radar, derived), value, f"radar.{key}")
        low, nyquist = scenario.processing.band[0], radar.slow_rate / 2
        _require(0 < low < nyquist, low, "processing.band",
                 f"a low edge in (0, {nyquist}) Hz, below Nyquist")
        radar.array_config
        _require(radar.element_count >= 2, radar.element_count,
                 "radar.element_count", "at least 2 elements to steer two paths")
        scenario.rcs_models
        _finite(lambda: scenario.noise_sigma, radar.noise_figure_db,
                "radar.noise_figure")
        k_db = scenario.channel.k_rice_db
        _finite(lambda: db_to_linear(k_db), k_db, "channel.rician_k")
        scenario.channel_model
        scenario.receive_weights
        _require(scenario.slow_time_samples >= 2, scenario.slow_time_samples,
                 "slow-time samples per window (duration x slow rate)",
                 "at least 2")
        window = scenario.processing.clutter_window
        _require(window is None or window <= scenario.slow_time_samples,
                 window, "processing.clutter_window",
                 f"at most the {scenario.slow_time_samples} slow-time samples "
                 "of a window (duration x slow rate)")
        physio = scenario.physio
        if physio.trace_file is None:
            check_breath_rate(physio.breath_rate, radar.slow_rate)
        else:
            have = scenario.trace.size
            _require(have == scenario.slow_time_samples, have,
                     f"samples in trace_file {physio.trace_file!r}",
                     f"{scenario.slow_time_samples} (duration x slow rate)")
    except OSError as exc:
        raise ConfigError(f"physiology.trace_file: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario, strategy, sweep


def load_config(path):
    """Load and parse a YAML scenario file.

    A relative `physiology.trace_file` is read from the file's directory.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    physio = doc.get("physiology") if isinstance(doc, dict) else None
    if isinstance(physio, dict) and isinstance(physio.get("trace_file"), str):
        doc["physiology"] = {**physio, "trace_file":
                             str(path.parent / physio["trace_file"])}
    return parse_config(doc)


def _plain(value):
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def serialize_config(scenario: Scenario, strategy: StrategyConfig,
                     sweep: dict) -> dict:
    """Scenario back to a plain-SI config document (parse round-trips).

    Unset optional fields are left out, except a clutter window of None
    (off): leaving that out would restore the default window.
    """
    doc = {}
    for name, (attr, _, rows) in SCHEMA.items():
        owner = strategy if attr == "strategy" else getattr(scenario, attr)
        values = ((key, kind, getattr(owner, field))
                  for key, field, kind in rows)
        doc[name] = {key: _plain(value) for key, kind, value in values
                     if not (value is None and kind != "window"
                             or kind == "table" and not value)}
    doc["sweep"] = dict(sweep)
    return doc


def config_hash(scenario: Scenario, strategy: StrategyConfig,
                sweep: dict) -> str:
    """Stable digest of the fully-resolved configuration; a trace file
    counts by the samples it holds, not by its path."""
    doc = serialize_config(scenario, strategy, sweep)
    if scenario.physio.trace_file is not None:
        doc["physiology"]["trace_file"] = scenario.trace.tolist()
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
