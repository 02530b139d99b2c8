"""Declarative scenario configs: strict parsing, loading, round-trip.

`SCHEMA` maps each YAML section to its dataclass and each key to a field,
a value kind and, for a count, its bounds; it drives both `parse_config`
and `serialize_config`. The README's configuration paragraph (Quick
start) states every rule; any violation raises `ConfigError`.
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
from .strategy import PROBE_PULSES, StrategyConfig


class ConfigError(ValueError):
    """Raised for malformed or inconsistent configuration input."""


# PyYAML's libyaml parser with the constructor and resolver of safe_load
LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
MAX_WINDOW_SAMPLES = 2 ** 20  # 72 h at the default 4 Hz pulse rate
MAX_RIS_ELEMENTS = 2 ** 16  # a 256 x 256 panel

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


def _count(value, key: str, least: int = 0, most: float = math.inf) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    what = f">= {least}" if most == math.inf else f"in [{least}, {most}]"
    return _require(type(value) is int and least <= value <= most, value, key,
                    f"a whole number {what}")


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
    "flag": lambda v, key: _require(isinstance(v, bool), v, key,
                                    "true or false"),
    "text": lambda v, key: _require(isinstance(v, str), v, key, "a string"),
    "vector": _vector,
    # None stands for auto, which Placement resolves to face the RIS.
    "chest": lambda v, key: None if v == "auto" else _vector(v, key),
    "window": _window,
    "band": _band,
    "table": lambda v, key: tuple(
        tuple(_number(x, key) for x in _list(row, key, "[angle_deg, gain]", 2))
        for row in _list(v, key, "a list of [angle_deg, gain] pairs")),
    "shares": _shares,
}

# YAML section -> (Scenario attribute, default factory, rows of
# (YAML key, dataclass field, kind, *bounds)); a count row's bounds are
# its least and most values. The strategy section is the StrategyConfig
# that parse_config returns beside the Scenario.
SCHEMA = {
    "radar": ("radar", RadarConfig, (
        ("element_count", "element_count", "count", 2, PROBE_PULSES),
        ("carrier_frequency", "carrier_frequency", "frequency"),
        ("bandwidth", "bandwidth", "frequency"),
        ("fast_time_samples", "fast_time_samples", "count", 1),
        ("pulse_repetition_interval", "pulse_repetition_interval", "time"),
        ("total_power", "total_power", "power"),
        ("noise_figure", "noise_figure_db", "db"),
        ("tone_frequency", "tone_frequency", "frequency"),
        ("element_spacing", "element_spacing", "length"),
    )),
    "ris": ("ris", RisPanel, (
        ("rows", "rows", "count", 1),
        ("cols", "cols", "count", 1),
        ("element_spacing", "element_spacing", "length"),
        ("phase_bits", "phase_bits", "count", 0, 1023),
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
        ("harmonics", "harmonics", "count", 0, 64),
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
        ("zero_pad_factor", "zero_pad_factor", "count", 1, 64),
        ("band", "band", "band"),
        ("detrend", "detrend", "flag"),
    )),
    "strategy": ("strategy", StrategyConfig, (
        ("kind", "kind", "text"),
        ("ris_share", "ris_share", "number"),
        ("adaptation_step", "adaptation_step", "number"),
        ("prominence_threshold", "prominence_threshold_db", "db"),
        ("hysteresis_windows", "hysteresis_windows", "count", 1),
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
    fields = {field: _KINDS[kind](section.pop(key), f"{name}.{key}", *bounds)
              for key, field, kind, *bounds in rows if key in section}
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
    fields["placement"].setdefault("chest_normal", None)  # auto unless given
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
        scenario.rcs_models
        _finite(lambda: scenario.noise_sigma, radar.noise_figure_db,
                "radar.noise_figure")
        k_db = scenario.channel.k_rice_db
        _finite(lambda: db_to_linear(k_db), k_db, "channel.rician_k")
        panel = scenario.ris.rows * scenario.ris.cols
        _require(panel <= MAX_RIS_ELEMENTS, panel, "ris.rows x ris.cols",
                 f"at most {MAX_RIS_ELEMENTS} panel elements")
        scenario.channel_model
        scenario.receive_weights
        samples = _finite(lambda: scenario.slow_time_samples,
                          scenario.physio.duration, "physiology.duration")
        _require(2 <= samples <= MAX_WINDOW_SAMPLES, samples,
                 "slow-time samples per window (duration x slow rate)",
                 f"at least 2 and at most {MAX_WINDOW_SAMPLES}")
        window = scenario.processing.clutter_window
        _require(window is None or window <= scenario.slow_time_samples,
                 window, "processing.clutter_window",
                 f"at most the {scenario.slow_time_samples} slow-time samples "
                 "of a window (duration x slow rate)")
        physio = scenario.physio
        if physio.trace_file is None:
            check_breath_rate(physio.breath_rate, radar.slow_rate,
                              physio.harmonics)
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
        doc = yaml.load(path.read_text(), Loader=LOADER) or {}
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
                  for key, field, kind, *_ in rows)
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
