"""Sensing-resource strategies and the evaluate/reconfigure loop.

Three ways to divide the budget between the direct and RIS paths:
temporal (alternate full-power beams over slow-time slots), spatial
(one constant split precoder), and opportunistic (all power on the
currently trusted path, switching on sustained quality loss). The share
parameter is always the RIS path's share of the resource.
"""

from dataclasses import dataclass, replace

import numpy as np

from .beamform import split_precoder
from .scenario import (Scenario, child_seeds, compose_record,
                       draw_acquisition, extract_vital_signs,
                       simulate_acquisition)
from .sigproc import VitalSignEstimate, root_music_doa

STRATEGY_KINDS = ("temporal", "spatial", "opportunistic")
SWEEP_KINDS = ("spatial", "temporal")  # the kinds with a share to sweep
SEED_CHUNK = 32  # seeds per gamma_sweep draw, which bounds its memory
PROBE_PULSES = 64  # a position probe's pulses, from the window's start


@dataclass(frozen=True)
class StrategyConfig:
    """Strategy selection plus its tuning parameters.

    `ris_share` is the RIS path's resource share: transmit-response share
    for spatial separation, slot fraction for temporal separation. The
    opportunistic mode uses the threshold/hysteresis pair, and in `ideal`
    mode fixes the geometrically favoured path instead of probing.
    """

    kind: str = "spatial"
    ris_share: float = 0.5
    adaptation_step: float = 0.1
    prominence_threshold_db: float = 6.0
    hysteresis_windows: int = 2
    initial_path: str | None = None
    ideal: bool = False

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if not 0.0 <= self.ris_share <= 1.0:
            raise ValueError(f"ris_share {self.ris_share} outside [0, 1]")
        if self.initial_path not in (None, "direct", "ris"):
            raise ValueError(f"invalid initial_path {self.initial_path!r}")
        # either would turn the loop away from the path it should favour
        if self.hysteresis_windows < 1:
            raise ValueError(
                f"hysteresis_windows {self.hysteresis_windows} must be >= 1")
        if self.adaptation_step < 0:
            raise ValueError(
                f"adaptation_step {self.adaptation_step} must be >= 0")


@dataclass
class LoopState:
    """Mutable state carried across acquisition windows."""

    gamma_ris: float = 0.5
    active_path: str | None = None
    below_threshold_count: int = 0
    theta_direct_estimate: float | None = None
    needs_position_fix: bool = False


def branch_slots(strategy: StrategyConfig, length: int):
    """The direct and RIS slot sets: under temporal separation a leading
    direct block and a trailing RIS block, else None (every slot)."""
    if strategy.kind != "temporal":
        return None, None
    boundary = length - int(round(strategy.ris_share * length))
    return np.arange(boundary), np.arange(boundary, length)


def plan_transmissions(scn: Scenario, strategy: StrategyConfig, length: int):
    """Per-pulse precoder schedule (M, L) and the slot sets it implies,
    built on the scene's steering pair and the radar's power budget.

    Spatial separation repeats one split precoder; temporal separation
    alternates the two full-power beams over the slot pattern;
    opportunistic transmits full power on the selected path throughout.
    """
    a_direct, a_ris = scn.tx_steering
    slots_direct, slots_ris = branch_slots(strategy, length)
    # (RIS share, slots) per beam; opportunistic: all on the active path
    constant = strategy.ris_share if strategy.kind == "spatial" \
        else float((strategy.initial_path or "ris") == "ris")
    beams = ((constant, slice(None)),) if slots_direct is None \
        else ((0.0, slots_direct), (1.0, slots_ris))
    schedule = np.empty((a_direct.size, length), dtype=complex)
    for share, slots in beams:
        schedule[:, slots] = split_precoder(
            a_direct, a_ris, 1.0 - share, scn.radar.total_power).weights[:, None]
    return schedule, slots_direct, slots_ris


def evaluate_and_update(state: LoopState, est_direct: VitalSignEstimate,
                        est_ris: VitalSignEstimate,
                        strategy: StrategyConfig) -> LoopState:
    """Reallocate sensing resources from the latest per-path quality scores.

    Spatial mode nudges the RIS share toward the more prominent path;
    opportunistic mode abandons the active path only after the configured
    number of consecutive below-threshold windows. When both paths fall
    below threshold the position estimate is flagged for repetition.
    """
    prom = {"direct": est_direct.peak_prominence_db if est_direct else 0.0,
            "ris": est_ris.peak_prominence_db if est_ris else 0.0}
    state = replace(state)  # the caller's state is left as it was
    threshold = strategy.prominence_threshold_db
    state.needs_position_fix = (prom["direct"] < threshold
                                and prom["ris"] < threshold)
    if strategy.kind == "spatial":
        step = strategy.adaptation_step * np.sign(prom["ris"] - prom["direct"])
        state.gamma_ris = float(np.clip(state.gamma_ris + step, 0.05, 0.95))
        return state
    if strategy.kind == "opportunistic":
        if state.active_path is None:  # probing: a graded path, if any
            graded = [p for p, e in zip(prom, (est_direct, est_ris)) if e]
            state.active_path = max(graded, key=prom.get, default=None)
            state.below_threshold_count = 0
            return state
        if prom[state.active_path] < threshold:
            state.below_threshold_count += 1
        else:
            state.below_threshold_count = 0
        if state.below_threshold_count >= strategy.hysteresis_windows:
            state.active_path = "direct" if state.active_path == "ris" else "ris"
            state.below_threshold_count = 0
        return state
    return state  # temporal: fixed slot pattern


def run_once(scn: Scenario, strategy: StrategyConfig, seed):
    """One acquisition window under a strategy, extracted on both paths.

    Returns (record, estimates) as `simulate_acquisition` and
    `extract_vital_signs` give them: with a leading seed axis for a list
    of seeds, which run as one array pass, and plain for one seed.
    """
    schedule, slots_direct, slots_ris = plan_transmissions(
        scn, strategy, scn.slow_time_samples)
    record, _ = simulate_acquisition(scn, schedule, seed)
    return record, extract_vital_signs(scn, record, slots_direct, slots_ris)


def gamma_sweep(scn: Scenario, kind: str, gamma_grid, seeds) -> list[dict]:
    """Sweep the RIS share over a grid of values and seeds.

    Returns one row per (gamma, path, seed) with the dominant in-band peak
    and its prominence. A share of zero for the temporal RIS branch (or one
    for the direct branch) leaves that branch without slots; such rows carry
    NaN peak and zero prominence. Each share gets one plan; each pass of up
    to SEED_CHUNK seeds is drawn once and composed under every plan. Rows
    come in grid order and equal the lone `run_once` bit for bit.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"sweep supports {' or '.join(SWEEP_KINDS)}, got {kind!r}")
    length, seeds = scn.slow_time_samples, list(seeds)
    # StrategyConfig rejects a share outside [0, 1] before any draw
    plans = [(g, plan_transmissions(
        scn, StrategyConfig(kind=kind, ris_share=g), length))
        for g in map(float, gamma_grid)]
    if not plans:
        raise ValueError("gamma grid is empty")
    rows = [[] for _ in plans]
    for start in range(0, len(seeds), SEED_CHUNK):
        chunk = seeds[start:start + SEED_CHUNK]
        draw = draw_acquisition(scn, chunk, length)
        for (gamma, (schedule, *slots)), out in zip(plans, rows):
            estimates = extract_vital_signs(
                scn, compose_record(draw, schedule), *slots)
            for i, seed in enumerate(chunk):
                for path, est in estimates.items():
                    peak, prom = ((float(est.peak_freq[i]),
                                   float(est.peak_prominence_db[i]))
                                  if est else (np.nan, 0.0))
                    out.append({"gamma": gamma, "path": path,
                                "seed": int(seed), "peak_freq_Hz": peak,
                                "prominence_db": prom})
    return [row for out in rows for row in out]


@dataclass(frozen=True)
class WindowLog:
    """One closed-loop iteration: allocation used and what it measured."""

    window: int
    strategy: str
    gamma_ris: float | None
    estimates: dict
    state: LoopState

    def to_json_dict(self) -> dict:
        entry = {"window": self.window, "strategy": self.strategy}
        if self.gamma_ris is not None:
            entry["gamma_ris"] = round(self.gamma_ris, 6)
        if self.state.active_path is not None:
            entry["active_path"] = self.state.active_path
        for label, est in sorted(self.estimates.items()):
            if est is None:
                continue
            entry[f"{label}_peak_freq_Hz"] = round(est.peak_freq, 6)
            entry[f"{label}_prominence_db"] = round(est.peak_prominence_db, 3)
        entry["needs_position_fix"] = self.state.needs_position_fix
        return entry


def estimate_position(scn: Scenario, seed) -> float:
    """Root-MUSIC azimuth of the target from a probing acquisition.

    The probe is the window's first PROBE_PULSES pulses (all of a shorter
    window) on the scenario's own scene, under the equal-split precoder.
    It strips the static component and resolves two arrivals; the one
    farther from the known RIS direction is taken as the target.
    """
    n = min(PROBE_PULSES, scn.slow_time_samples)
    schedule = plan_transmissions(scn, StrategyConfig(), n)[0]
    record = compose_record(draw_acquisition(scn, seed, n), schedule)
    snapshots = record - record.mean(axis=1, keepdims=True)
    angles = root_music_doa(snapshots, 2, scn.radar.array_config)
    return float(angles[np.argmax(np.abs(angles - scn.angles.theta_ris))])


def _best_path_by_geometry(scn: Scenario) -> str:
    angles = scn.angles
    return ("ris" if angles.chest_incidence_ris
            <= angles.chest_incidence_direct else "direct")


def run_closed_loop(scn: Scenario, strategy: StrategyConfig, n_windows: int,
                    seed=0) -> list[WindowLog]:
    """Execute the full sensing loop for a number of acquisition windows.

    Position estimation seeds the steering, the first window measures with
    the configured allocation (an equal split for opportunistic probing,
    unless `ideal` fixes the known-best path), and each window's quality
    scores update the allocation for the next one.
    """
    state = LoopState(gamma_ris=strategy.ris_share)
    if strategy.kind == "opportunistic":
        init = strategy.initial_path
        if strategy.ideal:
            init = init or _best_path_by_geometry(scn)
        state.active_path = init
    logs: list[WindowLog] = []
    if n_windows <= 0:
        return logs
    # children: the initial probe, one per window, then one per re-fix probe
    seeds = child_seeds(seed, 2 * n_windows + 1)
    window_seeds, fix_seeds = seeds[1:n_windows + 1], seeds[n_windows + 1:]
    state.theta_direct_estimate = estimate_position(scn, seeds[0])
    for idx, (wseed, fix_seed) in enumerate(zip(window_seeds, fix_seeds)):
        window_strategy = _window_strategy(strategy, state)
        _, estimates = run_once(scn, window_strategy, wseed)
        state = evaluate_and_update(state, estimates["direct"],
                                    estimates["ris"], strategy)
        if state.needs_position_fix:
            state.theta_direct_estimate = estimate_position(scn, fix_seed)
        gamma = None if window_strategy.kind == "opportunistic" \
            else window_strategy.ris_share
        logs.append(WindowLog(window=idx, strategy=strategy.kind,
                              gamma_ris=gamma, estimates=estimates,
                              state=replace(state)))
    return logs


def _window_strategy(strategy: StrategyConfig, state: LoopState) -> StrategyConfig:
    """Bind the current loop state into the per-window transmit plan."""
    if strategy.kind == "spatial":
        return replace(strategy, ris_share=state.gamma_ris)
    if strategy.kind == "opportunistic":
        if state.active_path is None:
            # probing window: split evenly so both paths are observable
            return StrategyConfig(kind="spatial", ris_share=0.5)
        return replace(strategy, initial_path=state.active_path)
    return strategy
