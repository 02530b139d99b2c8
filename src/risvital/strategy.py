"""Sensing-resource strategies and the evaluate/reconfigure loop.

Three ways to divide the budget between the direct and RIS paths:
temporal (alternate full-power beams over slow-time slots), spatial
(one constant split precoder), and opportunistic (all power on the
currently trusted path, switching on sustained quality loss). The share
parameter is always the RIS path's share of the resource.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .beamform import split_precoder
from .scenario import (RunResult, Scenario, child_seeds, extract_vital_signs,
                       simulate_acquisition, transmit_steering)
from .sigproc import VitalSignEstimate, root_music_doa

STRATEGY_KINDS = ("temporal", "spatial", "opportunistic")


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


@dataclass
class LoopState:
    """Mutable state carried across acquisition windows."""

    mode: str
    gamma_ris: float = 0.5
    active_path: str | None = None
    last_prominence: dict = field(default_factory=dict)
    below_threshold_count: int = 0
    theta_direct_estimate: float | None = None
    ris_profile_version: int = 0
    needs_position_fix: bool = False


def temporal_slots(length: int, ris_share: float):
    """Contiguous slot split: leading direct block, trailing RIS block."""
    n_ris = int(round(ris_share * length))
    boundary = length - n_ris
    return np.arange(boundary), np.arange(boundary, length)


def plan_transmissions(strategy: StrategyConfig, length: int,
                       a_direct: np.ndarray, a_ris: np.ndarray,
                       total_power: float):
    """Per-pulse precoder schedule (M, L) and the slot sets it implies.

    Spatial separation repeats one split precoder; temporal separation
    alternates the two full-power beams over the slot pattern;
    opportunistic transmits full power on the selected path throughout.
    """
    a_direct = np.asarray(a_direct, dtype=complex)
    a_ris = np.asarray(a_ris, dtype=complex)
    if strategy.kind == "spatial":
        w = split_precoder(a_direct, a_ris, 1.0 - strategy.ris_share,
                           total_power).weights
        return np.tile(w[:, None], (1, length)), None, None
    if strategy.kind == "temporal":
        slots_direct, slots_ris = temporal_slots(length, strategy.ris_share)
        w_direct = split_precoder(a_direct, a_ris, 1.0, total_power).weights
        w_ris = split_precoder(a_direct, a_ris, 0.0, total_power).weights
        schedule = np.empty((a_direct.size, length), dtype=complex)
        schedule[:, slots_direct] = w_direct[:, None]
        schedule[:, slots_ris] = w_ris[:, None]
        return schedule, slots_direct, slots_ris
    # opportunistic: gamma pinned to the active path
    path = strategy.initial_path or "ris"
    share = 1.0 if path == "ris" else 0.0
    w = split_precoder(a_direct, a_ris, 1.0 - share, total_power).weights
    return np.tile(w[:, None], (1, length)), None, None


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
    state = replace(state, last_prominence=dict(prom))
    threshold = strategy.prominence_threshold_db
    state.needs_position_fix = (prom["direct"] < threshold
                                and prom["ris"] < threshold)
    if state.mode == "spatial":
        step = strategy.adaptation_step * np.sign(prom["ris"] - prom["direct"])
        state.gamma_ris = float(np.clip(state.gamma_ris + step, 0.05, 0.95))
        return state
    if state.mode == "opportunistic":
        if state.active_path is None:
            state.active_path = max(prom, key=prom.get)
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


def run_once(scn: Scenario, strategy: StrategyConfig, seed) -> RunResult:
    """One acquisition window under a strategy, extracted on both paths."""
    a_rx_direct, a_rx_ris = scn.steering_pair()
    a_tx_direct, a_tx_ris = transmit_steering(scn)
    length = scn.slow_time_samples
    schedule, slots_direct, slots_ris = plan_transmissions(
        strategy, length, a_tx_direct, a_tx_ris, scn.radar.total_power)
    record, ch = simulate_acquisition(scn, schedule, seed)
    w_rx_direct = split_precoder(a_rx_direct.entries, a_rx_ris.entries, 1.0,
                                 scn.radar.total_power).weights
    w_rx_ris = split_precoder(a_rx_direct.entries, a_rx_ris.entries, 0.0,
                              scn.radar.total_power).weights
    estimates = extract_vital_signs(scn, record, w_rx_direct, w_rx_ris,
                                    slots_direct=slots_direct,
                                    slots_ris=slots_ris)
    gamma = strategy.ris_share if strategy.kind in ("spatial", "temporal") \
        else None
    return RunResult(record=record, estimates=estimates, channel=ch,
                     seed=seed if isinstance(seed, int) else -1,
                     gamma_ris=gamma, slots_ris=slots_ris)


def gamma_sweep(scn: Scenario, kind: str, gamma_grid, seeds) -> list[dict]:
    """Sweep the RIS share over a grid of values and seeds.

    Returns one row per (gamma, path, seed) with the dominant in-band peak
    and its prominence. A share of zero for the temporal RIS branch (or one
    for the direct branch) leaves that branch without slots; such rows carry
    NaN peak and zero prominence.
    """
    if kind not in ("spatial", "temporal"):
        raise ValueError(f"sweep supports spatial or temporal, got {kind!r}")
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        raise ValueError("gamma grid is empty")
    if any(not 0.0 <= g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma grid values must lie in [0, 1]")
    rows = []
    for gamma in gamma_grid:
        strategy = StrategyConfig(kind=kind, ris_share=float(gamma))
        for seed in seeds:
            result = run_once(scn, strategy, seed)
            for path in ("direct", "ris"):
                est = result.estimates.get(path)
                rows.append({"gamma": float(gamma), "path": path,
                             "seed": int(seed),
                             "peak_freq_Hz": est.peak_freq if est else np.nan,
                             "prominence_db":
                                 est.peak_prominence_db if est else 0.0})
    return rows


@dataclass(frozen=True)
class WindowLog:
    """One closed-loop iteration: allocation used and what it measured."""

    window: int
    strategy: str
    gamma_ris: float | None
    active_path: str | None
    estimates: dict
    state: LoopState

    def to_json_dict(self) -> dict:
        entry = {"window": self.window, "strategy": self.strategy}
        if self.gamma_ris is not None:
            entry["gamma_ris"] = round(self.gamma_ris, 6)
        if self.active_path is not None:
            entry["active_path"] = self.active_path
        for label, est in sorted(self.estimates.items()):
            if est is None:
                continue
            entry[f"{label}_peak_freq_Hz"] = round(est.peak_freq, 6)
            entry[f"{label}_prominence_db"] = round(est.peak_prominence_db, 3)
        entry["needs_position_fix"] = self.state.needs_position_fix
        return entry


def estimate_position(scn: Scenario, seed, n_snapshots: int = 64) -> float:
    """Root-MUSIC azimuth of the target from a dedicated probing acquisition.

    Probes with the equal-split precoder, strips the static component, and
    resolves two arrivals; the one farther from the known RIS direction is
    taken as the target.
    """
    probe_scn = scn
    if scn.slow_time_samples != n_snapshots:
        duration = n_snapshots / scn.radar.slow_rate
        probe_scn = replace(scn, physio=replace(scn.physio, duration=duration))
    a_tx_direct, a_tx_ris = transmit_steering(probe_scn)
    w = split_precoder(a_tx_direct, a_tx_ris, 0.5,
                       probe_scn.radar.total_power).weights
    schedule = np.tile(w[:, None], (1, n_snapshots))
    record, _ = simulate_acquisition(probe_scn, schedule, seed)
    snapshots = record.samples - record.samples.mean(axis=1, keepdims=True)
    angles = root_music_doa(snapshots, 2, probe_scn.radar.array_config)
    theta_ris = probe_scn.angles.theta_ris
    return float(angles[np.argmax(np.abs(angles - theta_ris))])


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
    state = LoopState(mode=strategy.kind, gamma_ris=strategy.ris_share)
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
    state.ris_profile_version = 1
    for idx, (wseed, fix_seed) in enumerate(zip(window_seeds, fix_seeds)):
        window_strategy = _window_strategy(strategy, state)
        result = run_once(scn, window_strategy, wseed)
        est_direct = result.estimates["direct"]
        est_ris = result.estimates["ris"]
        state = evaluate_and_update(state, est_direct, est_ris, strategy)
        if state.needs_position_fix:
            state.theta_direct_estimate = estimate_position(scn, fix_seed)
            state.ris_profile_version += 1
        logs.append(WindowLog(window=idx, strategy=strategy.kind,
                              gamma_ris=result.gamma_ris,
                              active_path=state.active_path,
                              estimates=result.estimates,
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
