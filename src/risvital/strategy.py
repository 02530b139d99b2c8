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
from .scenario import (RunResult, Scenario, _simulate, child_seeds,
                       extract_vital_signs, simulate_acquisition)
from .sigproc import VitalSignEstimate, root_music_doa

STRATEGY_KINDS = ("temporal", "spatial", "opportunistic")
# Seeds per batched pass in gamma_sweep. The pass stacks every per-seed
# array, so the chunk bounds its memory; 32 runs a default 20-seed share
# as one pass.
SEED_CHUNK = 32
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


def plan_transmissions(strategy: StrategyConfig, length: int,
                       a_direct: np.ndarray, a_ris: np.ndarray,
                       total_power: float):
    """Per-pulse precoder schedule (M, L) and the slot sets it implies.

    Spatial separation repeats one split precoder; temporal separation
    alternates the two full-power beams over the slot pattern;
    opportunistic transmits full power on the selected path throughout.
    """
    a_direct, a_ris = (np.asarray(a, dtype=complex) for a in (a_direct, a_ris))
    slots_direct, slots_ris = branch_slots(strategy, length)
    if slots_direct is not None:
        w_direct = split_precoder(a_direct, a_ris, 1.0, total_power).weights
        w_ris = split_precoder(a_direct, a_ris, 0.0, total_power).weights
        schedule = np.empty((a_direct.size, length), dtype=complex)
        schedule[:, slots_direct] = w_direct[:, None]
        schedule[:, slots_ris] = w_ris[:, None]
        return schedule, slots_direct, slots_ris
    # opportunistic: the whole response on the active path
    share = strategy.ris_share if strategy.kind == "spatial" \
        else float((strategy.initial_path or "ris") == "ris")
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


def _plan(scn: Scenario, strategy: StrategyConfig):
    return plan_transmissions(strategy, scn.slow_time_samples,
                              *scn.static.tx_steering, scn.radar.total_power)


def _run_batch(scn: Scenario, seeds, plan):
    """One window per seed under one transmit plan, as one array pass.

    Returns (record, estimates) as `simulate_acquisition` and
    `extract_vital_signs` give them: with a leading seed axis for a list
    of seeds, plain for one seed.
    """
    schedule, slots_direct, slots_ris = plan
    record, _ = simulate_acquisition(scn, schedule, seeds)
    estimates = extract_vital_signs(scn, record, *scn.static.rx_weights,
                                    slots_direct=slots_direct,
                                    slots_ris=slots_ris)
    return record, estimates


def run_once(scn: Scenario, strategy: StrategyConfig, seed) -> RunResult:
    """One acquisition window under a strategy, extracted on both paths."""
    record, estimates = _run_batch(scn, seed, _plan(scn, strategy))
    gamma = strategy.ris_share if strategy.kind in ("spatial", "temporal") \
        else None
    return RunResult(record=record, estimates=estimates, gamma_ris=gamma)


def gamma_sweep(scn: Scenario, kind: str, gamma_grid, seeds) -> list[dict]:
    """Sweep the RIS share over a grid of values and seeds.

    Returns one row per (gamma, path, seed) with the dominant in-band peak
    and its prominence. A share of zero for the temporal RIS branch (or one
    for the direct branch) leaves that branch without slots; such rows carry
    NaN peak and zero prominence. Each share's plan is built once and its
    seeds run in passes of up to SEED_CHUNK; every row equals the lone
    `run_once` at its seed bit for bit.
    """
    if kind not in ("spatial", "temporal"):
        raise ValueError(f"sweep supports spatial or temporal, got {kind!r}")
    gamma_grid = list(gamma_grid)
    if not gamma_grid:
        raise ValueError("gamma grid is empty")
    if any(not 0.0 <= g <= 1.0 for g in gamma_grid):
        raise ValueError("gamma grid values must lie in [0, 1]")
    seeds = list(seeds)
    rows = []
    for gamma in gamma_grid:
        plan = _plan(scn, StrategyConfig(kind=kind, ris_share=float(gamma)))
        for start in range(0, len(seeds), SEED_CHUNK):
            chunk = seeds[start:start + SEED_CHUNK]
            _, estimates = _run_batch(scn, chunk, plan)
            for i, seed in enumerate(chunk):
                for path in ("direct", "ris"):
                    est = estimates[path]
                    peak, prom = ((float(est.peak_freq[i]),
                                   float(est.peak_prominence_db[i]))
                                  if est else (np.nan, 0.0))
                    rows.append({"gamma": float(gamma), "path": path,
                                 "seed": int(seed), "peak_freq_Hz": peak,
                                 "prominence_db": prom})
    return rows


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
    st = scn.static
    n = min(PROBE_PULSES, scn.slow_time_samples)
    schedule = plan_transmissions(StrategyConfig(), n, *st.tx_steering,
                                  scn.radar.total_power)[0]
    record, _ = _simulate(scn, schedule, seed)
    snapshots = record - record.mean(axis=1, keepdims=True)
    angles = root_music_doa(snapshots, 2, scn.radar.array_config)
    return float(angles[np.argmax(np.abs(angles - st.angles.theta_ris))])


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
        result = run_once(scn, window_strategy, wseed)
        state = evaluate_and_update(state, result.estimates["direct"],
                                    result.estimates["ris"], strategy)
        if state.needs_position_fix:
            state.theta_direct_estimate = estimate_position(scn, fix_seed)
        logs.append(WindowLog(window=idx, strategy=strategy.kind,
                              gamma_ris=result.gamma_ris,
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
