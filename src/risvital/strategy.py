"""Sensing-resource strategies and the evaluate/reconfigure loop.

Three ways to divide the budget between the direct and RIS paths:
temporal (alternate full-power beams over slow-time slots), spatial
(one constant split precoder), and opportunistic (all power on the
currently trusted path, switching on sustained quality loss). The share
parameter is always the RIS path's share of the resource, and a transmit
plan is fixed by its kind and that share alone.
"""

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from .beamform import split_precoder
from .scenario import (Scenario, child_seeds, compose_record,
                       draw_acquisition, extract_vital_signs,
                       simulate_acquisition)
from .sigproc import VitalSignEstimate, root_music_doa

STRATEGY_KINDS = ("temporal", "spatial", "opportunistic")
SWEEP_KINDS = ("spatial", "temporal")  # the kinds with a share to sweep
PASS_PULSES = 32 * 240  # pulses per sweep or loop draw, which bound its memory
PROBE_PULSES = 64  # a position probe's pulses, from the window's start
# RIS share of an opportunistic window: all power on its path, or the
# even split that a probe of both paths (and `estimate_position`) uses
PATH_SHARES = {"direct": 0.0, "ris": 1.0, None: 0.5}


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


@dataclass(frozen=True)
class LoopState:
    """State carried across acquisition windows; each update is a copy."""

    gamma_ris: float = 0.5
    active_path: str | None = None
    below_threshold_count: int = 0
    theta_direct_estimate: float | None = None
    needs_position_fix: bool = False


def branch_slots(kind: str, share: float, length: int):
    """The direct and RIS slot slices: under temporal separation a leading
    direct block and a trailing RIS block, else every slot for both."""
    if kind != "temporal":
        return slice(None), slice(None)
    boundary = length - int(round(share * length))
    return slice(boundary), slice(boundary, length)


def plan_transmissions(scn: Scenario, kind: str, share: float, length: int):
    """Per-pulse precoder schedule (M, L) and the slot slices it implies,
    built on the scene's steering pair and the radar's power budget.

    Temporal separation alternates the two full-power beams over the slot
    pattern, with `share` of the slots on the RIS beam; every other kind
    repeats one split precoder with `share` of the response on the RIS
    path, which opportunistic sets from PATH_SHARES.
    """
    if not 0.0 <= share <= 1.0:
        raise ValueError(f"RIS share {share} outside [0, 1]")
    a_direct, a_ris = scn.tx_steering
    slots_direct, slots_ris = branch_slots(kind, share, length)
    # (direct share, slots) per beam; one beam on every slot unless temporal
    beams = (((1.0, slots_direct), (0.0, slots_ris)) if kind == "temporal"
             else ((1.0 - share, slots_direct),))
    schedule = np.empty((a_direct.size, length), dtype=complex)
    for gamma, slots in beams:
        schedule[:, slots] = split_precoder(
            a_direct, a_ris, gamma, scn.radar.total_power).weights[:, None]
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
    threshold = strategy.prominence_threshold_db
    fix = prom["direct"] < threshold and prom["ris"] < threshold
    if strategy.kind == "spatial":
        step = strategy.adaptation_step * np.sign(prom["ris"] - prom["direct"])
        return replace(state, needs_position_fix=fix, gamma_ris=float(
            np.clip(state.gamma_ris + step, 0.05, 0.95)))
    if strategy.kind != "opportunistic":  # temporal: fixed slot pattern
        return replace(state, needs_position_fix=fix)
    path, count = state.active_path, 0
    if path is None:  # probing: a graded path, if any
        graded = [p for p, e in zip(prom, (est_direct, est_ris)) if e]
        path = max(graded, key=prom.get, default=None)
    elif prom[path] < threshold:
        count = state.below_threshold_count + 1
        if count >= strategy.hysteresis_windows:
            path, count = "direct" if path == "ris" else "ris", 0
    return replace(state, needs_position_fix=fix, active_path=path,
                   below_threshold_count=count)


def run_once(scn: Scenario, strategy: StrategyConfig, seed):
    """One acquisition window under a strategy, extracted on both paths.

    Returns the (M, L) record and the per-path estimates of `seed`: row 0
    of its batch of one, so each estimate holds Python-float peaks. A lone
    opportunistic window transmits on `initial_path`, the RIS by default.
    """
    share = PATH_SHARES[strategy.initial_path or "ris"] \
        if strategy.kind == "opportunistic" else strategy.ris_share
    schedule, *slots = plan_transmissions(scn, strategy.kind, share,
                                          scn.slow_time_samples)
    record = simulate_acquisition(scn, schedule, [seed])
    return record[0], {label: est and est.row(0) for label, est
                       in extract_vital_signs(scn, record, *slots).items()}


def gamma_sweep(scn: Scenario, kind: str, gamma_grid, seeds) -> list[dict]:
    """Sweep the RIS share over a grid of values and seeds.

    Returns one row per (gamma, path, seed) with the dominant in-band peak
    and its prominence. A share of zero for the temporal RIS branch (or one
    for the direct branch) leaves that branch without slots; such rows carry
    NaN peak and zero prominence. Each share gets one plan; each pass of
    PASS_PULSES' worth of seeds (one at least) is drawn once and composed
    under every plan. Rows come in grid order and equal the lone `run_once`
    bit for bit.
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(f"sweep supports {' or '.join(SWEEP_KINDS)}, got {kind!r}")
    length, seeds = scn.slow_time_samples, list(seeds)
    # a share outside [0, 1] is rejected here, before any draw
    plans = [(g, plan_transmissions(scn, kind, g, length))
             for g in map(float, gamma_grid)]
    if not plans:
        raise ValueError("gamma grid is empty")
    rows, per_pass = [[] for _ in plans], max(1, PASS_PULSES // length)
    for start in range(0, len(seeds), per_pass):
        chunk = seeds[start:start + per_pass]
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
    """One closed-loop iteration: allocation used and what it measured.

    `active_path` is the path this window transmitted on, None when it
    probed both; `state` is the state after this window's update."""

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


def estimate_position(scn: Scenario, seed) -> float:
    """Root-MUSIC azimuth of the target from a probing acquisition.

    The probe is the window's first PROBE_PULSES pulses (all of a shorter
    window) on the scenario's own scene, under the equal-split precoder.
    It strips the static component and resolves two arrivals; the one
    farther from the known RIS direction is taken as the target.
    """
    n = min(PROBE_PULSES, scn.slow_time_samples)
    schedule = plan_transmissions(scn, "spatial", PATH_SHARES[None], n)[0]
    record = compose_record(draw_acquisition(scn, [seed], n), schedule)[0]
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

    Position estimation seeds the steering, and each window's quality
    scores update the allocation for the next. A window plans its kind at
    the state's share (spatial, temporal) or at PATH_SHARES of its path
    (opportunistic: the even split while probing, unless `ideal` fixes the
    known-best path), and logs that share unless it had a path. Window `i`
    draws child `i + 1` of `seed`, in passes of PASS_PULSES' worth of
    windows (one at least). A window takes its row from the latest batch
    when that batch composed it under the share its real state picks: the
    batch is keyed by (window, share), all a plan is built from (a loop's
    kind is fixed; only temporal plans split the slots, at a fixed share).
    Otherwise the loop predicts a batch from it to the end of the pass by
    chaining its own update, as if each window measured what the latest
    one did, and composes and extracts each row under its predicted plan.
    Window 0, with no estimate yet, runs alone; a batch holds at most twice
    the windows the last one kept when it missed, and the cap doubles after
    a batch is used up. Each window is bit for bit its lone `run_once`.
    """
    if n_windows <= 0:
        return []
    # children: the initial probe, one per window, then one per re-fix probe
    seeds = child_seeds(seed, 2 * n_windows + 1)
    window_seeds, fix_seeds = seeds[1:n_windows + 1], seeds[n_windows + 1:]
    path = strategy.initial_path or (_best_path_by_geometry(scn)
                                     if strategy.ideal else None)
    state = LoopState(
        gamma_ris=strategy.ris_share,
        active_path=path if strategy.kind == "opportunistic" else None,
        theta_direct_estimate=estimate_position(scn, seeds[0]))
    length = scn.slow_time_samples
    per_pass = max(1, PASS_PULSES // length)
    plan = cache(lambda share: plan_transmissions(scn, strategy.kind, share,
                                                  length))

    def share_of(state):
        return PATH_SHARES[state.active_path] \
            if strategy.kind == "opportunistic" else state.gamma_ris

    logs, batch, latest, cap = [], {}, None, per_pass
    for idx in range(n_windows):
        if idx % per_pass == 0:  # a pass starts: draw its windows
            start, stop = idx, min(idx + per_pass, n_windows)
            draw = draw_acquisition(scn, window_seeds[start:stop], length)
        path, share = state.active_path, share_of(state)  # what it transmits
        if (idx, share) not in batch:
            kept = sum(i < idx for i, _ in batch)  # rows the last batch served
            cap = min(2 * (kept if kept < len(batch) else cap), per_pass)
            # the coming windows' states, as if each measured `latest`
            predicted = [state]
            while latest and len(predicted) < min(cap, stop - idx):
                predicted.append(evaluate_and_update(
                    predicted[-1], latest["direct"], latest["ris"], strategy))
            shares = [share_of(s) for s in predicted]
            estimates = extract_vital_signs(scn, compose_record(
                draw, np.stack([plan(g)[0] for g in shares]),
                slice(idx - start, idx - start + len(shares))),
                *plan(shares[0])[1:])
            batch = {(idx + k, g): k for k, g in enumerate(shares)}
        latest = {label: est and est.row(batch[idx, share])
                  for label, est in estimates.items()}
        state = evaluate_and_update(state, latest["direct"], latest["ris"],
                                    strategy)
        if state.needs_position_fix:
            state = replace(state, theta_direct_estimate=estimate_position(
                scn, fix_seeds[idx]))
        logs.append(WindowLog(window=idx, strategy=strategy.kind,
                              gamma_ris=None if path else share,
                              active_path=path, estimates=latest, state=state))
    return logs
