"""Test-side references and fixture writers that the package never calls."""

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from risvital.physio import _CM_PER_M, TRACE_HEADER, TraceError
from risvital.scenario import child_seed
from risvital.sigproc import SignalError
from risvital.strategy import (LoopState, StrategyConfig, WindowLog,
                               _best_path_by_geometry, estimate_position,
                               evaluate_and_update, run_once)


def make_waveform(f0: float, fs: float, n_samples: int) -> np.ndarray:
    """Unit-power pulsed sinusoid sqrt(2)*cos(2*pi*f0*k/fs), k = 0..K-1."""
    if not 0 < f0 < fs / 2.0:
        raise SignalError(f"tone frequency {f0} Hz aliases at fs = {fs} Hz")
    k = np.arange(n_samples)
    return np.sqrt(2.0) * np.cos(2.0 * np.pi * f0 * k / fs)


def matched_filter(y_fast: np.ndarray, waveform: np.ndarray) -> complex:
    """Correlate one fast-time row with the waveform, normalized by its energy.

    A channel that returns c * s yields exactly c, so the output scale is
    independent of the pulse length.
    """
    y_fast = np.asarray(y_fast, dtype=complex)
    if y_fast.shape != waveform.shape:
        raise SignalError(
            f"fast-time length {y_fast.shape} != waveform {waveform.shape}")
    return complex(np.vdot(waveform, y_fast) / np.vdot(waveform, waveform))


def write_csv(path, header, rows) -> None:
    """The CLI's CSV writer as it stood on `csv.writer`: floats as their
    shortest round-trip `repr`, every other field as `csv.writer` renders
    it, `\\n` line ends."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


def write_trace_csv(path, traces) -> None:
    """Write one or two traces [m -> cm on disk] in the ingestion schema."""
    traces = list(traces)
    if not 1 <= len(traces) <= 2:
        raise TraceError("trace CSV holds one or two traces")
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise TraceError("traces must have equal length")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER[:1 + len(traces)])
        for i in range(lengths.pop()):
            writer.writerow([i] + [repr(float(t[i] * _CM_PER_M))
                                   for t in traces])


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


def closed_loop_by_window(scn, strategy, n_windows: int, seed=0) -> list:
    """The closed loop with one `run_once` per window: the reference that
    `run_closed_loop`, which draws its windows in passes, equals bit for
    bit."""
    init = None
    if strategy.kind == "opportunistic":
        init = strategy.initial_path
        if strategy.ideal:
            init = init or _best_path_by_geometry(scn)
    logs = []
    if n_windows <= 0:
        return logs
    # children: the initial probe, one per window, then one per re-fix probe
    seeds = [child_seed(seed, i) for i in range(2 * n_windows + 1)]
    window_seeds, fix_seeds = seeds[1:n_windows + 1], seeds[n_windows + 1:]
    state = LoopState(gamma_ris=strategy.ris_share, active_path=init,
                      theta_direct_estimate=estimate_position(scn, seeds[0]))
    for idx, (wseed, fix_seed) in enumerate(zip(window_seeds, fix_seeds)):
        path = state.active_path  # the path this window transmits on
        window_strategy = _window_strategy(strategy, state)
        _, estimates = run_once(scn, window_strategy, wseed)
        state = evaluate_and_update(state, estimates["direct"],
                                    estimates["ris"], strategy)
        if state.needs_position_fix:
            state = replace(state, theta_direct_estimate=estimate_position(
                scn, fix_seed))
        gamma = None if window_strategy.kind == "opportunistic" \
            else window_strategy.ris_share
        logs.append(WindowLog(window=idx, strategy=strategy.kind,
                              gamma_ris=gamma, active_path=path,
                              estimates=estimates, state=state))
    return logs
