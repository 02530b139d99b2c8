"""A batch of seeds gives each seed the bits of its lone run."""

from collections import Counter
from dataclasses import replace
from math import ceil
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import closed_loop_by_window
from risvital import scenario as scenario_module
from risvital import strategy as strategy_module
from risvital.config import load_config
from risvital.physio import RcsModel
from risvital.scenario import Scenario, compose_record, draw_acquisition, \
    extract_vital_signs, simulate_acquisition
from risvital.sigproc import Spectrum, VitalSignEstimate
from risvital.strategy import (PASS_PULSES, STRATEGY_KINDS, StrategyConfig,
                               gamma_sweep, plan_transmissions,
                               run_closed_loop, run_once)

SCN = Scenario()
ROOT = Path(__file__).resolve().parents[1]
PASS_SEEDS = PASS_PULSES // SCN.slow_time_samples  # seeds per draw pass


def assert_same_estimates(a: dict, b: dict):
    assert a.keys() == b.keys()
    for label in a:
        if a[label] is None or b[label] is None:
            assert a[label] is b[label] is None
            continue
        npt.assert_array_equal(a[label].displacement, b[label].displacement)
        npt.assert_array_equal(a[label].spectrum.power,
                               b[label].spectrum.power)
        assert repr((a[label].peak_freq, a[label].peak_prominence_db)) == \
            repr((b[label].peak_freq, b[label].peak_prominence_db))


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["spatial", "temporal"]),
       grid=st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                               st.floats(0.0, 1.0)), min_size=1, max_size=3),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                      max_size=2 * PASS_SEEDS + 1),
       detrend=st.booleans())
def test_sweep_rows_equal_lone_runs(kind, grid, seeds, detrend):
    # without the detrend the row means are large, so a reduction that
    # rounds differently in a batch shows in the spectra; a grid of
    # several shares (repeats allowed) composes each draw more than once
    scn = replace(SCN, processing=replace(SCN.processing, detrend=detrend))
    rows = gamma_sweep(scn, kind, grid, seeds)
    assert [(r["gamma"], r["seed"], r["path"]) for r in rows] == \
        [(g, s, p) for g in grid for s in seeds for p in ("direct", "ris")]
    for pair in zip(rows[::2], rows[1::2]):
        strategy = StrategyConfig(kind=kind, ris_share=pair[0]["gamma"])
        _, estimates = run_once(scn, strategy, pair[0]["seed"])
        for row in pair:
            est = estimates[row["path"]]
            want = (est.peak_freq, est.peak_prominence_db) if est \
                else (np.nan, 0.0)
            assert repr((row["peak_freq_Hz"], row["prominence_db"])) == \
                repr(want)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["spatial", "temporal", "opportunistic"]),
       entropy=st.integers(0, 2 ** 128 - 1),
       spawn_key=st.lists(st.integers(0, 100), max_size=3))
def test_run_once_replays_from_one_seed_sequence(kind, entropy, spawn_key):
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
    strategy = StrategyConfig(kind=kind, ris_share=0.5)
    record, first = run_once(SCN, strategy, ss)
    again, second = run_once(SCN, strategy, ss)
    assert ss.n_children_spawned == 0
    npt.assert_array_equal(record, again)
    assert_same_estimates(first, second)


def test_batched_acquisition_stacks_lone_acquisitions():
    schedule, slots_direct, slots_ris = plan_transmissions(
        SCN, "temporal", 0.4, SCN.slow_time_samples)
    seeds = [3, np.random.SeedSequence(5), 3, 11]
    record = simulate_acquisition(SCN, schedule, seeds)
    channel = draw_acquisition(SCN, seeds, schedule.shape[1])[0]
    assert record.shape == (4,) + schedule.shape
    batch = extract_vital_signs(SCN, record, slots_direct, slots_ris)
    for est in batch.values():  # one estimate per path, seeds stacked
        assert est.displacement.shape[0] == len(seeds)
        assert est.spectrum.power.shape[0] == len(seeds)
        assert est.peak_freq.shape == est.peak_prominence_db.shape \
            == (len(seeds),)
    for i, seed in enumerate(seeds):
        alone = simulate_acquisition(SCN, schedule, [seed])
        ch = draw_acquisition(SCN, [seed], schedule.shape[1])[0]
        npt.assert_array_equal(record[i], alone[0])
        for name in ("H_I", "h_T", "h_D", "H_C"):
            npt.assert_array_equal(getattr(channel, name)[i],
                                   getattr(ch, name)[0])
        npt.assert_array_equal(channel.reflection, ch.reflection)
        lone = extract_vital_signs(SCN, alone, slots_direct, slots_ris)
        assert_same_estimates({p: est.row(i) for p, est in batch.items()},
                              {p: est.row(0) for p, est in lone.items()})


def _lasting(scn: Scenario, pulses: int) -> Scenario:
    """The scene with windows of `pulses` pulses."""
    return replace(scn, physio=replace(
        scn.physio, duration=pulses / scn.radar.slow_rate))


def _facing(scn: Scenario, chest: str) -> Scenario:
    """The scene with the chest facing the RIS (as built), the radar, or
    [-0.8, 0.6, 0], where a spatial loop's share climbs and falls."""
    place = scn.placement
    if chest == "ris":
        return scn
    normal = place.radar_position - place.target_position \
        if chest == "radar" else np.array([-0.8, 0.6, 0.0])
    return replace(scn, placement=replace(
        place, chest_normal=normal / np.linalg.norm(normal)))


SEED_SEQUENCES = st.builds(
    lambda entropy, key: np.random.SeedSequence(entropy, spawn_key=key),
    st.integers(0, 2 ** 128 - 1),
    st.lists(st.integers(0, 100), max_size=3).map(tuple))


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(STRATEGY_KINDS), ideal=st.booleans(),
       initial_path=st.sampled_from([None, "direct", "ris"]),
       threshold_db=st.sampled_from([6.0, 1e3]),
       chest=st.sampled_from(["ris", "radar", "oscillating"]),
       n_windows=st.integers(0, PASS_SEEDS + 2),
       seed=st.one_of(st.integers(0, 2 ** 32 - 1), SEED_SEQUENCES),
       pulses=st.just(SCN.slow_time_samples))
@example(kind="opportunistic", ideal=False, initial_path=None,
         threshold_db=6.0, chest="ris", n_windows=2 * PASS_SEEDS + 1,
         seed=3, pulses=SCN.slow_time_samples)
# the two loops whose plans are hardest to predict: a spatial share that
# climbs and falls, and a path switch every two windows
@example(kind="spatial", ideal=False, initial_path=None, threshold_db=6.0,
         chest="oscillating", n_windows=2 * PASS_SEEDS + 1, seed=3,
         pulses=SCN.slow_time_samples)
@example(kind="opportunistic", ideal=False, initial_path=None,
         threshold_db=1e3, chest="ris", n_windows=2 * PASS_SEEDS + 1, seed=3,
         pulses=SCN.slow_time_samples)
# windows longer than PASS_PULSES: every pass holds one window
@example(kind="spatial", ideal=False, initial_path=None, threshold_db=6.0,
         chest="oscillating", n_windows=3, seed=3, pulses=8192)
def test_closed_loop_equals_one_run_per_window(
        kind, ideal, initial_path, threshold_db, chest, n_windows, seed,
        pulses):
    # a threshold of 1e3 dB is never reached, so every window re-fixes
    scn = _facing(_lasting(SCN, pulses), chest)
    strategy = StrategyConfig(kind=kind, ideal=ideal,
                              initial_path=initial_path,
                              prominence_threshold_db=threshold_db)
    logs = run_closed_loop(scn, strategy, n_windows, seed)
    want = closed_loop_by_window(scn, strategy, n_windows, seed)
    assert len(logs) == len(want) == n_windows
    for log, ref in zip(logs, want):
        assert log.to_json_dict() == ref.to_json_dict()
        assert log.state == ref.state
        assert log.estimates.keys() == ref.estimates.keys()
        for label, est in log.estimates.items():
            other = ref.estimates[label]
            if est is None or other is None:
                assert est is other is None
                continue
            for a, b in ((est.displacement, other.displacement),
                         (est.spectrum.freqs, other.spectrum.freqs),
                         (est.spectrum.power, other.spectrum.power)):
                assert a.tobytes() == b.tobytes()
            assert repr((est.peak_freq, est.peak_prominence_db)) == \
                repr((other.peak_freq, other.peak_prominence_db))


def _extracted_rows(monkeypatch) -> list:
    """Rows of each `extract_vital_signs` call the closed loop makes."""
    rows = []
    real_extract = strategy_module.extract_vital_signs

    def record_extract(scn, record, *slots):
        rows.append(len(record))
        return real_extract(scn, record, *slots)

    monkeypatch.setattr(strategy_module, "extract_vital_signs",
                        record_extract)
    return rows


@pytest.mark.parametrize("threshold_db", [6.0, 1e3])
def test_closed_loop_logs_the_states_it_updates(threshold_db, monkeypatch):
    # at 1000 dB every window re-fixes, which replaces the position estimate
    calls = []
    real_update = strategy_module.evaluate_and_update

    def record_update(state, *estimates):
        calls.append((state, real_update(state, *estimates)))
        return calls[-1][1]

    monkeypatch.setattr(strategy_module, "evaluate_and_update",
                        record_update)
    logs = run_closed_loop(SCN, StrategyConfig(
        kind="opportunistic", prominence_threshold_db=threshold_db), 5, 3)
    before = [calls[0][0]] + [log.state for log in logs[:-1]]
    for log, state in zip(logs, before):
        # a window's own update is the last from its state; any earlier
        # one predicted it
        out = [new for old, new in calls if old is state][-1]
        if log.state.needs_position_fix:
            assert log.state == replace(out, theta_direct_estimate=(
                log.state.theta_direct_estimate))
        else:
            assert log.state is out
    assert any(log.state.needs_position_fix for log in logs) \
        == (threshold_db > 100)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_closed_loop_extracts_predicted_windows_as_one_batch(kind,
                                                             monkeypatch):
    # window 0 has no estimate to predict from; the other four are one batch
    rows = _extracted_rows(monkeypatch)
    run_closed_loop(SCN, StrategyConfig(kind=kind), 5, 3)
    assert rows == [1, 4]


@pytest.mark.parametrize("n_windows", [PASS_SEEDS + 1, 2 * PASS_SEEDS + 1])
def test_closed_loop_bounds_rows_lost_to_mispredictions(n_windows,
                                                        monkeypatch):
    # the share climbs and falls, so predictions often miss
    rows = _extracted_rows(monkeypatch)
    logs = run_closed_loop(_facing(SCN, "oscillating"),
                           StrategyConfig(kind="spatial"), n_windows, 3)
    shares = [log.gamma_ris for log in logs]
    assert any(a > b for a, b in zip(shares, shares[1:]))
    assert any(a < b for a, b in zip(shares, shares[1:]))
    assert n_windows < sum(rows) <= 3 * n_windows


# (extraction calls, rows extracted) of a seed-3 loop at 5, 33 and 65
# windows: what the loop's batching costs, which any rewrite must keep
STEADY_BATCHES = {5: (2, 5), 33: (3, 33), 65: (4, 65)}


@pytest.mark.parametrize("kind, chest, threshold_db, batches", [
    ("spatial", "oscillating", 6.0, {5: (4, 8), 33: (21, 90), 65: (43, 156)}),
    ("opportunistic", "ris", 1e3, STEADY_BATCHES),
    ("spatial", "ris", 6.0, STEADY_BATCHES),
    ("temporal", "ris", 6.0, STEADY_BATCHES),
])
@pytest.mark.parametrize("n_windows", [5, 33, 65])
def test_closed_loop_batches_are_pinned(kind, chest, threshold_db, batches,
                                        n_windows, monkeypatch):
    rows = _extracted_rows(monkeypatch)
    run_closed_loop(_facing(SCN, chest), StrategyConfig(
        kind=kind, prominence_threshold_db=threshold_db), n_windows, 3)
    assert (len(rows), sum(rows)) == batches[n_windows]


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(["spatial", "temporal"]),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=6),
       shares=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
       start=st.integers(0, 2))
def test_record_of_schedule_stack_equals_rows_composed_alone(
        kind, seeds, shares, start):
    length = SCN.slow_time_samples
    draw = draw_acquisition(SCN, [99] * start + seeds, length)
    schedules = [plan_transmissions(SCN, kind, share, length)[0]
                 for share in shares[:len(seeds)]]
    record = compose_record(draw, np.stack(schedules),
                            slice(start, start + len(seeds)))
    assert record.shape == (len(seeds),) + schedules[0].shape
    for row, seed, schedule in zip(record, seeds, schedules):
        assert row.tobytes() == \
            simulate_acquisition(SCN, schedule, [seed])[0].tobytes()


@pytest.mark.parametrize("n_windows, threshold_db", [
    (0, 6.0), (1, 1e3), (PASS_SEEDS, 6.0), (2 * PASS_SEEDS + 1, 6.0)])
def test_closed_loop_draws_each_window_pass_once(n_windows, threshold_db,
                                                 monkeypatch):
    draws = []
    real_draw = strategy_module.draw_acquisition

    def record_draw(scn, seeds, length):
        draws.append((len(seeds), length))
        return real_draw(scn, seeds, length)

    monkeypatch.setattr(strategy_module, "draw_acquisition", record_draw)
    logs = run_closed_loop(SCN, StrategyConfig(
        kind="spatial", prominence_threshold_db=threshold_db), n_windows, 5)
    length = SCN.slow_time_samples
    windows = [n for n, n_pulses in draws if n_pulses == length]
    refixes = sum(log.state.needs_position_fix for log in logs)
    assert windows == [min(PASS_SEEDS, n_windows - start)
                       for start in range(0, n_windows, PASS_SEEDS)]
    assert len(windows) == ceil(n_windows / PASS_SEEDS)
    assert len(draws) == len(windows) + (n_windows > 0) + refixes


def test_long_windows_draw_one_seed_per_pass(monkeypatch):
    # a pass holds PASS_PULSES' worth of windows, and one at least; at 8192
    # pulses a batch of seeds would also round apart from their lone runs
    scn = _lasting(SCN, 8192)
    draws = []
    real_draw = strategy_module.draw_acquisition

    def record_draw(scn, seeds, length):
        if length == 8192:
            draws.append(len(seeds))
        return real_draw(scn, seeds, length)

    monkeypatch.setattr(strategy_module, "draw_acquisition", record_draw)
    rows = gamma_sweep(scn, "spatial", [0.5], range(3))
    assert draws == [1, 1, 1]
    for pair in zip(rows[::2], rows[1::2]):
        _, estimates = run_once(scn, StrategyConfig(), pair[0]["seed"])
        assert [row["prominence_db"] for row in pair] == \
            [estimates[row["path"]].peak_prominence_db for row in pair]
    draws.clear()
    run_closed_loop(scn, StrategyConfig(), 3, 1)
    assert draws == [1, 1, 1]


@pytest.mark.parametrize("kind", ["spatial", "temporal"])
def test_sweep_pass_builds_one_estimate_per_path(kind, monkeypatch):
    counts = Counter()
    for cls in (Spectrum, VitalSignEstimate):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def built(n_seeds):
        counts.clear()
        gamma_sweep(SCN, kind, [0.5], range(n_seeds))
        return dict(counts)

    one = built(1)
    # a spatial pass grades both branches as one stack: its spectrum, then
    # one per path; temporal branches differ in length and stay apart
    assert one["VitalSignEstimate"] == 2
    assert one["Spectrum"] == (3 if kind == "spatial" else 2)
    assert built(20) == one


SHARED = ("angles", "channel_model", "tx_steering", "receive_weights",
          "trace", "rcs_models", "noise_sigma")


def test_static_scene_built_once_per_scenario():
    scn = Scenario()
    assert not set(SHARED) & set(vars(scn))
    run_once(scn, StrategyConfig(), 0)
    built = {name: getattr(scn, name) for name in SHARED}
    run_once(scn, StrategyConfig(kind="temporal"), 1)
    for name, value in built.items():
        assert getattr(scn, name) is value, name
    # shared by every run, so no caller may write into it
    for array in (scn.tx_steering[0], scn.receive_weights[1], scn.trace,
                  scn.channel_model.reflection, scn.channel_model.los[0]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_parse_and_run_build_each_scene_piece_once(monkeypatch):
    counts = Counter()

    def steering(cfg, theta, _original=scenario_module.ula_steering):
        counts["ula_steering"] += 1
        return _original(cfg, theta)

    def rcs_init(self, *args, _init=RcsModel.__init__, **kwargs):
        counts["RcsModel"] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(scenario_module, "ula_steering", steering)
    monkeypatch.setattr(RcsModel, "__init__", rcs_init)
    scn, strategy, _ = load_config(ROOT / "scenario.example.yaml")
    run_once(scn, strategy, 0)
    assert counts == {"ula_steering": 2, "RcsModel": 2}
