from copy import deepcopy
from dataclasses import FrozenInstanceError, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital import strategy as strategy_module
from risvital.beamform import temporal_weights
from risvital.scenario import Scenario, noiseless
from risvital.sigproc import Spectrum, VitalSignEstimate
from risvital.strategy import (PATH_SHARES, STRATEGY_KINDS, SWEEP_KINDS,
                               LoopState, StrategyConfig, branch_slots,
                               evaluate_and_update, gamma_sweep,
                               plan_transmissions, run_closed_loop, run_once)


def fake_estimate(prominence_db, peak=0.133):
    return VitalSignEstimate(
        displacement=np.zeros(16) + 1e-6,
        spectrum=Spectrum(np.linspace(0, 2, 9), np.ones(9)),
        peak_freq=peak, peak_prominence_db=prominence_db)


class TestPlanTransmissions:
    def setup_method(self):
        self.scn = Scenario()
        self.a_d, self.a_r = self.scn.tx_steering
        self.p = self.scn.radar.total_power

    def test_spatial_constant_schedule(self):
        schedule, sd, sr = plan_transmissions(self.scn, "spatial", 0.5, 240)
        assert schedule.shape == (5, 240)
        assert sd == sr == slice(None)
        assert np.all(schedule == schedule[:, :1])
        power = np.real(np.vdot(schedule[:, 0], schedule[:, 0]))
        assert power == pytest.approx(self.p, rel=1e-9)

    def test_temporal_half_split(self):
        schedule, sd, sr = plan_transmissions(self.scn, "temporal", 0.5, 240)
        sd, sr = range(240)[sd], range(240)[sr]
        assert len(sd) == 120 and len(sr) == 120
        assert set(sd) | set(sr) == set(range(240))
        for l in (0, 119, 120, 239):
            power = np.real(np.vdot(schedule[:, l], schedule[:, l]))
            assert power == pytest.approx(self.p, rel=1e-9)
        # direct slots null the RIS direction and vice versa
        assert abs(np.vdot(self.a_r, schedule[:, 0])) < 1e-12
        assert abs(np.vdot(self.a_d, schedule[:, 239])) < 1e-12

    def test_temporal_matches_per_pulse_oracle(self):
        # the slot-indexed schedule must equal, byte for byte, the one built
        # pulse by pulse from temporal_weights
        length = 240
        for share in (0.0, 0.1, 0.5, 0.9, 1.0):
            schedule, sd, sr = plan_transmissions(self.scn, "temporal", share,
                                                  length)
            sd, sr = range(length)[sd], range(length)[sr]
            for l in range(length):
                oracle = temporal_weights(l, sd, sr, self.a_d, self.a_r,
                                          self.p).weights
                assert schedule[:, l].tobytes() == oracle.tobytes(), (share, l)

    @pytest.mark.parametrize("path", ["direct", "ris"])
    def test_opportunistic_pins_one_path(self, path):
        # all power on the path: the other direction is nulled
        schedule, sd, sr = plan_transmissions(
            self.scn, "opportunistic", PATH_SHARES[path], 100)
        assert sd == sr == slice(None)
        assert np.all(schedule == schedule[:, :1])
        other = self.a_d if path == "ris" else self.a_r
        assert abs(np.vdot(other, schedule[:, 0])) < 1e-12
        power = np.real(np.vdot(schedule[:, 0], schedule[:, 0]))
        assert power == pytest.approx(self.p, rel=1e-9)

    def test_probe_plan_is_the_even_spatial_split(self):
        probe = plan_transmissions(self.scn, "opportunistic",
                                   PATH_SHARES[None], 100)
        split = plan_transmissions(self.scn, "spatial", 0.5, 100)
        assert probe[0].tobytes() == split[0].tobytes()
        assert probe[1:] == split[1:]

    @pytest.mark.parametrize("kind", STRATEGY_KINDS)
    @pytest.mark.parametrize("share", [-0.1, 1.5, np.nan])
    def test_plan_rejects_share_outside_unit_interval(self, kind, share):
        with pytest.raises(ValueError):
            plan_transmissions(self.scn, kind, share, 100)

    def test_power_budget_over_share_grid(self):
        for share in np.linspace(0, 1, 11):
            schedule, _, _ = plan_transmissions(self.scn, "spatial",
                                                float(share), 16)
            for l in range(16):
                power = np.real(np.vdot(schedule[:, l], schedule[:, l]))
                assert power <= self.p * (1 + 1e-9)

    def test_invalid_share_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="spatial", ris_share=1.2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="mixed")


def _temporal_slots(length, share):
    """The two temporal branches' slot indices over a `length` window."""
    slots = branch_slots("temporal", share, length)
    return tuple(range(length)[s] for s in slots)


class TestTemporalSlots:
    def test_contiguous_blocks(self):
        direct, ris = _temporal_slots(240, 0.25)
        assert len(direct) == 180 and len(ris) == 60
        npt.assert_array_equal(ris, np.arange(180, 240))

    def test_extreme_shares(self):
        direct, ris = _temporal_slots(240, 0.0)
        assert len(ris) == 0 and len(direct) == 240
        direct, ris = _temporal_slots(240, 1.0)
        assert len(direct) == 0 and len(ris) == 240

    @pytest.mark.parametrize("kind", ["spatial", "opportunistic"])
    def test_every_slot_without_temporal_split(self, kind):
        for share in (0.0, 0.3, 1.0):
            assert branch_slots(kind, share, 240) \
                == (slice(None), slice(None))


class TestEvaluateAndUpdate:
    def test_loop_state_is_frozen(self):
        state = LoopState()
        with pytest.raises(FrozenInstanceError):
            state.gamma_ris = 0.3

    def test_spatial_share_moves_toward_better_path(self):
        state = LoopState(gamma_ris=0.5)
        cfg = StrategyConfig(kind="spatial")
        out = evaluate_and_update(state, fake_estimate(2.0),
                                  fake_estimate(13.0), cfg)
        assert out.gamma_ris == pytest.approx(0.6)

    def test_equal_prominence_keeps_state(self):
        state = LoopState(gamma_ris=0.5)
        cfg = StrategyConfig(kind="spatial")
        out = evaluate_and_update(state, fake_estimate(8.0),
                                  fake_estimate(8.0), cfg)
        assert out.gamma_ris == pytest.approx(0.5)

    def test_share_clipped_to_band(self):
        cfg = StrategyConfig(kind="spatial")
        state = LoopState(gamma_ris=0.9)
        for _ in range(5):
            state = evaluate_and_update(
                state, fake_estimate(2.0),
                fake_estimate(13.0), cfg)
        assert state.gamma_ris == pytest.approx(0.95)
        for _ in range(20):
            state = evaluate_and_update(
                state, fake_estimate(13.0),
                fake_estimate(2.0), cfg)
        assert state.gamma_ris == pytest.approx(0.05)

    def test_both_paths_weak_flags_position_fix(self):
        state = LoopState(gamma_ris=0.5)
        cfg = StrategyConfig(kind="spatial")
        out = evaluate_and_update(state, fake_estimate(1.0),
                                  fake_estimate(1.0), cfg)
        assert out.needs_position_fix

    @pytest.mark.parametrize("est_direct, est_ris, chosen", [
        (None, None, None), (None, 0.0, "ris"), (0.0, None, "direct"),
        (3.0, 9.0, "ris"), (9.0, 3.0, "direct")])
    def test_probe_picks_only_a_graded_path(self, est_direct, est_ris,
                                            chosen):
        cfg = StrategyConfig(kind="opportunistic")
        estimates = [None if p is None else fake_estimate(p)
                     for p in (est_direct, est_ris)]
        out = evaluate_and_update(LoopState(), *estimates, cfg)
        assert out.active_path == chosen

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(STRATEGY_KINDS), gamma=st.floats(0.05, 0.95),
           path=st.sampled_from([None, "direct", "ris"]),
           count=st.integers(0, 3), fix=st.booleans(),
           proms=st.lists(st.one_of(st.none(), st.floats(0.0, 40.0)),
                          min_size=2, max_size=2))
    def test_leaves_state_and_estimates_unmodified(self, kind, gamma, path,
                                                   count, fix, proms):
        # the closed loop chains the update from its real state to predict
        # the coming windows, reusing one window's estimates for each
        state = LoopState(gamma, path, count, 0.1, fix)
        estimates = [None if p is None else fake_estimate(p) for p in proms]
        before = deepcopy((state, estimates))
        evaluate_and_update(state, *estimates, StrategyConfig(kind=kind))
        assert state == before[0]
        for est, old in zip(estimates, before[1]):
            if est is None or old is None:
                assert est is old is None
                continue
            assert (est.peak_freq, est.peak_prominence_db) == \
                (old.peak_freq, old.peak_prominence_db)
            for a, b in ((est.displacement, old.displacement),
                         (est.spectrum.freqs, old.spectrum.freqs),
                         (est.spectrum.power, old.spectrum.power)):
                assert a.tobytes() == b.tobytes()

    def test_opportunistic_hysteresis(self):
        cfg = StrategyConfig(kind="opportunistic", prominence_threshold_db=6.0,
                             hysteresis_windows=2)
        state = LoopState(active_path="ris")
        # one bad window: no switch yet
        state = evaluate_and_update(state, fake_estimate(20.0),
                                    fake_estimate(3.0), cfg)
        assert state.active_path == "ris"
        # second consecutive bad window: switch and reset the counter
        state = evaluate_and_update(state, fake_estimate(20.0),
                                    fake_estimate(3.0), cfg)
        assert state.active_path == "direct"
        assert state.below_threshold_count == 0

    def test_recovery_resets_counter(self):
        cfg = StrategyConfig(kind="opportunistic")
        state = LoopState(active_path="ris")
        state = evaluate_and_update(state, fake_estimate(5.0),
                                    fake_estimate(3.0), cfg)
        state = evaluate_and_update(state, fake_estimate(5.0),
                                    fake_estimate(20.0), cfg)
        state = evaluate_and_update(state, fake_estimate(5.0),
                                    fake_estimate(3.0), cfg)
        assert state.active_path == "ris"  # never two consecutive lows

    def test_no_chattering(self):
        # switches must be separated by at least the hysteresis depth
        cfg = StrategyConfig(kind="opportunistic", hysteresis_windows=2)
        state = LoopState(active_path="ris")
        switches = []
        for window in range(8):
            before = state.active_path
            state = evaluate_and_update(
                state, fake_estimate(1.0), fake_estimate(1.0),
                cfg)
            if state.active_path != before:
                switches.append(window)
        assert all(b - a >= 2 for a, b in zip(switches, switches[1:]))


class TestRunOnce:
    def test_estimates_cover_both_paths(self):
        _, estimates = run_once(Scenario(), StrategyConfig(kind="spatial"),
                                seed=4)
        assert set(estimates) == {"direct", "ris"}

    def test_same_seed_sequence_replays(self):
        ss = np.random.SeedSequence(7)
        record, first = run_once(Scenario(), StrategyConfig(kind="spatial"),
                                 ss)
        again, second = run_once(Scenario(), StrategyConfig(kind="spatial"),
                                 ss)
        npt.assert_array_equal(record, again)
        for path in ("direct", "ris"):
            assert (first[path].peak_prominence_db
                    == second[path].peak_prominence_db)


class TestClosedLoop:
    def test_zero_windows(self):
        assert run_closed_loop(Scenario(),
                               StrategyConfig(kind="spatial"), 0) == []

    def test_opportunistic_selects_ris_when_chest_faces_ris(self):
        scn = noiseless(Scenario())
        logs = run_closed_loop(scn, StrategyConfig(kind="opportunistic"), 4,
                               seed=2)
        assert logs[0].state.active_path == "ris"
        assert all(log.state.active_path == "ris" for log in logs)
        assert not any(log.state.needs_position_fix for log in logs)

    def test_opportunistic_selects_direct_in_mirrored_scenario(self):
        base = noiseless(Scenario())
        radar_facing = (base.placement.radar_position
                        - base.placement.target_position)
        radar_facing = radar_facing / np.linalg.norm(radar_facing)
        mirrored = replace(base, placement=replace(
            base.placement, chest_normal=radar_facing))
        logs = run_closed_loop(mirrored, StrategyConfig(kind="opportunistic"),
                               3, seed=2)
        assert all(log.state.active_path == "direct" for log in logs)

    def test_position_estimate_close_to_truth(self):
        scn = noiseless(Scenario())
        logs = run_closed_loop(scn, StrategyConfig(kind="spatial"), 1, seed=6)
        est = logs[0].state.theta_direct_estimate
        assert abs(np.degrees(est) - 0.0) < 2.0

    def test_spatial_share_trajectory_stays_bounded(self):
        scn = Scenario()
        logs = run_closed_loop(scn, StrategyConfig(kind="spatial"), 6, seed=3)
        shares = [log.state.gamma_ris for log in logs]
        assert all(0.05 - 1e-12 <= s <= 0.95 + 1e-12 for s in shares)
        # RIS path dominates the default scenario: share should climb
        assert shares[-1] > 0.5

    def test_temporal_windows_keep_the_configured_share(self):
        logs = run_closed_loop(Scenario(), StrategyConfig(
            kind="temporal", ris_share=0.6), 3, seed=1)
        assert [(log.gamma_ris, log.state.gamma_ris) for log in logs] \
            == [(0.6, 0.6)] * 3

    def test_log_entries_expose_quality(self):
        logs = run_closed_loop(Scenario(), StrategyConfig(kind="spatial"), 2,
                               seed=0)
        entry = logs[0].to_json_dict()
        for key in ("window", "strategy", "gamma_ris", "ris_peak_freq_Hz",
                    "ris_prominence_db", "direct_peak_freq_Hz"):
            assert key in entry

    def test_position_fix_probes_draw_their_own_streams(self, monkeypatch):
        # an unreachable threshold forces a re-fix after every window;
        # windows and probes alike draw through draw_acquisition
        drawn, probes = [], []
        real_draw = strategy_module.draw_acquisition
        real_estimate = strategy_module.estimate_position

        def record_draw(scn, seeds, length):
            drawn.extend(seed.spawn_key for seed in seeds)
            return real_draw(scn, seeds, length)

        def record_probe(scn, seed):
            probes.append(seed.spawn_key)
            return real_estimate(scn, seed)

        monkeypatch.setattr(strategy_module, "draw_acquisition", record_draw)
        monkeypatch.setattr(strategy_module, "estimate_position",
                            record_probe)
        logs = run_closed_loop(Scenario(), StrategyConfig(
            kind="spatial", prominence_threshold_db=1e3), 3, seed=4)
        assert all(log.state.needs_position_fix for log in logs)
        assert len(probes) == 4
        assert len(set(drawn)) == len(drawn) == 7
        assert set(probes) < set(drawn)

    def test_probes_share_the_scenario_scene(self, monkeypatch):
        # an unreachable threshold forces a re-fix after every window; every
        # probe runs on the scenario's own scene, so the RIS is built once
        built = []
        real_ris_config = Scenario.ris_config

        def count_ris_config(scn):
            built.append(scn)
            return real_ris_config(scn)

        monkeypatch.setattr(Scenario, "ris_config", count_ris_config)
        logs = run_closed_loop(Scenario(), StrategyConfig(
            kind="spatial", prominence_threshold_db=1e3), 3, seed=4)
        assert all(log.state.needs_position_fix for log in logs)
        assert len(built) == 1

    def test_log_names_the_path_each_window_transmitted_on(self):
        # the state after window i's update picks window i + 1's path
        logs = run_closed_loop(Scenario(), StrategyConfig(
            kind="opportunistic", initial_path="direct",
            prominence_threshold_db=60), 4, seed=3)
        assert [log.to_json_dict()["active_path"] for log in logs] \
            == ["direct", "direct", "ris", "ris"]
        assert [log.active_path for log in logs[1:]] \
            == [log.state.active_path for log in logs[:-1]]

    def test_probing_window_logs_no_path(self):
        logs = run_closed_loop(Scenario(), StrategyConfig(
            kind="opportunistic"), 2, seed=1)
        assert logs[0].active_path is None
        assert "active_path" not in logs[0].to_json_dict()
        assert logs[1].to_json_dict()["active_path"] \
            == logs[0].state.active_path

    def test_ideal_opportunistic_fixes_best_path(self):
        scn = noiseless(Scenario())
        logs = run_closed_loop(scn, StrategyConfig(kind="opportunistic",
                                                   ideal=True), 2, seed=1)
        assert logs[0].state.active_path == "ris"
        assert logs[0].gamma_ris is None


class TestGammaSweep:
    def test_row_count(self):
        rows = gamma_sweep(Scenario(), "spatial", [0.0, 0.5, 1.0], range(2))
        assert len(rows) == 2 * 3 * 2
        assert {r["path"] for r in rows} == {"direct", "ris"}

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(Scenario(), "spatial", [], range(2))

    @pytest.mark.parametrize("kind", SWEEP_KINDS)
    @pytest.mark.parametrize("gamma", [-0.1, 1.5, np.nan])
    def test_out_of_range_gamma_rejected(self, kind, gamma, monkeypatch):
        # the plans reject the share before any seed is drawn
        drawn = []
        monkeypatch.setattr(strategy_module, "draw_acquisition",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="outside"):
            gamma_sweep(Scenario(), kind, [0.5, gamma], range(2))
        assert drawn == []

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gamma_sweep(Scenario(), "opportunistic", [0.5], range(2))

    def test_single_gamma_matches_run_once(self):
        scn = Scenario()
        rows = gamma_sweep(scn, "spatial", [0.5], [7])
        _, estimates = run_once(
            scn, StrategyConfig(kind="spatial", ris_share=0.5), seed=7)
        for row in rows:
            est = estimates[row["path"]]
            assert row["peak_freq_Hz"] == pytest.approx(est.peak_freq)
            assert row["prominence_db"] == pytest.approx(
                est.peak_prominence_db)

    def test_zero_resource_path_looks_like_noise(self):
        # spatial share 1.0: the direct branch carries only leakage; its
        # prominence should sit in the noise-calibration range rather than
        # show a breathing peak
        scn = Scenario()
        rows = gamma_sweep(scn, "spatial", [1.0], range(10))
        direct = [r["prominence_db"] for r in rows if r["path"] == "direct"]
        assert np.median(direct) < 12.0
