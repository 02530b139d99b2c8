import hashlib
import numpy as np
import numpy.testing as npt
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital.beamform import split_precoder
from risvital.channel import realize_channel
from risvital.physio import TraceError, rcs_series
from risvital.scenario import (ProcessingConfig, RadarConfig, Scenario,
                               child_seeds, db_to_linear, dbm_to_watts,
                               noiseless, simulate_acquisition,
                               standard_normals)
from risvital.strategy import StrategyConfig, run_once


class TestUnits:
    def test_dbm_watts_round_trip(self):
        assert dbm_to_watts(0.0) == pytest.approx(1e-3)
        assert dbm_to_watts(30.0) == pytest.approx(1.0)
        assert dbm_to_watts(10.0) == pytest.approx(10e-3)
        for dbm in (-107.0, -30.0, 0.0, 17.5):
            assert dbm_to_watts(dbm + 10.0) == pytest.approx(
                10.0 * dbm_to_watts(dbm))

    def test_db_linear(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(20.0) == pytest.approx(100.0)


class TestRadarConfig:
    def test_default_profile(self):
        radar = RadarConfig()
        assert radar.element_count == 5
        assert radar.slow_rate == pytest.approx(4.0)
        assert radar.fast_rate == pytest.approx(32e6)
        assert radar.wavelength == pytest.approx(0.04193, rel=1e-3)
        assert radar.spacing == pytest.approx(radar.wavelength / 2)

    def test_noise_floor_formula(self):
        radar = RadarConfig()
        expected = -174.0 + 10 * np.log10(0.5e6) + 10.0
        assert radar.noise_floor_dbm == pytest.approx(expected, abs=1e-12)
        assert round(radar.noise_floor_dbm, 1) == -107.0

    def test_waveform_defaults_to_quarter_rate(self):
        # a tone at fs / 4 samples the cosine at its quarter periods
        wf = RadarConfig().waveform()
        npt.assert_allclose(wf, np.sqrt(2) * np.tile([1.0, 0.0, -1.0, 0.0], 16),
                            atol=1e-12)


def constant_schedule(scn, gamma_ris):
    a_tx_d, a_tx_r = scn.tx_steering
    w = split_precoder(a_tx_d, a_tx_r, 1.0 - gamma_ris,
                       scn.radar.total_power).weights
    return np.tile(w[:, None], (1, scn.slow_time_samples))


class TestSimulateAcquisition:
    def test_noiseless_ris_only_matches_cascade(self):
        scn = noiseless(Scenario())
        scn = replace(scn, physio=replace(scn.physio, reflectivity_direct=0.0,
                                          distortion_strength=0.0))
        schedule = constant_schedule(scn, 1.0)
        record, ch = simulate_acquisition(scn, schedule, seed=3)
        trace = scn.base_trace()
        alpha = rcs_series(scn.rcs_models[1], trace,
                           scn.radar.slow_rate, scn.angles.chest_incidence_ris,
                           scn.radar.wavelength,
                           standard_normals([0], trace.shape))[0]
        v = ch.ris_cascade
        expected = v[:, None] * (alpha * (v @ schedule))
        npt.assert_allclose(record, expected, rtol=1e-12, atol=1e-30)

    def test_same_seed_identical(self):
        scn = Scenario()
        schedule = constant_schedule(scn, 0.5)
        r1, _ = simulate_acquisition(scn, schedule, seed=11)
        r2, _ = simulate_acquisition(scn, schedule, seed=11)
        npt.assert_array_equal(r1, r2)
        r3, _ = simulate_acquisition(scn, schedule, seed=12)
        assert np.any(r3 != r1)

    def test_zero_schedule_record_is_matched_filter_noise(self):
        # nothing transmitted: the record is the matched-filter output of
        # white fast-time noise, CN(0, N0/E) per entry
        scn = Scenario()
        zeros = np.zeros((scn.radar.element_count, scn.slow_time_samples),
                         dtype=complex)
        noise = np.concatenate([
            simulate_acquisition(scn, zeros, seed)[0].ravel()
            for seed in range(5)])
        expected = scn.radar.noise_power / np.sum(scn.radar.waveform() ** 2)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(expected, rel=0.05)
        assert np.var(noise.real) == pytest.approx(expected / 2, rel=0.1)
        assert np.var(noise.imag) == pytest.approx(expected / 2, rel=0.1)
        assert abs(np.mean(noise ** 2)) < 0.05 * expected

    def test_channel_block_leads_each_stream(self):
        # the channel normals come first in a seed's stream, so they are
        # the bits a run drew before the jitter and noise shared its stream
        scn = Scenario()
        _, ch = simulate_acquisition(scn, constant_schedule(scn, 0.5),
                                     list(range(10)))
        digest = hashlib.sha256()
        for name in ("H_I", "h_T", "h_D", "H_C"):
            digest.update(getattr(ch, name).tobytes())
        assert digest.hexdigest() == ("e0f17954e276a2108108bdc1c3af3b09"
                                      "6cc9700165887af446042da60a3d2b2f")

    def test_channel_is_realize_channel_of_the_stream_head(self):
        scn = Scenario()
        model = scn.channel_model
        for seed in range(10):
            _, ch = simulate_acquisition(scn, constant_schedule(scn, 0.5),
                                         seed)
            want = realize_channel(model, standard_normals(
                child_seeds(seed, 1), (model.draw_size,))[0])
            for name in ("H_I", "h_T", "h_D", "H_C"):
                assert getattr(ch, name).tobytes() \
                    == getattr(want, name).tobytes(), (seed, name)

    def test_noise_block_ignores_the_chest_model(self):
        # nothing transmitted: the record is the noise alone, which keeps
        # its place in the stream with or without jitter, under either law
        base = Scenario()
        zeros = np.zeros((base.radar.element_count, base.slow_time_samples),
                         dtype=complex)
        records = {
            simulate_acquisition(replace(base, physio=replace(
                base.physio, distortion_strength=strength,
                gain_table=table)), zeros, [4, 5])[0].tobytes()
            for strength in (0.0, 0.35)
            for table in ((), ((0.0, 1.0), (45.0, 0.6), (90.0, 0.0)))}
        assert len(records) == 1

    def test_seed_sequence_not_mutated(self):
        scn = Scenario()
        ss = np.random.SeedSequence(9)
        r1, _ = simulate_acquisition(scn, constant_schedule(scn, 0.5), ss)
        assert ss.n_children_spawned == 0
        r2, _ = simulate_acquisition(scn, constant_schedule(scn, 0.5), 9)
        npt.assert_array_equal(r1, r2)

    def test_energy_accounting_direct_path(self):
        # noiseless direct-only received power, checked against the exact
        # channel norms and scaling linearly with the transmit budget
        base = noiseless(Scenario())
        base = replace(base, physio=replace(base.physio,
                                            reflectivity_ris=0.0,
                                            distortion_strength=0.0))
        powers = {}
        for p_total in (10e-3, 20e-3):
            scn = replace(base, radar=replace(base.radar, total_power=p_total))
            schedule = constant_schedule(scn, 0.0)  # all power on direct
            record, ch = simulate_acquisition(scn, schedule, seed=2)
            w = schedule[:, 0]
            h_unit = ch.h_D / np.linalg.norm(ch.h_D)
            trace = scn.base_trace()
            gain = np.abs(
                rcs_series(scn.rcs_models[0], trace, scn.radar.slow_rate,
                           scn.angles.chest_incidence_direct,
                           scn.radar.wavelength,
                           standard_normals([0], trace.shape)))[0, 0]
            expected = (gain ** 2 * np.linalg.norm(ch.h_D) ** 4
                        * abs(h_unit @ w) ** 2)
            measured = np.sum(np.abs(record[:, 0]) ** 2)
            assert measured == pytest.approx(expected, rel=1e-9)
            # Friis scale: |h_D| entries ~ lambda/(4 pi d) at d = 3 m
            lam = scn.radar.wavelength
            npt.assert_allclose(np.linalg.norm(ch.h_D) ** 2,
                                5 * (lam / (4 * np.pi * 3.0)) ** 2, rtol=1e-3)
            powers[p_total] = measured
        assert powers[20e-3] == pytest.approx(2 * powers[10e-3], rel=1e-9)

    def test_slow_time_nyquist_rejected(self):
        scn = Scenario()
        scn = replace(scn, physio=replace(scn.physio, breath_rate=2.5))
        schedule = constant_schedule(scn, 0.5)
        with pytest.raises(TraceError):
            simulate_acquisition(scn, schedule, seed=0)

    def test_bad_schedule_shape_rejected(self):
        scn = Scenario()
        with pytest.raises(ValueError):
            simulate_acquisition(scn, np.ones((5, 10)), seed=0)


class TestExtraction:
    def test_slot_subsetting(self):
        scn = Scenario()
        _, est = run_once(scn, StrategyConfig(kind="temporal", ris_share=0.5),
                          seed=1)
        # each branch demodulates only its own half of the record
        assert len(est["ris"].displacement) == 120
        assert len(est["direct"].displacement) == 120

    def test_min_window_rule(self):
        scn = Scenario()
        _, estimates = run_once(
            scn, StrategyConfig(kind="temporal", ris_share=0.9), seed=1)
        # direct branch has 24 slots = 6 s < one period of the 0.05 Hz edge
        assert estimates["direct"] is None
        assert estimates["ris"] is not None

    @pytest.mark.parametrize("table", [(), ((0.0, 1.0), (90.0, 0.0))])
    def test_blind_path_not_graded(self, table):
        # the chest turned 127 degrees from the radar, 48 from the RIS
        base = Scenario()
        scn = replace(base, placement=replace(
            base.placement, chest_normal=np.array([0.6, 0.8, 0.0])),
            physio=replace(base.physio, gain_table=table))
        for kind in ("spatial", "temporal"):
            _, estimates = run_once(scn, StrategyConfig(kind=kind), seed=1)
            assert estimates["direct"] is None
            assert estimates["ris"] is not None

    def test_clutter_filter_optional(self):
        scn = replace(Scenario(),
                      processing=ProcessingConfig(clutter_window=None))
        _, estimates = run_once(
            scn, StrategyConfig(kind="spatial", ris_share=0.5), seed=1)
        assert estimates["ris"] is not None


class TestIncidenceMonotonicity:
    """The more obliquely a path views the chest, the less breathing it
    shows: on a noiseless RIS-only run the demodulated peak-to-peak does
    not grow with the RIS incidence, under either gain law."""

    @staticmethod
    def ris_peak_to_peak(base, rotation_deg):
        # rotate the chest in the horizontal plane away from facing the RIS
        rot = np.radians(rotation_deg)
        n = base.placement.chest_normal
        normal = np.array([n[0] * np.cos(rot) - n[1] * np.sin(rot),
                           n[0] * np.sin(rot) + n[1] * np.cos(rot), n[2]])
        scn = replace(base, placement=replace(base.placement,
                                              chest_normal=normal))
        _, estimates = run_once(scn, StrategyConfig(
            kind="opportunistic", initial_path="ris"), seed=0)
        est = estimates["ris"]  # None where the gain is 0: nothing seen
        return np.ptp(est.displacement) if est else 0.0

    @pytest.mark.parametrize("table", [(), ((0.0, 1.0), (45.0, 0.6),
                                            (90.0, 0.0))])
    @settings(max_examples=30, deadline=None)
    @given(a=st.floats(0.0, 90.0), b=st.floats(0.0, 90.0))
    def test_ris_amplitude_never_grows_with_incidence(self, table, a, b):
        base = noiseless(Scenario())
        base = replace(
            base,
            physio=replace(base.physio, reflectivity_direct=0.0,
                           distortion_strength=0.0, gain_table=table),
            processing=ProcessingConfig(clutter_window=None, detrend=False))
        low, high = sorted((a, b))
        assert self.ris_peak_to_peak(base, high) \
            <= self.ris_peak_to_peak(base, low) * (1 + 1e-9)


class TestRisQuantization:
    def test_phase_bits_quantize_profile(self):
        scn = replace(Scenario(), ris=replace(Scenario().ris, phase_bits=2))
        _, phases = scn.ris_config()
        step = 2 * np.pi / 4
        npt.assert_allclose(np.mod(phases / step, 1.0), 0.0, atol=1e-9)

    def test_continuous_by_default(self):
        _, phases = Scenario().ris_config()
        assert np.unique(np.mod(phases, 2 * np.pi / 256)).size > 10

    @pytest.mark.parametrize("bits", [None, 1, 2, 3])
    def test_phases_wrap_into_one_turn(self, bits):
        # rounding up the top step lands on 2*pi, which must wrap to 0
        scn = replace(Scenario(), ris=replace(Scenario().ris, phase_bits=bits))
        grid, phases = scn.ris_config()
        assert grid.shape == (100, 3) and phases.shape == (100,)
        assert np.all(phases >= 0.0) and np.all(phases < 2 * np.pi)


class TestNoiselessHelper:
    def test_noise_and_clutter_removed(self):
        scn = noiseless(Scenario())
        assert scn.radar.noise_power == 0.0
        assert scn.channel.clutter_strength == 0.0
        model = scn.channel_model
        ch = realize_channel(model,
                             standard_normals([1], (model.draw_size,))[0])
        npt.assert_array_equal(ch.H_C, 0.0)


class TestChildSeeds:
    def test_fresh_sequence_matches_spawn(self):
        for seed in (0, 7, [3, 1, 4]):
            ours = child_seeds(seed, 4)
            theirs = np.random.SeedSequence(seed).spawn(4)
            for a, b in zip(ours, theirs):
                assert a.spawn_key == b.spawn_key
                npt.assert_array_equal(a.generate_state(4),
                                       b.generate_state(4))

    def test_repeatable_from_spawned_sequence(self):
        parent = np.random.SeedSequence(7).spawn(2)[1]
        first = child_seeds(parent, 3)
        assert parent.n_children_spawned == 0
        assert [c.spawn_key for c in child_seeds(parent, 3)] == \
            [c.spawn_key for c in first] == [(1, 0), (1, 1), (1, 2)]
