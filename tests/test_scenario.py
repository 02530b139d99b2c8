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
                               child_seed, db_to_linear, dbm_to_watts,
                               draw_acquisition, noiseless,
                               simulate_acquisition, standard_normals)
from risvital.sigproc import SignalError
from risvital.strategy import StrategyConfig, run_once

from oracles import make_waveform


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
        assert radar.pulse_energy == 64.0
        assert radar.wavelength == pytest.approx(0.04193, rel=1e-3)
        assert radar.spacing == pytest.approx(radar.wavelength / 2)

    def test_noise_floor_formula(self):
        radar = RadarConfig()
        expected = -174.0 + 10 * np.log10(0.5e6) + 10.0
        assert radar.noise_floor_dbm == pytest.approx(expected, abs=1e-12)
        assert round(radar.noise_floor_dbm, 1) == -107.0

    @pytest.mark.parametrize("k", [1, 63, 64])
    def test_tone_defaults_to_quarter_rate(self, k):
        # a tone at fs / 4 samples the cosine at its quarter periods, so
        # only the even samples carry energy, 2 each
        energy = RadarConfig(fast_time_samples=k).pulse_energy
        assert energy == pytest.approx(2 * ((k + 1) // 2), rel=1e-12)

    # f0 as a fraction of fs, from near 0 to near fs / 2
    @pytest.mark.parametrize("k", [1, 2, 17, 63, 64, 333])
    @pytest.mark.parametrize("fraction", [1e-9, 1e-3, 0.1, 0.25, 0.3, 0.49,
                                          0.499999, 0.5 - 1e-9])
    def test_pulse_energy_is_the_summed_pulse(self, k, fraction):
        fs = k * 0.5e6
        radar = RadarConfig(fast_time_samples=k,
                            tone_frequency=fraction * fs)
        pulse = make_waveform(fraction * fs, fs, k)
        assert radar.pulse_energy == pytest.approx(np.sum(pulse ** 2),
                                                   rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.7])
    def test_aliased_tone_rejected(self, fraction):
        radar = RadarConfig(tone_frequency=fraction * 32e6)
        with pytest.raises(SignalError, match="aliases"):
            radar.pulse_energy


def constant_schedule(scn, gamma_ris):
    a_tx_d, a_tx_r = scn.tx_steering
    w = split_precoder(a_tx_d, a_tx_r, 1.0 - gamma_ris,
                       scn.radar.total_power).weights
    return np.tile(w[:, None], (1, scn.slow_time_samples))


def drawn(scn, seeds):
    """The draw (v_ris, h_D, H_C, alpha, beta, noise) of a run of `seeds`."""
    return draw_acquisition(scn, seeds, scn.slow_time_samples)


def stream_head(scn, seeds):
    """`realize_channel` of the channel block that leads each seed's stream."""
    model = scn.channel_model
    return realize_channel(model, standard_normals(
        [child_seed(seed, 0) for seed in seeds], (model.draw_size,)))


class TestSimulateAcquisition:
    def test_noiseless_ris_only_matches_cascade(self):
        scn = noiseless(Scenario())
        scn = replace(scn, physio=replace(scn.physio, reflectivity_direct=0.0,
                                          distortion_strength=0.0))
        schedule = constant_schedule(scn, 1.0)
        record = simulate_acquisition(scn, schedule, [3])[0]
        trace = scn.base_trace()
        alpha = rcs_series(scn.rcs_models[1], trace,
                           scn.radar.slow_rate, scn.angles.chest_incidence_ris,
                           scn.radar.wavelength,
                           standard_normals([0], trace.shape))[0]
        v = drawn(scn, [3])[0][0]
        expected = v[:, None] * (alpha * (v @ schedule))
        npt.assert_allclose(record, expected, rtol=1e-12, atol=1e-30)

    def test_same_seed_identical(self):
        scn = Scenario()
        schedule = constant_schedule(scn, 0.5)
        r1 = simulate_acquisition(scn, schedule, [11])[0]
        r2 = simulate_acquisition(scn, schedule, [11])[0]
        npt.assert_array_equal(r1, r2)
        r3 = simulate_acquisition(scn, schedule, [12])[0]
        assert np.any(r3 != r1)

    def test_zero_schedule_record_is_matched_filter_noise(self):
        # nothing transmitted: the record is the matched-filter output of
        # white fast-time noise, CN(0, N0/E) per entry
        scn = Scenario()
        zeros = np.zeros((scn.radar.element_count, scn.slow_time_samples),
                         dtype=complex)
        noise = np.concatenate([
            simulate_acquisition(scn, zeros, [seed])[0].ravel()
            for seed in range(5)])
        pulse = make_waveform(8e6, 32e6, scn.radar.fast_time_samples)
        expected = scn.radar.noise_power / np.sum(pulse ** 2)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(expected, rel=0.05)
        assert np.var(noise.real) == pytest.approx(expected / 2, rel=0.1)
        assert np.var(noise.imag) == pytest.approx(expected / 2, rel=0.1)
        assert abs(np.mean(noise ** 2)) < 0.05 * expected

    def test_channel_block_leads_each_stream(self):
        # the channel normals come first in a seed's stream, so they are
        # the bits a run drew before the jitter and noise shared its stream
        ch = stream_head(Scenario(), range(10))
        digest = hashlib.sha256()
        for name in ("H_I", "h_T", "h_D", "H_C"):
            digest.update(getattr(ch, name).tobytes())
        assert digest.hexdigest() == ("e0f17954e276a2108108bdc1c3af3b09"
                                      "6cc9700165887af446042da60a3d2b2f")

    def test_channel_is_realize_channel_of_the_stream_head(self):
        # the draw holds the cascade under the panel's reflection, formed
        # once from the stream head's H_I and h_T
        scn = Scenario()
        for seed in range(10):
            v_ris, h_d, h_c = drawn(scn, [seed])[:3]
            want = stream_head(scn, [seed])
            cascade = (want.H_I @ (scn.panel[1] * want.h_T)[..., None])[..., 0]
            for name, got, bits in (("v_ris", v_ris, cascade),
                                    ("h_D", h_d, want.h_D),
                                    ("H_C", h_c, want.H_C)):
                assert got.tobytes() == bits.tobytes(), (seed, name)

    def test_noise_block_ignores_the_chest_model(self):
        # nothing transmitted: the record is the noise alone, which keeps
        # its place in the stream with or without jitter, under either law
        base = Scenario()
        zeros = np.zeros((base.radar.element_count, base.slow_time_samples),
                         dtype=complex)
        records = {
            simulate_acquisition(replace(base, physio=replace(
                base.physio, distortion_strength=strength,
                gain_table=table)), zeros, [4, 5]).tobytes()
            for strength in (0.0, 0.35)
            for table in ((), ((0.0, 1.0), (45.0, 0.6), (90.0, 0.0)))}
        assert len(records) == 1

    def test_seed_sequence_not_mutated(self):
        scn = Scenario()
        ss = np.random.SeedSequence(9)
        r1 = simulate_acquisition(scn, constant_schedule(scn, 0.5), [ss])
        assert ss.n_children_spawned == 0
        r2 = simulate_acquisition(scn, constant_schedule(scn, 0.5), [9])
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
            record = simulate_acquisition(scn, schedule, [2])[0]
            h_d = drawn(scn, [2])[1][0]
            w = schedule[:, 0]
            h_unit = h_d / np.linalg.norm(h_d)
            trace = scn.base_trace()
            gain = np.abs(
                rcs_series(scn.rcs_models[0], trace, scn.radar.slow_rate,
                           scn.angles.chest_incidence_direct,
                           scn.radar.wavelength,
                           standard_normals([0], trace.shape)))[0, 0]
            expected = (gain ** 2 * np.linalg.norm(h_d) ** 4
                        * abs(h_unit @ w) ** 2)
            measured = np.sum(np.abs(record[:, 0]) ** 2)
            assert measured == pytest.approx(expected, rel=1e-9)
            # Friis scale: |h_D| entries ~ lambda/(4 pi d) at d = 3 m
            lam = scn.radar.wavelength
            npt.assert_allclose(np.linalg.norm(h_d) ** 2,
                                5 * (lam / (4 * np.pi * 3.0)) ** 2, rtol=1e-3)
            powers[p_total] = measured
        assert powers[20e-3] == pytest.approx(2 * powers[10e-3], rel=1e-9)

    def test_slow_time_nyquist_rejected(self):
        scn = Scenario()
        scn = replace(scn, physio=replace(scn.physio, breath_rate=2.5))
        schedule = constant_schedule(scn, 0.5)
        with pytest.raises(TraceError):
            simulate_acquisition(scn, schedule, [0])

    def test_bad_schedule_shape_rejected(self):
        scn = Scenario()
        with pytest.raises(ValueError):
            simulate_acquisition(scn, np.ones((5, 10)), [0])


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


class TestPanel:
    def test_draw_depends_on_the_panel_only_through_the_cascade(self):
        # the phases configure the panel, not the channel: coarser phases
        # change the cascade they reflect and no other bit of the draw
        base = Scenario()
        seeds = [0, 5, np.random.SeedSequence(9)]
        (v_fine, *fine), (v_coarse, *coarse) = (
            drawn(replace(base, ris=replace(base.ris, phase_bits=bits)), seeds)
            for bits in (None, 1))
        for name, a, b in zip(("h_D", "H_C", "alpha", "beta", "noise"),
                              fine, coarse, strict=True):
            assert a.tobytes() == b.tobytes(), name
        assert v_fine.shape == v_coarse.shape == (3, 5)
        assert np.all(np.any(v_fine != v_coarse, axis=1))

    def test_focused_panel_adds_the_cascade_coherently(self):
        # on line of sight the focused panel lines up every element's
        # radar->element->target phase, so |H_I Gamma h_T| nears the
        # coherent sum |H_I| |h_T|; b-bit phases keep sinc(2**-b) of it
        base = Scenario()
        for bits in (None, 3, 2, 1):
            scn = replace(base, ris=replace(base.ris, phase_bits=bits),
                          channel=replace(base.channel, k_rice_db=300.0))
            model = scn.channel_model
            h_i, h_t = (part * scale for part, scale
                        in zip(model.los[:2], model.scales[:2]))
            gain = np.abs(drawn(scn, [0, 4])[0]) / (np.abs(h_i) @ np.abs(h_t))
            if bits is None:
                assert np.all(gain > 0.998) and np.all(gain <= 1 + 1e-12)
            else:
                npt.assert_allclose(gain, np.sinc(2.0 ** -bits), rtol=0.03)

    def test_cascade_power_grows_as_elements_squared(self):
        # on line of sight the focused cascade's one-way power
        # ||H_I (Gamma * h_T)||^2 grows as N^2 in the panel's N elements;
        # near-field spread costs the 40 x 40 panel 0.29 dB of it
        base = replace(Scenario(),
                       channel=replace(Scenario().channel, k_rice_db=300.0))

        def power(side):
            scn = replace(base, ris=replace(base.ris, rows=side, cols=side))
            return np.sum(np.abs(drawn(scn, [0])[0]) ** 2)

        reference = power(10)
        for side in (5, 20, 40):
            gain_db = 10 * np.log10(power(side) / reference)
            law_db = 20 * np.log10(side * side / 100)
            assert abs(gain_db - law_db) < 0.5, side


class TestNoiselessHelper:
    def test_noise_and_clutter_removed(self):
        scn = noiseless(Scenario())
        assert scn.radar.noise_power == 0.0
        assert scn.channel.clutter_strength == 0.0
        model = scn.channel_model
        ch = realize_channel(model, standard_normals([1], (model.draw_size,)))
        npt.assert_array_equal(ch.H_C, 0.0)


class TestChildSeeds:
    def test_fresh_sequence_matches_spawn(self):
        for seed in (0, 7, [3, 1, 4]):
            ours = [child_seed(seed, i) for i in range(4)]
            theirs = np.random.SeedSequence(seed).spawn(4)
            for a, b in zip(ours, theirs):
                assert a.spawn_key == b.spawn_key
                npt.assert_array_equal(a.generate_state(4),
                                       b.generate_state(4))

    def test_repeatable_from_spawned_sequence(self):
        parent = np.random.SeedSequence(7).spawn(2)[1]
        first = [child_seed(parent, i) for i in range(3)]
        assert parent.n_children_spawned == 0
        assert [child_seed(parent, i).spawn_key for i in range(3)] == \
            [c.spawn_key for c in first] == [(1, 0), (1, 1), (1, 2)]
