import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital.geometry import ArrayConfig, ula_steering
from risvital.physio import RcsModel, angle_gain, rcs_series, \
    synth_respiration
from risvital.scenario import standard_normals
from risvital.sigproc import (SignalError, Spectrum, VitalSignEstimate,
                              clutter_filter, moving_average_response,
                              peak_quality, phase_demodulate, power_spectrum,
                              root_music_doa, separate_paths)

from oracles import make_waveform, matched_filter

WAVELENGTH = 299792458.0 / 7.15e9


class TestWaveform:
    def test_quarter_rate_sample_pattern(self):
        wf = make_waveform(8e6, 32e6, 64)
        pattern = np.sqrt(2) * np.tile([1.0, 0.0, -1.0, 0.0], 16)
        assert np.isrealobj(wf)
        npt.assert_allclose(wf, pattern, atol=1e-12)

    def test_unit_mean_power(self):
        for k in (17, 64, 333):
            wf = make_waveform(5e6, 32e6, k)
            mean_power = np.mean(np.abs(wf) ** 2)
            assert abs(mean_power - 1.0) <= 2.0 / k

    def test_spectral_peak_at_tone(self):
        wf = make_waveform(5e6, 32e6, 256)
        spec = np.abs(np.fft.rfft(wf))
        freqs = np.fft.rfftfreq(256, d=1 / 32e6)
        assert abs(freqs[np.argmax(spec)] - 5e6) <= 32e6 / 256

    def test_aliasing_rejected(self):
        with pytest.raises(SignalError):
            make_waveform(17e6, 32e6, 64)
        with pytest.raises(SignalError):
            make_waveform(0.0, 32e6, 64)


class TestMatchedFilter:
    def setup_method(self):
        self.wf = make_waveform(8e6, 32e6, 64)

    def test_returns_channel_gain(self):
        gain = 0.3 - 1.7j
        assert matched_filter(gain * self.wf, self.wf) \
            == pytest.approx(gain, rel=1e-12)

    def test_orthogonal_input_nulled(self):
        k = np.arange(64)
        other = np.sqrt(2) * np.cos(2 * np.pi * 4e6 * k / 32e6)  # 8 cycles
        assert abs(matched_filter(other, self.wf)) < 1e-12

    def test_noise_variance_matches_theory(self):
        rng = np.random.default_rng(99)
        sigma2 = 0.25
        trials = 10_000
        noise = np.sqrt(sigma2 / 2) * (
            rng.standard_normal((trials, 64))
            + 1j * rng.standard_normal((trials, 64)))
        energy = np.sum(self.wf ** 2)
        outputs = noise @ self.wf / energy
        measured = np.var(outputs)
        assert measured == pytest.approx(sigma2 / energy, rel=0.1)

    def test_length_mismatch_rejected(self):
        with pytest.raises(SignalError):
            matched_filter(np.ones(32), self.wf)


class TestClutterFilter:
    def test_constant_input_nulled(self):
        const = (1.3 - 0.4j) * np.ones((3, 100))
        for window in (3, 21, 99):
            out = clutter_filter(const, window)
            assert np.max(np.abs(out)) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), length=st.integers(3, 400),
           batch=st.integers(1, 4), rows=st.integers(1, 5))
    def test_constant_input_nulled_for_any_odd_window(self, data, length,
                                                      batch, rows):
        window = data.draw(st.integers(1, (length - 1) // 2)) * 2 + 1
        parts = st.floats(-10.0, 10.0)
        levels = np.array(data.draw(st.lists(
            st.tuples(parts, parts), min_size=batch * rows,
            max_size=batch * rows)))
        const = (levels[:, 0] + 1j * levels[:, 1]).reshape(batch, rows, 1) \
            * np.ones(length)
        out = clutter_filter(const, window)
        # the running-sum residual grows like |level| * length * eps
        assert np.max(np.abs(out)) < 1e-12
        for seed_out, seed_in in zip(out, const):
            npt.assert_array_equal(seed_out, clutter_filter(seed_in, window))

    def test_tone_attenuation_matches_dirichlet(self):
        length, rate, window, freq = 400, 4.0, 21, 0.133
        tone = np.exp(2j * np.pi * freq * np.arange(length) / rate)
        out = clutter_filter(tone + 5.0, window)
        half = window // 2
        interior = slice(half, length - half)
        expected = abs(1.0 - moving_average_response(window, freq, rate))
        npt.assert_allclose(np.abs(out[interior] / tone[interior]), expected,
                            atol=1e-6)

    def test_full_window_behaviour(self):
        # W = L: constant still nulled; the centre sample sees the whole
        # record so the exact record mean is removed there
        rng = np.random.default_rng(1)
        x = rng.standard_normal(41) + 1j * rng.standard_normal(41)
        out = clutter_filter(x[None, :], 41)[0]
        assert np.max(np.abs(clutter_filter(np.ones((1, 41)), 41))) < 1e-12
        assert out[20] == pytest.approx(x[20] - x.mean(), abs=1e-12)

    def test_even_window_rejected(self):
        with pytest.raises(SignalError):
            clutter_filter(np.ones((2, 50)), 4)

    def test_oversized_window_rejected(self):
        with pytest.raises(SignalError):
            clutter_filter(np.ones((2, 50)), 51)


class TestSeparatePaths:
    def setup_method(self):
        cfg = ArrayConfig.half_wavelength(5, WAVELENGTH)
        self.a_d = ula_steering(cfg, 0.0)
        self.a_r = ula_steering(cfg, np.radians(28.35))
        from risvital.beamform import split_precoder
        self.w_d = split_precoder(self.a_d, self.a_r, 1.0, 1.0).weights
        self.w_r = split_precoder(self.a_d, self.a_r, 0.0, 1.0).weights

    def test_nulled_branch_silent(self):
        x = np.exp(1j * np.linspace(0, 3, 50))
        record = np.outer(self.a_d, x)
        _, r_ris = separate_paths(record, self.w_d, self.w_r)
        assert np.max(np.abs(r_ris)) <= 1e-9 * np.linalg.norm(x)

    def test_matched_branch_recovers_series(self):
        x = np.exp(1j * np.linspace(0, 3, 50)) * 2.0
        record = np.outer(self.a_r, x)
        _, r_ris = separate_paths(record, self.w_d, self.w_r)
        expected = np.vdot(self.w_r, self.a_r) * x
        npt.assert_allclose(r_ris, expected, rtol=1e-12)

    def test_superposition_cross_talk_bound(self):
        rng = np.random.default_rng(5)
        x_d = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        x_r = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        record = np.outer(self.a_d, x_d) + np.outer(self.a_r, x_r)
        r_d, _ = separate_paths(record, self.w_d, self.w_r)
        own = np.vdot(self.w_d, self.a_d) * x_d
        leak_bound = abs(np.vdot(self.w_d, self.a_r)) * np.linalg.norm(x_r)
        assert np.linalg.norm(r_d - own) <= leak_bound + 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SignalError):
            separate_paths(np.ones((4, 10)), np.ones(5), np.ones(5))


class TestPhaseDemodulate:
    def test_inverts_modulation(self):
        d0, f, rate = 0.002, 0.25, 4.0
        l_idx = np.arange(240)
        d = d0 * np.sin(2 * np.pi * f * l_idx / rate)
        r = np.exp(1j * 4 * np.pi * d / WAVELENGTH)
        out = phase_demodulate(r, WAVELENGTH, detrend=False)
        npt.assert_allclose(out, d, atol=1e-9)

    def test_unwraps_multi_wrap_ramp(self):
        # displacement ramp spanning several wrap points
        d = np.linspace(0.0, WAVELENGTH, 200)  # phase ramp over 4*pi
        r = np.exp(1j * 4 * np.pi * d / WAVELENGTH)
        out = phase_demodulate(r, WAVELENGTH, detrend=False)
        npt.assert_allclose(out, d, atol=1e-9)

    def test_global_phase_is_gauge(self):
        rng = np.random.default_rng(12)
        r = np.exp(1j * np.cumsum(rng.uniform(-1.0, 1.0, 100)))
        base = phase_demodulate(r, WAVELENGTH, detrend=True)
        shifted = phase_demodulate(r * np.exp(1.234j), WAVELENGTH,
                                   detrend=True)
        npt.assert_allclose(shifted, base, atol=1e-9)
        # without detrend the outputs differ by exactly a constant
        b2 = phase_demodulate(r, WAVELENGTH, detrend=False)
        s2 = phase_demodulate(r * np.exp(1.234j), WAVELENGTH,
                              detrend=False)
        diff = s2 - b2
        npt.assert_allclose(diff, diff[0], atol=1e-12)

    def test_zero_sample_names_index(self):
        r = np.ones(10, dtype=complex)
        r[3] = 0.0
        with pytest.raises(SignalError, match="index 3"):
            phase_demodulate(r, WAVELENGTH)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 4), n=st.integers(2, 400),
           offset=st.integers(0, 5), slots=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_detrend_matches_polyfit_per_row(self, rows, n, offset, slots,
                                             seed):
        # slot rows taken from a longer record with an index array, as
        # temporal extraction takes them, are Fortran-ordered; a wavelength
        # of 4*pi makes the output the detrended phase in radians
        rng = np.random.default_rng(seed)
        width = n + offset
        phase = (np.cumsum(rng.uniform(-3.0, 3.0, (rows, width)), axis=-1)
                 + rng.uniform(-np.pi, np.pi, (rows, 1)))
        record = np.exp(1j * phase) * rng.uniform(0.5, 2.0, (rows, width))
        r = record[..., np.arange(offset, width) if slots else
                   slice(offset, None)]
        out = phase_demodulate(r, 4 * np.pi)
        l_idx = np.arange(n)
        for row, got in zip(r, out):
            phi = np.unwrap(np.angle(row))
            line = np.polyval(np.polyfit(l_idx, phi, 1), l_idx)
            assert np.max(np.abs(got - (phi - line))) <= 1e-12
            assert phase_demodulate(row, 4 * np.pi).tobytes() == got.tobytes()

    def test_small_displacement_identity_without_unwrap(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(-WAVELENGTH / 8, WAVELENGTH / 8, 64)
        r = np.exp(1j * 4 * np.pi * d / WAVELENGTH)
        out = phase_demodulate(r, WAVELENGTH, detrend=False)
        npt.assert_allclose(out, d, atol=1e-9)


class TestPowerSpectrum:
    def test_tone_peak_location(self):
        trace = synth_respiration(0.133, 0.02, 60.0, 4.0)
        spec = power_spectrum(trace, 4.0, n_fft=4 * len(trace))
        peak = spec.freqs[np.argmax(spec.power)]
        assert abs(peak - 0.133) <= 1.0 / (4 * 60.0)

    def test_constant_input_all_zero(self):
        trace = np.full(64, 0.3)
        spec = power_spectrum(trace, 4.0, n_fft=4 * len(trace))
        assert np.max(spec.power) < 1e-20

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(240)
        spec = power_spectrum(x, 4.0, n_fft=4 * len(x))
        windowed = (x - x.mean()) * np.hanning(240)
        npt.assert_allclose(np.sum(spec.power), np.sum(windowed ** 2),
                            rtol=1e-9)

    def test_short_record_rejected(self):
        with pytest.raises(SignalError):
            power_spectrum(np.zeros(7) + 0.1, 4.0, n_fft=4 * 7)

    def test_fixed_grid_override(self):
        trace = np.sin(np.arange(60))
        spec = power_spectrum(trace, 4.0, n_fft=960)
        assert spec.freqs.size == 481
        with pytest.raises(SignalError):
            power_spectrum(trace, 4.0, n_fft=32)


class TestPeakQuality:
    @staticmethod
    def flat_spectrum_with_tone(ratio_db=20.0):
        freqs = np.linspace(0.0, 2.0, 481)
        power = np.full_like(freqs, 10 ** (-ratio_db / 10))
        power[np.argmin(np.abs(freqs - 0.133))] = 1.0
        return Spectrum(freqs=freqs, power=power)

    def test_known_ratio(self):
        peak, prom = peak_quality(self.flat_spectrum_with_tone(20.0))
        assert peak == pytest.approx(0.133, abs=0.005)
        assert prom == pytest.approx(20.0, abs=2.0)

    def test_stronger_tone_wins(self):
        freqs = np.linspace(0.0, 2.0, 481)
        power = np.full_like(freqs, 1e-6)
        power[np.argmin(np.abs(freqs - 0.3))] = 0.5
        power[np.argmin(np.abs(freqs - 0.133))] = 1.0
        peak, _ = peak_quality(Spectrum(freqs, power))
        assert peak == pytest.approx(0.133, abs=0.005)

    def test_white_noise_calibration(self):
        # noise-only prominence distribution: median near 8 dB, tail
        # bounded; the quality score cannot be read as a hard 6 dB gate
        rng = np.random.default_rng(17)
        proms = []
        for _ in range(1000):
            trace = rng.standard_normal(240) * 1e-4
            _, prom = peak_quality(power_spectrum(trace, 4.0,
                                                  n_fft=4 * len(trace)))
            proms.append(prom)
        proms = np.array(proms)
        assert 6.0 <= np.median(proms) <= 10.0
        assert np.mean(proms < 12.0) >= 0.95

    def test_empty_band_rejected(self):
        with pytest.raises(SignalError):
            peak_quality(self.flat_spectrum_with_tone(), band=(3.0, 4.0))

    def test_estimate_row_is_one_seed_with_float_peaks(self):
        tones = [self.flat_spectrum_with_tone(db) for db in (10.0, 20.0)]
        spectrum = Spectrum(tones[0].freqs,
                            np.stack([t.power for t in tones]))
        peaks, proms = peak_quality(spectrum)
        assert peaks.shape == proms.shape == (2,)
        est = VitalSignEstimate(np.arange(6.0).reshape(2, 3), spectrum,
                                peaks, proms)
        for i, tone in enumerate(tones):
            row = est.row(i)
            npt.assert_array_equal(row.displacement, [3 * i, 3 * i + 1,
                                                      3 * i + 2])
            npt.assert_array_equal(row.spectrum.power, tone.power)
            assert row.spectrum.freqs is spectrum.freqs
            assert (type(row.peak_freq), type(row.peak_prominence_db)) \
                == (float, float)
            assert (row.peak_freq, row.peak_prominence_db) \
                == tuple(map(float, peak_quality(tone)))


class TestRootMusic:
    def setup_method(self):
        self.cfg = ArrayConfig.half_wavelength(5, 1.0)

    def test_single_source_noiseless(self):
        a = ula_steering(self.cfg, 0.0)
        rng = np.random.default_rng(0)
        sig = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        est = root_music_doa(np.outer(a, sig), 1, self.cfg)
        assert abs(np.degrees(est[0])) < 1e-6

    def test_two_sources_at_20db(self):
        rng = np.random.default_rng(44)
        errors = []
        truth = np.radians([-20.0, 20.0])
        a_mat = np.stack([ula_steering(self.cfg, t) for t in truth],
                         axis=1)
        amp = np.sqrt(10 ** (20 / 10))
        for _ in range(100):
            sig = amp * (rng.standard_normal((2, 200))
                         + 1j * rng.standard_normal((2, 200))) / np.sqrt(2)
            noise = (rng.standard_normal((5, 200))
                     + 1j * rng.standard_normal((5, 200))) / np.sqrt(2)
            est = root_music_doa(a_mat @ sig + noise, 2, self.cfg)
            errors.append(np.max(np.abs(np.degrees(np.sort(est)
                                                   - np.sort(truth)))))
        assert np.median(errors) < 1.0

    def test_too_many_sources_rejected(self):
        with pytest.raises(SignalError):
            root_music_doa(np.ones((5, 10), dtype=complex), 5, self.cfg)

    def test_too_few_snapshots_rejected(self):
        with pytest.raises(SignalError):
            root_music_doa(np.ones((5, 3), dtype=complex), 1, self.cfg)


class TestEndToEndIdentity:
    def test_rcs_to_displacement_chain(self):
        # modulate -> unit channel -> matched filter -> demodulate
        model = RcsModel(reflectivity=1.0)
        trace = synth_respiration(0.133, 0.02, 60.0, 4.0)
        theta = np.radians(40.0)
        series = rcs_series(model, trace, 4.0, theta, WAVELENGTH,
                            standard_normals([0], trace.shape))[0]
        wf = make_waveform(8e6, 32e6, 64)
        slow = np.array([matched_filter(s * wf, wf) for s in series])
        out = phase_demodulate(slow, WAVELENGTH, detrend=False)
        expected = angle_gain(model, theta) * trace
        recovered = out - (out[0] - expected[0])
        npt.assert_allclose(recovered, expected, atol=1e-9)
