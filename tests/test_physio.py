import numpy as np
import numpy.testing as npt
import pytest

from risvital.physio import (DEFAULT_GAIN_EXPONENT, DisplacementTrace,
                             RcsModel, TraceError, angle_gain, load_trace_csv,
                             observed_displacement, rcs_series,
                             synth_respiration, write_trace_csv)

WAVELENGTH = 299792458.0 / 7.15e9


class TestSynthRespiration:
    def test_paper_scale_trace(self):
        trace = synth_respiration(0.133, 0.02, 60.0, 4.0)
        assert len(trace) == 240
        spectrum = np.abs(np.fft.rfft(trace.samples))
        freqs = np.fft.rfftfreq(240, d=0.25)
        assert freqs[np.argmax(spectrum)] == pytest.approx(0.133, abs=1 / 60)

    def test_clean_trace_peak_to_peak(self):
        # rate-aligned frequency so the sampling grid hits the extremes
        trace = synth_respiration(0.25, 0.02, 60.0, 4.0, harmonics=0)
        assert trace.samples.max() - trace.samples.min() == pytest.approx(
            0.02, abs=1e-9)

    def test_nyquist_violation(self):
        with pytest.raises(TraceError):
            synth_respiration(2.1, 0.02, 60.0, 4.0)

    def test_harmonics_stay_small_and_deterministic(self):
        t1 = synth_respiration(0.2, 0.02, 30.0, 4.0, harmonics=2, rng_seed=5)
        t2 = synth_respiration(0.2, 0.02, 30.0, 4.0, harmonics=2, rng_seed=5)
        npt.assert_array_equal(t1.samples, t2.samples)
        base = synth_respiration(0.2, 0.02, 30.0, 4.0)
        extra = t1.samples - base.samples
        assert np.max(np.abs(extra)) <= 2 * 0.1 * 0.01 + 1e-12

    def test_drift_adds_linear_term(self):
        trace = synth_respiration(0.2, 0.0, 10.0, 4.0, drift=0.004)
        npt.assert_allclose(trace.samples[-1] - trace.samples[0], 0.004,
                            rtol=0.05)


class TestTraceCsv:
    def test_two_column_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        front = DisplacementTrace(rng.normal(0, 0.01, 100), 4.0)
        side = DisplacementTrace(rng.normal(0, 0.01, 100), 4.0)
        path = tmp_path / "traces.csv"
        write_trace_csv(path, [front, side])
        loaded = load_trace_csv(path, slow_rate=4.0)
        assert len(loaded) == 2
        assert len(loaded[0]) == 100
        npt.assert_allclose(loaded[0].samples, front.samples, atol=1e-12)
        npt.assert_allclose(loaded[1].samples, side.samples, atol=1e-12)

    def test_single_column_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("index,front_radar_VS\n0,1.0\n1,2.0\n2,1.5\n")
        loaded = load_trace_csv(path)
        assert len(loaded) == 1
        npt.assert_allclose(loaded[0].samples, [0.01, 0.02, 0.015])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("index,front_radar_VS,side_radar_VS\n")
        with pytest.raises(TraceError, match="no samples"):
            load_trace_csv(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,displacement\n0,1\n")
        with pytest.raises(TraceError, match="expected header"):
            load_trace_csv(path)

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("index,front_radar_VS\n0,1.0\n1,oops\n")
        with pytest.raises(TraceError, match="row 3"):
            load_trace_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            load_trace_csv(path)


class TestAngleGain:
    def setup_method(self):
        self.model = RcsModel(reflectivity=1.0)

    def test_frontal_view(self):
        assert angle_gain(self.model, 0.0) == 1.0

    def test_near_frontal_view(self):
        assert angle_gain(self.model, np.radians(11.25)) >= 0.95

    def test_side_view(self):
        assert angle_gain(self.model, np.radians(90.0)) <= 0.05

    def test_pinned_oblique_value(self):
        assert angle_gain(self.model, np.radians(78.75)) == pytest.approx(
            0.1, rel=1e-9)

    def test_monotone_non_increasing(self):
        grid = np.radians(np.arange(0.0, 90.01, 0.1))
        gains = [angle_gain(self.model, g) for g in grid]
        assert all(b <= a + 1e-12 for a, b in zip(gains, gains[1:]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            angle_gain(self.model, -0.1)

    @pytest.mark.parametrize("table", [(), ((0.0, 1.0), (80.0, 0.2))])
    def test_back_of_chest_gives_zero(self, table):
        model = RcsModel(1.0, table=table)
        for incidence in (np.pi / 2 + 1e-9, np.radians(101.3), np.pi):
            assert angle_gain(model, incidence) == 0.0
        # within the tolerance the law still holds
        assert angle_gain(model, np.pi / 2 + 1e-13) \
            == angle_gain(model, np.pi / 2)

    def test_measured_table_interpolation(self):
        model = RcsModel(1.0, table=((0.0, 1.0), (45.0, 0.5), (90.0, 0.0)))
        assert angle_gain(model, np.radians(22.5)) == pytest.approx(0.75)
        assert angle_gain(model, 0.0) == 1.0

    def test_measured_table_must_be_monotone(self):
        with pytest.raises(ValueError):
            RcsModel(1.0, table=((0.0, 0.5), (45.0, 0.9)))


class TestRcsSeries:
    def test_static_chest_constant_reflectivity(self):
        model = RcsModel(reflectivity=0.37)
        trace = DisplacementTrace(np.zeros(50), 4.0)
        series = rcs_series(model, trace, 0.0, WAVELENGTH, [0])[0]
        npt.assert_allclose(series, 0.37, atol=1e-15)

    def test_quarter_wavelength_round_trip_phase(self):
        # the echo travels the displacement twice: lambda/4 offset -> pi
        model = RcsModel(reflectivity=1.0)
        trace = DisplacementTrace(np.array([0.0, WAVELENGTH / 4]), 4.0)
        series = rcs_series(model, trace, 0.0, WAVELENGTH, [0])[0]
        assert np.angle(series[1]) == pytest.approx(np.pi, abs=1e-9) or \
            np.angle(series[1]) == pytest.approx(-np.pi, abs=1e-9)
        assert np.angle(series[0]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_magnitude(self):
        model = RcsModel(reflectivity=2.5)
        trace = synth_respiration(0.133, 0.02, 30.0, 4.0)
        series = rcs_series(model, trace, np.radians(30), WAVELENGTH, [0])[0]
        npt.assert_allclose(np.abs(series), 2.5, atol=1e-12)

    def test_excursion_ratio_tracks_gain_ratio(self):
        model = RcsModel(reflectivity=1.0)
        trace = synth_respiration(0.133, 0.004, 30.0, 4.0)  # small: no wrap
        def excursion(theta):
            series = rcs_series(model, trace, theta, WAVELENGTH, [0])[0]
            phase = np.unwrap(np.angle(series))
            return phase.max() - phase.min()
        ratio = excursion(np.radians(78.75)) / excursion(np.radians(11.25))
        expected = (angle_gain(model, np.radians(78.75))
                    / angle_gain(model, np.radians(11.25)))
        assert ratio == pytest.approx(expected, rel=1e-9)


class TestObservedDisplacement:
    def test_no_distortion_is_pure_scaling(self):
        model = RcsModel(reflectivity=1.0)
        trace = synth_respiration(0.2, 0.02, 30.0, 4.0)
        seen = observed_displacement(model, trace, np.radians(60.0), [0])
        gain = angle_gain(model, np.radians(60.0))
        npt.assert_allclose(seen.samples[0], gain * trace.samples, atol=1e-15)

    def test_frontal_view_immune_to_distortion(self):
        model = RcsModel(reflectivity=1.0, distortion_strength=1.0)
        trace = synth_respiration(0.2, 0.02, 30.0, 4.0)
        seen = observed_displacement(model, trace, 0.0, [3])
        npt.assert_allclose(seen.samples[0], trace.samples, atol=1e-15)

    def test_oblique_view_distorted_and_deterministic(self):
        model = RcsModel(reflectivity=1.0, distortion_strength=0.5)
        trace = synth_respiration(0.2, 0.02, 30.0, 4.0)
        a = observed_displacement(model, trace, np.radians(78.75), [3])
        b = observed_displacement(model, trace, np.radians(78.75), [3])
        npt.assert_array_equal(a.samples, b.samples)
        gain = angle_gain(model, np.radians(78.75))
        jitter = a.samples[0] - gain * trace.samples
        level = 0.5 * (1 - gain) * np.max(np.abs(trace.samples))
        assert np.sqrt(np.mean(jitter ** 2)) == pytest.approx(level, rel=1e-9)

    def test_default_exponent_pins_oblique_gain(self):
        assert 0.1 ** (1 / DEFAULT_GAIN_EXPONENT) == pytest.approx(
            np.cos(np.radians(78.75)), rel=1e-12)
