import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import risvital.cli  # noqa: F401  the tracer looks cli and config up by name
from risvital.channel import (ChannelError, ChannelModel, ChannelRealization,
                              build_ris_grid, channel_model, los_channel,
                              realize_channel, ris_focus_profile)
from risvital.geometry import ArrayConfig, ula_steering
from risvital.scenario import (Scenario, db_to_linear, draw_acquisition,
                               simulate_acquisition, standard_normals)
from risvital.strategy import PASS_PULSES, gamma_sweep

WAVELENGTH = 299792458.0 / 7.15e9


def unit_model(k_factor, h_i, clutter_strength=0.0):
    """A ChannelModel with unit scales around the (M, N) LoS matrix `h_i`."""
    m, n = h_i.shape
    los = (np.asarray(h_i, dtype=complex), np.ones(n, dtype=complex),
           np.ones(m, dtype=complex))
    return ChannelModel(los, k_factor, (1.0, 1.0, 1.0),
                        np.ones(n, dtype=complex), clutter_strength)


def seed_draw(model, seeds):
    """`realize_channel` of the first normals of each seed's own stream."""
    return realize_channel(model,
                           standard_normals(seeds, (model.draw_size,)))


class TestRicianDraw:
    def test_huge_k_returns_los(self):
        los = np.array([[1 + 2j, -0.5j], [0.25, 1.0]])
        out = seed_draw(unit_model(1e12, los), [0]).H_I[0]
        # nLoS weight sqrt(1/(K+1)) = 1e-6; allow a few sigma of that scale
        npt.assert_allclose(out, los, rtol=1e-6, atol=5e-6)
        out_inf = seed_draw(unit_model(np.inf, los), [0]).H_I[0]
        npt.assert_array_equal(out_inf, los)

    def test_k_zero_unit_variance(self):
        los = np.ones((1, 2), dtype=complex)
        draws = seed_draw(unit_model(0.0, los),
                          list(range(100_000))).H_I[:, 0]
        var = np.var(draws, axis=0)  # nLoS only: per-entry variance 1
        npt.assert_allclose(var, 1.0, rtol=0.03)

    def test_k_10db_power_fraction(self):
        k = db_to_linear(10.0)
        assert k == pytest.approx(10.0)
        assert k / (k + 1.0) == pytest.approx(0.909090909, abs=1e-9)

    def test_mean_converges_to_scaled_los(self):
        k = 2.0
        los = np.array([1.5 - 0.5j, -1.0 + 0.25j])
        n = 100_000
        draws = seed_draw(unit_model(k, los[None, :]),
                          list(range(n))).H_I[:, 0]
        mean = draws.mean(axis=0)
        sem = np.sqrt(1.0 / (k + 1.0) / n)  # std error per complex entry
        err = np.abs(mean - np.sqrt(k / (k + 1.0)) * los)
        assert np.all(err < 3.0 * sem * np.sqrt(2))

    def test_deterministic_per_seed(self):
        model = unit_model(3.0, np.ones((3, 4), dtype=complex))
        npt.assert_array_equal(seed_draw(model, [42]).H_I[0],
                               seed_draw(model, [42]).H_I[0])

    def test_negative_k_rejected(self):
        scn = Scenario()
        with pytest.raises(ChannelError, match="k_factor"):
            channel_model(scn.placement, scn.radar.array_config,
                          scn.ris_config(), -1.0, 0.0)


def single_element_placement(distance):
    from risvital.geometry import Placement
    return Placement(radar_position=[0.0, 0.0, 0.0],
                     ris_center=[0.0, distance, 0.0],
                     ris_normal=[0.0, -1.0, 0.0],
                     target_position=[distance, 0.0, 0.0],
                     chest_normal=[-1.0, 0.0, 0.0])


def one_by_one_ris(center):
    return build_ris_grid(center, [0.0, -1.0, 0.0], 1, 1, WAVELENGTH / 2)


class TestLosChannel:
    def test_friis_magnitude_at_three_metres(self):
        p = single_element_placement(3.0)
        cfg = ArrayConfig(1, WAVELENGTH / 2, WAVELENGTH)
        _, _, h_d = los_channel(p, cfg, one_by_one_ris(p.ris_center))
        assert abs(h_d[0]) == pytest.approx(WAVELENGTH / (4 * np.pi * 3.0),
                                            rel=1e-12)
        assert abs(h_d[0]) == pytest.approx(1.112e-3, rel=1e-3)

    def test_doubling_distance_halves_magnitude_and_rotates_phase(self):
        cfg = ArrayConfig(1, WAVELENGTH / 2, WAVELENGTH)
        near = single_element_placement(2.0)
        far = single_element_placement(4.0)
        _, _, h_near = los_channel(near, cfg, one_by_one_ris(near.ris_center))
        _, _, h_far = los_channel(far, cfg, one_by_one_ris(far.ris_center))
        assert abs(h_far[0]) == pytest.approx(abs(h_near[0]) / 2.0, rel=1e-12)
        expected_rotation = np.exp(-2j * np.pi * 2.0 / WAVELENGTH)
        npt.assert_allclose(h_far[0] / abs(h_far[0]),
                            h_near[0] / abs(h_near[0]) * expected_rotation,
                            atol=1e-9)

    def test_equidistant_ris_elements_equal_target_magnitudes(self):
        # 1x2 panel straddling the normal through the target
        panel = build_ris_grid([0.0, 2.0, 0.0], [0.0, -1.0, 0.0], 1, 2, 0.02)
        p = single_element_placement(2.0)
        from risvital.geometry import Placement
        p = Placement(radar_position=p.radar_position, ris_center=[0, 2.0, 0],
                      ris_normal=[0, -1.0, 0], target_position=[0, 0, 0.5],
                      chest_normal=[0, 1.0, 0])
        _, h_t, _ = los_channel(p, ArrayConfig(1, 0.02, WAVELENGTH), panel)
        assert abs(abs(h_t[0]) - abs(h_t[1])) < 1e-15

    def test_zero_distance_rejected(self):
        p = single_element_placement(2.0)
        panel = build_ris_grid(p.target_position, [0, -1.0, 0], 1, 1, 0.02)
        with pytest.raises(ChannelError):
            los_channel(p, ArrayConfig(1, 0.02, WAVELENGTH), panel)


class TestFocusProfile:
    def test_single_element_matches_formula(self):
        p = single_element_placement(2.5)
        panel = one_by_one_ris(p.ris_center)
        phases = ris_focus_profile(p, panel, WAVELENGTH)
        d1 = np.linalg.norm(p.ris_center - p.radar_position)
        d2 = np.linalg.norm(p.ris_center - p.target_position)
        expected = np.mod(2 * np.pi * (d1 + d2) / WAVELENGTH, 2 * np.pi)
        assert phases[0] == pytest.approx(expected, abs=1e-12)

    def test_symmetric_elements_equal_phases(self):
        # both legs symmetric about the panel centre plane
        panel = build_ris_grid([0.0, 2.0, 0.0], [0.0, -1.0, 0.0], 1, 2, 0.04)
        from risvital.geometry import Placement
        p = Placement(radar_position=[0.0, 0.0, 0.0], ris_center=[0.0, 2.0, 0.0],
                      ris_normal=[0.0, -1.0, 0.0],
                      target_position=[0.0, 4.0, 0.0], chest_normal=[0, -1.0, 0])
        phases = ris_focus_profile(p, panel, WAVELENGTH)
        assert phases[0] == pytest.approx(phases[1], abs=1e-12)

    def test_focused_profile_beats_random_profiles(self):
        scn = Scenario()
        panel = build_ris_grid(scn.placement.ris_center,
                               scn.placement.ris_normal, 10, 10,
                               WAVELENGTH / 2)
        h_i, h_t, _ = los_channel(scn.placement, scn.radar.array_config, panel)
        a_ris = ula_steering(scn.radar.array_config, scn.angles.theta_ris)
        focused = ris_focus_profile(scn.placement, panel, WAVELENGTH)

        def cascade_gain(phases):
            gamma = np.exp(1j * phases)
            return abs(np.sum(h_t * gamma * (h_i.T @ a_ris)))

        best = cascade_gain(focused)
        rng = np.random.default_rng(77)
        random_gains = [cascade_gain(rng.uniform(0, 2 * np.pi, 100))
                        for _ in range(200)]
        assert best > max(random_gains)


def end_to_end(reflectivity_ris=40.0, reflectivity_direct=3.0,
               clutter_strength=1e-10):
    """The simulator's M x M end-to-end matrix and the channel behind it.

    Noiseless, with a still chest and no RCS distortion, each path's
    reflectivity is its constant real amplitude, so under a schedule whose
    column l is e_(l mod M) the first M record columns are the matrix.
    """
    base = Scenario()
    scn = replace(
        base, radar=replace(base.radar, noise_figure_db=-np.inf),
        physio=replace(base.physio, peak_to_peak=0.0, distortion_strength=0.0,
                       reflectivity_ris=reflectivity_ris,
                       reflectivity_direct=reflectivity_direct),
        channel=replace(base.channel, clutter_strength=clutter_strength))
    m = scn.radar.element_count
    schedule = np.eye(m)[:, np.arange(scn.slow_time_samples) % m]
    record = simulate_acquisition(scn, schedule, [11])[0]
    return record[:, :m], draw_acquisition(scn, [11], schedule.shape[1])[0]


class TestAssembleEndToEnd:
    def test_matches_two_path_model(self):
        h, ch = end_to_end()
        v, h_d = ch.ris_cascade[0], ch.h_D[0]
        model = 40.0 * np.outer(v, v) + 3.0 * np.outer(h_d, h_d) + ch.H_C[0]
        npt.assert_allclose(h, model, rtol=0, atol=1e-15 * np.abs(model).max())

    def test_direct_only_is_rank_one(self):
        h, ch = end_to_end(reflectivity_ris=0.0, clutter_strength=0.0)
        npt.assert_allclose(h, 3.0 * np.outer(ch.h_D[0], ch.h_D[0]),
                            atol=1e-18)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_ris_only_is_rank_one(self):
        h, _ = end_to_end(reflectivity_direct=0.0, clutter_strength=0.0)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_clutter_passthrough(self):
        h, ch = end_to_end(reflectivity_ris=0.0, reflectivity_direct=0.0)
        npt.assert_array_equal(h, ch.H_C[0])

    def test_monostatic_symmetry(self):
        h, _ = end_to_end()
        npt.assert_allclose(h, h.T, rtol=0, atol=1e-18)

    def test_shape_mismatch_rejected(self):
        _, ch = end_to_end()
        with pytest.raises(ChannelError):
            ChannelRealization(ch.H_I, ch.h_T[:, :-1], ch.h_D, ch.H_C,
                               ch.reflection)

    def test_plain_realization_rejected(self):
        # a lone draw is a stack of one, never a plain (M, N) matrix
        _, ch = end_to_end()
        with pytest.raises(ChannelError, match=r"\(S, M, N\)"):
            ChannelRealization(ch.H_I[0], ch.h_T[0], ch.h_D[0], ch.H_C[0],
                               ch.reflection)


def drawn_clutter(strength, seeds, m):
    """The (S, m, m) clutter of the draws of `seeds`."""
    return seed_draw(unit_model(0.0, np.ones((m, 1)), strength), seeds).H_C


class TestClutterDraw:
    def test_zero_strength(self):
        npt.assert_array_equal(drawn_clutter(0.0, [0], 4),
                               np.zeros((1, 4, 4)))

    def test_per_entry_variance(self):
        strength = 0.5
        draws = drawn_clutter(strength, list(range(100_000)), 2)
        var = np.var(draws, axis=0)
        npt.assert_allclose(var, strength, rtol=0.03)

    def test_same_seed_identical(self):
        npt.assert_array_equal(drawn_clutter(1.0, [9], 5),
                               drawn_clutter(1.0, [9], 5))

    def test_symmetric(self):
        h_c = drawn_clutter(1.0, [3], 6)[0]
        npt.assert_array_equal(h_c, h_c.T)

    def test_negative_strength_rejected(self):
        with pytest.raises(ChannelError):
            drawn_clutter(-0.1, [0], 3)


class TestRisConfig:
    def test_reflection_unit_modulus(self):
        scn = Scenario()
        grid = build_ris_grid([0, 2, 0], [0, -1, 0], 3, 4, 0.02)
        gamma = channel_model(scn.placement, scn.radar.array_config,
                              (grid, np.linspace(0, 5, 12)), 1.0,
                              0.0).reflection
        assert gamma.shape == (12,)
        npt.assert_allclose(np.abs(gamma), 1.0, atol=1e-15)
        npt.assert_allclose(np.angle(gamma), np.angle(np.exp(
            1j * np.linspace(0, 5, 12))), atol=1e-12)

    def test_grid_spacing_and_extent(self):
        grid = build_ris_grid([0, 2, 0], [0, -1, 0], 10, 10, 0.021)
        assert grid.shape == (100, 3)
        extent = grid.max(axis=0) - grid.min(axis=0)
        assert extent.max() == pytest.approx(9 * 0.021, rel=1e-12)

    def test_positions_and_phases_must_match(self):
        scn = Scenario()
        grid = build_ris_grid([0, 2, 0], [0, -1, 0], 3, 4, 0.02)
        for ris in ((grid, np.zeros(11)), (grid[:, :2], np.zeros(12)),
                    (grid, np.zeros((12, 1)))):
            with pytest.raises(ChannelError, match="element positions"):
                channel_model(scn.placement, scn.radar.array_config, ris,
                              1.0, 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ChannelError):
            build_ris_grid([0, 2, 0], [0, -1, 0], 0, 4, 0.02)

    @pytest.mark.parametrize("spacing", [0.0, -0.01, np.nan])
    def test_nonpositive_spacing_rejected(self, spacing):
        with pytest.raises(ChannelError, match="spacing must be positive"):
            build_ris_grid([0, 2, 0], [0, -1, 0], 3, 4, spacing)

    def test_gamma_modulus_validated(self):
        with pytest.raises(ChannelError, match="unit modulus"):
            ChannelRealization(np.ones((1, 2, 3)), np.ones((1, 3)),
                               np.ones((1, 2)), np.zeros((1, 2, 2)),
                               np.array([1.0, 1.0, 2.0]))


def _oracle_draw(model, seed):
    """A channel draw as eight consecutive generator calls make it: the
    real then imaginary normals of H_I, h_T, h_D and the clutter."""
    rng = np.random.default_rng(seed)

    def complex_normal(shape):
        return (rng.standard_normal(shape)
                + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    parts = []
    k = model.k_factor
    for los, scale in zip(model.los, model.scales):
        nlos = complex_normal(los.shape)
        mix = los.copy() if np.isinf(k) else (
            np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos)
        parts.append(scale * mix)
    m = parts[2].size
    draw = np.sqrt(model.clutter_strength) * complex_normal((m, m))
    return (*parts, np.triu(draw) + np.triu(draw, 1).T)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype \
        and a.tobytes() == b.tobytes()


SEED_LISTS = st.tuples(
    st.lists(st.integers(0, 2 ** 63 - 1), max_size=11),
    st.integers(0, 2 ** 128 - 1), st.integers(0, 11)).map(
        lambda t: t[0][:t[2]] + [np.random.SeedSequence(t[1])] + t[0][t[2]:])
COMPONENTS = ("H_I", "h_T", "h_D", "H_C")


class TestDrawEngine:
    """One normal draw per seed, stacked over seeds, changes no bit."""

    @settings(max_examples=30, deadline=None)
    @given(seeds=SEED_LISTS,
           k_db=st.sampled_from([-np.inf, 10.0, np.inf]),
           clutter=st.sampled_from([0.0, 1e-10]))
    def test_stacked_rows_equal_lone_draws_and_oracle(self, seeds, k_db,
                                                      clutter):
        scn = Scenario()
        model = channel_model(scn.placement, scn.radar.array_config,
                              scn.ris_config(), db_to_linear(k_db), clutter)
        stacked = seed_draw(model, seeds)
        assert stacked.H_I.shape == (len(seeds), 5, 100)
        for i, seed in enumerate(seeds):
            lone = seed_draw(model, [seed])
            for name, want in zip(COMPONENTS, _oracle_draw(model, seed)):
                assert _same_bits(getattr(lone, name)[0], want), name
                assert _same_bits(getattr(stacked, name)[i], want), name
            assert _same_bits(stacked.ris_cascade[i], lone.ris_cascade[0])

    @settings(max_examples=30, deadline=None)
    @given(seeds=SEED_LISTS, name=st.sampled_from(COMPONENTS),
           position=st.floats(0.0, 1.0, exclude_max=True),
           bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.inf)]))
    def test_stacked_realization_rejects_one_non_finite_entry(
            self, seeds, name, position, bad):
        stacked = seed_draw(Scenario().channel_model, seeds)
        parts = {n: getattr(stacked, n).copy() for n in COMPONENTS}
        flat = parts[name].reshape(-1)
        flat[int(position * flat.size)] = bad
        with pytest.raises(ChannelError, match=f"{name} contains non-finite"):
            ChannelRealization(**parts, reflection=stacked.reflection)


def test_traced_sweep_times_one_draw_per_acquisition():
    """The benchmark tracer times `realize_channel` by name, so every draw
    must go through it: one per seed pass per sweep, whatever the number
    of shares, and one extraction per share and pass."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as traced:
        gamma_sweep(Scenario(), "temporal", [0.2, 0.5, 0.5],
                    range(PASS_PULSES // Scenario().slow_time_samples + 1))
    assert traced.calls["channel.realize_channel"] == 2
    assert traced.calls["physio.rcs_series"] == 4
    assert traced.calls["scenario.extract_vital_signs"] == 6
