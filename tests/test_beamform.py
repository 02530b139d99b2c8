import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital.beamform import (IllConditionedConstraints, min_norm_precoder,
                               min_power_closed_form, split_precoder,
                               split_scale, steering_correlation,
                               temporal_weights)
from risvital.geometry import ArrayConfig, ula_steering


def steer(m, theta, wavelength=1.0):
    return ula_steering(ArrayConfig.half_wavelength(m, wavelength), theta)


def grid_oracle(a1, a2, g1, g2, n_grid=4096):
    """Dense relative-phase grid + least-norm solve, independent of the
    closed-form phase choice."""
    a_mat = np.stack([a1, a2], axis=1)
    gram_inv = np.linalg.inv(a_mat.conj().T @ a_mat)
    best = np.inf
    for dphi in np.linspace(0, 2 * np.pi, n_grid, endpoint=False):
        g = np.array([g1 * np.exp(1j * dphi), g2])
        w = a_mat @ (gram_inv @ g)
        best = min(best, float(np.real(np.vdot(w, w))))
    return best


class TestSteeringCorrelation:
    def test_identical_vectors(self):
        a = steer(4, 0.3)
        assert steering_correlation(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_null(self):
        # sin(t1) = 1, sin(t2) = 0 -> a_c = (1 + exp(j*pi))/2 = 0
        a1 = steer(2, np.pi / 2)
        a2 = steer(2, 0.0)
        assert abs(steering_correlation(a1, a2)) < 1e-12

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(8)
        for t1, t2 in rng.uniform(-np.pi / 2, np.pi / 2, (200, 2)):
            corr = abs(steering_correlation(steer(5, t1), steer(5, t2)))
            assert corr <= 1.0 + 1e-12


class TestMinNormPrecoder:
    def test_orthogonal_steering(self):
        a1, a2 = steer(2, np.pi / 2), steer(2, 0.0)
        g1, g2 = 1.2, 0.4
        p = min_norm_precoder(a1, a2, g1, g2)
        assert p.achieved_power == pytest.approx(g1 ** 2 + g2 ** 2, rel=1e-12)
        assert abs(np.vdot(a1, p.weights)) == pytest.approx(g1, rel=1e-12)
        assert abs(np.vdot(a2, p.weights)) == pytest.approx(g2, rel=1e-12)

    def test_null_steering_with_zero_gain(self):
        a1, a2 = steer(5, 0.2), steer(5, 1.0)
        p = min_norm_precoder(a1, a2, 0.8, 0.0)
        assert abs(np.vdot(a2, p.weights)) < 1e-12
        assert abs(np.vdot(a1, p.weights)) == pytest.approx(0.8, rel=1e-9)

    def test_matches_grid_oracle_on_default_geometry(self):
        a1 = steer(5, np.radians(78.75))
        a2 = steer(5, np.radians(25.99))
        p = min_norm_precoder(a1, a2, 1.0, 1.0)
        oracle = grid_oracle(a1, a2, 1.0, 1.0)
        assert p.achieved_power <= oracle * (1 + 1e-12)
        assert p.achieved_power == pytest.approx(oracle, rel=1e-6)

    def test_optimality_over_random_instances(self):
        rng = np.random.default_rng(15)
        count = 0
        while count < 30:
            t1, t2 = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            a1, a2 = steer(5, t1), steer(5, t2)
            if abs(steering_correlation(a1, a2)) > 0.99:
                continue
            count += 1
            g1, g2 = rng.uniform(0.1, 2.0, 2)
            p = min_norm_precoder(a1, a2, g1, g2)
            oracle = grid_oracle(a1, a2, g1, g2, n_grid=1024)
            assert p.achieved_power <= oracle * (1 + 1e-12)

    def test_phase_perturbation_increases_power(self):
        a1, a2 = steer(5, 0.3), steer(5, 0.9)
        a_c = steering_correlation(a1, a2)
        g1, g2 = 1.0, 0.7
        base = min_norm_precoder(a1, a2, g1, g2).achieved_power
        a_mat = np.stack([a1, a2], axis=1)
        gram_inv = np.linalg.inv(a_mat.conj().T @ a_mat)
        for delta in (-0.1, 0.1):
            g = np.array([g1 * np.exp(1j * (np.angle(a_c) + delta)), g2])
            w = a_mat @ (gram_inv @ g)
            assert np.real(np.vdot(w, w)) > base + 1e-6 * base

    def test_collinear_rejected(self):
        a = steer(5, 0.4)
        with pytest.raises(IllConditionedConstraints):
            min_norm_precoder(a, a.copy(), 1.0, 1.0)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError, match="magnitudes"):
            min_norm_precoder(steer(3, 0.1), steer(3, 0.6), -1.0, 0.5)

    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_non_unit_steering_rejected(self, scale):
        # split_precoder's twin check is TestSplitPrecoder's
        a1, a2 = steer(3, 0.1), steer(3, 0.6)
        with pytest.raises(ValueError, match="unit norm"):
            min_norm_precoder(scale * a1, a2, 1.0, 0.5)
        with pytest.raises(ValueError, match="unit norm"):
            min_norm_precoder(a1, scale * a2, 1.0, 0.5)


class TestMinPowerClosedForm:
    def test_orthogonal(self):
        assert min_power_closed_form(1.2, 0.4, 0.0) == pytest.approx(
            1.2 ** 2 + 0.4 ** 2)

    def test_equal_gains_simplification(self):
        g, c = 0.8, 0.35
        assert min_power_closed_form(g, g, c) == pytest.approx(
            2 * g ** 2 / (1 + c), rel=1e-12)

    def test_matches_construction(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            t1, t2 = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            a1, a2 = steer(6, t1), steer(6, t2)
            a_c = steering_correlation(a1, a2)
            if abs(a_c) > 0.99:
                continue
            g1, g2 = rng.uniform(0.1, 2.0, 2)
            p = min_norm_precoder(a1, a2, g1, g2)
            assert p.achieved_power == pytest.approx(
                min_power_closed_form(g1, g2, a_c), rel=1e-9)

    def test_collinear_rejected(self):
        with pytest.raises(IllConditionedConstraints):
            min_power_closed_form(1.0, 1.0, 1.0)


class TestSplitScale:
    def test_gamma_zero(self):
        p_total, a_c = 0.25, 0.4 + 0.1j
        s = split_scale(p_total, 0.0, a_c)
        assert s == pytest.approx(np.sqrt(p_total * (1 - abs(a_c) ** 2)),
                                  rel=1e-12)
        # plugging (0, s) into the minimum-power form returns the budget
        assert min_power_closed_form(0.0, s, a_c) == pytest.approx(p_total,
                                                                   rel=1e-12)

    def test_even_split_orthogonal(self):
        assert split_scale(0.5, 0.5, 0.0) == pytest.approx(np.sqrt(2 * 0.5),
                                                           rel=1e-12)

    def test_power_conservation_random(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            t1, t2 = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            a1, a2 = steer(5, t1), steer(5, t2)
            if abs(steering_correlation(a1, a2)) > 0.99:
                continue
            gamma = rng.uniform(0.0, 1.0)
            p = split_precoder(a1, a2, gamma, 0.01)
            assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            split_scale(1.0, 1.5, 0.2)

    def test_vanishing_denominator_raises(self):
        # |a_c| one ulp below 1 rounds the even-split denominator to zero;
        # the guard must be an exception that `python -O` keeps
        with pytest.raises(IllConditionedConstraints):
            split_scale(1.0, 0.5, float(np.nextafter(1.0, 0.0)))

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(2, 8), vec_seed=st.integers(0, 2 ** 32 - 1),
           corr=st.floats(0.0, 1.0 - 1e-6),
           phase=st.floats(-np.pi, np.pi),
           gamma=st.floats(0.0, 1.0),
           total_power=st.floats(1e-6, 10.0))
    def test_split_meets_budget_and_shares(self, m, vec_seed, corr, phase,
                                           gamma, total_power):
        # a2 = e^{j phase} (corr a1 + sqrt(1 - corr^2) u) with u orthogonal
        # to a1, so |a_c| = corr
        rng = np.random.default_rng(vec_seed)
        a1, u = rng.standard_normal((2, m)) + 1j * rng.standard_normal((2, m))
        a1 /= np.linalg.norm(a1)
        u -= np.vdot(a1, u) * a1
        u /= np.linalg.norm(u)
        a2 = np.exp(1j * phase) * (corr * a1 + np.sqrt(1.0 - corr ** 2) * u)
        a_c = steering_correlation(a1, a2)
        assert abs(a_c) < 1.0 - 1e-6 + 1e-12
        p = split_precoder(a1, a2, gamma, total_power)
        s = split_scale(total_power, gamma, a_c)
        # rounding grows with the Gram condition number 1 / (1 - |a_c|^2)
        tol = 1e-12 / (1.0 - abs(a_c) ** 2)
        assert p.achieved_power == pytest.approx(total_power, rel=tol)
        assert abs(np.vdot(a1, p.weights)) == pytest.approx(s * gamma,
                                                            abs=tol * s)
        assert abs(np.vdot(a2, p.weights)) == pytest.approx(s * (1 - gamma),
                                                            abs=tol * s)


class TestSplitPrecoder:
    def setup_method(self):
        self.a1 = steer(5, np.radians(78.75))
        self.a2 = steer(5, np.radians(25.99))

    def test_all_power_first_direction(self):
        p = split_precoder(self.a1, self.a2, 1.0, 0.01)
        assert abs(np.vdot(self.a2, p.weights)) < 1e-12
        assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_all_power_second_direction(self):
        p = split_precoder(self.a1, self.a2, 0.0, 0.01)
        assert abs(np.vdot(self.a1, p.weights)) < 1e-12
        assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_even_split_equal_responses(self):
        p = split_precoder(self.a1, self.a2, 0.5, 0.01)
        r1 = abs(np.vdot(self.a1, p.weights))
        r2 = abs(np.vdot(self.a2, p.weights))
        assert r1 == pytest.approx(r2, rel=1e-9)

    def test_power_over_share_grid(self):
        for gamma in np.linspace(0, 1, 11):
            p = split_precoder(self.a1, self.a2, float(gamma), 0.01)
            assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError, match="unit norm"):
            split_precoder(2.0 * self.a1, self.a2, 0.5, 0.01)
        with pytest.raises(ValueError, match="unit norm"):
            split_precoder(self.a1, 0.5 * self.a2, 0.5, 0.01)


class TestTemporalWeights:
    def setup_method(self):
        self.a_d = steer(5, 0.0)
        self.a_r = steer(5, np.radians(28.35))
        self.slots_d = range(0, 120)
        self.slots_r = range(120, 240)

    def test_direct_slot_nulls_ris(self):
        p = temporal_weights(10, self.slots_d, self.slots_r, self.a_d,
                             self.a_r, 0.01)
        assert abs(np.vdot(self.a_r, p.weights)) < 1e-12
        assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_ris_slot_nulls_direct(self):
        p = temporal_weights(200, self.slots_d, self.slots_r, self.a_d,
                             self.a_r, 0.01)
        assert abs(np.vdot(self.a_d, p.weights)) < 1e-12
        assert p.achieved_power == pytest.approx(0.01, rel=1e-9)

    def test_unassigned_slot_rejected(self):
        with pytest.raises(ValueError):
            temporal_weights(240, self.slots_d, self.slots_r, self.a_d,
                             self.a_r, 0.01)

    def test_overlapping_slots_rejected(self):
        with pytest.raises(ValueError):
            temporal_weights(5, range(10), range(5, 15), self.a_d, self.a_r,
                             0.01)


class TestConstraintSatisfactionProperty:
    def test_random_instances(self):
        rng = np.random.default_rng(55)
        checked = 0
        while checked < 100:
            t1, t2 = rng.uniform(-np.pi / 2, np.pi / 2, 2)
            a1, a2 = steer(5, t1), steer(5, t2)
            if abs(steering_correlation(a1, a2)) > 0.99:
                continue
            checked += 1
            g1, g2 = rng.uniform(0.05, 2.0, 2)
            p = min_norm_precoder(a1, a2, g1, g2)
            assert abs(np.vdot(a1, p.weights)) == pytest.approx(g1, rel=1e-9)
            assert abs(np.vdot(a2, p.weights)) == pytest.approx(g2, rel=1e-9)
            npt.assert_allclose(p.achieved_power,
                                np.real(np.vdot(p.weights, p.weights)),
                                rtol=1e-12)
