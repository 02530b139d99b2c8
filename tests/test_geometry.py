import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from risvital.geometry import (ArrayConfig, GeometryError, Placement,
                               angles_from_placement, ula_steering)

WAVELENGTH = 299792458.0 / 7.15e9


def half_lambda(m):
    return ArrayConfig.half_wavelength(m, WAVELENGTH)


class TestUlaSteering:
    def test_broadside_is_flat(self):
        for m in (1, 2, 5, 16):
            a = ula_steering(half_lambda(m), 0.0)
            npt.assert_allclose(a, np.full(m, 1 / np.sqrt(m)),
                                atol=1e-15)

    def test_two_element_30deg(self):
        # phase step = 2*pi*(lambda/2)*sin(30 deg)/lambda = pi/2
        a = ula_steering(half_lambda(2), np.pi / 6)
        expected = np.array([1.0, np.exp(1j * np.pi / 2)]) / np.sqrt(2)
        npt.assert_allclose(a, expected, atol=1e-12)

    def test_unit_norm_for_random_angles(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(-np.pi / 2, np.pi / 2, size=50):
            a = ula_steering(half_lambda(7), theta)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    @given(m=st.integers(1, 64),
           theta=st.floats(-np.pi / 2, np.pi / 2))
    def test_unit_norm_property(self, m, theta):
        assert abs(np.linalg.norm(ula_steering(half_lambda(m), theta))
                   - 1.0) < 1e-12

    def test_self_correlation_and_bound(self):
        cfg = half_lambda(6)
        rng = np.random.default_rng(4)
        for t1, t2 in rng.uniform(-np.pi / 2, np.pi / 2, size=(100, 2)):
            a1 = ula_steering(cfg, t1)
            a2 = ula_steering(cfg, t2)
            corr = abs(np.vdot(a1, a2))
            assert corr <= 1.0 + 1e-12
        same = abs(np.vdot(ula_steering(cfg, 0.2), ula_steering(cfg, 0.2)))
        assert abs(same - 1.0) < 1e-12

    def test_equality_requires_same_spatial_frequency(self):
        cfg = half_lambda(6)
        t1 = 0.4
        t2 = np.pi - t1  # same sine, different angle
        a1 = ula_steering(cfg, t1)
        a2 = ula_steering(cfg, t2)
        assert abs(abs(np.vdot(a1, a2)) - 1.0) < 1e-12
        a3 = ula_steering(cfg, 0.5)
        assert abs(np.vdot(a1, a3)) < 1.0 - 1e-6


class TestConfigValidation:
    def test_bad_element_count(self):
        with pytest.raises(GeometryError):
            ArrayConfig(0, 0.02, 0.04)

    def test_bad_spacing(self):
        with pytest.raises(GeometryError):
            ArrayConfig(4, -1.0, 0.04)

    def test_element_positions_centred(self):
        cfg = ArrayConfig(5, 0.02, 0.04)
        pos = cfg.element_positions([1.0, 2.0, 3.0])
        npt.assert_allclose(pos.mean(axis=0), [1.0, 2.0, 3.0], atol=1e-15)
        npt.assert_allclose(np.diff(pos[:, 1]), 0.02)


def fig4_placement():
    target = np.array([3.0, 0.0, 1.0])
    ris = np.array([2.707, 1.4606, 1.0])
    chest = (ris - target) / np.linalg.norm(ris - target)
    return Placement(radar_position=[0.0, 0.0, 1.0], ris_center=ris,
                     ris_normal=[0.0, -1.0, 0.0], target_position=target,
                     chest_normal=chest)


class TestAnglesFromPlacement:
    def test_default_layout_incidence_angles(self):
        angles = angles_from_placement(fig4_placement())
        # chest faces the RIS: frontal RIS view, oblique direct view
        assert abs(np.degrees(angles.chest_incidence_direct) - 78.75) < 0.15
        assert np.degrees(angles.chest_incidence_ris) < 1e-3

    def test_target_on_broadside(self):
        angles = angles_from_placement(fig4_placement())
        assert angles.theta_direct == pytest.approx(0.0, abs=1e-12)
        assert angles.theta_ris > 0  # positive toward the RIS side

    def test_translation_invariance(self):
        p = fig4_placement()
        shift = np.array([5.0, -2.0, 0.7])
        moved = Placement(radar_position=p.radar_position + shift,
                          ris_center=p.ris_center + shift,
                          ris_normal=p.ris_normal,
                          target_position=p.target_position + shift,
                          chest_normal=p.chest_normal)
        a, b = angles_from_placement(p), angles_from_placement(moved)
        npt.assert_allclose(
            [a.theta_direct, a.theta_ris, a.chest_incidence_direct,
             a.chest_incidence_ris],
            [b.theta_direct, b.theta_ris, b.chest_incidence_direct,
             b.chest_incidence_ris], atol=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(GeometryError):
            Placement(radar_position=[0, 0, 1], ris_center=[2.707, 1.4606, 1],
                      ris_normal=[0, -1, 0], target_position=[0, 0, 1],
                      chest_normal=[1, 0, 0])

    def test_non_unit_normal_rejected(self):
        with pytest.raises(GeometryError):
            Placement(radar_position=[0, 0, 1], ris_center=[2.707, 1.4606, 1],
                      ris_normal=[0, -2, 0], target_position=[3, 0, 1],
                      chest_normal=[1, 0, 0])
