"""Array geometry: placements, steering vectors, and look angles.

The radar is a uniform linear array laid out along the +y axis of the
scenario frame, with element 0 at the radar position and broadside along
+x. Azimuths are measured from broadside, positive toward +y (the RIS
side in the default layout). Steering uses azimuth only; the geometry
itself is fully 3-D for distances.
"""

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


class GeometryError(ValueError):
    """Raised for degenerate or inconsistent placements."""


def _as_point(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise GeometryError(f"expected a finite 3-vector, got {v!r}")
    return a


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count, spacing [m], wavelength [m]."""

    element_count: int
    spacing: float
    carrier_wavelength: float

    def __post_init__(self):
        if self.element_count < 1:
            raise GeometryError("element_count must be >= 1")
        if self.spacing <= 0:
            raise GeometryError("spacing must be positive")
        if self.carrier_wavelength <= 0:
            raise GeometryError("carrier_wavelength must be positive")

    @classmethod
    def half_wavelength(cls, element_count: int, wavelength: float) -> "ArrayConfig":
        return cls(element_count, wavelength / 2.0, wavelength)

    def element_positions(self, origin) -> np.ndarray:
        """Element positions in 3-D along +y, aperture centred on `origin`.

        Centring halves the worst-case aperture offset, which keeps the
        exact-distance channel closest to the far-field steering model.
        """
        origin = _as_point(origin)
        offsets = (np.arange(self.element_count)[:, None]
                   - (self.element_count - 1) / 2.0) * self.spacing
        return origin + offsets * np.array([0.0, 1.0, 0.0])


@dataclass(frozen=True, eq=False)
class Placement:
    """Radar, RIS panel, and target positions with surface normals [m].

    A chest normal of None (auto) faces the chest toward the RIS."""

    radar_position: np.ndarray
    ris_center: np.ndarray
    ris_normal: np.ndarray
    target_position: np.ndarray
    chest_normal: np.ndarray | None = None

    _FIELDS = ("radar_position", "ris_center", "ris_normal",
               "target_position", "chest_normal")

    def __eq__(self, other):
        if not isinstance(other, Placement):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self._FIELDS)

    def __post_init__(self):
        given = self._FIELDS[:-1] if self.chest_normal is None else self._FIELDS
        for name in given:
            object.__setattr__(self, name, _as_point(getattr(self, name)))
        points = [self.radar_position, self.ris_center, self.target_position]
        labels = ["radar", "ris", "target"]
        for i in range(3):
            for j in range(i + 1, 3):
                if np.linalg.norm(points[i] - points[j]) == 0.0:
                    raise GeometryError(
                        f"{labels[i]} and {labels[j]} positions coincide")
        if self.chest_normal is None:
            facing = self.ris_center - self.target_position
            object.__setattr__(self, "chest_normal",
                               facing / np.linalg.norm(facing))
        for name in ("ris_normal", "chest_normal"):
            norm = np.linalg.norm(getattr(self, name))
            if abs(norm - 1.0) > 1e-12:
                raise GeometryError(f"{name} must have unit length, got {norm}")


@dataclass(frozen=True)
class PathAngles:
    """Look angles for the two sensing paths [rad]."""

    theta_direct: float
    theta_ris: float
    chest_incidence_direct: float
    chest_incidence_ris: float


def ula_steering(cfg: ArrayConfig, theta: float) -> np.ndarray:
    """Unit-norm (M,) response, entry m = exp(j*2*pi*m*spacing*sin(theta)/lambda)/sqrt(M)."""
    m = np.arange(cfg.element_count)
    phase = 2.0 * np.pi * m * cfg.spacing * np.sin(theta) / cfg.carrier_wavelength
    return np.exp(1j * phase) / np.sqrt(cfg.element_count)


def _azimuth_from_broadside(origin: np.ndarray, point: np.ndarray) -> float:
    """Azimuth of `point` seen from `origin`: 0 at +x broadside, positive toward +y."""
    d = point - origin
    if d[0] == 0.0 and d[1] == 0.0:  # a norm underflows below ~1e-162 m
        raise GeometryError("point directly above/below the array; azimuth undefined")
    return float(np.arctan2(d[1], d[0]))


def _incidence(normal: np.ndarray, at: np.ndarray, toward: np.ndarray) -> float:
    """Angle between a surface normal at `at` and the direction toward `toward`."""
    d = toward - at
    dist = np.linalg.norm(d)
    if dist == 0.0:
        raise GeometryError("coincident points; incidence angle undefined")
    cosang = np.clip(np.dot(normal, d / dist), -1.0, 1.0)
    return float(np.arccos(cosang))


def angles_from_placement(p: Placement) -> PathAngles:
    """Radar look angles toward target and RIS, plus chest incidence per path."""
    return PathAngles(
        theta_direct=_azimuth_from_broadside(p.radar_position, p.target_position),
        theta_ris=_azimuth_from_broadside(p.radar_position, p.ris_center),
        chest_incidence_direct=_incidence(
            p.chest_normal, p.target_position, p.radar_position),
        chest_incidence_ris=_incidence(
            p.chest_normal, p.target_position, p.ris_center),
    )
