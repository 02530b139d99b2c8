"""Dual-path radar channel synthesis.

Builds the radar->RIS matrix, RIS->target and radar->target vectors from
exact element-to-element free-space propagation, draws Rician fading
around those line-of-sight components, and adds static clutter.
`channel_model` does the geometry once; `realize_channel` is the
per-seed part and the one channel draw. It takes `draw_size` standard
normals per seed from the caller, so this module draws no random
numbers, and slices H_I, h_T, h_D and the clutter out of them, real then
imaginary parts per component; the Rician mix, path-loss scale and
clutter symmetrization then run once over the (S, ...) stack. Each seed
gets the bits it gets alone, and an (n,) block gives a plain realization.
The RIS reflection Gamma is diagonal, so it is kept as its (N,) diagonal.
The one end-to-end signal model on these components, two rank-1 target
terms plus clutter, is `scenario.compose_record` on a seed's draw.

Propagation phase convention is exp(-j*2*pi*d/lambda) with one-way Friis
amplitude lambda/(4*pi*d) per link leg, so the far-field line-of-sight
vectors align with the +j steering vectors of :mod:`risvital.geometry`.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig, GeometryError, Placement


class ChannelError(ValueError):
    """Raised for inconsistent channel inputs."""


@dataclass(frozen=True)
class RisConfig:
    """RIS panel: element positions [m] and reflection phases [rad]."""

    element_positions: np.ndarray  # (N, 3)
    phases: np.ndarray             # (N,), in [0, 2*pi)

    def __post_init__(self):
        object.__setattr__(self, "element_positions",
                           np.asarray(self.element_positions, dtype=float))
        object.__setattr__(self, "phases",
                           np.mod(np.asarray(self.phases, dtype=float), 2 * np.pi))
        n = len(self.element_positions)
        if self.element_positions.shape != (n, 3) or self.phases.shape != (n,):
            raise ChannelError(
                f"expected (N, 3) element positions and N phases, got "
                f"{self.element_positions.shape} and {self.phases.shape}")

    @property
    def reflection(self) -> np.ndarray:
        """Unit-modulus reflection coefficient per element, (N,)."""
        return np.exp(1j * self.phases)


def build_ris_grid(center, normal, rows: int, cols: int,
                   spacing: float) -> RisConfig:
    """Lay out a rows x cols panel centred at `center` in the plane normal to `normal`.

    Columns run along the horizontal in-plane axis, rows along the in-plane
    axis closest to vertical; every phase starts at zero.
    """
    if rows < 1 or cols < 1:
        raise ChannelError("RIS grid dimensions must be positive")
    center = np.asarray(center, dtype=float)
    normal = np.asarray(normal, dtype=float)
    norm = np.linalg.norm(normal)
    if norm == 0:
        raise GeometryError("RIS normal must be nonzero")
    normal = normal / norm
    up = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(up, normal)) > 1.0 - 1e-9:
        up = np.array([1.0, 0.0, 0.0])
    col_axis = np.cross(up, normal)
    col_axis /= np.linalg.norm(col_axis)
    row_axis = np.cross(normal, col_axis)
    r_idx = np.arange(rows) - (rows - 1) / 2.0
    c_idx = np.arange(cols) - (cols - 1) / 2.0
    rr, cc = np.meshgrid(r_idx, c_idx, indexing="ij")
    positions = (center
                 + rr.reshape(-1, 1) * spacing * row_axis
                 + cc.reshape(-1, 1) * spacing * col_axis)
    return RisConfig(positions, np.zeros(rows * cols))


@dataclass(frozen=True)
class ChannelRealization:
    """One block-fading draw of all channel components.

    A batch of seeds stacks its draws on a leading axis, (S, M, N) and so
    on; the RIS reflection is shared by every seed.
    """

    H_I: np.ndarray    # (M, N) radar <-> RIS
    h_T: np.ndarray    # (N,)   RIS <-> target
    h_D: np.ndarray    # (M,)   radar <-> target
    H_C: np.ndarray    # (M, M) static clutter
    reflection: np.ndarray  # (N,) RIS reflection, the diagonal of Gamma

    def __post_init__(self):
        for name in ("H_I", "h_T", "h_D", "H_C", "reflection"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=complex))
        if self.H_I.ndim not in (2, 3):
            raise ChannelError("H_I must be (M, N) or (S, M, N)")
        *stack, m, n = self.H_I.shape
        stack = tuple(stack)
        if self.h_T.shape != stack + (n,) or self.h_D.shape != stack + (m,):
            raise ChannelError("channel component shapes are inconsistent")
        if self.H_C.shape != stack + (m, m) or self.reflection.shape != (n,):
            raise ChannelError("channel component shapes are inconsistent")
        if np.max(np.abs(np.abs(self.reflection) - 1.0)) > 1e-12:
            raise ChannelError("reflection entries must have unit modulus")
        for name in ("H_I", "h_T", "h_D", "H_C"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ChannelError(f"{name} contains non-finite entries")

    @property
    def ris_cascade(self) -> np.ndarray:
        """One-way radar->RIS->target channel vector H_I @ Gamma @ h_T."""
        return (self.H_I @ (self.reflection * self.h_T)[..., None])[..., 0]


def _complex_normal(normals: np.ndarray, shape) -> np.ndarray:
    """Circular complex Gaussian, unit variance per entry, (S,) + shape.

    `normals` is (S, 2n): the first n of a row are the real parts and the
    next n the imaginary parts.
    """
    n = normals.shape[-1] // 2
    re, im = normals[:, :n], normals[:, n:]
    return ((re + 1j * im) / np.sqrt(2.0)).reshape(normals.shape[:1] + shape)


def _rician(k: float, los: np.ndarray, nlos: np.ndarray) -> np.ndarray:
    """sqrt(K/(K+1))*LoS + sqrt(1/(K+1))*nLoS over a stack of nLoS draws."""
    if np.isinf(k):
        return np.broadcast_to(los, nlos.shape).copy()
    return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * nlos


def _clutter(strength: float, normals: np.ndarray, m: int) -> np.ndarray:
    """Symmetric (S, m, m) clutter with per-entry variance `strength`."""
    draw = np.sqrt(strength) * _complex_normal(normals, (m, m))
    upper = np.triu(draw)
    return upper + np.triu(draw, 1).swapaxes(-1, -2)


def _friis_entry(dist: np.ndarray, wavelength: float) -> np.ndarray:
    if np.any(dist == 0):
        raise ChannelError("zero propagation distance")
    return (wavelength / (4.0 * np.pi * dist)) * np.exp(-2j * np.pi * dist / wavelength)


def los_channel(p: Placement, cfg: ArrayConfig, ris: RisConfig):
    """Exact-distance free-space LoS components (H_I, h_T, h_D)."""
    lam = cfg.carrier_wavelength
    radar_el = cfg.element_positions(p.radar_position)          # (M, 3)
    d_ir = np.linalg.norm(radar_el[:, None, :] - ris.element_positions[None, :, :],
                          axis=2)                               # (M, N)
    d_t = np.linalg.norm(ris.element_positions - p.target_position, axis=1)  # (N,)
    d_d = np.linalg.norm(radar_el - p.target_position, axis=1)  # (M,)
    return (_friis_entry(d_ir, lam), _friis_entry(d_t, lam), _friis_entry(d_d, lam))


def ris_focus_profile(p: Placement, ris: RisConfig, wavelength: float) -> np.ndarray:
    """Phases that equalize the cascaded radar->element->target phase over elements."""
    d1 = np.linalg.norm(ris.element_positions - p.radar_position, axis=1)
    d2 = np.linalg.norm(ris.element_positions - p.target_position, axis=1)
    return np.mod(2.0 * np.pi * (d1 + d2) / wavelength, 2.0 * np.pi)


@dataclass(frozen=True)
class ChannelModel:
    """The seed-independent half of a block-fading channel draw.

    `los` holds the unit-RMS line-of-sight parts of (H_I, h_T, h_D), all
    mixed with their fading at the linear Rician factor `k_factor`, and
    `scales` the RMS magnitude of each, so a draw rescales its fading to
    the path loss; `reflection` is the RIS phase vector.
    """

    los: tuple
    k_factor: float
    scales: tuple
    reflection: np.ndarray
    clutter_strength: float

    def __post_init__(self):
        if self.k_factor < 0:
            raise ChannelError("k_factor must be >= 0")
        if self.clutter_strength < 0:
            raise ChannelError("clutter strength must be >= 0")
        if not all(np.all(np.isfinite(part)) for part in self.los):
            raise ChannelError("line-of-sight components must be finite")

    @property
    def draw_size(self) -> int:
        """Normals per draw: H_I, h_T, h_D, then the (M, M) clutter."""
        return sum(2 * p.size for p in self.los) + 2 * self.los[2].size ** 2


def channel_model(p: Placement, cfg: ArrayConfig, ris: RisConfig,
                  k_rice: float, clutter_strength: float) -> ChannelModel:
    """The exact LoS geometry normalized to unit RMS, for many draws."""
    los = los_channel(p, cfg, ris)
    scales = tuple(np.sqrt(np.mean(np.abs(part) ** 2)) for part in los)
    return ChannelModel(tuple(part / scale for part, scale in zip(los, scales)),
                        k_rice, scales, ris.reflection, clutter_strength)


def realize_channel(model: ChannelModel,
                    normals: np.ndarray) -> ChannelRealization:
    """Draw H_I, h_T, h_D, then the clutter, from `draw_size` normals per seed.

    The unit-variance nLoS draw of each component is scaled to the RMS
    magnitude of its LoS counterpart so fading perturbs the link without
    erasing its path loss. An (S, draw_size) block gives one realization
    stacked over a leading seed axis, validated once; a (draw_size,) block
    gives a plain one.
    """
    stacked = normals.ndim == 2
    normals = np.atleast_2d(normals)
    m = model.los[2].size
    bounds = np.cumsum([0] + [2 * part.size for part in model.los]).tolist()
    parts = [scale * _rician(model.k_factor, los, _complex_normal(
                 normals[:, lo:hi], los.shape))
             for los, scale, lo, hi
             in zip(model.los, model.scales, bounds, bounds[1:])]
    parts.append(_clutter(model.clutter_strength, normals[:, bounds[-1]:], m))
    if not stacked:
        parts = [part[0] for part in parts]
    return ChannelRealization(*parts, reflection=model.reflection)
