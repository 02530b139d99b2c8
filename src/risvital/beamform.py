"""Dual-constraint minimum-norm transmit precoding.

Closed-form minimum-power beamformer holding the array response at two
steering directions to prescribed magnitudes, the relative-phase optimum
that makes the cross term real, and the fixed-budget power split that
parameterizes how the total power is shared between the two directions.
The same constructions serve as receive-side separation weights.

Phase gauge: only the relative phase between the two constraints is
determined; the second constraint's phase is fixed to zero.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import SteeringVector

# Above this correlation magnitude the two constraints are treated as
# collinear and the closed form is refused rather than regularized.
COLLINEAR_LIMIT = 1.0 - 1e-9


class IllConditionedConstraints(ValueError):
    """Steering directions too correlated for the dual-constraint form."""


def _entries(a) -> np.ndarray:
    if isinstance(a, SteeringVector):
        return a.entries
    return np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class ConstraintPair:
    """Two unit-norm steering vectors with requested response magnitudes."""

    a1: np.ndarray
    a2: np.ndarray
    gamma1: float
    gamma2: float

    def __post_init__(self):
        object.__setattr__(self, "a1", _entries(self.a1))
        object.__setattr__(self, "a2", _entries(self.a2))
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ValueError("constraint magnitudes must be >= 0")


@dataclass(frozen=True)
class Precoder:
    """Weight vector with its realized power."""

    weights: np.ndarray
    achieved_power: float


def steering_correlation(a1, a2) -> complex:
    """Inner product a1^H a2 of two unit-norm steering vectors."""
    return complex(np.vdot(_entries(a1), _entries(a2)))


def _least_norm(a1: np.ndarray, a2: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Minimum-norm w with A^H w = g for A = [a1, a2] (Gram solve)."""
    a_c = np.vdot(a1, a2)
    denom = 1.0 - abs(a_c) ** 2
    if denom <= 1.0 - COLLINEAR_LIMIT ** 2:
        raise IllConditionedConstraints(
            f"|a_c| = {abs(a_c):.12f} leaves the Gram matrix near singular")
    # (A^H A)^-1 for unit-norm columns, written out.
    lam1 = (g[0] - a_c * g[1]) / denom
    lam2 = (g[1] - np.conj(a_c) * g[0]) / denom
    return lam1 * a1 + lam2 * a2


def _solve(a1, a2, g: np.ndarray) -> Precoder:
    """The least-norm precoder with responses A^H w = g for A = [a1, a2]."""
    a1, a2 = _entries(a1), _entries(a2)
    if max(abs(np.linalg.norm(v) - 1.0) for v in (a1, a2)) > 1e-9:
        raise ValueError("steering vectors must be unit norm")
    w = _least_norm(a1, a2, g)
    return Precoder(weights=w, achieved_power=float(np.real(np.vdot(w, w))))


def min_norm_precoder(pair: ConstraintPair) -> Precoder:
    """Minimum-power precoder meeting |a1^H w| = gamma1 and |a2^H w| = gamma2.

    The relative constraint phase equals the phase of the steering
    correlation, which makes the Gram cross term real and negative and so
    minimizes the transmit power over all phase choices.
    """
    dphi = np.angle(steering_correlation(pair.a1, pair.a2))
    return _solve(pair.a1, pair.a2, np.array(
        [pair.gamma1 * np.exp(1j * dphi), pair.gamma2], dtype=complex))


def min_power_closed_form(gamma1: float, gamma2: float, a_c: complex) -> float:
    """Closed-form minimum power (g1^2 + g2^2 - 2 g1 g2 |a_c|) / (1 - |a_c|^2)."""
    mag = abs(a_c)
    if mag >= 1.0:
        raise IllConditionedConstraints(f"|a_c| = {mag} >= 1")
    return (gamma1 ** 2 + gamma2 ** 2 - 2.0 * gamma1 * gamma2 * mag) / (1.0 - mag ** 2)


def split_scale(total_power: float, gamma: float, a_c: complex) -> float:
    """Scale s making the (s*gamma, s*(1-gamma)) split realize `total_power`."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma = {gamma} outside [0, 1]")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    mag = abs(a_c)
    if mag >= 1.0:
        raise IllConditionedConstraints(f"|a_c| = {mag} >= 1")
    denom = 1.0 - 2.0 * gamma * (1.0 + mag) + 2.0 * gamma ** 2 * (1.0 + mag)
    if denom <= 0.0:
        raise IllConditionedConstraints(
            f"split denominator {denom} <= 0 at gamma = {gamma}, |a_c| = {mag}")
    return float(np.sqrt(total_power * (1.0 - mag ** 2) / denom))


def split_precoder(a1, a2, gamma: float, total_power: float) -> Precoder:
    """Fixed-budget precoder giving direction 1 the share `gamma` of the response.

    w = s * A (A^H A)^-1 [gamma * exp(j*angle(a_c)), 1 - gamma]^T with the
    scale chosen so w^H w = total_power for every gamma in [0, 1]; the phase
    on the first entry is the power-minimizing relative phase.
    """
    a_c = steering_correlation(a1, a2)
    s = split_scale(total_power, gamma, a_c)
    # g is built from gamma, not from the pair's gains: s * gamma * e^{j phi}
    # rounds differently from (s * gamma) * e^{j phi}
    g = s * np.array([gamma * np.exp(1j * np.angle(a_c)), 1.0 - gamma],
                     dtype=complex)
    return _solve(a1, a2, g)


def temporal_weights(l: int, slots_direct, slots_ris, a_direct, a_ris,
                     total_power: float) -> Precoder:
    """Alternating full-power precoder: direction 1 in its slots, else direction 2.

    Each branch nulls the other direction and spends the whole budget.
    `plan_transmissions` builds the two branches once and assigns them by
    slot; this per-pulse form is the reference its tests compare against.
    """
    slots_direct = set(slots_direct)
    slots_ris = set(slots_ris)
    if slots_direct & slots_ris:
        raise ValueError("slot sets must be disjoint")
    if l in slots_direct:
        return split_precoder(a_direct, a_ris, 1.0, total_power)
    if l in slots_ris:
        return split_precoder(a_direct, a_ris, 0.0, total_power)
    raise ValueError(f"slow-time index {l} is in neither slot set")
