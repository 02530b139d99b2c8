"""Dual-constraint minimum-norm transmit precoding.

Closed-form minimum-power beamformer holding the array response at two
steering directions to prescribed magnitudes, with the relative-phase
optimum that makes the cross term real. A fixed-budget split that shares
the total power between the two directions is that same precoder at
gains (s * gamma, s * (1 - gamma)), scaled by its closed-form power. The
same constructions serve as receive-side separation weights.

Phase gauge: only the relative phase between the two constraints is
determined; the second constraint's phase is fixed to zero.
"""

from dataclasses import dataclass

import numpy as np

# Above this correlation magnitude the two constraints are treated as
# collinear and the closed form is refused rather than regularized.
COLLINEAR_LIMIT = 1.0 - 1e-9


class IllConditionedConstraints(ValueError):
    """Steering directions too correlated for the dual-constraint form."""


@dataclass(frozen=True)
class Precoder:
    """Weight vector with its realized power."""

    weights: np.ndarray
    achieved_power: float


def steering_correlation(a1, a2) -> complex:
    """Inner product a1^H a2 of two unit-norm steering vectors."""
    if max(abs(np.linalg.norm(v) - 1.0) for v in (a1, a2)) > 1e-9:
        raise ValueError("steering vectors must be unit norm")
    return complex(np.vdot(a1, a2))


def _gram_denominator(a_c: complex) -> float:
    """1 - |a_c|^2, refused before any division when the pair is collinear."""
    denom = 1.0 - abs(a_c) ** 2
    if denom <= 1.0 - COLLINEAR_LIMIT ** 2:
        raise IllConditionedConstraints(
            f"|a_c| = {abs(a_c):.12f} leaves the Gram matrix near singular")
    return denom


def min_norm_precoder(a1, a2, gamma1: float, gamma2: float) -> Precoder:
    """Minimum-power precoder meeting |a1^H w| = gamma1 and |a2^H w| = gamma2.

    w = A (A^H A)^-1 g for A = [a1, a2] and g = [gamma1 e^{j phi}, gamma2].
    The relative phase phi equals the phase of the steering correlation,
    which makes the Gram cross term real and negative and so minimizes the
    transmit power over all phase choices.
    """
    if gamma1 < 0 or gamma2 < 0:
        raise ValueError("constraint magnitudes must be >= 0")
    a_c = steering_correlation(a1, a2)
    denom = _gram_denominator(a_c)
    g1, g2 = gamma1 * np.exp(1j * np.angle(a_c)), complex(gamma2)
    # (A^H A)^-1 for unit-norm columns, written out.
    w = (g1 - a_c * g2) / denom * a1 + (g2 - np.conj(a_c) * g1) / denom * a2
    return Precoder(weights=w, achieved_power=float(np.real(np.vdot(w, w))))


def min_power_closed_form(gamma1: float, gamma2: float, a_c: complex) -> float:
    """Closed-form minimum power (g1^2 + g2^2 - 2 g1 g2 |a_c|) / (1 - |a_c|^2)."""
    denom = _gram_denominator(a_c)
    return (gamma1 ** 2 + gamma2 ** 2 - 2.0 * gamma1 * gamma2 * abs(a_c)) / denom


def split_precoder(a1, a2, gamma: float, total_power: float) -> Precoder:
    """Fixed-budget precoder giving direction 1 the share `gamma` of the response.

    The min-norm precoder at gains (s * gamma, s * (1 - gamma)), with the
    scale s that makes its closed-form power equal `total_power`.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma = {gamma} outside [0, 1]")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    s = np.sqrt(total_power / min_power_closed_form(
        gamma, 1.0 - gamma, steering_correlation(a1, a2)))
    return min_norm_precoder(a1, a2, s * gamma, s * (1.0 - gamma))


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
