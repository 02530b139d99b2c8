"""Respiration displacement traces and the angle-dependent chest RCS.

Synthetic traces stand in for measured recordings; measured traces can be
ingested from CSV. The chest's complex reflectivity keeps constant
magnitude while respiration modulates its phase; the observation angle
attenuates (and optionally distorts) the displacement seen by a path, so
a side view loses the breathing signal while a frontal view keeps it.
The caller draws the distortion's white noise, one row per seed.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Default attenuation exponent: cos^p law pinned to a gain of 0.1 at the
# default scenario's oblique incidence of 78.75 degrees.
_REFERENCE_ANGLE = np.radians(78.75)
DEFAULT_GAIN_EXPONENT = float(np.log(0.1) / np.log(np.cos(_REFERENCE_ANGLE)))

TRACE_HEADER = ["index", "front_radar_VS", "side_radar_VS"]
_CM_PER_M = 100.0
DISTORTION_BAND = (0.05, 0.7)  # Hz, where the RCS jitter lives


class TraceError(ValueError):
    """Raised for malformed displacement traces or trace files."""


@dataclass(frozen=True)
class RcsModel:
    """Chest reflectivity magnitude plus the incidence-angle response.

    The table picks the law: a non-empty (angle_deg, gain) table is
    interpolated linearly, and without one the gain is cos^exponent. Either
    way a path that views the chest from behind, past pi/2, gets 0. The
    optional distortion adds jitter in DISTORTION_BAND whose level grows
    as the angle gain falls, mimicking the loss of a usable breathing
    waveform at oblique views; it is off unless `distortion_strength` > 0.
    """

    reflectivity: float
    exponent: float = DEFAULT_GAIN_EXPONENT
    table: tuple = ()
    distortion_strength: float = 0.0

    def __post_init__(self):
        if self.reflectivity < 0:
            raise ValueError("reflectivity must be >= 0")
        if self.table:
            table = tuple((float(a), float(g)) for a, g in self.table)
            object.__setattr__(self, "table", table)
            angles = [a for a, _ in table]
            gains = [g for _, g in table]
            if angles != sorted(angles):
                raise ValueError("table angles must be ascending")
            if any(g2 > g1 for g1, g2 in zip(gains, gains[1:])):
                raise ValueError("table gains must be non-increasing")
            if not all(0.0 <= g <= 1.0 for g in gains):
                raise ValueError("table gains must lie in [0, 1]")
        elif self.exponent <= 0:
            raise ValueError("exponent must be positive")
        if self.distortion_strength < 0:
            raise ValueError("distortion_strength must be >= 0")


def check_breath_rate(breath_rate: float, slow_rate: float,
                      harmonics: int) -> None:
    """Reject a breathing rate whose top harmonic, (harmonics + 1) x
    breath_rate (the rate itself without harmonics), is outside
    (0, slow_rate / 2)."""
    top = (harmonics + 1) * breath_rate
    if not 0 < top < slow_rate / 2.0:
        raise TraceError(
            f"breathing rate {breath_rate} Hz violates Nyquist at {slow_rate} "
            f"Hz: harmonic {harmonics + 1} lies at {top} Hz, outside "
            f"(0, {slow_rate / 2.0}) Hz")


def synth_respiration(breath_rate: float, peak_to_peak: float, duration: float,
                      slow_rate: float, harmonics: int = 0,
                      drift: float = 0.0) -> np.ndarray:
    """Sinusoidal breathing trace with optional small harmonics and drift.

    Harmonic amplitudes and phases are drawn from `default_rng(0)`, each
    at most 10% of the fundamental; `drift` is a total linear excursion
    in metres over the full duration. The top harmonic must lie below
    Nyquist (`check_breath_rate`).
    """
    check_breath_rate(breath_rate, slow_rate, harmonics)
    rng = np.random.default_rng(0)
    n = int(round(duration * slow_rate))
    t = np.arange(n) / slow_rate
    amp = peak_to_peak / 2.0
    d = amp * np.sin(2.0 * np.pi * breath_rate * t)
    for k in range(2, harmonics + 2):
        h_amp = amp * 0.1 * rng.uniform(0.3, 1.0)
        h_phase = rng.uniform(0.0, 2.0 * np.pi)
        d += h_amp * np.sin(2.0 * np.pi * k * breath_rate * t + h_phase)
    if drift:
        d += drift * t / duration
    return d


def load_trace_csv(path) -> np.ndarray:
    """The front displacement trace [cm on disk -> m] of a CSV file; a side
    column must hold numbers but is neither kept nor checked further."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header not in (TRACE_HEADER[:2], TRACE_HEADER):
            raise TraceError(
                f"{path}: expected header {','.join(TRACE_HEADER)} "
                f"(last column optional), got {','.join(header)}")
        front = []
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise TraceError(f"{path}: row {i + 2} has {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise TraceError(f"{path}: row {i + 2}: {exc}") from None
            front.append(values[0])
    trace = np.asarray(front) / _CM_PER_M
    if trace.size < 2 or not np.all(np.isfinite(trace)):
        raise TraceError(f"{path}: need 2 or more samples, all finite")
    return trace


def angle_gain(model: RcsModel, incidence: float) -> float:
    """Displacement gain in [0, 1] for an incidence angle >= 0.

    Past pi/2 the path sees the back of the chest, which gives 0.
    """
    if incidence < 0.0:
        raise ValueError(f"incidence angle {incidence} rad is negative")
    if incidence > np.pi / 2.0 + 1e-12:
        return 0.0
    if model.table:
        angles = np.array([a for a, _ in model.table])
        gains = np.array([g for _, g in model.table])
        return float(np.interp(np.degrees(incidence), angles, gains))
    return float(np.cos(min(incidence, np.pi / 2.0)) ** model.exponent)


def observed_displacement(model: RcsModel, trace: np.ndarray, slow_rate: float,
                          incidence: float, white: np.ndarray) -> np.ndarray:
    """Displacement actually seen from an angle: attenuated, optionally distorted.

    The jitter is the (S, L) `white` noise, one row per seed, confined to
    DISTORTION_BAND and scaled by the lost fraction of the angle gain, so
    a frontal view stays clean; the result is (S, L) as well.
    """
    gain = angle_gain(model, incidence)
    d = np.broadcast_to(gain * trace, white.shape)
    if model.distortion_strength > 0.0 and gain < 1.0:
        amp = np.max(np.abs(trace)) if trace.size else 0.0
        level = model.distortion_strength * (1.0 - gain) * amp
        d = d + level * _bandlimited_noise(white, slow_rate)
    return d


def _bandlimited_noise(white: np.ndarray, rate: float) -> np.ndarray:
    """White rows restricted to DISTORTION_BAND and scaled to unit RMS."""
    low, high = DISTORTION_BAND
    n = white.shape[-1]
    spectrum = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, d=1.0 / rate)
    spectrum[..., (freqs < low) | (freqs > high)] = 0.0
    noise = np.fft.irfft(spectrum, n)
    rms = np.sqrt(np.mean(noise ** 2, axis=-1, keepdims=True))
    return noise / np.where(rms > 0, rms, 1.0)


def rcs_series(model: RcsModel, trace: np.ndarray, slow_rate: float,
               incidence: float, wavelength: float,
               white: np.ndarray) -> np.ndarray:
    """Complex reflectivity per slow-time sample, Doppler-phase modulated.

    The displacement enters the phase at 4*pi/lambda: the echo travels the
    chest offset twice, matching the 1/2 that the demodulator applies.
    Each row of the (S, L) `white` noise gives one row of the result.
    """
    d = observed_displacement(model, trace, slow_rate, incidence, white)
    return model.reflectivity * np.exp(1j * 4.0 * np.pi * d / wavelength)
