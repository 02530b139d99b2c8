"""Respiration displacement traces and the angle-dependent chest RCS.

Synthetic traces stand in for measured recordings; measured traces can be
ingested from CSV. The chest's complex reflectivity keeps constant
magnitude while respiration modulates its phase; the observation angle
attenuates (and optionally distorts) the displacement seen by a path, so
a side view loses the breathing signal while a frontal view keeps it.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import standard_normals

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
class DisplacementTrace:
    """Chest displacement samples [m] at a fixed slow-time rate.

    Time runs along the last axis; a leading axis, if any, stacks the
    traces of several seeds.
    """

    samples: np.ndarray
    slow_rate: float

    def __post_init__(self):
        object.__setattr__(self, "samples",
                           np.asarray(self.samples, dtype=float))
        if self.samples.ndim not in (1, 2) or self.samples.shape[-1] < 2:
            raise TraceError("trace needs at least 2 samples")
        if not np.all(np.isfinite(self.samples)):
            raise TraceError("trace samples must be finite")
        if self.slow_rate <= 0:
            raise TraceError("slow_rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[-1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self)) / self.slow_rate


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
        elif self.exponent <= 0:
            raise ValueError("exponent must be positive")


def check_breath_rate(breath_rate: float, slow_rate: float) -> None:
    """Reject a breathing rate outside (0, slow_rate / 2)."""
    if not 0 < breath_rate < slow_rate / 2.0:
        raise TraceError(
            f"breathing rate {breath_rate} Hz violates Nyquist at {slow_rate} Hz")


def synth_respiration(breath_rate: float, peak_to_peak: float, duration: float,
                      slow_rate: float, harmonics: int = 0, drift: float = 0.0,
                      rng_seed=0) -> DisplacementTrace:
    """Sinusoidal breathing trace with optional small harmonics and drift.

    Harmonic amplitudes and phases are drawn per seed, each at most 10% of
    the fundamental; `drift` is a total linear excursion in metres over the
    full duration.
    """
    check_breath_rate(breath_rate, slow_rate)
    rng = np.random.default_rng(rng_seed)
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
    return DisplacementTrace(samples=d, slow_rate=slow_rate)


def load_trace_csv(path, slow_rate: float = 4.0) -> list[DisplacementTrace]:
    """Load one or two displacement traces [cm on disk -> m] from a CSV file."""
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
        columns = [[] for _ in header[1:]]
        for i, row in enumerate(reader):
            if len(row) != len(header):
                raise TraceError(f"{path}: row {i + 2} has {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError as exc:
                raise TraceError(f"{path}: row {i + 2}: {exc}") from None
            for col, v in zip(columns, values):
                col.append(v)
    if not columns[0]:
        raise TraceError(f"{path}: no samples")
    return [DisplacementTrace(samples=np.asarray(col) / _CM_PER_M,
                              slow_rate=slow_rate) for col in columns]


def write_trace_csv(path, traces) -> None:
    """Write one or two traces [m -> cm on disk] in the ingestion schema."""
    traces = list(traces)
    if not 1 <= len(traces) <= 2:
        raise TraceError("trace CSV holds one or two traces")
    lengths = {len(t) for t in traces}
    if len(lengths) != 1:
        raise TraceError("traces must have equal length")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_HEADER[:1 + len(traces)])
        for i in range(lengths.pop()):
            writer.writerow([i] + [repr(float(t.samples[i] * _CM_PER_M))
                                   for t in traces])


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


def observed_displacement(model: RcsModel, trace: DisplacementTrace,
                          incidence: float, seeds: list) -> DisplacementTrace:
    """Displacement actually seen from an angle: attenuated, optionally distorted.

    The jitter is white noise confined to DISTORTION_BAND, scaled by the
    lost fraction of the angle gain, so a frontal view stays clean. Each
    seed gives one observation on a leading (S, L) axis.
    """
    gain = angle_gain(model, incidence)
    d = np.broadcast_to(gain * trace.samples, (len(seeds), len(trace)))
    if model.distortion_strength > 0.0 and gain < 1.0:
        white = standard_normals(seeds, (len(trace),))
        amp = np.max(np.abs(trace.samples)) if trace.samples.size else 0.0
        level = model.distortion_strength * (1.0 - gain) * amp
        d = d + level * _bandlimited_noise(white, trace.slow_rate)
    return DisplacementTrace(samples=d, slow_rate=trace.slow_rate)


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


def rcs_series(model: RcsModel, trace: DisplacementTrace, incidence: float,
               wavelength: float, seeds: list) -> np.ndarray:
    """Complex reflectivity per slow-time sample, Doppler-phase modulated.

    The displacement enters the phase at 4*pi/lambda: the echo travels the
    chest offset twice, matching the 1/2 that the demodulator applies.
    Each seed gives one row of the (S, L) result.
    """
    observed = observed_displacement(model, trace, incidence, seeds)
    return model.reflectivity * np.exp(
        1j * 4.0 * np.pi * observed.samples / wavelength)
