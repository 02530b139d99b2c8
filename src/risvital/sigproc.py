"""Receive-side processing: waveform, matched filter, clutter removal,
path separation, phase demodulation, spectral estimation, and root-MUSIC.

The chain collapses each pulse to one complex sample per antenna, strips
the static environment in slow time, splits the record into the two path
branches, and converts unwrapped phase back to chest displacement. Every
stage from the clutter filter to the peak grading also takes a leading
seed axis, giving each seed the bits it would get alone.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import ArrayConfig
from .physio import DisplacementTrace

RESPIRATION_BAND = (0.05, 0.7)  # Hz


class SignalError(ValueError):
    """Raised for inconsistent signal-processing inputs."""


@dataclass(frozen=True)
class Spectrum:
    """One-sided power spectrum as (frequency [Hz], power) pairs.

    `power` may stack the spectra of several seeds on a leading axis.
    """

    freqs: np.ndarray
    power: np.ndarray

    @property
    def bin_width(self) -> float:
        return float(self.freqs[1] - self.freqs[0])


@dataclass(frozen=True)
class VitalSignEstimate:
    """Per-path extraction product: trace, spectrum, peak, and quality.

    A stacked record gives one estimate per path with a leading seed axis:
    (S, n) displacement samples, (S, F) spectrum power, and (S,) peak and
    prominence arrays where one record gives Python floats.
    """

    displacement: DisplacementTrace
    spectrum: Spectrum
    peak_freq: float | np.ndarray
    peak_prominence_db: float | np.ndarray


def make_waveform(f0: float, fs: float, n_samples: int) -> np.ndarray:
    """Unit-power pulsed sinusoid sqrt(2)*cos(2*pi*f0*k/fs), k = 0..K-1."""
    if not 0 < f0 < fs / 2.0:
        raise SignalError(f"tone frequency {f0} Hz aliases at fs = {fs} Hz")
    k = np.arange(n_samples)
    return np.sqrt(2.0) * np.cos(2.0 * np.pi * f0 * k / fs)


def matched_filter(y_fast: np.ndarray, waveform: np.ndarray) -> complex:
    """Correlate one fast-time row with the waveform, normalized by its energy.

    A channel that returns c * s yields exactly c, so the output scale is
    independent of the pulse length.
    """
    y_fast = np.asarray(y_fast, dtype=complex)
    if y_fast.shape != waveform.shape:
        raise SignalError(
            f"fast-time length {y_fast.shape} != waveform {waveform.shape}")
    return complex(np.vdot(waveform, y_fast) / np.vdot(waveform, waveform))


def clutter_filter(record: np.ndarray, window: int) -> np.ndarray:
    """Remove the centered length-`window` slow-time moving average per antenna.

    Slow time is the last axis. Edge positions use the window truncated to
    the record, so slow-time constant input maps to zero everywhere.
    """
    record = np.asarray(record, dtype=complex)
    length = record.shape[-1]
    if window % 2 == 0 or not 3 <= window <= length:
        raise SignalError(
            f"window must be odd and within [3, {length}], got {window}")
    half = window // 2
    # Running mean with truncated edge windows from the cumulative sum:
    # sample i averages csum[hi] - csum[lo - 1], hi = min(i + half, L - 1)
    # and lo = max(i - half, 0), with nothing to subtract where lo = 0.
    # Slices fill the C-ordered means without gather temporaries.
    csum = np.cumsum(record, axis=-1)
    means = np.empty(record.shape, dtype=complex)
    means[..., :length - half] = csum[..., half:]
    means[..., length - half:] = csum[..., -1:]
    means[..., half + 1:] -= csum[..., :length - half - 1]
    idx = np.arange(length)
    means /= np.minimum(idx + half, length - 1) - np.maximum(idx - half, 0) + 1
    return np.subtract(record, means, out=means)


def moving_average_response(window: int, freq: float, rate: float) -> float:
    """Frequency response of the centered length-`window` moving average."""
    x = np.pi * freq / rate
    if x == 0:
        return 1.0
    return float(np.sin(window * x) / (window * np.sin(x)))


def separate_paths(record: np.ndarray, w_direct: np.ndarray,
                   w_ris: np.ndarray):
    """Project the (..., M, L) record onto the two receive beamformers."""
    record = np.asarray(record, dtype=complex)
    w_direct = np.asarray(w_direct, dtype=complex)
    w_ris = np.asarray(w_ris, dtype=complex)
    m = record.shape[-2]
    if m != w_direct.shape[0] or m != w_ris.shape[0]:
        raise SignalError("beamformer length does not match antenna count")
    return np.conj(w_direct) @ record, np.conj(w_ris) @ record


def phase_demodulate(r: np.ndarray, wavelength: float, slow_rate: float,
                     detrend: bool = True) -> DisplacementTrace:
    """Unwrapped slow-time phase converted to displacement d = (lambda/(4*pi)) * phi.

    The half compensates the round trip. `detrend` removes the least-squares
    line, absorbing unwrap offsets and any constant phase gauge. Slow time
    is the last axis.
    """
    r = np.asarray(r, dtype=complex)
    zero = np.flatnonzero(np.abs(r) == 0.0)
    if zero.size:
        raise SignalError("zero-magnitude sample at slow-time index "
                          f"{zero[0] % r.shape[-1]}")
    phi = np.unwrap(np.angle(r))
    if detrend:
        l_idx = np.arange(phi.shape[-1])
        # one fit per row: a fit of many rows at once rounds differently
        fits = [np.polyval(np.polyfit(l_idx, row, 1), l_idx)
                for row in phi.reshape(-1, l_idx.size)]
        phi = phi - np.reshape(fits, phi.shape)
    return DisplacementTrace(samples=0.5 * wavelength / (2.0 * np.pi) * phi,
                             slow_rate=slow_rate)


def power_spectrum(trace: DisplacementTrace, zero_pad_factor: int = 4,
                   n_fft: int | None = None) -> Spectrum:
    """Mean-removed Hann-windowed periodogram, zero-padded by the given factor.

    Normalized so the bin powers sum to the energy of the windowed signal.
    `n_fft` overrides the transform length, letting short slot records be
    evaluated on the frequency grid of a longer acquisition.
    """
    # a row mean rounds like the 1-D mean only over contiguous rows
    x = np.ascontiguousarray(trace.samples)
    n = x.shape[-1]
    if n < 8:
        raise SignalError("need at least 8 samples for a spectrum")
    if zero_pad_factor < 1:
        raise SignalError("zero_pad_factor must be >= 1")
    windowed = (x - np.mean(x, axis=-1, keepdims=True)) * np.hanning(n)
    if n_fft is None:
        n_fft = n * zero_pad_factor
    elif n_fft < n:
        raise SignalError(f"n_fft = {n_fft} shorter than the record ({n})")
    spec = np.fft.rfft(windowed, n=n_fft)
    power = np.abs(spec) ** 2 / n_fft
    power[..., 1:] *= 2.0
    if n_fft % 2 == 0:
        power[..., -1] /= 2.0
    return Spectrum(freqs=np.fft.rfftfreq(n_fft, d=1.0 / trace.slow_rate),
                    power=power)


def peak_quality(spectrum: Spectrum, band=RESPIRATION_BAND):
    """Strongest in-band bin and its prominence over the in-band median [dB].

    The median excludes two bins either side of the peak so a sharp tone is
    judged against the surrounding floor rather than its own skirt. Stacked
    spectra give one (peak, prominence) array pair over the leading axis.
    """
    f_lo, f_hi = band
    in_band = np.flatnonzero((spectrum.freqs >= f_lo) & (spectrum.freqs <= f_hi))
    if in_band.size == 0:
        raise SignalError(f"band [{f_lo}, {f_hi}] Hz contains no bins")
    band_power = spectrum.power[..., in_band]
    peak_pos = np.argmax(band_power, axis=-1)[..., None]
    peak_power = np.take_along_axis(band_power, peak_pos, -1)[..., 0]
    # Median of the kept bins per row: the excluded ones sort to the top,
    # and the mean of the two middle kept values is what np.median returns.
    keep = np.abs(np.arange(in_band.size) - peak_pos) > 2
    n_keep = keep.sum(axis=-1, keepdims=True)
    ranked = np.sort(np.where(keep, band_power, np.inf), axis=-1)
    middle = (np.take_along_axis(ranked, (n_keep - 1) // 2, -1)
              + np.take_along_axis(ranked, n_keep // 2, -1))[..., 0] / 2.0
    floor = np.where(n_keep[..., 0] > 0, middle, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(floor > 0.0, peak_power / floor,
                         np.where(peak_power > 0, np.inf, 1.0))
    prominence = np.maximum(10.0 * np.log10(ratio), 0.0)
    peak_freq = spectrum.freqs[in_band[peak_pos[..., 0]]]
    if band_power.ndim == 1:
        return float(peak_freq), float(prominence)
    return peak_freq, prominence


def root_music_doa(snapshots: np.ndarray, n_sources: int,
                   cfg: ArrayConfig) -> np.ndarray:
    """Root-MUSIC azimuth estimates from an M x T snapshot matrix.

    Sample covariance -> noise subspace -> unit-circle roots of the
    subspace polynomial -> arcsin of the root phases.
    """
    snapshots = np.asarray(snapshots, dtype=complex)
    m = cfg.element_count
    if snapshots.shape[0] != m:
        raise SignalError("snapshot rows must equal the element count")
    t = snapshots.shape[1]
    if not 1 <= n_sources <= m - 1:
        raise SignalError(f"n_sources must be in [1, {m - 1}], got {n_sources}")
    if t < m:
        raise SignalError(f"need at least {m} snapshots, got {t}")
    cov = snapshots @ snapshots.conj().T / t
    eigvals, eigvecs = np.linalg.eigh(cov)
    noise = eigvecs[:, : m - n_sources]  # eigh sorts ascending
    c = noise @ noise.conj().T
    coeffs = np.array([np.trace(c, offset=k) for k in range(m - 1, -m, -1)])
    roots = np.roots(coeffs)
    inside = roots[np.abs(roots) < 1.0]
    order = np.argsort(np.abs(np.abs(inside) - 1.0))
    scale = cfg.carrier_wavelength / (2.0 * np.pi * cfg.spacing)
    angles = []
    for root in inside[order]:
        sin_theta = np.angle(root) * scale
        if abs(sin_theta) <= 1.0:
            angles.append(float(np.arcsin(sin_theta)))
        if len(angles) == n_sources:
            break
    if len(angles) < n_sources:
        raise SignalError(
            f"only {len(angles)} of {n_sources} roots map to physical angles")
    return np.sort(np.array(angles))
