"""Test-side references and fixture writers that the package never calls."""

import csv
from pathlib import Path

import numpy as np

from risvital.physio import _CM_PER_M, TRACE_HEADER, TraceError
from risvital.sigproc import SignalError


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


def write_csv(path, header, rows) -> None:
    """The CLI's CSV writer as it stood on `csv.writer`: floats as their
    shortest round-trip `repr`, every other field as `csv.writer` renders
    it, `\\n` line ends."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


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
            writer.writerow([i] + [repr(float(t[i] * _CM_PER_M))
                                   for t in traces])
