"""Scenario assembly: bind geometry, channel, physiology, and radar into
a simulated slow-time acquisition.

A run draws one block-fading channel realization, modulates the two path
reflectivities with the respiration trace seen from each incidence angle,
transmits the scheduled precoder per pulse, and adds receiver noise to
the matched-filtered antennas x pulses record. White fast-time noise at the
configured floor N0 leaves the matched filter as CN(0, N0/E) for a pulse of
energy E (`RadarConfig.pulse_energy`), so that output is drawn directly,
independently per antenna and pulse; the channel and clutter stay fixed.

A run splits into a seed-independent part and per-seed draws. Each
seed-independent piece is one cached property of `Scenario`: `angles`,
`channel_model` (the LoS channel with the RIS profile), `tx_steering`,
`receive_weights`, `trace`, `rcs_models` and `noise_sigma`, the pairs
ordered (direct, RIS). Each is built on first use and kept for the
scenario's lifetime, and its arrays are read-only, since every run
shares them. Every displacement is a plain array at the radar's slow
rate. The per-seed part is one stream: one `standard_normals` call on
the seed's first child, laid out as the channel block, the RIS then the
direct RCS jitter (L each, reserved even without distortion), then the
(2, M, L) noise, real parts first. Only `draw_acquisition` knows that
layout; it hands the channel block to `realize_channel`, the one channel
draw. `compose_record` excites a draw, or a range of its seeds, under
a schedule or a stack of one schedule per seed, and only reads it, so
one draw serves every share of a sweep and every window of a loop.
Seeds always come as a list, a leading axis of every draw, record and
estimate; a lone run is the batch of one seed, and every seed gets the
same bits in any batch of fewer than 16384 pulses in all (seeds x
pulses). A larger batch may round apart: numpy then reuses its complex
temporaries in place. Hence sweeps and loops size their passes in pulses.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import sigproc
from .beamform import split_precoder
from .channel import (ChannelModel, build_ris_grid, channel_model,
                      realize_channel, ris_focus_profile)
from .geometry import (SPEED_OF_LIGHT, ArrayConfig, PathAngles, Placement,
                       angles_from_placement, ula_steering)
from .physio import RcsModel, angle_gain, load_trace_csv, rcs_series, \
    synth_respiration
from .sigproc import (SignalError, VitalSignEstimate, clutter_filter,
                      peak_quality, phase_demodulate, power_spectrum,
                      separate_paths)

THERMAL_NOISE_DBM_PER_HZ = -174.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


@dataclass(frozen=True)
class RadarConfig:
    """Radar front-end parameters (SI units)."""

    element_count: int = 5
    carrier_frequency: float = 7.15e9     # Hz
    bandwidth: float = 0.5e6              # Hz
    fast_time_samples: int = 64
    pulse_repetition_interval: float = 0.25   # s
    total_power: float = 10e-3            # W
    noise_figure_db: float = 10.0
    tone_frequency: float | None = None   # None -> fs / 4
    element_spacing: float | None = None  # None -> half wavelength

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def slow_rate(self) -> float:
        return 1.0 / self.pulse_repetition_interval

    @property
    def spacing(self) -> float:
        return (self.element_spacing if self.element_spacing is not None
                else self.wavelength / 2.0)

    @property
    def noise_floor_dbm(self) -> float:
        return (THERMAL_NOISE_DBM_PER_HZ
                + 10.0 * np.log10(self.bandwidth) + self.noise_figure_db)

    @property
    def noise_power(self) -> float:
        """Per-sample complex noise variance [W]."""
        return dbm_to_watts(self.noise_floor_dbm)

    @property
    def array_config(self) -> ArrayConfig:
        return ArrayConfig(self.element_count, self.spacing, self.wavelength)

    @property
    def pulse_energy(self) -> float:
        """Energy of the tone sqrt(2) cos(theta k), k < K, theta = 2 pi f0 / fs
        at fs = K B: K + sin(K theta) cos((K - 1) theta) / sin(theta). Tones
        at f0 and fs / 2 - f0 have one energy, so f0 folds below fs / 4,
        where sin(theta) keeps its relative precision."""
        k = self.fast_time_samples
        fs = k * self.bandwidth
        f0 = self.tone_frequency if self.tone_frequency is not None \
            else fs / 4.0
        if not 0 < f0 < fs / 2.0:
            raise SignalError(f"tone frequency {f0} Hz aliases at fs = {fs} Hz")
        theta = 2.0 * np.pi * min(f0, fs / 2.0 - f0) / fs
        return float(k + np.sin(k * theta) * np.cos((k - 1) * theta)
                     / np.sin(theta))


@dataclass(frozen=True)
class RisPanel:
    rows: int = 10
    cols: int = 10
    element_spacing: float | None = None  # None -> half wavelength
    phase_bits: int | None = None         # None -> continuous phases


@dataclass(frozen=True)
class PhysioConfig:
    """Respiration source and chest reflectivity parameters."""

    breath_rate: float = 0.133        # Hz
    peak_to_peak: float = 0.02        # m
    duration: float = 60.0            # s
    harmonics: int = 0
    drift: float = 0.0                # m over the full duration
    reflectivity_ris: float = 40.0    # dimensionless amplitude RCS, q_alpha
    reflectivity_direct: float = 3.0  # q_beta: near-grazing view returns far less power
    gain_exponent: float | None = None  # None -> pinned cos^p default
    gain_table: tuple = ()            # non-empty -> measured-table mode
    distortion_strength: float = 0.35
    trace_file: str | None = None     # CSV overrides the synthetic source


@dataclass(frozen=True)
class ChannelConfig:
    k_rice_db: float = 10.0
    clutter_strength: float = 1e-10   # per-entry variance of H_C


@dataclass(frozen=True)
class ProcessingConfig:
    clutter_window: int | None = 21   # slow-time samples; None skips the filter
    zero_pad_factor: int = 4
    band: tuple = sigproc.RESPIRATION_BAND
    detrend: bool = True


def default_placement() -> Placement:
    """Radar 3 m from the chest, the chest facing the RIS panel (auto)."""
    return Placement(radar_position=np.array([0.0, 0.0, 1.0]),
                     ris_center=np.array([2.707, 1.4606, 1.0]),
                     ris_normal=np.array([0.0, -1.0, 0.0]),
                     target_position=np.array([3.0, 0.0, 1.0]))


def _read_only(*arrays) -> tuple:
    """Mark arrays that every run of a scenario shares as read-only."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Scenario:
    radar: RadarConfig = field(default_factory=RadarConfig)
    ris: RisPanel = field(default_factory=RisPanel)
    placement: Placement = field(default_factory=default_placement)
    physio: PhysioConfig = field(default_factory=PhysioConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    processing: ProcessingConfig = field(default_factory=ProcessingConfig)

    @property
    def slow_time_samples(self) -> int:
        return int(round(self.physio.duration * self.radar.slow_rate))

    @cached_property
    def angles(self) -> PathAngles:
        return angles_from_placement(self.placement)

    @property
    def min_branch_slots(self) -> int:
        """Slots a path branch needs before its spectrum means anything:
        one full period of the slowest analysed frequency, and at least 8."""
        return max(8, int(np.ceil(self.radar.slow_rate
                                  / self.processing.band[0])))

    def ris_config(self) -> tuple:
        """(N, 3) element positions [m] and focusing phases in [0, 2*pi)."""
        spacing = (self.ris.element_spacing if self.ris.element_spacing
                   is not None else self.radar.wavelength / 2.0)
        grid = build_ris_grid(self.placement.ris_center,
                              self.placement.ris_normal,
                              self.ris.rows, self.ris.cols, spacing)
        phases = ris_focus_profile(self.placement, grid, self.radar.wavelength)
        if self.ris.phase_bits is not None:
            step = 2.0 * np.pi / (2 ** self.ris.phase_bits)
            phases = np.mod(np.round(phases / step) * step, 2.0 * np.pi)
        return grid, phases

    def base_trace(self) -> np.ndarray:
        p = self.physio
        if p.trace_file is not None:
            return load_trace_csv(p.trace_file)
        return synth_respiration(p.breath_rate, p.peak_to_peak, p.duration,
                                 self.radar.slow_rate, harmonics=p.harmonics,
                                 drift=p.drift)

    @cached_property
    def channel_model(self) -> ChannelModel:
        """The LoS channel with the RIS profile."""
        model = channel_model(self.placement, self.radar.array_config,
                              self.ris_config(),
                              db_to_linear(self.channel.k_rice_db),
                              self.channel.clutter_strength)
        _read_only(model.reflection, *model.los)
        return model

    @cached_property
    def tx_steering(self) -> tuple:
        """Conjugated (direct, RIS) steering pair for transmit precoders.

        With exp(-j*2*pi*d/lambda) propagation the physical field radiated
        toward an angle is a(theta)^T w, so holding |a^H w| on the conjugated
        vectors steers the actual emitted power.
        """
        cfg = self.radar.array_config
        return _read_only(*(np.conj(ula_steering(cfg, theta)) for theta in
                            (self.angles.theta_direct, self.angles.theta_ris)))

    @cached_property
    def receive_weights(self) -> tuple:
        """(direct, RIS) separation weights on the receive steering pair."""
        # conjugating the transmit pair twice is exact
        a_direct, a_ris = (np.conj(a) for a in self.tx_steering)
        return _read_only(*(split_precoder(a_direct, a_ris, share,
                                           self.radar.total_power).weights
                            for share in (1.0, 0.0)))

    @cached_property
    def trace(self) -> np.ndarray:
        """Base displacement [m] at the slow rate."""
        return _read_only(self.base_trace())[0]

    @cached_property
    def rcs_models(self) -> tuple:
        """(direct, RIS) chest reflectivity models."""
        p = self.physio
        kwargs = {} if p.gain_exponent is None \
            else {"exponent": p.gain_exponent}
        return tuple(RcsModel(q, table=p.gain_table,
                              distortion_strength=p.distortion_strength,
                              **kwargs)
                     for q in (p.reflectivity_direct, p.reflectivity_ris))

    @cached_property
    def noise_sigma(self) -> float:
        """Per real component of the matched-filter noise."""
        radar = self.radar
        return np.sqrt(radar.noise_power / (2.0 * radar.pulse_energy))


def child_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """The first `n` children of `seed`, derived without mutating it.

    `SeedSequence.spawn` advances the parent, so spawning twice from one
    sequence gives different streams. These children depend only on the
    parent's entropy and spawn key, which makes a run replayable from the
    sequence it was given; for a fresh sequence they equal `spawn(n)`.
    """
    ss = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key + (i,),
                                   pool_size=ss.pool_size)
            for i in range(n)]


def simulate_acquisition(scn: Scenario, schedule: np.ndarray,
                         seeds: list) -> np.ndarray:
    """The (S, M, L) records of the S `seeds` under one precoder schedule.

    `schedule` is (M, L). Per pulse, the end-to-end channel response is
    excited and each antenna row is matched filtered to one complex sample.
    The matched filter conj(s)/E turns white fast-time noise of variance N0
    per sample into CN(0, N0/E) per sample of the record, which is drawn
    directly. No seed is mutated: the same seed replays the same record.
    """
    schedule = np.asarray(schedule, dtype=complex)
    window = (scn.radar.element_count, scn.slow_time_samples)
    if schedule.shape != window:
        raise ValueError(f"schedule shape {schedule.shape} != {window}")
    return compose_record(draw_acquisition(scn, seeds, window[1]), schedule)


def standard_normals(seeds: list, shape: tuple) -> np.ndarray:
    """(S,) + shape standard normals, one generator call per seed.

    Row i holds the first normals of seed i's own stream, exactly as one
    draw of that shape from `default_rng(seed)` gives them.
    """
    out = np.empty((len(seeds),) + shape)
    for row, seed in zip(out, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return out


def draw_acquisition(scn: Scenario, seeds: list, length: int) -> tuple:
    """All the `seeds` fix for the first `length` pulses, whatever the
    schedule: (channel, alpha, beta, noise), each with a leading seed axis;
    the RCS series are (S, L) and the scaled noise (S, M, L)."""
    model, rate = scn.channel_model, scn.radar.slow_rate
    m, trace = scn.radar.element_count, scn.trace[:length]
    # one stream per seed: channel block, 2 x L jitter, (2, M, L) noise
    n_ch = model.draw_size
    normals = standard_normals([child_seeds(s, 1)[0] for s in seeds],
                               (n_ch + 2 * length + 2 * m * length,))
    channel = realize_channel(model, normals[:, :n_ch])
    jitter = normals[:, n_ch:n_ch + 2 * length].reshape(-1, 2, length)
    noise = normals[:, n_ch + 2 * length:].reshape(-1, 2, m, length)
    lam, angles = scn.radar.wavelength, scn.angles
    rcs_direct, rcs_ris = scn.rcs_models
    alpha = rcs_series(rcs_ris, trace, rate, angles.chest_incidence_ris,
                       lam, jitter[:, 0])
    beta = rcs_series(rcs_direct, trace, rate,
                      angles.chest_incidence_direct, lam, jitter[:, 1])
    z = noise[:, 1] * 1j
    z += noise[:, 0]
    z *= scn.noise_sigma
    return channel, alpha, beta, z


def compose_record(draw: tuple, schedule: np.ndarray,
                   rows=slice(None)) -> np.ndarray:
    """The (K, M, L) records of the K seeds `rows` of `draw` picks (all by
    default) under schedule (M, L), or row k under schedule k of a
    (K, M, L) stack. The draw is only read, so one draw serves any number
    of schedules: every share of a sweep, every window of a loop."""
    channel, *series = draw
    v_ris, h_d, h_c, alpha, beta, noise = (
        a[rows] for a in (channel.ris_cascade, channel.h_D, channel.H_C,
                          *series))
    # (K, 1, M) @ (M, L) or @ (K, M, L) gives each seed the bits of a batch
    # of one; a (K, M) @ (M, L) product rounds with the batch size. The sum
    # is built in place in the order ((RIS + direct) + clutter) + noise.
    samples = v_ris[:, :, None] * (alpha[:, None]
                                   * (v_ris[:, None, :] @ schedule))
    samples += h_d[:, :, None] * (beta[:, None]
                                  * (h_d[:, None, :] @ schedule))
    samples += h_c @ schedule
    samples += noise
    if not np.all(np.isfinite(samples)):
        raise SignalError("slow-time record contains non-finite entries")
    return samples


def extract_vital_signs(scn: Scenario, record: np.ndarray,
                        slots_direct=slice(None), slots_ris=slice(None)):
    """Clutter-filter, separate, demodulate, and grade both path branches.

    The branches are separated with the scene's receive weights, and each
    is demodulated over its own slow-time slots, a slice of the record
    (`branch_slots`; every slot by default). Two graded branches over
    the same slots are demodulated and graded as one stack.
    Returns a dict of path label to estimate (None for a branch too short
    to grade, or for a path with an angle gain of 0, which cannot see the
    chest). The (S, M, L) records give one estimate per path whose traces,
    spectra, peaks and prominences carry the leading seed axis.
    """
    proc = scn.processing
    samples = np.asarray(record, dtype=complex)
    if proc.clutter_window is not None:
        samples = clutter_filter(samples, proc.clutter_window)
    angles, radar = scn.angles, scn.radar
    rcs_direct, rcs_ris = scn.rcs_models
    gains = (angle_gain(rcs_direct, angles.chest_incidence_direct),
             angle_gain(rcs_ris, angles.chest_incidence_ris))
    branches = {}
    for label, series, slots, gain in zip(
            ("direct", "ris"), separate_paths(samples, *scn.receive_weights),
            (slots_direct, slots_ris), gains):
        series = series[..., slots]
        if gain != 0.0 and series.shape[-1] >= scn.min_branch_slots:
            branches[label] = series

    def grade(series):
        displacement = phase_demodulate(series, radar.wavelength,
                                        detrend=proc.detrend)
        # common frequency grid across branches: slot subsets are padded to
        # the full acquisition length so peak locations stay comparable
        spectrum = power_spectrum(displacement, radar.slow_rate,
                                  proc.zero_pad_factor * samples.shape[-1])
        return displacement, spectrum, *peak_quality(spectrum, proc.band)

    if len(branches) == 2 and slots_direct == slots_ris:
        # both branches over the same slots: one pass over a (2, S, n) stack
        displacement, spectrum, peak, prominence = grade(
            np.stack(list(branches.values())))
        return {label: VitalSignEstimate(
                    displacement[j], replace(spectrum, power=spectrum.power[j]),
                    peak[j], prominence[j])
                for j, label in enumerate(branches)}
    return {label: VitalSignEstimate(*grade(branches[label]))
            if label in branches else None for label in ("direct", "ris")}


def noiseless(scn: Scenario) -> Scenario:
    """Copy of the scenario with zero noise, clutter, and fading removed."""
    quiet_radar = replace(scn.radar, noise_figure_db=-np.inf)
    quiet_channel = replace(scn.channel, k_rice_db=np.inf, clutter_strength=0.0)
    return replace(scn, radar=quiet_radar, channel=quiet_channel)
