"""Scenario assembly: bind geometry, channel, physiology, and waveform
into a simulated slow-time acquisition.

A run draws one block-fading channel realization, modulates the two path
reflectivities with the respiration trace seen from each incidence angle,
transmits the scheduled precoder per pulse, and adds receiver noise to
the matched-filtered antennas x pulses record. White fast-time noise at the
configured floor N0 leaves the matched filter as CN(0, N0/E) for a pulse of
energy E, so that output is drawn directly, independently per antenna and
pulse; the channel and clutter stay fixed for the run.

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
draw. `compose_record` excites a draw under a schedule and only reads
it, so one draw serves every share of a sweep. A list of seeds is a
leading batch axis that `extract_vital_signs` grades with the same code,
one estimate per path. Every seed gets the bits it gets alone.
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
                      make_waveform, peak_quality, phase_demodulate,
                      power_spectrum, separate_paths)

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
    def fast_rate(self) -> float:
        """Fast-time sample rate: K samples across the 1/B pulse."""
        return self.fast_time_samples * self.bandwidth

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

    def waveform(self) -> np.ndarray:
        f0 = self.tone_frequency if self.tone_frequency is not None \
            else self.fast_rate / 4.0
        return make_waveform(f0, self.fast_rate, self.fast_time_samples)


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
    """Radar 3 m from the chest, RIS panel facing the chest from the front."""
    target = np.array([3.0, 0.0, 1.0])
    ris = np.array([2.707, 1.4606, 1.0])
    chest_normal = ris - target
    chest_normal /= np.linalg.norm(chest_normal)
    return Placement(radar_position=np.array([0.0, 0.0, 1.0]),
                     ris_center=ris,
                     ris_normal=np.array([0.0, -1.0, 0.0]),
                     target_position=target,
                     chest_normal=chest_normal)


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
                                 drift=p.drift, rng_seed=0)

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
        energy = np.sum(self.radar.waveform() ** 2)
        return np.sqrt(self.radar.noise_power / (2.0 * energy))


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


def simulate_acquisition(scn: Scenario, schedule: np.ndarray, seed):
    """Run one acquisition of L pulses under a per-pulse precoder schedule.

    `schedule` is (M, L). Per pulse, the end-to-end channel response is
    excited and each antenna row is matched filtered to one complex sample.
    The matched filter conj(s)/E turns white fast-time noise of variance N0
    per sample into CN(0, N0/E) per sample of the record, which is drawn
    directly. `seed` is not mutated: the same seed replays the same record.

    Returns (record, channel). A list of seeds runs them as one batch: the
    record is then (S, M, L), the channel is one realization stacked over
    the seeds, and each seed draws the stream a lone run draws.
    """
    schedule = np.asarray(schedule, dtype=complex)
    window = (scn.radar.element_count, scn.slow_time_samples)
    if schedule.shape != window:
        raise ValueError(f"schedule shape {schedule.shape} != {window}")
    draw = draw_acquisition(scn, seed, window[1])
    return compose_record(draw, schedule), draw[0]


def standard_normals(seeds: list, shape: tuple) -> np.ndarray:
    """(S,) + shape standard normals, one generator call per seed.

    Row i holds the first normals of seed i's own stream, exactly as one
    draw of that shape from `default_rng(seed)` gives them.
    """
    out = np.empty((len(seeds),) + shape)
    for row, seed in zip(out, seeds):
        np.random.default_rng(seed).standard_normal(out=row)
    return out


def draw_acquisition(scn: Scenario, seed, length: int) -> tuple:
    """All `seed` fixes for the first `length` pulses, whatever the schedule:
    (channel, alpha, beta, noise). The RCS series (S, L) and scaled noise
    (S, M, L) keep the seed axis; a lone seed's channel is plain."""
    batch = isinstance(seed, list)
    seeds = seed if batch else [seed]
    model, rate = scn.channel_model, scn.radar.slow_rate
    m, trace = scn.radar.element_count, scn.trace[:length]
    # one stream per seed: channel block, 2 x L jitter, (2, M, L) noise
    n_ch = model.draw_size
    normals = standard_normals([child_seeds(s, 1)[0] for s in seeds],
                               (n_ch + 2 * length + 2 * m * length,))
    channel = realize_channel(model,
                              (normals if batch else normals[0])[..., :n_ch])
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


def compose_record(draw: tuple, schedule: np.ndarray) -> np.ndarray:
    """The record of `draw` under schedule (M, L), stacked like its channel.
    The draw is only read, so one draw serves any number of schedules."""
    channel, alpha, beta, noise = draw
    v_ris, h_d = channel.ris_cascade, channel.h_D
    # (..., 1, M) @ (M, L) keeps each seed's vector product bit-identical
    # to a lone run; an (S, M) @ (M, L) product rounds differently. The sum
    # is built in place in the order ((RIS + direct) + clutter) + noise.
    samples = v_ris[..., :, None] * (alpha[:, None]
                                     * (v_ris[..., None, :] @ schedule))
    samples += h_d[..., :, None] * (beta[:, None]
                                    * (h_d[..., None, :] @ schedule))
    samples += channel.H_C @ schedule
    samples += noise
    if not np.all(np.isfinite(samples)):
        raise SignalError("slow-time record contains non-finite entries")
    return samples if h_d.ndim > 1 else samples[0]


def extract_vital_signs(scn: Scenario, record: np.ndarray,
                        slots_direct=None, slots_ris=None):
    """Clutter-filter, separate, demodulate, and grade both path branches.

    The branches are separated with the scene's receive weights. With
    temporal slot sets (ascending index arrays), each branch is
    demodulated over its own slots only; otherwise over the full record.
    Returns a dict of path label to estimate (None for a branch too short
    to grade, or for a path with an angle gain of 0, which cannot see the
    chest). An (S, M, L) record gives one estimate per path whose traces,
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
    estimates = {}
    for label, series, slots, gain in zip(
            ("direct", "ris"), separate_paths(samples, *scn.receive_weights),
            (slots_direct, slots_ris), gains):
        if slots is not None:
            series = series[..., slots]
        if gain == 0.0 or series.shape[-1] < scn.min_branch_slots:
            estimates[label] = None
            continue
        displacement = phase_demodulate(series, radar.wavelength,
                                        detrend=proc.detrend)
        # common frequency grid across branches: slot subsets are padded to
        # the full acquisition length so peak locations stay comparable
        spectrum = power_spectrum(displacement, radar.slow_rate,
                                  proc.zero_pad_factor,
                                  n_fft=proc.zero_pad_factor * samples.shape[-1])
        estimates[label] = VitalSignEstimate(
            displacement, spectrum, *peak_quality(spectrum, proc.band))
    return estimates


def noiseless(scn: Scenario) -> Scenario:
    """Copy of the scenario with zero noise, clutter, and fading removed."""
    quiet_radar = replace(scn.radar, noise_figure_db=-np.inf)
    quiet_channel = replace(scn.channel, k_rice_db=np.inf, clutter_strength=0.0)
    return replace(scn, radar=quiet_radar, channel=quiet_channel)
