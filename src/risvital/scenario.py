"""Scenario assembly: bind geometry, channel, physiology, and waveform
into a simulated slow-time acquisition.

A run draws one block-fading channel realization, modulates the two path
reflectivities with the respiration trace seen from each incidence angle,
transmits the scheduled precoder per pulse, and adds receiver noise to
the matched-filtered antennas x pulses record. White fast-time noise at the
configured floor N0 leaves the matched filter as CN(0, N0/E) for a pulse of
energy E, so that output is drawn directly, independently per antenna and
pulse; the channel and clutter stay fixed for the run.

A run splits into a static scene and per-seed draws. `Scenario.static`
holds everything that does not depend on the seed (look angles, the LoS
channel with the RIS profile, transmit steering, receive weights, the
base trace, the RCS models and the noise scale); it is built on first
use and kept for the scenario's lifetime. The per-seed part draws the
channel, the two RCS jitters and the noise from the seed's own children.
`simulate_acquisition` takes a list of seeds as a leading batch axis and
gives an (S, M, L) record; `extract_vital_signs` grades one record or
such a stack with the same code, one estimate per path with the seed
axis leading. Every seed gets the bits it gets alone. A batch draws its
channel as one stacked realization, builds the record in place from the
two target terms and the clutter, and fills one preallocated noise array
with one generator call per seed.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import sigproc
from .beamform import split_precoder
from .channel import (ChannelModel, RisConfig, build_ris_grid,
                      channel_model, ris_focus_profile, seed_list,
                      standard_normals)
from .geometry import (SPEED_OF_LIGHT, ArrayConfig, PathAngles, Placement,
                       angles_from_placement, ula_steering)
from .physio import DisplacementTrace, RcsModel, angle_gain, load_trace_csv, \
    rcs_series, synth_respiration
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


@dataclass(frozen=True)
class StaticScene:
    """The seed-independent part of a run, built once per scenario."""

    angles: PathAngles
    channel: ChannelModel  # LoS geometry, RIS reflection and clutter level
    tx_steering: tuple   # (direct, RIS) conjugated, see transmit_steering
    rx_weights: tuple    # (direct, RIS) separation weights
    trace: DisplacementTrace
    rcs_ris: RcsModel
    rcs_direct: RcsModel
    noise_sigma: float   # per real component of the matched-filter noise


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

    @property
    def angles(self) -> PathAngles:
        return angles_from_placement(self.placement)

    @property
    def min_branch_slots(self) -> int:
        """Slots a path branch needs before its spectrum means anything:
        one full period of the slowest analysed frequency, and at least 8."""
        return max(8, int(np.ceil(self.radar.slow_rate
                                  / self.processing.band[0])))

    def rcs_model(self, reflectivity: float) -> RcsModel:
        p = self.physio
        kwargs = {} if p.gain_exponent is None \
            else {"exponent": p.gain_exponent}
        return RcsModel(reflectivity, table=p.gain_table,
                        distortion_strength=p.distortion_strength, **kwargs)

    def ris_config(self) -> RisConfig:
        spacing = (self.ris.element_spacing if self.ris.element_spacing
                   is not None else self.radar.wavelength / 2.0)
        panel = build_ris_grid(self.placement.ris_center,
                               self.placement.ris_normal,
                               self.ris.rows, self.ris.cols, spacing)
        phases = ris_focus_profile(self.placement, panel, self.radar.wavelength)
        if self.ris.phase_bits is not None:
            step = 2.0 * np.pi / (2 ** self.ris.phase_bits)
            phases = np.round(phases / step) * step
        return replace(panel, phases=phases)

    def base_trace(self) -> DisplacementTrace:
        p = self.physio
        if p.trace_file is not None:
            return load_trace_csv(p.trace_file, self.radar.slow_rate)[0]
        return synth_respiration(p.breath_rate, p.peak_to_peak, p.duration,
                                 self.radar.slow_rate, harmonics=p.harmonics,
                                 drift=p.drift, rng_seed=0)

    @cached_property
    def static(self) -> StaticScene:
        """The seed-independent part of every run, built on first use.

        Its arrays are read-only: every run of the scenario shares them.
        """
        radar = self.radar
        tx = transmit_steering(self)
        # receive steering a(theta); conjugating twice is exact
        a_direct, a_ris = (np.conj(a) for a in tx)
        energy = np.sum(radar.waveform() ** 2)
        scene = StaticScene(
            angles=self.angles,
            channel=channel_model(self.placement, radar.array_config,
                                  self.ris_config(),
                                  db_to_linear(self.channel.k_rice_db),
                                  self.channel.clutter_strength),
            tx_steering=tx,
            rx_weights=tuple(
                split_precoder(a_direct, a_ris, share,
                               radar.total_power).weights
                for share in (1.0, 0.0)),
            trace=self.base_trace(),
            rcs_ris=self.rcs_model(self.physio.reflectivity_ris),
            rcs_direct=self.rcs_model(self.physio.reflectivity_direct),
            noise_sigma=np.sqrt(radar.noise_power / (2.0 * energy)))
        for array in (scene.channel.reflection,
                      *scene.channel.los,
                      *scene.tx_steering, *scene.rx_weights,
                      scene.trace.samples):
            array.flags.writeable = False
        return scene


@dataclass(frozen=True)
class RunResult:
    """One acquisition with its extraction products."""

    record: np.ndarray       # matched-filtered antennas x pulses
    estimates: dict          # path label -> VitalSignEstimate
    gamma_ris: float | None = None


def transmit_steering(scn: Scenario):
    """Conjugated steering pair used to build transmit precoders.

    With exp(-j*2*pi*d/lambda) propagation the physical field radiated
    toward an angle is a(theta)^T w, so holding |a^H w| on the conjugated
    vectors steers the actual emitted power.
    """
    angles = scn.angles
    cfg = scn.radar.array_config
    return tuple(np.conj(ula_steering(cfg, theta))
                 for theta in (angles.theta_direct, angles.theta_ris))


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
    the seeds, and each seed draws from its own children in the order a
    lone run does.
    """
    schedule = np.asarray(schedule, dtype=complex)
    window = (scn.radar.element_count, scn.slow_time_samples)
    if schedule.shape != window:
        raise ValueError(f"schedule shape {schedule.shape} != {window}")
    return _simulate(scn, schedule, seed)


def _simulate(scn: Scenario, schedule: np.ndarray, seed):
    """`simulate_acquisition` of the window's first n pulses, schedule (M, n)."""
    batch, seeds = seed_list(seed)
    m, length = schedule.shape
    st = scn.static
    trace = replace(st.trace, samples=st.trace.samples[:length])
    # each seed's four children, regrouped as one list per stream
    ch_seeds, ris_seeds, direct_seeds, noise_seeds = (
        list(stream) for stream in zip(*(child_seeds(s, 4) for s in seeds)))
    channel = st.channel.draw(ch_seeds if batch else ch_seeds[0])
    lam = scn.radar.wavelength
    alpha = rcs_series(st.rcs_ris, trace, st.angles.chest_incidence_ris,
                       lam, ris_seeds)
    beta = rcs_series(st.rcs_direct, trace, st.angles.chest_incidence_direct,
                      lam, direct_seeds)
    v_ris, h_d = channel.ris_cascade, channel.h_D
    # (..., 1, M) @ (M, L) keeps each seed's vector product bit-identical
    # to a lone run; an (S, M) @ (M, L) product rounds differently. The sum
    # is built in place in the order ((RIS + direct) + clutter) + noise.
    samples = v_ris[..., :, None] * (alpha[:, None]
                                     * (v_ris[..., None, :] @ schedule))
    samples += h_d[..., :, None] * (beta[:, None]
                                    * (h_d[..., None, :] @ schedule))
    samples += channel.H_C @ schedule

    # real then imaginary parts, one (2, M, L) draw per seed
    noise = standard_normals(noise_seeds, (2, m, length))
    z = noise[:, 1] * 1j
    z += noise[:, 0]
    z *= st.noise_sigma
    samples += z
    if not np.all(np.isfinite(samples)):
        raise SignalError("slow-time record contains non-finite entries")
    return (samples if batch else samples[0]), channel


def extract_vital_signs(scn: Scenario, record: np.ndarray,
                        w_direct: np.ndarray, w_ris: np.ndarray,
                        slots_direct=None, slots_ris=None):
    """Clutter-filter, separate, demodulate, and grade both path branches.

    With temporal slot sets, each branch is demodulated over its own slots
    only; otherwise over the full record. Returns a dict of path label to
    estimate (None for a branch too short to grade, or for a path with an
    angle gain of 0, which cannot see the chest). An (S, M, L) record
    gives one estimate per path whose traces, spectra, peaks and
    prominences carry the leading seed axis.
    """
    proc = scn.processing
    samples = np.asarray(record, dtype=complex)
    if proc.clutter_window is not None:
        samples = clutter_filter(samples, proc.clutter_window)
    st = scn.static
    gains = (angle_gain(st.rcs_direct, st.angles.chest_incidence_direct),
             angle_gain(st.rcs_ris, st.angles.chest_incidence_ris))
    estimates = {}
    for label, series, slots, gain in zip(
            ("direct", "ris"), separate_paths(samples, w_direct, w_ris),
            (slots_direct, slots_ris), gains):
        if slots is not None:
            series = np.take(series, sorted(slots), axis=-1)
        if gain == 0.0 or series.shape[-1] < scn.min_branch_slots:
            estimates[label] = None
            continue
        displacement = phase_demodulate(series, scn.radar.wavelength,
                                        scn.radar.slow_rate,
                                        detrend=proc.detrend)
        # common frequency grid across branches: slot subsets are padded to
        # the full acquisition length so peak locations stay comparable
        spectrum = power_spectrum(displacement, proc.zero_pad_factor,
                                  n_fft=proc.zero_pad_factor * samples.shape[-1])
        estimates[label] = VitalSignEstimate(
            displacement, spectrum, *peak_quality(spectrum, proc.band))
    return estimates


def noiseless(scn: Scenario) -> Scenario:
    """Copy of the scenario with zero noise, clutter, and fading removed."""
    quiet_radar = replace(scn.radar, noise_figure_db=-np.inf)
    quiet_channel = replace(scn.channel, k_rice_db=np.inf, clutter_strength=0.0)
    return replace(scn, radar=quiet_radar, channel=quiet_channel)
