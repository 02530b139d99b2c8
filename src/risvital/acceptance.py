"""Acceptance suite: quantitative exit criteria for the whole artifact.

Each criterion is a standalone callable returning a CriterionResult with
the measured values and its runtime, so the CLI selftest and the test
suite share one implementation; `_criterion` times each body and applies
its time bound. Criteria cover the beamformer closed forms against
independent oracles, the demodulation chain, the clutter filter, the
end-to-end dual-path behaviour, sweep trends, root-MUSIC accuracy, and
byte-level determinism of the command-line outputs.
"""

import filecmp
import math
import time
from dataclasses import dataclass, replace
from functools import wraps

import numpy as np

from . import cli
from .beamform import (min_norm_precoder, min_power_closed_form,
                       split_precoder, steering_correlation)
from .geometry import ArrayConfig, ula_steering
from .scenario import ProcessingConfig, Scenario, noiseless
from .sigproc import (Spectrum, clutter_filter, moving_average_response,
                      root_music_doa)
from .strategy import StrategyConfig, gamma_sweep, run_once


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    runtime_s: float


def _criterion(number: int, name: str, limit_s: float = math.inf):
    """Make a criterion of a body that returns (passed, detail): the body
    is timed, fails at `limit_s` or longer, and its detail gains the
    runtime."""
    def make(body):
        @wraps(body)
        def criterion(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            passed, detail = body(*args, **kwargs)
            dt = time.perf_counter() - t0
            return CriterionResult(number, name, passed and dt < limit_s,
                                   f"{detail}, {dt:.2f} s", dt)
        return criterion
    return make


def _steering(m: int, theta: float) -> np.ndarray:
    return ula_steering(ArrayConfig.half_wavelength(m, 1.0), theta)


def _random_pair(rng: np.random.Generator, m: int = 5, max_corr: float = 0.99):
    """Random steering pair with |a_c| below the requested ceiling."""
    while True:
        t1, t2 = rng.uniform(-np.pi / 2, np.pi / 2, size=2)
        a1, a2 = _steering(m, t1), _steering(m, t2)
        if abs(steering_correlation(a1, a2)) <= max_corr:
            return a1, a2


@_criterion(1, "beamformer constraint satisfaction", limit_s=5.0)
def criterion_1_beamformer_constraints():
    """1000 random constraint pairs satisfied to 1e-9 relative."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        a1, a2 = _random_pair(rng)
        g1, g2 = rng.uniform(0.05, 2.0, size=2)
        w = min_norm_precoder(a1, a2, g1, g2).weights
        worst = max(worst,
                    abs(abs(np.vdot(a1, w)) - g1) / g1,
                    abs(abs(np.vdot(a2, w)) - g2) / g2)
    return worst < 1e-9, f"worst relative error {worst:.3e}"


def _grid_oracle_power(a1, a2, g1, g2, n_grid: int = 4096) -> float:
    """Brute-force minimum power: dense relative-phase grid, least-norm solve,
    parabolic refinement of the best grid point."""
    a_mat = np.stack([a1, a2], axis=1)
    gram_inv = np.linalg.inv(a_mat.conj().T @ a_mat)

    def power_at(dphi: np.ndarray) -> np.ndarray:
        g = np.stack([g1 * np.exp(1j * dphi),
                      np.full_like(dphi, g2, dtype=complex)])
        w = a_mat @ (gram_inv @ g)
        return np.sum(np.abs(w) ** 2, axis=0).real

    grid = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    powers = power_at(grid)
    best = int(np.argmin(powers))
    step = grid[1] - grid[0]
    p_left, p_mid, p_right = powers[best - 1], powers[best], \
        powers[(best + 1) % n_grid]
    denom = p_left - 2.0 * p_mid + p_right
    vertex = grid[best]
    if denom > 0:
        vertex += 0.5 * step * (p_left - p_right) / denom
    refined = power_at(np.array([vertex]))[0]
    return float(min(p_mid, refined))


@_criterion(2, "minimum-norm optimality", limit_s=30.0)
def criterion_2_minimum_norm_optimality():
    """Closed-form power equals Eq.-style formula (1e-9) and grid oracle (1e-6)."""
    rng = np.random.default_rng(202)
    worst_closed, worst_oracle = 0.0, 0.0
    for _ in range(100):
        a1, a2 = _random_pair(rng)
        g1, g2 = rng.uniform(0.05, 2.0, size=2)
        power = min_norm_precoder(a1, a2, g1, g2).achieved_power
        closed = min_power_closed_form(g1, g2, steering_correlation(a1, a2))
        oracle = _grid_oracle_power(a1, a2, g1, g2)
        worst_closed = max(worst_closed, abs(power - closed) / closed)
        worst_oracle = max(worst_oracle, abs(power - oracle) / oracle)
    return (worst_closed < 1e-9 and worst_oracle < 1e-6,
            f"closed-form err {worst_closed:.3e}, "
            f"oracle err {worst_oracle:.3e}")


@_criterion(3, "fixed-budget split power")
def criterion_3_fixed_budget_split():
    """Split precoder realizes the exact budget for every share value."""
    rng = np.random.default_rng(303)
    total_power = 0.01
    worst = 0.0
    for _ in range(100):
        a1, a2 = _random_pair(rng)
        for gamma in np.linspace(0.0, 1.0, 11):
            p = split_precoder(a1, a2, float(gamma), total_power)
            worst = max(worst, abs(p.achieved_power - total_power) / total_power)
    return worst < 1e-9, f"worst relative power error {worst:.3e}"


@_criterion(4, "noise-floor arithmetic")
def criterion_4_noise_floor_arithmetic():
    """Default config reproduces the quoted thermal noise floor."""
    radar = Scenario().radar
    expected = -174.0 + 10.0 * np.log10(0.5e6) + 10.0
    exact = abs(radar.noise_floor_dbm - expected) < 1e-12
    rounded = round(radar.noise_floor_dbm, 1) == -107.0
    return exact and rounded, f"sigma_n^2 = {radar.noise_floor_dbm:.4f} dBm"


@_criterion(5, "demodulation fidelity", limit_s=5.0)
def criterion_5_demodulation_fidelity():
    """Noiseless single-path loop recovers the displacement trace."""
    scn = noiseless(Scenario())
    # single path, no clutter to remove, no unwrap trends to detrend; the
    # constant phase gauge of the channel is removed before comparison
    scn = replace(scn,
                  physio=replace(scn.physio, reflectivity_direct=0.0,
                                 distortion_strength=0.0),
                  processing=ProcessingConfig(clutter_window=None,
                                              detrend=False))
    est = run_once(scn, StrategyConfig(kind="opportunistic",
                                       initial_path="ris"), seed=5)[1]["ris"]
    truth = scn.trace
    recovered = est.displacement
    recovered = recovered - np.mean(recovered - truth)
    rmse = float(np.sqrt(np.mean((recovered - truth) ** 2)))
    amplitude = scn.physio.peak_to_peak / 2.0
    bin_width = est.spectrum.bin_width
    peak_err = abs(est.peak_freq - scn.physio.breath_rate)
    return (rmse < 0.01 * amplitude and peak_err <= bin_width,
            f"RMSE {rmse:.3e} m ({100 * rmse / amplitude:.3e}% of amplitude), "
            f"peak offset {peak_err * 1e3:.2f} mHz vs bin "
            f"{bin_width * 1e3:.2f} mHz")


@_criterion(6, "clutter filter response")
def criterion_6_clutter_filter():
    """DC rejection for every odd window; measured tone attenuation matches
    the closed-form moving-average response."""
    length = 240
    rng = np.random.default_rng(606)
    const = (rng.standard_normal(3) + 1j * rng.standard_normal(3))[:, None] \
        * np.ones((1, length))
    worst_dc = 0.0
    for window in range(3, length + 1, 2):
        worst_dc = max(worst_dc,
                       float(np.max(np.abs(clutter_filter(const, window)))))
    freq, rate, window = 0.133, 4.0, 21
    tone = np.exp(2j * np.pi * freq * np.arange(length) / rate)
    filtered = clutter_filter(tone[None, :], window)[0]
    half = window // 2
    interior = slice(half, length - half)
    measured = np.abs(filtered[interior] / tone[interior])
    expected = abs(1.0 - moving_average_response(window, freq, rate))
    att_err = float(np.max(np.abs(measured - expected)))
    return (worst_dc < 1e-12 and att_err < 1e-6,
            f"max DC residual {worst_dc:.2e}, attenuation error "
            f"{att_err:.2e} (expected |1-D| = {expected:.6f})")


@_criterion(7, "dual-path prominence ordering", limit_s=120.0)
def criterion_7_dual_path_shape():
    """Spatial equal split: RIS branch dominates the direct branch."""
    scn = Scenario()
    strategy = StrategyConfig(kind="spatial", ris_share=0.5)
    ris_wins = 0
    ris_prom = []
    for seed in range(20):
        _, est = run_once(scn, strategy, seed)
        ris_wins += (est["ris"].peak_prominence_db
                     > est["direct"].peak_prominence_db)
        ris_prom.append(est["ris"].peak_prominence_db)
    win_frac = ris_wins / 20.0
    median_prom = float(np.median(ris_prom))
    return (win_frac >= 0.9 and median_prom >= 10.0,
            f"RIS>direct in {win_frac:.0%} of seeds, median RIS prominence "
            f"{median_prom:.1f} dB")


def _lock_fractions(scn: Scenario, kind: str, grid, seeds) -> list[float]:
    rows = gamma_sweep(scn, kind, grid, seeds)
    f_true = scn.physio.breath_rate
    tol = scn.radar.slow_rate / (scn.processing.zero_pad_factor
                                 * scn.slow_time_samples)
    fractions = []
    for gamma in grid:
        sub = [r for r in rows if r["path"] == "ris" and r["gamma"] == gamma]
        locks = [(not np.isnan(r["peak_freq_Hz"]))
                 and abs(r["peak_freq_Hz"] - f_true) <= tol for r in sub]
        fractions.append(float(np.mean(locks)))
    return fractions


def _threshold_share(grid, fractions, level: float = 0.9):
    for gamma, frac in zip(grid, fractions):
        if frac >= level:
            return gamma
    return None


@_criterion(8, "gamma-sweep lock trend", limit_s=600.0)
def criterion_8_gamma_sweep_trend():
    """Lock fraction grows with the RIS share; temporal needs a larger share."""
    scn = Scenario()
    grid = [round(0.1 * i, 1) for i in range(11)]
    seeds = range(40)
    spatial = _lock_fractions(scn, "spatial", grid, seeds)
    temporal = _lock_fractions(scn, "temporal", grid, seeds)
    mono = all(b >= a - 1e-12 for a, b in zip(spatial, spatial[1:])) and \
        all(b >= a - 1e-12 for a, b in zip(temporal, temporal[1:]))
    at_half = spatial[grid.index(0.5)] >= 0.9
    th_spatial = _threshold_share(grid, spatial)
    th_temporal = _threshold_share(grid, temporal)
    ordering = (th_spatial is not None and th_temporal is not None
                and th_temporal > th_spatial)
    return (mono and at_half and ordering,
            f"spatial locks {spatial}, temporal locks {temporal}, 90% "
            f"thresholds spatial {th_spatial} vs temporal {th_temporal}")


def _mainlobe_width(spectrum: Spectrum) -> float:
    """-3 dB width of the tallest peak, linearly interpolated."""
    power = spectrum.power
    peak = int(np.argmax(power))
    half = power[peak] / 2.0

    def cross(direction: int) -> float:
        i = peak
        while 0 < i < power.size - 1 and power[i + direction] > half:
            i += direction
        j = i + direction
        if not 0 <= j < power.size:
            return spectrum.freqs[i]
        frac = (power[i] - half) / (power[i] - power[j])
        return spectrum.freqs[i] + frac * (spectrum.freqs[j] - spectrum.freqs[i])

    return float(cross(+1) - cross(-1))


@_criterion(9, "temporal resolution cost")
def criterion_9_temporal_resolution():
    """Halving the observation window doubles the main-lobe width."""
    scn = Scenario()
    ratios = []
    for seed in range(5):
        spatial = run_once(scn, StrategyConfig(kind="spatial", ris_share=0.5),
                           seed)[1]["ris"]
        temporal = run_once(scn, StrategyConfig(kind="temporal", ris_share=0.5),
                            seed)[1]["ris"]
        ratios.append(_mainlobe_width(temporal.spectrum)
                      / _mainlobe_width(spatial.spectrum))
    ratio = float(np.median(ratios))
    return abs(ratio - 2.0) <= 0.2, f"median main-lobe width ratio {ratio:.3f}"


@_criterion(10, "root-MUSIC accuracy")
def criterion_10_root_music():
    """Single source at 20 dB SNR, 200 snapshots: sub-half-degree accuracy."""
    cfg = ArrayConfig.half_wavelength(5, 1.0)
    rng = np.random.default_rng(1010)
    errors = []
    for _ in range(100):
        theta = rng.uniform(np.radians(-60), np.radians(60))
        a = ula_steering(cfg, theta)
        amp = np.sqrt(10.0 ** (20.0 / 10.0))
        sig = amp * (rng.standard_normal(200)
                     + 1j * rng.standard_normal(200)) / np.sqrt(2)
        noise = (rng.standard_normal((5, 200))
                 + 1j * rng.standard_normal((5, 200))) / np.sqrt(2)
        est = root_music_doa(np.outer(a, sig) + noise, 1, cfg)
        errors.append(abs(np.degrees(est[0] - theta)))
    median_err = float(np.median(errors))
    return (median_err < 0.5,
            f"median |error| {median_err:.4f} deg over 100 seeds")


@_criterion(11, "output determinism")
def criterion_11_determinism(tmp_root=None):
    """Repeated commands with the same seed produce byte-identical files."""
    import tempfile
    from pathlib import Path
    with tempfile.TemporaryDirectory(prefix="risvital-selftest-",
                                     dir=tmp_root) as tmp:
        root = Path(tmp)
        identical = True
        details = []
        for command in (["acquire", "--seed", "7"],
                        ["sweep", "--gammas", "0.2,0.8", "--seeds", "2"],
                        ["loop", "--windows", "2", "--seed", "3"]):
            dirs = []
            for attempt in ("a", "b"):
                out = root / f"{command[0]}-{attempt}"
                code = cli.main(command + ["--out", str(out)])
                if code != 0:
                    return False, f"{command[0]} exited with {code}"
                dirs.append(out)
            names = sorted(p.name for p in dirs[0].iterdir())
            match, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                                       shallow=False)
            if mismatch or errors or not names:
                identical = False
            details.append(f"{command[0]}: {len(match)} files identical"
                           + (f", {len(mismatch)} differ" if mismatch else ""))
    return identical, "; ".join(details)


ALL_CRITERIA = (
    criterion_1_beamformer_constraints,
    criterion_2_minimum_norm_optimality,
    criterion_3_fixed_budget_split,
    criterion_4_noise_floor_arithmetic,
    criterion_5_demodulation_fidelity,
    criterion_6_clutter_filter,
    criterion_7_dual_path_shape,
    criterion_8_gamma_sweep_trend,
    criterion_9_temporal_resolution,
    criterion_10_root_music,
    criterion_11_determinism,
)


def run_all(stream=None) -> list[CriterionResult]:
    """Run every criterion, printing one pass/fail line per criterion."""
    results = []
    for criterion in ALL_CRITERIA:
        result = criterion()
        results.append(result)
        if stream is not None:
            status = "PASS" if result.passed else "FAIL"
            stream.write(f"[{status}] {result.number:2d} {result.name}: "
                         f"{result.detail}\n")
            stream.flush()
    return results
