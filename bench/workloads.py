"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next call is sent
only after the previous one returns. A call may complete several
operations (one sweep call runs 20 acquisitions); throughput counts
operations and latency is reported per operation. Calls come in cycles
(one cycle of sweep covers the whole share grid for both strategies),
and a run always ends on a whole cycle.

Inputs are made from the workload seed only: per-call integer seeds, the
11-point share grid, and a copy of the example scenario file. The checks
come from the acceptance suite's own definitions; a failed check marks
the operations it covers as failed.
"""

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from risvital import cli, strategy
from risvital.config import load_config
from risvital.scenario import Scenario
from risvital.strategy import StrategyConfig

BENCH_DIR = Path(__file__).resolve().parent
SHARE_GRID = [round(0.1 * i, 1) for i in range(11)]
CALL_STREAM, WARMUP_STREAM = 0, 1


def op_seed(workload_seed: int, stream: int, index: int) -> int:
    """Integer seed of one call, derived from the workload seed only."""
    return int(np.random.SeedSequence([workload_seed, stream, index])
               .generate_state(1)[0])


def lock_tolerance(scn: Scenario) -> float:
    """Criterion 8's lock tolerance: one zero-padded periodogram bin."""
    return scn.radar.slow_rate / (scn.processing.zero_pad_factor
                                  * scn.slow_time_samples)


def is_locked(peak_freq: float, scn: Scenario) -> bool:
    return (math.isfinite(peak_freq)
            and abs(peak_freq - scn.physio.breath_rate) <= lock_tolerance(scn))


class Workload:
    """One closed-loop client; subclasses define the call and its checks."""

    name = ""
    ops_per_call = 1
    calls_per_cycle = 1
    min_calls = 100          # keeps >= 10 latency samples beyond p90
    trace_calls_per_s = 1.0  # fixed traced size, so span counts repeat

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ris_rows = 0
        self.ris_locked = 0
        self.windows_logged = 0   # closed-loop windows checked
        self.pos_errors_deg = []  # |azimuth estimate - truth| per window
        self._digest = hashlib.sha256()
        self._digested = 0

    def setup(self) -> None:
        """Build the inputs (scenario, strategies, config file)."""

    def warmup(self, repeat: int) -> None:
        raise NotImplementedError

    def call(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> int:
        """Number of the call's operations that failed a check."""
        raise NotImplementedError

    def finish(self) -> int:
        """Run-level checks; number of operations they mark as failed."""
        return 0

    def trace_calls(self, seconds: float) -> int:
        cycles = round(seconds * self.trace_calls_per_s / self.calls_per_cycle)
        return max(1, cycles) * self.calls_per_cycle

    def lock_frac(self) -> float:
        return self.ris_locked / self.ris_rows if self.ris_rows else 0.0

    def pos_err_deg_p50(self) -> float:
        return float(np.median(self.pos_errors_deg)) if self.pos_errors_deg \
            else 0.0

    def _record(self, index: int, blob: bytes) -> None:
        """Feed the first `min_calls` calls' outputs, once each, to the digest."""
        if index == self._digested and index < self.min_calls:
            self._digest.update(blob)
            self._digested += 1

    def digest(self) -> dict:
        return {"calls": self._digested, "sha256": self._digest.hexdigest()}


class Sweep(Workload):
    """Back-to-back share sweeps for both slot-sharing strategies.

    One call is `gamma_sweep` at one share of the grid over 20 seeds, the
    seed count of the example config's `sweep.seeds` that `risvital
    sweep` uses. A cycle runs the grid for `spatial` and then `temporal`
    on the same seeds, so its rows are those of two `risvital sweep`
    commands; `gamma_sweep` loops over shares outside seeds, so splitting
    the grid into calls leaves the runs and their order unchanged. Timing
    each (kind, share) call gives one latency sample per 20 runs.
    """

    name = "sweep"
    kinds = ("spatial", "temporal")
    seeds_per_call = 20
    ops_per_call = seeds_per_call
    calls_per_cycle = len(kinds) * len(SHARE_GRID)
    min_calls = 5 * calls_per_cycle
    trace_calls_per_s = 2.2

    def setup(self):
        self.scn = Scenario()
        self.length = self.scn.slow_time_samples
        # extract_vital_signs skips a branch shorter than one period of
        # the band's lowest frequency
        self.min_len = max(8, math.ceil(self.scn.radar.slow_rate
                                        / self.scn.processing.band[0]))
        self.half_rows = 0
        self.half_locked = 0

    def warmup(self, repeat):
        seed = op_seed(self.seed, WARMUP_STREAM, repeat)
        for kind in self.kinds:
            strategy.gamma_sweep(self.scn, kind, [0.5], [seed])

    def group(self, index):
        """(kind, share, seeds) of one call."""
        cycle, slot = divmod(index, self.calls_per_cycle)
        kind_index, share_index = divmod(slot, len(SHARE_GRID))
        seeds = [op_seed(self.seed, CALL_STREAM, self.seeds_per_call * cycle + j)
                 for j in range(self.seeds_per_call)]
        return self.kinds[kind_index], SHARE_GRID[share_index], seeds

    def call(self, index):
        kind, share, seeds = self.group(index)
        return strategy.gamma_sweep(self.scn, kind, [share], seeds)

    def _slots(self, kind, gamma, path):
        if kind == "spatial":
            return self.length
        n_ris = int(round(gamma * self.length))
        return n_ris if path == "ris" else self.length - n_ris

    def _row_ok(self, kind, row):
        lo, hi = self.scn.processing.band
        if self._slots(kind, row["gamma"], row["path"]) < self.min_len:
            return math.isnan(row["peak_freq_Hz"]) and row["prominence_db"] == 0.0
        return (lo <= row["peak_freq_Hz"] <= hi
                and math.isfinite(row["prominence_db"]))

    def check(self, index, rows):
        kind, share, seeds = self.group(index)
        if [(r["seed"], r["path"]) for r in rows] != [
                (seed, path) for seed in seeds for path in ("direct", "ris")]:
            return self.ops_per_call
        bad_runs = set()
        for row in rows:
            if row["gamma"] != share or not self._row_ok(kind, row):
                bad_runs.add(row["seed"])
            if row["path"] != "ris":
                continue
            locked = is_locked(row["peak_freq_Hz"], self.scn)
            self.ris_rows += 1
            self.ris_locked += locked
            if kind == "spatial" and share == 0.5:
                self.half_rows += 1
                self.half_locked += locked
        self._record(index, json.dumps(rows, sort_keys=True).encode())
        return len(bad_runs)

    def finish(self):
        # criterion 8: the spatial RIS branch locks in >= 90% of seeds at 0.5
        if self.half_rows and self.half_locked < 0.9 * self.half_rows:
            return self.half_rows
        return 0


class Loop(Workload):
    """Back-to-back 5-window closed loops, alternating two strategies."""

    name = "loop"
    kinds = ("opportunistic", "spatial")
    calls_per_cycle = len(kinds)
    windows = 5
    pos_err_bound_deg = 10.0
    trace_calls_per_s = 8.0

    def setup(self):
        self.scn = Scenario()
        self.strategies = [StrategyConfig(kind=kind) for kind in self.kinds]
        self.theta_true = self.scn.angles.theta_direct

    def warmup(self, repeat):
        strategy.run_closed_loop(self.scn, self.strategies[repeat % 2],
                                 self.windows,
                                 seed=op_seed(self.seed, WARMUP_STREAM, repeat))

    def call(self, index):
        return strategy.run_closed_loop(
            self.scn, self.strategies[index % 2], self.windows,
            seed=op_seed(self.seed, CALL_STREAM, index))

    def check(self, index, logs):
        ok = len(logs) == self.windows
        entries = []
        for log in logs:
            entry = log.to_json_dict()
            entries.append(entry)
            est = log.estimates
            ok &= (est.get("direct") is not None and est.get("ris") is not None
                   and "direct_peak_freq_Hz" in entry
                   and "ris_peak_freq_Hz" in entry)
            if est.get("ris") is not None:
                self.ris_rows += 1
                self.ris_locked += is_locked(est["ris"].peak_freq, self.scn)
            theta = log.state.theta_direct_estimate
            err = (abs(math.degrees(theta - self.theta_true))
                   if theta is not None else math.inf)
            self.pos_errors_deg.append(err)
            ok &= err < self.pos_err_bound_deg
        self.windows_logged += len(logs)
        self._record(index, "".join(json.dumps(e, sort_keys=True) + "\n"
                                    for e in entries).encode())
        return 0 if ok else 1


ACQUIRE_FILES = {
    "direct_displacement.csv": ["time_s", "displacement_m"],
    "direct_spectrum.csv": ["freq_Hz", "power"],
    "ris_displacement.csv": ["time_s", "displacement_m"],
    "ris_spectrum.csv": ["freq_Hz", "power"],
}
SIDECAR_KEYS = {"artifact_version", "config_hash", "seed", "command", "path"}


class Acquire(Workload):
    """Back-to-back in-process `risvital acquire` commands on a config file."""

    name = "acquire"
    trace_calls_per_s = 14.0

    def setup(self):
        self.config = self.workdir / "scenario.yaml"
        shutil.copyfile(BENCH_DIR / "scenario.yaml", self.config)
        self.scn = load_config(self.config)[0]
        self.first_seed = None

    def _acquire(self, seed: int, out: Path) -> int:
        return cli.main(["acquire", "--config", str(self.config),
                         "--seed", str(seed), "--out", str(out)])

    def warmup(self, repeat):
        self._acquire(op_seed(self.seed, WARMUP_STREAM, repeat),
                      self.workdir / "warmup")

    def call(self, index):
        seed = op_seed(self.seed, CALL_STREAM, index)
        out = self.workdir / ("first" if index == 0 else "acquire")
        if index == 0:
            self.first_seed = seed
        return self._acquire(seed, out), seed, out

    def _files_ok(self, seed: int, out: Path) -> bool:
        for name, header in ACQUIRE_FILES.items():
            with (out / name).open(newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != header or len(rows) < 2:
                return False
            for row in rows[1:]:
                if len(row) != 2 or not all(map(math.isfinite,
                                                map(float, row))):
                    return False
            meta = json.loads((out / (name + ".meta.json")).read_text())
            if not SIDECAR_KEYS <= meta.keys() or meta["seed"] != seed \
                    or meta["command"] != "acquire" \
                    or meta["path"] != name.split("_")[0]:
                return False
        return True

    def check(self, index, output):
        code, seed, out = output
        if code != 0 or not self._files_ok(seed, out):
            return 1
        meta = json.loads((out / "ris_spectrum.csv.meta.json").read_text())
        self.ris_rows += 1
        self.ris_locked += is_locked(meta["peak_freq_Hz"], self.scn)
        self._record(index, b"".join(
            name.encode() + (out / name).read_bytes()
            for name in sorted(p.name for p in out.iterdir())))
        return 0

    def finish(self):
        # criterion 11: the same seed gives byte-identical files
        if self.first_seed is None:
            return 0
        first, again = self.workdir / "first", self.workdir / "again"
        if self._acquire(self.first_seed, again) != 0:
            return 1
        names = sorted(p.name for p in first.iterdir())
        same = names == sorted(p.name for p in again.iterdir()) and all(
            (first / n).read_bytes() == (again / n).read_bytes() for n in names)
        return 0 if same and len(names) == 2 * len(ACQUIRE_FILES) else 1


WORKLOADS = {w.name: w for w in (Sweep, Loop, Acquire)}
