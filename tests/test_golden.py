"""Golden digests of the simulator's outputs at fixed seeds.

The digests were computed before the seed-independent scene was cached
and sweep seeds were batched, and pin that the batched engine changes no
bit of a sweep row, a closed-loop log or a single-run record. Twenty
sweep seeds run as one pass of `SEED_CHUNK` = 32; chunk boundaries are
covered by `test_batch.py`, which draws up to 2 * SEED_CHUNK + 1 seeds.
The loop log holds no position estimate, so the root-MUSIC probe has a
digest of its own (ten seeds on three scenarios), computed while every
probe still built a 16 s scene of its own.
The values hold for numpy's float64 kernels on x86-64 (numpy 2.4); a
different numpy or CPU may round differently and fail them.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from risvital.scenario import Scenario, noiseless
from risvital.strategy import (StrategyConfig, estimate_position, gamma_sweep,
                               run_closed_loop, run_once)

GRID = [round(0.1 * i, 1) for i in range(11)]
SEEDS = range(20)

SWEEP_DIGESTS = {
    "spatial":
        "f70d111946ffa574714912b52c6a16009dff460c17035333b447ecbe0145cce7",
    "temporal":
        "6c1c0d0e7291902cd857ed9640f5c1634c838fa9b31e2d11089c71fbe7ef14c4",
}
LOOP_DIGESTS = {
    "opportunistic":
        "279627710cf900401b50c7e72e5e0451ed189b6de0c36448dd789af5db3f58cd",
    "spatial":
        "b7941d39bbf5d320a0f164ef682deb87c7b0619b9b4ce59027693fbc293801f9",
}
RUN_DIGESTS = {
    "spatial":
        "02f8db83d47d08b99c70820f928b76819c0182fdd2438b6b9068adf2ea5b8476",
    "temporal":
        "15f78b90fa765a04c2ede410220afb89f0ed1b4baf9acfe44194b32816826e64",
}

PROBE_DIGESTS = {
    "default":
        "46d5610a3f8041a58bd2ea911d43889706117f74bb6d3fa9dbcedf902d80f0c5",
    "noiseless":
        "edb6fa46bbf47eb86c69295c3ffc6f1afb592d35296fe37493698596aea0891d",
    "harmonics_table":
        "81424a3e70ac089ec19bd0bd8e661e1925458fdd066dff0e22e7110878139a3f",
}


def _probe_scenario(name: str) -> Scenario:
    if name == "noiseless":
        return noiseless(Scenario())
    if name == "harmonics_table":
        scn = Scenario()
        return replace(scn, physio=replace(
            scn.physio, harmonics=3,
            gain_table=((0.0, 1.0), (45.0, 0.6), (90.0, 0.0))))
    return Scenario()


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def sweep_digest(kind: str) -> str:
    rows = gamma_sweep(Scenario(), kind, GRID, SEEDS)
    return _sha(json.dumps(rows, sort_keys=True).encode())


def loop_digest(kind: str) -> str:
    logs = run_closed_loop(Scenario(), StrategyConfig(kind=kind), 5, seed=3)
    return _sha("".join(json.dumps(log.to_json_dict(), sort_keys=True) + "\n"
                        for log in logs).encode())


def run_digest(kind: str) -> str:
    result = run_once(Scenario(), StrategyConfig(kind=kind, ris_share=0.4),
                      seed=7)
    digest = hashlib.sha256(result.record.tobytes())
    for label, est in sorted(result.estimates.items()):
        digest.update(label.encode())
        digest.update(est.displacement.samples.tobytes())
        digest.update(est.spectrum.freqs.tobytes())
        digest.update(est.spectrum.power.tobytes())
        digest.update(repr((est.peak_freq, est.peak_prominence_db)).encode())
    return digest.hexdigest()


def probe_digest(name: str) -> str:
    scn = _probe_scenario(name)
    return _sha("".join(repr(estimate_position(scn, seed)) + "\n"
                        for seed in range(10)).encode())


@pytest.mark.parametrize("kind", sorted(SWEEP_DIGESTS))
def test_sweep_rows(kind):
    assert sweep_digest(kind) == SWEEP_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(LOOP_DIGESTS))
def test_closed_loop_log(kind):
    assert loop_digest(kind) == LOOP_DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(RUN_DIGESTS))
def test_run_once_record(kind):
    assert run_digest(kind) == RUN_DIGESTS[kind]


@pytest.mark.parametrize("name", sorted(PROBE_DIGESTS))
def test_position_probe(name):
    assert probe_digest(name) == PROBE_DIGESTS[name]


if __name__ == "__main__":
    for name, table, fn in (("SWEEP", SWEEP_DIGESTS, sweep_digest),
                            ("LOOP", LOOP_DIGESTS, loop_digest),
                            ("RUN", RUN_DIGESTS, run_digest),
                            ("PROBE", PROBE_DIGESTS, probe_digest)):
        for kind in sorted(table):
            print(name, kind, fn(kind))
