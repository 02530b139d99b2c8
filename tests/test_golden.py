"""Golden digests of the simulator's outputs at fixed seeds.

The digests were recomputed at version 0.3.0, when each seed's channel,
RCS jitters and receiver noise came to be drawn from one stream rather
than from four children of the seed, and the per-row polyfit detrend
became a closed-form least-squares line; both change the numbers on
purpose. They pin every bit of a sweep row, a closed-loop log and a
single-run record. Twenty sweep seeds run as one pass of `SEED_CHUNK` =
32; chunk boundaries are covered by `test_batch.py`, which draws up to
2 * SEED_CHUNK + 1 seeds.
The loop log holds no position estimate, so the root-MUSIC probe has a
digest of its own (ten seeds on three scenarios).
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
        "99c10e26e34e44ca1805bdb7fe24deb51c222ec5b1f53ac7e5b5a30e5f98c7bb",
    "temporal":
        "4b91d09553c13b4c50685f6bb702bfb4589ab253468d19ac733fba644792233a",
}
LOOP_DIGESTS = {
    "opportunistic":
        "c7299e1cc7d9164e6f5fa3aea18d2cd60bd7792c311d2ea855bd015c5e116029",
    "spatial":
        "4aeb208d613a2ad6f9369f909cb46140be5755606077143786bd0f67714a4bda",
    "temporal":
        "3cfd35e86e217a964f53e74212249b43a9aed9256fe3184ad7af66e09ed461c1",
}
RUN_DIGESTS = {
    "spatial":
        "f4fc4b236661becec866f54f4c895ac39a0318556f4f61a5791fa5e43e3a8d14",
    "temporal":
        "bde78efb2cf8b06988004670247d2ce1396294a531558c4771e88400e85d001c",
}

PROBE_DIGESTS = {
    "default":
        "5996eb0de8f0ed1aabb3f5cd21fb97a20f2f3f487a671613a7b5a819475e7087",
    "noiseless":
        "0d6aa949cd808bc829a2604e6231e8c64e787f5c7930906c1ca866300f2497dd",
    "harmonics_table":
        "ab4fd790b23a4953730d24071e4fd51d95d31d12845cfd6e4df1600acb9a09b0",
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
    record, estimates = run_once(
        Scenario(), StrategyConfig(kind=kind, ris_share=0.4), seed=7)
    digest = hashlib.sha256(record.tobytes())
    for label, est in sorted(estimates.items()):
        digest.update(label.encode())
        digest.update(est.displacement.tobytes())
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
