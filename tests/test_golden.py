"""Golden digests of the simulator's outputs at fixed seeds.

The digests were recomputed at version 0.4.0. A split precoder became
the min-norm precoder at gains (s * gamma, s * (1 - gamma)) with s from
the closed-form power, and the noise scale reads the pulse energy in
closed form (64 at the defaults, where the summed pulse gave
64.00000000000001); both round differently in the low bits. The loop log's
`active_path` became the path a window transmitted on, not the state
after its update, which changes the opportunistic log; the spatial and
temporal logs and the noiseless probe kept their 0.3.0 digests. They pin
every bit of a sweep row, a closed-loop log and a single-run record. Twenty sweep seeds run as one pass of `SEED_CHUNK` =
32; chunk boundaries are covered by `test_batch.py`, which draws up to
2 * SEED_CHUNK + 1 seeds.
The loop log holds no position estimate, so the root-MUSIC probe has a
digest of its own (ten seeds on three scenarios).
The CLI digests pin every byte `risvital acquire`, `risvital sweep` and
`risvital loop` write on the example config, file names and metadata
sidecars included, so the CSV text format (shortest round-trip `repr`,
`\n` line ends) and the sidecar layout are pinned as well as the numbers.
A 33-window loop draws its windows in two passes (`SEED_CHUNK` = 32).
Two CLI digests pin plans that the default scene never reaches: a lone
opportunistic `acquire`, and an `ideal` opportunistic loop on a config
the test writes, with the chest turned to face the radar, so every
window transmits on the direct beam (RIS share 0). Two more pin loops
whose next plan is hard to foresee, over 33 windows: a spatial loop with
the chest turned to [-0.8, 0.6, 0], whose share climbs and falls (0.5,
0.4, 0.3, 0.4, ...), and an opportunistic loop with a 1000 dB threshold,
which re-fixes every window and switches path every two.
The values hold for numpy's float64 kernels on x86-64 (numpy 2.4); a
different numpy or CPU may round differently and fail them.
"""

import hashlib
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from risvital.cli import main
from risvital.scenario import Scenario, noiseless
from risvital.strategy import (StrategyConfig, estimate_position, gamma_sweep,
                               run_closed_loop, run_once)

GRID = [round(0.1 * i, 1) for i in range(11)]
SEEDS = range(20)

SWEEP_DIGESTS = {
    "spatial":
        "c727bcfbd2cb4dc1c920f28314a49747aa541db7e685567da0eb155e6eb43b46",
    "temporal":
        "ff7aaab5d4d17dc6f1e8dcffae353782fb36196d1e6a7e263753316f92715844",
}
LOOP_DIGESTS = {
    "opportunistic":
        "f6093fe8f4e860dc30591bac4e998ed4231f3d1bd95c4f2713863c5c5894cf24",
    "spatial":
        "4aeb208d613a2ad6f9369f909cb46140be5755606077143786bd0f67714a4bda",
    "temporal":
        "3cfd35e86e217a964f53e74212249b43a9aed9256fe3184ad7af66e09ed461c1",
}
RUN_DIGESTS = {
    "spatial":
        "ab44c61eb85b4f486ae461aa46603f2bc2c1a481dc9784c34fc63ac3ed392bbd",
    "temporal":
        "ed952e2bde61a978e82e9e10a2758c3bcf5eec9e86fc9cd9b41daa22fccccccc",
}

PROBE_DIGESTS = {
    "default":
        "6f97cdcaf093213fc1e472e72c574ea881b662c17b421f8c94fd4e07a443904d",
    "noiseless":
        "0d6aa949cd808bc829a2604e6231e8c64e787f5c7930906c1ca866300f2497dd",
    "harmonics_table":
        "5460b27c2ae671c444be1f8a4ccc3dd5693b24063a1578a92b1ea7ad00a41cd9",
}

CLI_DIGESTS = {
    "acquire-spatial":
        "dde30c3ec86863392153e1ec842ed3caf56e479316e0e9bbc9e6c926551c429b",
    "acquire-opportunistic":
        "8020ab16f4c7f74d0378fad27a0b0c28bbe5ff6251c6543d4b1d24eefe4c1440",
    "acquire-temporal":
        "5aee6cfd3f8addd205ebe90db2c9f295e87c3832d3cb7fc5629ba7b0972a722c",
    "loop-opportunistic":
        "0f9da4e7846c274e90cc67e150e019a376a7852b556556b573da2eb66b561029",
    "loop-spatial":
        "9bcbb67bc1d6509c1d43f2b9472b34ada68d275149f8ca99367b1928df8440cf",
    "loop-temporal":
        "525e4a1d461f1e3063f83200634216ddf77412deceb89a328c550336cf4d5fc1",
    "loop-turned-direct":
        "8ce51ece8af05f989f8189bb4c696e195ef93fe410742cb0e0208332adf1fa4a",
    "loop-oscillating":
        "652e84ec152041e66e39155d3afe4f09879a04e0c6d941d601163bc53121711c",
    "loop-switching":
        "7d9d4ecb1b02695cbc0b7f48336a283a5589a45e21c19efc6f727bbae51e77c8",
    "sweep":
        "d8c1d27452df371d59b6e5791fe16fd25a24a5b5a49bd55f68d91442127baa22",
}

EXAMPLE = Path(__file__).resolve().parents[1] / "scenario.example.yaml"
CLI_ARGS = {
    "acquire-spatial": ["acquire", "--seed", "7", "--strategy", "spatial"],
    "acquire-temporal": ["acquire", "--seed", "7", "--strategy", "temporal"],
    "acquire-opportunistic": ["acquire", "--seed", "7",
                              "--strategy", "opportunistic"],
    "loop-turned-direct": ["loop", "--windows", "5", "--seed", "3"],
    "loop-oscillating": ["loop", "--strategy", "spatial", "--windows", "33",
                         "--seed", "3"],
    "loop-switching": ["loop", "--windows", "33", "--seed", "3"],
    "sweep": ["sweep", "--seeds", "3", "--gammas", "0.3,0.5"],
} | {f"loop-{kind}": ["loop", "--windows", "33", "--seed", "3",
                      "--strategy", kind]
     for kind in ("opportunistic", "spatial", "temporal")}
# a config the test writes beside `--out` instead of the example config
CLI_CONFIGS = {
    "loop-turned-direct": "placement: {chest_normal: [-1, 0, 0]}\n"
                          "strategy: {kind: opportunistic, ideal: true}\n",
    "loop-oscillating": "placement: {chest_normal: [-0.8, 0.6, 0]}\n",
    "loop-switching": "strategy: {kind: opportunistic, "
                      "prominence_threshold: 1000 dB}\n",
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


def cli_digest(name: str, out: Path) -> str:
    """Names and bytes of every file one CLI command writes into `out`."""
    config = EXAMPLE
    if name in CLI_CONFIGS:
        config = out.parent / "config.yaml"
        config.write_text(CLI_CONFIGS[name])
    assert main([*CLI_ARGS[name], "--config", str(config),
                 "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(_sha(path.read_bytes()).encode())
    return digest.hexdigest()


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


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_artifacts(name, tmp_path):
    assert cli_digest(name, tmp_path / "out") == CLI_DIGESTS[name]


if __name__ == "__main__":
    for name, table, fn in (("SWEEP", SWEEP_DIGESTS, sweep_digest),
                            ("LOOP", LOOP_DIGESTS, loop_digest),
                            ("RUN", RUN_DIGESTS, run_digest),
                            ("PROBE", PROBE_DIGESTS, probe_digest)):
        for kind in sorted(table):
            print(name, kind, fn(kind))
    for name in sorted(CLI_DIGESTS):
        with tempfile.TemporaryDirectory() as tmp:
            print("CLI", name, cli_digest(name, Path(tmp) / "out"))
