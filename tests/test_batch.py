"""A batch of seeds gives each seed the bits of its lone run."""

from collections import Counter
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital.physio import DisplacementTrace
from risvital.scenario import Scenario, extract_vital_signs, \
    simulate_acquisition
from risvital.sigproc import Spectrum, VitalSignEstimate
from risvital.strategy import (SEED_CHUNK, StrategyConfig, gamma_sweep,
                               plan_transmissions, run_once)

SCN = Scenario()


def assert_same_estimates(a: dict, b: dict):
    assert a.keys() == b.keys()
    for label in a:
        if a[label] is None or b[label] is None:
            assert a[label] is b[label] is None
            continue
        npt.assert_array_equal(a[label].displacement.samples,
                               b[label].displacement.samples)
        npt.assert_array_equal(a[label].spectrum.power,
                               b[label].spectrum.power)
        assert repr((a[label].peak_freq, a[label].peak_prominence_db)) == \
            repr((b[label].peak_freq, b[label].peak_prominence_db))


def seed_row(estimates: dict, i: int) -> dict:
    """Row i of every stacked field, in the shape a lone extraction has."""
    return {label: est and VitalSignEstimate(
                replace(est.displacement, samples=est.displacement.samples[i]),
                replace(est.spectrum, power=est.spectrum.power[i]),
                float(est.peak_freq[i]), float(est.peak_prominence_db[i]))
            for label, est in estimates.items()}


@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["spatial", "temporal"]),
       share=st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                       st.floats(0.0, 1.0)),
       seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                      max_size=2 * SEED_CHUNK + 1),
       detrend=st.booleans())
def test_sweep_rows_equal_lone_runs(kind, share, seeds, detrend):
    # without the detrend the row means are large, so a reduction that
    # rounds differently in a batch shows in the spectra
    scn = replace(SCN, processing=replace(SCN.processing, detrend=detrend))
    rows = gamma_sweep(scn, kind, [share], seeds)
    strategy = StrategyConfig(kind=kind, ris_share=share)
    assert [(r["seed"], r["path"]) for r in rows] == \
        [(s, p) for s in seeds for p in ("direct", "ris")]
    for seed, pair in zip(seeds, zip(rows[::2], rows[1::2])):
        estimates = run_once(scn, strategy, seed).estimates
        for row in pair:
            est = estimates[row["path"]]
            want = (est.peak_freq, est.peak_prominence_db) if est \
                else (np.nan, 0.0)
            assert repr((row["peak_freq_Hz"], row["prominence_db"])) == \
                repr(want)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["spatial", "temporal", "opportunistic"]),
       entropy=st.integers(0, 2 ** 128 - 1),
       spawn_key=st.lists(st.integers(0, 100), max_size=3))
def test_run_once_replays_from_one_seed_sequence(kind, entropy, spawn_key):
    ss = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
    strategy = StrategyConfig(kind=kind, ris_share=0.5)
    first, again = run_once(SCN, strategy, ss), run_once(SCN, strategy, ss)
    assert ss.n_children_spawned == 0
    npt.assert_array_equal(first.record, again.record)
    assert_same_estimates(first.estimates, again.estimates)


def test_batched_acquisition_stacks_lone_acquisitions():
    strategy = StrategyConfig(kind="temporal", ris_share=0.4)
    schedule, slots_direct, slots_ris = plan_transmissions(
        strategy, SCN.slow_time_samples, *SCN.static.tx_steering,
        SCN.radar.total_power)
    seeds = [3, np.random.SeedSequence(5), 3, 11]
    record, channel = simulate_acquisition(SCN, schedule, seeds)
    assert record.shape == (4,) + schedule.shape
    batch = extract_vital_signs(SCN, record, *SCN.static.rx_weights,
                                slots_direct=slots_direct,
                                slots_ris=slots_ris)
    for est in batch.values():  # one estimate per path, seeds stacked
        assert est.displacement.samples.shape[0] == len(seeds)
        assert est.spectrum.power.shape[0] == len(seeds)
        assert est.peak_freq.shape == est.peak_prominence_db.shape \
            == (len(seeds),)
    for i, seed in enumerate(seeds):
        alone, ch = simulate_acquisition(SCN, schedule, seed)
        npt.assert_array_equal(record[i], alone)
        for name in ("H_I", "h_T", "h_D", "H_C"):
            npt.assert_array_equal(getattr(channel, name)[i],
                                   getattr(ch, name))
        npt.assert_array_equal(channel.reflection, ch.reflection)
        assert_same_estimates(seed_row(batch, i), extract_vital_signs(
            SCN, alone, *SCN.static.rx_weights, slots_direct=slots_direct,
            slots_ris=slots_ris))


@pytest.mark.parametrize("kind", ["spatial", "temporal"])
def test_sweep_pass_builds_one_estimate_per_path(kind, monkeypatch):
    counts = Counter()
    for cls in (DisplacementTrace, Spectrum, VitalSignEstimate):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    SCN.static  # the scene's base trace is built once, before counting

    def built(n_seeds):
        counts.clear()
        gamma_sweep(SCN, kind, [0.5], range(n_seeds))
        return dict(counts)

    one = built(1)
    assert one["VitalSignEstimate"] == one["Spectrum"] == 2
    assert built(20) == one


def test_static_scene_built_once_per_scenario():
    scn = Scenario()
    assert "static" not in vars(scn)
    run_once(scn, StrategyConfig(), 0)
    static = scn.static
    run_once(scn, StrategyConfig(kind="temporal"), 1)
    assert scn.static is static
    # shared by every run, so no caller may write into it
    for array in (static.tx_steering[0], static.rx_weights[1],
                  static.trace.samples, static.channel.reflection):
        with pytest.raises(ValueError):
            array[0] = 0.0
