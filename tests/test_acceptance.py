"""Acceptance criteria as pytest cases, one per criterion.

One test body runs every criterion of `acceptance.ALL_CRITERIA` and
fails with the measured values in the message, so `pytest` and the CLI
selftest agree by construction. Each case is named after its criterion,
`test_criterion_<n>_<name>`, so a criterion added to the tuple is
collected with no further edit.

Two criteria judge a rate on one small draw of seeds. The rate tests
below measure those rates on 4000 seeds disjoint from every criterion's
(10 000-13 999, fixed before looking) and bound their Wilson 95% lower
limits; the criteria, their seeds and their bounds stay as they are.
"""

import inspect
import io
import math
import re

import pytest

from risvital import acceptance, cli
from risvital.scenario import Scenario
from risvital.strategy import gamma_sweep

RATE_SEEDS = range(10_000, 14_000)


def _case(criterion):
    def test(tmp_path):
        takes_root = "tmp_root" in inspect.signature(criterion).parameters
        result = criterion(**({"tmp_root": tmp_path} if takes_root else {}))
        assert result.passed, f"criterion {result.number}: {result.detail}"

    test.__name__ = f"test_{criterion.__name__}"
    return test


globals().update((f"test_{criterion.__name__}", _case(criterion))
                 for criterion in acceptance.ALL_CRITERIA)


def test_run_all_writes_one_line_per_criterion(monkeypatch):
    stub = acceptance._criterion(12, "stub")(lambda: (False, "stub detail"))
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (
        acceptance.criterion_4_noise_floor_arithmetic, stub))
    stream = io.StringIO()
    results = acceptance.run_all(stream)
    assert [(r.number, r.passed) for r in results] == [(4, True), (12, False)]
    first, second = stream.getvalue().splitlines()
    assert re.fullmatch(r"\[PASS\]  4 noise-floor arithmetic: sigma_n\^2 = "
                        r"-107\.0103 dBm, \d+\.\d\d s", first)
    assert re.fullmatch(r"\[FAIL\] 12 stub: stub detail, \d+\.\d\d s", second)


def test_time_limit_fails_a_passing_body():
    result = acceptance._criterion(12, "stub", limit_s=0.0)(
        lambda: (True, "ok"))()
    assert not result.passed
    assert result.runtime_s >= 0.0


def test_selftest_exit_codes(monkeypatch):
    def fake_run_all(passed):
        return lambda stream=None: [acceptance.CriterionResult(
            1, "stub", passed, "stub", 0.0)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all(True))
    assert cli.main(["selftest"]) == 0
    monkeypatch.setattr(acceptance, "run_all", fake_run_all(False))
    assert cli.main(["selftest"]) == cli.EXIT_SELFTEST


def wilson_lower(hits: int, n: int, z: float = 1.959964) -> float:
    """Lower end of the Wilson score interval (95% by default)."""
    p, z2 = hits / n, z * z
    centre = p + z2 / (2 * n)
    spread = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return (centre - spread) / (1 + z2 / n)


def test_wilson_lower_bound():
    assert wilson_lower(0, 10) == 0.0
    assert wilson_lower(10, 10) == pytest.approx(0.7225, abs=1e-4)
    # the bound is the share p below p-hat whose score statistic is z
    z, n = 1.959964, 4000
    low = wilson_lower(3781, n)
    assert low < 3781 / n
    assert (3781 / n - low) ** 2 * n == pytest.approx(z * z * low * (1 - low))


@pytest.fixture(scope="module")
def rate_rows():
    """One spatial sweep at shares 0.3 (criterion 8's lock) and 0.5
    (criterion 7's ordering), keyed by (gamma, path, seed)."""
    scn = Scenario()
    rows = gamma_sweep(scn, "spatial", [0.3, 0.5], RATE_SEEDS)
    return scn, {(r["gamma"], r["path"], r["seed"]): r for r in rows}


def test_spatial_ris_lock_rate_at_share_0_3(rate_rows):
    # criterion 8's lock: a peak within one zero-padded bin of the truth
    scn, rows = rate_rows
    tol = scn.radar.slow_rate / (scn.processing.zero_pad_factor
                                 * scn.slow_time_samples)
    locks = sum(abs(rows[0.3, "ris", s]["peak_freq_Hz"]
                    - scn.physio.breath_rate) <= tol for s in RATE_SEEDS)
    assert wilson_lower(locks, len(RATE_SEEDS)) >= 0.9, locks


def test_ris_beats_direct_prominence_rate_at_share_0_5(rate_rows):
    # criterion 7's ordering, seed by seed
    _, rows = rate_rows
    wins = sum(rows[0.5, "ris", s]["prominence_db"]
               > rows[0.5, "direct", s]["prominence_db"] for s in RATE_SEEDS)
    assert wilson_lower(wins, len(RATE_SEEDS)) >= 0.9, wins
