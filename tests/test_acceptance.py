"""Acceptance criteria as pytest cases, one per criterion.

One test body runs every criterion of `acceptance.ALL_CRITERIA` and
fails with the measured values in the message, so `pytest` and the CLI
selftest agree by construction. Each case is named after its criterion,
`test_criterion_<n>_<name>`, so a criterion added to the tuple is
collected with no further edit.
"""

import inspect
import io
import re

from risvital import acceptance, cli


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
