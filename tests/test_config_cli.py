import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from risvital.cli import main
from risvital.config import (SCHEMA, SWEEP_ROWS, ConfigError, config_hash,
                             load_config, parse_config, parse_quantity,
                             serialize_config)
from risvital.geometry import SPEED_OF_LIGHT
from risvital.physio import synth_respiration
from risvital.scenario import RadarConfig, default_placement
from risvital.sigproc import SignalError
from risvital.strategy import STRATEGY_KINDS, run_once

from oracles import write_trace_csv

ROOT = Path(__file__).resolve().parents[1]


def load_config_text(text):
    return parse_config(yaml.safe_load(text))

EXAMPLE = """
radar:
  element_count: 5
  carrier_frequency: 7.15 GHz
  bandwidth: 0.5 MHz
  fast_time_samples: 64
  pulse_repetition_interval: 250 ms
  total_power: 10 mW
  noise_figure: 10 dB
ris:
  rows: 10
  cols: 10
placement:
  radar: [0.0, 0.0, 1.0]
  ris_center: [2.707, 1.4606, 1.0]
  ris_normal: [0.0, -1.0, 0.0]
  target: [3.0, 0.0, 1.0]
  chest_normal: auto
physiology:
  breathing_rate: 0.133 Hz
  peak_to_peak: 2 cm
  duration: 60 s
channel:
  rician_k: 10 dB
strategy:
  kind: spatial
  ris_share: 0.5
sweep:
  gammas: [0.0, 0.5, 1.0]
  seeds: 3
"""


class TestParseQuantity:
    def test_frequency_units(self):
        assert parse_quantity("7.15 GHz", "frequency") == pytest.approx(7.15e9)
        assert parse_quantity("0.5 MHz", "frequency") == pytest.approx(0.5e6)
        assert parse_quantity("0.133 Hz", "frequency") == pytest.approx(0.133)

    def test_time_and_length(self):
        assert parse_quantity("250 ms", "time") == pytest.approx(0.25)
        assert parse_quantity("2 cm", "length") == pytest.approx(0.02)

    def test_power_including_dbm(self):
        assert parse_quantity("10 mW", "power") == pytest.approx(0.01)
        assert parse_quantity("-107 dBm", "power") == pytest.approx(
            10 ** (-107 / 10) * 1e-3)

    def test_bare_numbers_are_si(self):
        assert parse_quantity(0.25, "time") == 0.25

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigError, match="does not measure"):
            parse_quantity("10 ms", "frequency")

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("10ms extra junk", "time")
        with pytest.raises(ConfigError):
            parse_quantity("fast Hz", "frequency")


class TestConfigParsing:
    def test_example_matches_defaults(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(EXAMPLE)
        scenario, strategy, sweep = load_config(path)
        from risvital.scenario import Scenario
        default = Scenario()
        assert scenario.radar == default.radar
        assert scenario.physio == default.physio
        assert strategy.kind == "spatial"
        assert sweep["gammas"] == [0.0, 0.5, 1.0]

    def test_round_trip_identical(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(EXAMPLE)
        first = load_config(path)
        doc = serialize_config(*first)
        second = parse_config(doc)
        assert second[0] == first[0]
        assert second[1] == first[1]
        assert second[2] == first[2]
        assert config_hash(*first) == config_hash(*second)

    def test_hash_sensitive_to_changes(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(EXAMPLE)
        base = load_config(path)
        path.write_text(EXAMPLE.replace("0.133 Hz", "0.2 Hz"))
        changed = load_config(path)
        assert config_hash(*base) != config_hash(*changed)

    def test_missing_file_named(self):
        with pytest.raises(ConfigError, match="no-such-file.yaml"):
            load_config("no-such-file.yaml")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            parse_config({"radar": {"element_count": 5, "colour": "red"}})

    def test_empty_doc_gives_defaults(self):
        scenario, strategy, sweep = parse_config({})
        from risvital.scenario import Scenario
        assert scenario == Scenario()
        assert len(sweep["gammas"]) == 11


class TestCliAcquire:
    def test_writes_expected_files(self, tmp_path):
        out = tmp_path / "run"
        code = main(["acquire", "--out", str(out), "--seed", "1"])
        assert code == 0
        names = sorted(p.name for p in out.iterdir())
        expected = []
        for path in ("direct", "ris"):
            for domain in ("displacement", "spectrum"):
                expected += [f"{path}_{domain}.csv",
                             f"{path}_{domain}.csv.meta.json"]
        assert names == sorted(expected)
        disp = (out / "ris_displacement.csv").read_text().splitlines()
        assert disp[0] == "time_s,displacement_m"
        assert len(disp) == 241
        spec = (out / "ris_spectrum.csv").read_text().splitlines()
        assert spec[0] == "freq_Hz,power"

    def test_sidecar_metadata(self, tmp_path):
        out = tmp_path / "run"
        main(["acquire", "--out", str(out), "--seed", "9"])
        meta = json.loads(
            (out / "ris_spectrum.csv.meta.json").read_text())
        assert meta["seed"] == 9
        assert meta["artifact_version"]
        assert len(meta["config_hash"]) == 16

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["acquire", "--config", "missing-scenario.yaml", "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert "missing-scenario.yaml" in capsys.readouterr().err

    def test_byte_identical_repetition(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["acquire", "--out", str(out_a), "--seed", "4"])
        main(["acquire", "--out", str(out_b), "--seed", "4"])
        for path_a in sorted(out_a.iterdir()):
            path_b = out_b / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


class TestCliSweep:
    def test_row_count_and_header(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--out", str(out), "--gammas", "0.0,0.5,1.0",
                     "--seeds", "2"])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,path,seed,peak_freq_Hz,prominence_db"
        assert len(lines) == 1 + 2 * 3 * 2

    def test_empty_grid_rejected(self, tmp_path, capsys):
        code = main(["sweep", "--out", str(tmp_path / "x"), "--gammas", "",
                     "--seeds", "1"])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_single_gamma_matches_acquire(self, tmp_path):
        out = tmp_path / "s"
        main(["sweep", "--out", str(out), "--gammas", "0.5", "--seeds", "1"])
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        acq = tmp_path / "a"
        main(["acquire", "--out", str(acq), "--seed", "0"])
        meta = json.loads((acq / "ris_spectrum.csv.meta.json").read_text())
        ris_row = next(r for r in rows if r.split(",")[1] == "ris")
        assert float(ris_row.split(",")[3]) == pytest.approx(
            meta["peak_freq_Hz"])
        assert float(ris_row.split(",")[4]) == pytest.approx(
            meta["prominence_db"])


class TestBackTurnedChest:
    """A path that views the chest from behind (incidence past 90 degrees)
    has an angle gain of 0: it is never graded, so neither acquire nor the
    loop can take its RCS jitter for breathing. [1, 0, 0] turns the chest
    away from both paths (180 and 101 degrees); [0.6, 0.8, 0] only from
    the direct path (127 degrees; the RIS sees it at 48)."""

    @staticmethod
    def _run(tmp_path, command, normal, *flags):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"placement: {{chest_normal: {normal}}}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     *flags]) == 0
        return out

    @pytest.mark.parametrize("normal, written", [
        ([1.0, 0.0, 0.0], []),
        ([0.6, 0.8, 0.0], ["ris_displacement.csv", "ris_spectrum.csv"])])
    def test_acquire_writes_only_paths_that_see(self, tmp_path, normal,
                                                written):
        out = self._run(tmp_path, "acquire", normal)
        assert sorted(p.name for p in out.glob("*.csv")) == written

    @pytest.mark.parametrize("normal", [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
    def test_loop_never_activates_blind_direct(self, tmp_path, normal):
        out = self._run(tmp_path, "loop", normal,
                        "--strategy", "opportunistic")
        entries = [json.loads(line) for line in
                   (out / "loop.jsonl").read_text().splitlines()]
        assert len(entries) == 5
        assert all(e.get("active_path") != "direct"
                   and "direct_prominence_db" not in e for e in entries)


class TestCliLoop:
    def test_jsonl_log(self, tmp_path):
        out = tmp_path / "loop"
        code = main(["loop", "--out", str(out), "--windows", "2", "--seed",
                     "1"])
        assert code == 0
        lines = (out / "loop.jsonl").read_text().splitlines()
        assert len(lines) == 2
        entry = json.loads(lines[0])
        assert entry["window"] == 0
        assert "ris_prominence_db" in entry
        assert "strategy" in entry

    def test_zero_windows(self, tmp_path):
        out = tmp_path / "loop0"
        assert main(["loop", "--out", str(out), "--windows", "0"]) == 0
        assert (out / "loop.jsonl").read_text() == ""


class TestCliConfigOverride:
    def test_strategy_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(EXAMPLE)
        out = tmp_path / "run"
        code = main(["acquire", "--config", str(cfg), "--out", str(out),
                     "--strategy", "temporal", "--ris-share", "0.5"])
        assert code == 0
        # temporal halves: each displacement trace covers half the record
        disp = (out / "ris_displacement.csv").read_text().splitlines()
        assert len(disp) == 121


class TestCliFlagErrors:
    """Bad command-line values are config errors (exit 1), like bad config
    values, and nothing is written."""

    @pytest.mark.parametrize("argv, message", [
        (["acquire", "--ris-share", "1.5"], "ris_share 1.5 outside [0, 1]"),
        (["loop", "--ris-share", "-0.1"], "ris_share -0.1 outside [0, 1]"),
        (["sweep", "--seeds", "-2", "--gammas", "0.5"],
         "--seeds: expected a whole number >= 0, got -2"),
        (["loop", "--windows", "-3"],
         "--windows: expected a whole number >= 0, got -3"),
        (["acquire", "--seed", "-1"],
         "--seed: expected a whole number >= 0, got -1"),
        (["loop", "--seed", "-1"],
         "--seed: expected a whole number >= 0, got -1"),
        (["sweep", "--gammas", "0.5,1.5"],
         "--gammas: expected a non-empty list of shares in [0, 1], "
         "got [0.5, 1.5]"),
        (["sweep", "--gammas", "0.5,x"],
         "--gammas: expected a finite number, got 'x'"),
    ])
    def test_rejected(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()


class TestCliRuntimeErrors:
    """A branch too short to extract follows from the config alone, so
    acquire rejects it as a config error (exit 1) before it simulates, and
    writes nothing."""

    @pytest.mark.parametrize("share, branch", [(0.0, "ris"), (1.0, "direct"),
                                               (0.3, "ris")])
    def test_temporal_branch_without_slots(self, tmp_path, capsys,
                                           monkeypatch, share, branch):
        monkeypatch.setattr("risvital.cli.run_once", None)  # never reached
        out = tmp_path / "out"
        assert main(["acquire", "--strategy", "temporal", "--ris-share",
                     str(share), "--out", str(out)]) == 1
        slots = round(share * 240) if branch == "ris" else 0
        assert capsys.readouterr().err.startswith(
            f"config error: the {branch} branch gets {slots} slow-time slots, "
            "fewer than the 80 it needs")
        assert not out.exists()

    def test_short_window(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("physiology:\n  duration: 10 s\n")
        out = tmp_path / "out"
        assert main(["acquire", "--config", str(cfg), "--out", str(out)]) == 1
        assert "gets 40 slow-time slots" in capsys.readouterr().err
        assert not out.exists()


class TestUnsteerableScene:
    """A scene whose channel, power budget or steering pair cannot be
    built follows from the config alone, so every command rejects it as a
    config error (exit 1) before it runs, and writes nothing."""

    @pytest.mark.parametrize("text, message", [
        ("channel: {clutter_strength: -1e-10}\n",
         "clutter strength must be >= 0"),
        ("radar: {total_power: 0 W}\n", "total_power must be positive"),
        ("placement: {ris_center: [0.0, 0.0, 3.0]}\n",
         "point directly above/below the array; azimuth undefined"),
        ("placement: {target: [0.0, 0.0, 3.0]}\n",
         "point directly above/below the array; azimuth undefined"),
        ("placement: {ris_center: [6.0, 0.0, 1.0], "
         "ris_normal: [-1.0, 0.0, 0.0]}\n",
         "|a_c| = 1.000000000000 leaves the Gram matrix near singular")])
    @pytest.mark.parametrize("argv", [["acquire"], ["loop"],
                                      ["loop", "--windows", "0"]])
    def test_rejected(self, tmp_path, capsys, text, message, argv):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_tiny_offset_from_the_vertical_runs(self):
        scn, strategy, _ = parse_config({"placement": {
            "radar": [0.0, 5.27e-232, 2.0], "ris_center": [0.0, 0.0, 3.0]}})
        assert scn.angles.theta_ris == -np.pi / 2
        assert all(run_once(scn, strategy, 0)[1].values())



class TestCliRuntimeHandler:
    def test_runtime_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(*args):
            raise SignalError("slow-time record contains non-finite entries")

        monkeypatch.setattr("risvital.cli.run_once", fail)
        out = tmp_path / "out"
        assert main(["acquire", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: slow-time record contains non-finite entries\n")
        assert not out.exists()


class TestSweepGrid:
    """The sweep's share grid is parsed strictly wherever it comes from."""

    @pytest.mark.parametrize("gammas, message", [
        ("[1.5]", "got [1.5]"),
        ("[-0.1, 0.5]", "got [-0.1, 0.5]"),
        ("[]", "got []"),
        ("0.5", "got 0.5"),
        ("[0.5, .nan]", "expected a finite number"),
        ("[0.5, abc]", "expected a finite number, got 'abc'"),
    ])
    def test_rejected(self, tmp_path, capsys, gammas, message):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"sweep:\n  gammas: {gammas}\n")
        with pytest.raises(ConfigError, match="^sweep.gammas: ") as exc:
            load_config(cfg)
        assert message in str(exc.value)
        out = tmp_path / "out"
        assert main(["acquire", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {exc.value}\n"
        assert not out.exists()

    def test_bounds_accepted(self):
        _, _, sweep = load_config_text("sweep: {gammas: [0, 1, '0.5']}\n")
        assert sweep["gammas"] == [0.0, 1.0, 0.5]


class TestWindowShorterThanClutterFilter:
    """A window shorter than the clutter filter is a config error (exit 1)
    before anything is written, not a runtime error of the filter."""

    @pytest.mark.parametrize("command, duration, samples", [
        ("acquire", 2.0, 8),
        ("loop", 5.0, 20),
    ])
    def test_rejected(self, tmp_path, capsys, command, duration, samples):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"physiology:\n  duration: {duration}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: processing.clutter_window: expected at most the "
            f"{samples} slow-time samples of a window (duration x slow rate), "
            "got 21\n")
        assert not out.exists()

    def test_window_of_full_length_accepted(self):
        scenario, _, _ = parse_config({"physiology": {"duration": 5.25},
                                       "processing": {"clutter_window": 21}})
        assert scenario.slow_time_samples == 21


class TestWindowUnderTwoSamples:
    """The window length follows from the config alone, so a window of
    fewer than 2 slow-time samples is a config error (exit 1) for every
    command, before anything is written."""

    @pytest.mark.parametrize("command", ["acquire", "loop", "sweep"])
    @pytest.mark.parametrize("duration, samples", [("0.2 s", 1), ("0 s", 0)])
    def test_rejected(self, tmp_path, capsys, command, duration, samples):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"physiology: {{duration: {duration}}}\n"
                       "processing: {clutter_window: off}\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: slow-time samples per window (duration x slow "
            f"rate): expected at least 2, got {samples}\n")
        assert not out.exists()


class TestLoopProbeShorterThanArray:
    """Root-MUSIC needs at least as many probe pulses as array elements;
    the probe length follows from the config, so the loop rejects a shorter
    one as a config error (exit 1) before it writes anything."""

    @pytest.mark.parametrize("text, pulses, elements", [
        ("physiology: {duration: 1 s}\nprocessing: {clutter_window: off}\n",
         4, 5),
        ("radar: {element_count: 70}\n", 64, 70)])
    def test_rejected(self, tmp_path, capsys, text, pulses, elements):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["loop", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: the position probe gets {pulses} pulses, fewer "
            f"than the {elements} array elements root-MUSIC needs; lengthen "
            "the duration\n")
        assert not out.exists()

    def test_other_commands_still_run(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("physiology: {duration: 1 s}\n"
                       "processing: {clutter_window: off}\n")
        for argv in (["loop", "--windows", "0"], ["sweep", "--seeds", "1"]):
            out = tmp_path / argv[0]
            assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0


class TestStrictValues:
    @pytest.mark.parametrize("doc, message", [
        ({"processing": {"detrend": "false"}}, "true or false"),
        ({"strategy": {"ideal": "no"}}, "true or false"),
        ({"radar": {"element_count": 5.9}}, "whole number"),
        ({"ris": {"rows": True}}, "whole number"),
        ({"sweep": {"seeds": 2.7}}, "whole number"),
        ({"ris": "oops"}, "'ris' section: expected a mapping"),
        ({"radar": None}, "'radar' section: expected a mapping"),
        ({"strategy": {"kind": "bogus"}}, "unknown strategy kind"),
        ({"strategy": {"ris_share": 1.5}}, "outside"),
        ({"placement": {"chest_normal": [1.0, 1.0, 0.0]}}, "unit length"),
        ({"placement": {"target": [0.0, 0.0, 1.0]}}, "coincide"),
        ({"placement": {"radar": "here"}}, "3-vector"),
        ({"physiology": {"gain_table": [[0.0, 1.0, 2.0]]}}, "angle_deg"),
        ({"physiology": {"gain_table": 5}}, "angle_deg"),
        ({"physiology": {"gain_table": [[90.0, 0.0], [0.0, 1.0]]}},
         "ascending"),
        ({"physiology": {"trace_file": "no-such-trace.csv"}},
         "no-such-trace.csv"),
        ({"physiology": {"reflectivity_ris": True}}, "finite number"),
        ({"physiology": {"duration": float("inf")}}, "finite"),
        ({"processing": {"clutter_window": 20}}, "odd count"),
        ({"processing": {"band": ["0.7 Hz", "0.05 Hz"]}}, "low < high"),
        ({"radar": {1: 2}}, "unknown keys"),
        ({"radar": {"element_count": 0}}, "element_count must be >= 1"),
        ({"radar": {"element_count": 1}}, "at least 2 elements"),
        ({"ris": {"rows": 0}}, "rows: expected a whole number >= 1"),
        ({"ris": {"cols": 0}}, "cols: expected a whole number >= 1"),
        ({"radar": {"fast_time_samples": 0}}, "whole number >= 1"),
        ({"processing": {"zero_pad_factor": 0}}, "whole number >= 1"),
        ({"radar": {"tone_frequency": "20 MHz"}}, "aliases"),
        ({"physiology": {"breathing_rate": "3 Hz"}}, "violates Nyquist"),
        ({"physiology": {"gain_table": [[0, 2.0], [90, 1.5]]}},
         r"gains must lie in \[0, 1\]"),
        ({"physiology": {"gain_table": [[0, -0.2], [90, -0.5]]}},
         r"gains must lie in \[0, 1\]"),
        ({"physiology": {"distortion_strength": -3}},
         "distortion_strength must be >= 0"),
        ({"strategy": {"hysteresis_windows": 0}},
         "hysteresis_windows: expected a whole number >= 1"),
        ({"strategy": {"adaptation_step": -0.1}},
         "adaptation_step -0.1 must be >= 0"),
        ({"channel": {"clutter_strength": -1e-10}},
         "clutter strength must be >= 0"),
        ({"radar": {"total_power": "0 W"}}, "total_power must be positive"),
        ({"placement": {"ris_center": [0.0, 0.0, 3.0]}}, "azimuth undefined"),
        ({"placement": {"target": [0.0, 0.0, 3.0]}}, "azimuth undefined"),
        ({"placement": {"ris_center": [6.0, 0.0, 1.0],
                        "ris_normal": [-1.0, 0.0, 0.0]}}, "near singular"),
        ({"processing": {"band": ["0 Hz", "0.7 Hz"]}},
         r"processing.band: expected a low edge in \(0, 2.0\) Hz"),
        ({"processing": {"band": ["3 Hz", "5 Hz"]}},
         r"processing.band: expected a low edge in \(0, 2.0\) Hz"),
        ({"radar": {"carrier_frequency": "0 Hz"}},
         "radar.carrier_frequency: expected a positive value"),
        ({"radar": {"pulse_repetition_interval": "0 s"}},
         "radar.pulse_repetition_interval: expected a positive value"),
        ({"channel": {"rician_k": "4000 dB"}},
         "channel.rician_k: expected a value that does not overflow"),
        ({"radar": {"total_power": "5000 dBm"}},
         "radar.total_power: expected a value that does not overflow"),
        ({"radar": {"noise_figure": "4000 dB"}},
         "radar.noise_figure: expected a value that does not overflow"),
        ({"radar": {"pulse_repetition_interval": "1e-320 s"}},
         "radar.pulse_repetition_interval: expected a value that does not"),
        ({"ris": {"element_spacing": "0 m"}},
         "RIS element spacing must be positive"),
        ({"ris": {"element_spacing": "-1 cm"}},
         "RIS element spacing must be positive"),
        ({"radar": {"carrier_frequency": "1e-320 Hz"}},
         "radar.carrier_frequency: expected a value that does not overflow"),
    ])
    def test_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("text", ["radar:\n", "strategy:\n  kind: bogus\n",
                                      "ris: {rows: 0}\n",
                                      "radar: {tone_frequency: 20 MHz}\n",
                                      "physiology: {breathing_rate: 3 Hz}\n",
                                      "physiology: {gain_table: "
                                      "[[0, 2.0], [90, 1.5]]}\n",
                                      "strategy: {kind: opportunistic, "
                                      "ideal: true, hysteresis_windows: 0}\n",
                                      "strategy: {kind: spatial, "
                                      "adaptation_step: -0.1}\n"])
    def test_rejected_through_cli(self, tmp_path, capsys, text):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        code = main(["acquire", "--config", str(cfg), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["acquire", "loop", "sweep"])
    @pytest.mark.parametrize("text", ["channel: {rician_k: 4000 dB}\n",
                                      "radar: {total_power: 5000 dBm}\n",
                                      "radar: {noise_figure: 4000 dB}\n",
                                      "radar: {pulse_repetition_interval: "
                                      "1e-320 s}\n",
                                      "ris: {element_spacing: 0 m}\n",
                                      "ris: {element_spacing: -1 cm}\n"])
    def test_overflow_and_spacing_exit_1(self, tmp_path, capsys, command,
                                         text):
        # filterwarnings = error turns any warning on the way into exit 2
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        code = main([command, "--config", str(cfg), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _acquire_error(tmp_path, capsys, text):
        """The stderr of an `acquire` on `text` that must exit 1 unwritten."""
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["acquire", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("physiology: {reflectivity_ris: -1}\n", "reflectivity must be >= 0"),
        ("physiology: {reflectivity_direct: -0.5}\n",
         "reflectivity must be >= 0"),
        ("physiology: {gain_exponent: 0}\n", "exponent must be positive"),
        ("strategy: {initial_path: side}\n", "invalid initial_path 'side'"),
        ("- radar\n- ris\n", "config root must be a mapping")])
    def test_cli_error_line(self, tmp_path, capsys, text, message):
        assert self._acquire_error(tmp_path, capsys, text) \
            == f"config error: {message}\n"

    def test_cli_error_line_for_unparsable_yaml(self, tmp_path, capsys):
        text = "radar: {element_count: 5\n"
        with pytest.raises(yaml.YAMLError) as exc:
            yaml.safe_load(text)
        assert self._acquire_error(tmp_path, capsys, text) == (
            f"config error: {tmp_path / 'scenario.yaml'}: invalid YAML: "
            f"{exc.value}\n")

    def test_cli_error_line_for_short_trace_row(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("index,front_radar_VS,side_radar_VS\n"
                         "0,0.1,0.2\n1,0.1\n")
        text = (f"physiology: {{trace_file: {trace}}}\n"
                "processing: {clutter_window: off}\n")
        assert self._acquire_error(tmp_path, capsys, text) == (
            f"config error: {trace}: row 3 has 2 fields, expected 3\n")

    def test_lenient_spellings(self):
        scenario, _, sweep = load_config_text(
            "radar: {element_count: 5.0}\n"
            "channel: {clutter_strength: 1e-10}\n"
            "processing: {clutter_window: off}\n"
            "physiology: {drift: 1e-3}\n")
        assert scenario.radar.element_count == 5
        assert scenario.channel.clutter_strength == 1e-10
        assert scenario.processing.clutter_window is None
        assert scenario.physio.drift == 1e-3


class TestTraceFile:
    @staticmethod
    def _config(tmp_path, samples):
        trace = tmp_path / "trace.csv"
        write_trace_csv(trace, [synth_respiration(0.2, 0.02, samples / 4.0,
                                                  4.0)])
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"physiology:\n  trace_file: {trace}\n")
        return cfg

    @pytest.mark.parametrize("samples", [200, 300])
    def test_wrong_length_is_config_error(self, tmp_path, capsys, samples):
        cfg = self._config(tmp_path, samples)
        code = main(["acquire", "--config", str(cfg), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert str(samples) in err and "240" in err

    def test_missing_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text(f"physiology:\n  trace_file: {tmp_path / 'no.csv'}\n")
        code = main(["acquire", "--config", str(cfg), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        assert "no.csv" in capsys.readouterr().err

    def test_matching_length_runs(self, tmp_path):
        cfg = self._config(tmp_path, 240)
        out = tmp_path / "run"
        assert main(["acquire", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "ris_displacement.csv").read_text()
                   .splitlines()) == 241

    def test_matching_length_loop_runs(self, tmp_path):
        # the position probe covers the first 64 pulses of the loaded trace
        cfg = self._config(tmp_path, 240)
        out = tmp_path / "run"
        assert main(["loop", "--config", str(cfg), "--windows", "2",
                     "--out", str(out)]) == 0
        assert len((out / "loop.jsonl").read_text().splitlines()) == 2

    def test_side_column_not_read(self, tmp_path):
        # a nan in the unused side column changes nothing in the run
        front = synth_respiration(0.2, 0.02, 60.0, 4.0)
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("physiology: {trace_file: trace.csv}\n")
        outputs = []
        for name, bad in (("finite", 0.5), ("nan", np.nan)):
            side = np.zeros_like(front)
            side[100] = bad
            write_trace_csv(tmp_path / "trace.csv", [front, side])
            out = tmp_path / name
            assert main(["acquire", "--config", str(cfg),
                         "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert len(outputs[0]) == 8
        assert outputs[0] == outputs[1]

    def test_relative_path_follows_config_file(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        write_trace_csv(cfg_dir / "trace.csv",
                        [synth_respiration(0.2, 0.02, 60.0, 4.0)])
        (cfg_dir / "scenario.yaml").write_text(
            "physiology:\n  trace_file: trace.csv\n")
        monkeypatch.chdir(tmp_path)
        assert main(["acquire", "--config", "cfg/scenario.yaml",
                     "--out", "run"]) == 0
        assert (tmp_path / "run" / "ris_displacement.csv").exists()
        # a parsed dict has no file to be relative to: the working directory
        doc = {"physiology": {"trace_file": "trace.csv"}}
        with pytest.raises(ConfigError, match="trace.csv"):
            parse_config(doc)
        monkeypatch.chdir(cfg_dir)
        assert parse_config(doc)[0].physio.trace_file == "trace.csv"

    def test_hash_follows_the_trace_not_its_path(self, tmp_path):
        cfg = tmp_path / "scenario.yaml"
        cfg.write_text("physiology: {trace_file: trace.csv}\n")
        hashes = []
        for rate in (0.2, 0.25):
            write_trace_csv(tmp_path / "trace.csv",
                            [synth_respiration(rate, 0.02, 60.0, 4.0)])
            hashes.append(config_hash(*load_config(cfg)))
        assert hashes[0] != hashes[1]

    def test_hash_ignores_how_the_config_is_named(self, tmp_path,
                                                   monkeypatch):
        (tmp_path / "tc").mkdir()
        write_trace_csv(tmp_path / "tc" / "trace.csv",
                        [synth_respiration(0.2, 0.02, 60.0, 4.0)])
        (tmp_path / "tc" / "c.yaml").write_text(
            "physiology: {trace_file: trace.csv}\n")
        monkeypatch.chdir(tmp_path)
        relative, absolute = (load_config(path) for path in
                              ("tc/c.yaml", tmp_path / "tc" / "c.yaml"))
        assert relative[0].physio.trace_file \
            != absolute[0].physio.trace_file
        assert config_hash(*relative) == config_hash(*absolute)


class TestGoldenHash:
    """Any change to the serialized form, or to the defaults, is deliberate."""

    @pytest.mark.parametrize("path", ["scenario.example.yaml",
                                      "bench/scenario.yaml"])
    def test_example_files_hash_to_defaults(self, path):
        assert config_hash(*load_config(ROOT / path)) == "9c980917a0464811"

    def test_empty_document(self):
        assert config_hash(*parse_config({})) == "9c980917a0464811"

    def test_clutter_filter_off(self):
        doc = {"processing": {"clutter_window": "off"}}
        assert config_hash(*parse_config(doc)) == "1922f201b67e5174"


# Every drawn value is valid for its field: numbers lie in (0, 1], which
# holds ris_share and gain_exponent; a sweep grid holds one to five
# shares in [0, 1]; the array has at least two elements and every size
# is at least one; the tone, the breathing rate, the band edges and the
# radar's element spacing are drawn as fractions of half the fast-time
# and slow-time sample rates and of half the wavelength, then scaled to
# SI; each
# position has its own z range, so no two points coincide, and none
# meets a default point (all at z = 1 m); a document is kept only if the
# array can steer its two paths apart (see _steerable). A duration of at
# least 61 s holds at least 61 pulses at any drawn interval (at most
# 1 s), so every drawn clutter window fits the window. trace_file names
# a file and is covered by TestTraceFile instead.
_UNIT = {"frequency": "Hz", "time": "ms", "length": "cm", "power": "dBm",
         "db": "dB"}
_NUMBER = st.floats(0.01, 1.0)
_UNIT_NORMALS = st.sampled_from([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
                                 [0.0, 0.0, 1.0]])


def _point(z_low):
    return st.tuples(st.floats(-5, 5), st.floats(-5, 5),
                     st.floats(z_low, z_low + 0.5)).map(list)


def _table(rows):
    angles = sorted(a for a, _ in rows)
    gains = sorted((g for _, g in rows), reverse=True)
    return [[a, g] for a, g in zip(angles, gains)]


_BY_KEY = {
    "element_count": st.integers(2, 64),
    "kind": st.sampled_from(STRATEGY_KINDS),
    "initial_path": st.sampled_from(["direct", "ris"]),
    "duration": st.one_of(st.floats(61.0, 120.0),
                          st.floats(61.0, 120.0).map(lambda v: f"{v!r} s")),
    "radar": _point(1.5), "ris_center": _point(2.5), "target": _point(3.5),
    "ris_normal": _UNIT_NORMALS,
    "chest_normal": st.one_of(st.just("auto"), _UNIT_NORMALS),
    "tone_frequency": st.floats(0.01, 0.99),
    "breathing_rate": st.floats(0.01, 0.99),
    "radar.element_spacing": st.floats(0.01, 0.99),
}
_BY_KIND = {
    **{kind: st.one_of(_NUMBER, _NUMBER.map(lambda v, u=unit: f"{v!r} {u}"))
       for kind, unit in _UNIT.items()},
    "number": _NUMBER,
    "count": st.integers(0, 64),
    "size": st.integers(1, 64),
    "flag": st.booleans(),
    "window": st.one_of(st.sampled_from([None, "off", False]),
                        st.integers(1, 30).map(lambda n: 2 * n + 1)),
    "band": st.lists(_NUMBER, min_size=2, max_size=2, unique=True).map(sorted),
    "table": st.lists(st.tuples(st.floats(0, 90), _NUMBER),
                      max_size=4).map(_table),
    "shares": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
}


def _section(name, rows):
    return st.fixed_dictionaries({}, optional={
        key: _BY_KEY.get(f"{name}.{key}", _BY_KEY.get(key, _BY_KIND.get(kind)))
        for key, _, kind in rows
        if key != "trace_file"})


def _radar_value(radar, key, kind):
    return (parse_quantity(radar[key], kind) if key in radar
            else getattr(RadarConfig(), key))


def _scaled(doc):
    """Scale the drawn tone, breathing-rate, band and element-spacing
    fractions to values below half the fast-time and slow-time sample
    rates and half the wavelength."""
    radar, physio = dict(doc.get("radar", {})), doc.get("physiology", {})
    processing = doc.get("processing", {})
    if "tone_frequency" in radar:
        fast_rate = (radar.get("fast_time_samples",
                               RadarConfig().fast_time_samples)
                     * _radar_value(radar, "bandwidth", "frequency"))
        radar["tone_frequency"] *= fast_rate / 2
    if "element_spacing" in radar:
        radar["element_spacing"] *= SPEED_OF_LIGHT / 2 / _radar_value(
            radar, "carrier_frequency", "frequency")
    if "radar" in doc:
        doc["radar"] = radar
    nyquist = 0.5 / _radar_value(radar, "pulse_repetition_interval", "time")
    if "breathing_rate" in physio:
        doc["physiology"] = physio | {
            "breathing_rate": physio["breathing_rate"] * nyquist}
    if "band" in processing:
        doc["processing"] = processing | {
            "band": [edge * nyquist for edge in processing["band"]]}
    return doc


def _steerable(doc):
    """The radar sees the target and the RIS off its vertical, at steering
    phase steps more than a thousandth of a turn apart, modulo whole
    turns, so the receive weights can tell the two paths apart."""
    radar, placement = doc.get("radar", {}), doc.get("placement", {})
    base = default_placement()
    sines = []
    for key, default in (("target", base.target_position),
                         ("ris_center", base.ris_center)):
        dx, dy = np.subtract(placement.get(key, default),
                             placement.get("radar", base.radar_position))[:2]
        if dx == 0.0 and dy == 0.0:
            return False
        sines.append(dy / np.hypot(dx, dy))
    wavelength = SPEED_OF_LIGHT / _radar_value(radar, "carrier_frequency",
                                               "frequency")
    turns = (radar.get("element_spacing", wavelength / 2) / wavelength
             * (sines[0] - sines[1]))
    return abs(turns - round(turns)) > 1e-3


_DOCUMENTS = st.fixed_dictionaries({}, optional={
    name: _section(name, rows) for name, (_, _, rows)
    in (SCHEMA | {"sweep": (None, None, SWEEP_ROWS)}).items()}
).map(_scaled).filter(_steerable)


class TestSchema:
    def test_every_dataclass_field_has_one_row(self):
        for _, make, rows in SCHEMA.values():
            names = [field for _, field, _ in rows]
            assert sorted(names) == sorted(
                f.name for f in dataclasses.fields(make()))

    @settings(max_examples=200, deadline=None)
    @given(doc=_DOCUMENTS)
    def test_parse_serialize_parse(self, doc):
        first = parse_config(doc)
        serialized = serialize_config(*first)
        for again in (parse_config(serialized),
                      load_config_text(yaml.safe_dump(serialized))):
            assert again == first
            assert config_hash(*again) == config_hash(*first)
