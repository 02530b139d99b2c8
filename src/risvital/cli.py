"""Batch command-line front-end: acquire, loop, sweep, selftest.

Loads a declarative scenario config (or the built-in default profile),
runs the requested experiment, and writes CSV / JSON-lines artifacts with
a deterministic metadata sidecar per output file.

Exit codes: 0 success, 1 config error, 2 runtime error, 3 selftest failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (ConfigError, _count, _shares, config_hash, load_config,
                     parse_config)
from .strategy import (PROBE_PULSES, STRATEGY_KINDS, SWEEP_KINDS,
                       branch_slots, gamma_sweep, run_closed_loop, run_once)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_SELFTEST = 3


def _write_sidecar(path: Path, meta: dict) -> None:
    sidecar = path.with_name(path.name + ".meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header, rows, meta: dict) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    _write_sidecar(path, meta)


def _fmt(value):
    return repr(float(value)) if isinstance(value, float) else value


def _load(args):
    """Config file (or defaults) with the command-line overrides applied.

    A bad override is a config error like a bad config value: the seed and
    the counts are whole numbers >= 0, and the strategy fields pass
    StrategyConfig's checks.
    """
    for flag in ("seed", "seeds", "windows"):
        if getattr(args, flag, None) is not None:
            _count(getattr(args, flag), f"--{flag}")
    if args.config is not None:
        scenario, strategy, sweep = load_config(args.config)
    else:
        scenario, strategy, sweep = parse_config({})
    try:
        if getattr(args, "strategy", None):
            strategy = replace(strategy, kind=args.strategy)
        if getattr(args, "ris_share", None) is not None:
            strategy = replace(strategy, ris_share=args.ris_share)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario, strategy, sweep


def _meta(scenario, strategy, sweep, seed, command) -> dict:
    return {"artifact_version": __version__,
            "config_hash": config_hash(scenario, strategy, sweep),
            "seed": seed, "command": command}


def cmd_acquire(args) -> int:
    scenario, strategy, sweep = _load(args)
    length, least = scenario.slow_time_samples, scenario.min_branch_slots
    for label, slots in zip(("direct", "ris"),
                            branch_slots(strategy, length)):
        have = length if slots is None else len(slots)
        if have < least:
            raise ConfigError(f"the {label} branch gets {have} slow-time "
                              f"slots, fewer than the {least} it needs to "
                              "extract; adjust ris_share or the duration")
    _, estimates = run_once(scenario, strategy, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    meta = _meta(scenario, strategy, sweep, args.seed, "acquire")
    # a path that cannot see the chest has no estimate and writes nothing
    for label, est in sorted((k, e) for k, e in estimates.items() if e):
        disp = est.displacement
        times = np.arange(disp.size) / scenario.radar.slow_rate
        _write_csv(out / f"{label}_displacement.csv",
                   ["time_s", "displacement_m"],
                   zip(times.tolist(), disp.tolist()),
                   meta | {"path": label})
        _write_csv(out / f"{label}_spectrum.csv", ["freq_Hz", "power"],
                   zip(est.spectrum.freqs.tolist(), est.spectrum.power.tolist()),
                   meta | {"path": label, "peak_freq_Hz": est.peak_freq,
                           "prominence_db": est.peak_prominence_db})
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario, strategy, sweep = _load(args)
    gammas = sweep["gammas"] if args.gammas is None else _shares(
        [g for g in args.gammas.split(",") if g != ""], "--gammas")
    n_seeds = args.seeds if args.seeds is not None else sweep["seeds"]
    kind = strategy.kind if strategy.kind in SWEEP_KINDS else "spatial"
    rows = gamma_sweep(scenario, kind, gammas, range(n_seeds))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv",
               ["gamma", "path", "seed", "peak_freq_Hz", "prominence_db"],
               ([r["gamma"], r["path"], r["seed"], r["peak_freq_Hz"],
                 r["prominence_db"]] for r in rows),
               _meta(scenario, strategy, sweep, None, "sweep")
               | {"kind": kind, "gammas": gammas, "seeds": n_seeds})
    return EXIT_OK


def cmd_loop(args) -> int:
    scenario, strategy, sweep = _load(args)
    probe = min(PROBE_PULSES, scenario.slow_time_samples)
    if args.windows >= 1 and probe < scenario.radar.element_count:
        raise ConfigError(f"the position probe gets {probe} pulses, fewer "
                          f"than the {scenario.radar.element_count} array "
                          "elements root-MUSIC needs; lengthen the duration")
    logs = run_closed_loop(scenario, strategy, args.windows, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "loop.jsonl"
    with path.open("w") as fh:
        for entry in logs:
            fh.write(json.dumps(entry.to_json_dict(), sort_keys=True) + "\n")
    _write_sidecar(path, _meta(scenario, strategy, sweep, args.seed, "loop")
                   | {"windows": args.windows})
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import acceptance
    results = acceptance.run_all(stream=sys.stdout)
    failed = [r for r in results if not r.passed]
    total = sum(r.runtime_s for r in results)
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed "
          f"in {total:.1f} s")
    return EXIT_SELFTEST if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risvital",
        description="RIS-assisted radar vital-sign monitoring simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario YAML (defaults built in)")
        p.add_argument("--out", required=True, help="output directory")

    p_acq = sub.add_parser("acquire", help="run one acquisition, write "
                                           "displacement and spectrum CSVs")
    common(p_acq)
    p_acq.add_argument("--seed", type=int, default=0)
    p_acq.add_argument("--strategy", choices=STRATEGY_KINDS)
    p_acq.add_argument("--ris-share", type=float, dest="ris_share")
    p_acq.set_defaults(func=cmd_acquire)

    p_sweep = sub.add_parser("sweep", help="sweep the RIS resource share")
    common(p_sweep)
    p_sweep.add_argument("--gammas", help="comma-separated share grid")
    p_sweep.add_argument("--seeds", type=int, help="number of seeds")
    p_sweep.add_argument("--strategy", choices=SWEEP_KINDS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_loop = sub.add_parser("loop", help="run the closed sensing loop")
    common(p_loop)
    p_loop.add_argument("--windows", type=int, default=5)
    p_loop.add_argument("--seed", type=int, default=0)
    p_loop.add_argument("--strategy", choices=STRATEGY_KINDS)
    p_loop.add_argument("--ris-share", type=float, dest="ris_share")
    p_loop.set_defaults(func=cmd_loop)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
