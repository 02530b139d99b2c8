"""Smoke test of the benchmark harness itself, at tiny sizes (~1 min).

    python3 bench/smoke.py

For every workload it checks that the untraced run emits exactly the
end-to-end metrics named in BENCHMARK.json, and the traced run exactly
the per-layer ones, each with its declared unit and with every output
check passing. In the traced runs it checks that self times add up to
each root span's duration, that the root spans cover the time the
harness measured around its calls, and that span counts repeat between
two runs of one seed. Finally it runs the command line once.
Exits with status 1 and a list of failures if any check fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import run  # pins the BLAS thread count before numpy is imported

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402 - needs risvital from src/ on the path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_result(result: dict, want: dict, label: str, failures: list):
    if set(result) != RESULT_KEYS:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        failures.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        failures.append(
            f"{label}: missing {sorted(want.keys() - got.keys())}, "
            f"extra {sorted(got.keys() - want.keys())}, wrong unit "
            f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    bad = [name for name, m in result["metrics"].items()
           if not math.isfinite(m["value"])]
    if bad:
        failures.append(f"{label}: non-finite values {bad}")


def check_trace(info: dict, label: str, failures: list):
    run_info = info["run"]
    if run_info["roots_off_balance"]:
        failures.append(f"{label}: {run_info['roots_off_balance']} root spans "
                        f"whose self times do not sum to their duration")
    if abs(run_info["self_s"] - run_info["root_s"]) > 1e-6:
        failures.append(f"{label}: self times {run_info['self_s']} s != "
                        f"root spans {run_info['root_s']} s")
    busy = run_info["traced_busy_s"]
    if not 0 <= busy - run_info["root_s"] <= 0.01 * busy + 1e-3:
        failures.append(f"{label}: root spans {run_info['root_s']} s do not "
                        f"cover the measured {busy} s")


def in_process(failures: list):
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for workload in run.WORKLOAD_NAMES:
        result, _ = run.run_benchmark(workload, SEED, 0.1, trace=False,
                                      min_calls=3)
        check_result(result, end_to_end, f"{workload} untraced", failures)
        counts = []
        for attempt in range(2):
            result, info = run.run_benchmark(workload, SEED, 0.1, trace=True)
            label = f"{workload} traced #{attempt}"
            check_result(result, per_layer, label, failures)
            check_trace(info, label, failures)
            counts.append({k: m["value"] for k, m in result["metrics"].items()
                           if k.endswith(".calls")})
        if counts[0] != counts[1]:
            failures.append(f"{workload}: span counts differ between runs")
        if workload == "sweep":
            sweep = workloads.Sweep
            # whole cycles: half the calls are temporal, half spatial
            runs = info["run"]["calls"] // len(sweep.kinds) * sweep.seeds_per_call
            want = runs * (242 + 3)  # per temporal run + per spatial run
            got = counts[0]["beamform.split_precoder.calls"]
            if got != want:
                failures.append(f"sweep: split_precoder.calls {got} != {want}")
        if workload == "loop":
            windows = info["run"]["calls"] * workloads.Loop.windows
            refixes = (counts[0]["strategy.estimate_position.calls"]
                       - counts[0]["strategy.run_closed_loop.calls"])
            got = result["metrics"]["strategy.estimate_position.refix_frac"]
            if info["run"]["traced_windows"] != windows or \
                    abs(got["value"] - refixes / windows) > 1e-12:
                failures.append(f"loop: refix_frac {got['value']} != "
                                f"{refixes} refixes / {windows} windows")


def command_line(failures: list):
    cmd = [sys.executable, "bench/run.py", "--workload", "acquire",
           "--seed", str(SEED), "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        failures.append(f"command exited {proc.returncode}: {proc.stderr}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check_result(result, declared("end_to_end"), "command", failures)


def main() -> int:
    failures = []
    in_process(failures)
    command_line(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
