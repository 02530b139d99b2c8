"""risvital benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

`--trace 0` measures the end-to-end metrics with no instrumentation:
calls run back to back until `--seconds` have passed (and at least the
workload's minimum number of calls is done). `--trace 1` runs a fixed
number of calls, derived from `--seconds`, twice: untraced and then
traced. It reports per-layer span metrics and the tracing overhead.

The last line of standard output is the result object; the line before
it records the environment and a digest of the outputs. The package is
imported from `src/` next to this directory, never from site-packages.
"""

import os

# BLAS and OpenMP size their thread pools when numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracer import PRECODER_SPAN, SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPEATS = 9
WORKLOAD_NAMES = ("sweep", "loop", "acquire")


class BenchError(RuntimeError):
    """The benchmark cannot run in this directory."""


# numpy is imported before the clock starts: its import is the bulk of a
# fresh interpreter's import time, and it is not risvital's own work.
IMPORT_PROBE = """
import sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import risvital
from risvital import cli, config, strategy
print(time.perf_counter() - t0)
"""


def import_package() -> float:
    """Import risvital from ./src; return the median import time in seconds.

    One import per process is all a process can time, so the time is the
    median over fresh interpreters that have already imported numpy; the
    benchmark process then imports the same package for its own use.
    """
    package = SRC / "risvital"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no risvital package at {package}")
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                               capture_output=True, text=True, check=True,
                               timeout=120)
        times.append(float(probe.stdout))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import risvital
    if Path(risvital.__file__).resolve().parent != package:
        raise BenchError(f"risvital imported from {risvital.__file__}, "
                         f"not from {package}")
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(wl, indices, latencies=None):
    """Run calls back to back; return (busy seconds, failed operations).

    A call that raises, or whose output check raises, fails all of its
    operations; the traceback goes to stderr and the run goes on.
    """
    busy = 0.0
    failed = 0
    for index in indices:
        t0 = time.perf_counter()
        try:
            output = wl.call(index)
        except Exception:  # noqa: BLE001 - a raising call is a failed op
            output = None
            traceback.print_exc()
        elapsed = time.perf_counter() - t0
        busy += elapsed
        if latencies is not None:
            latencies.append(elapsed / wl.ops_per_call)
        if output is None:
            failed += wl.ops_per_call
            continue
        try:
            failed += min(wl.check(index, output), wl.ops_per_call)
        except Exception:  # noqa: BLE001 - malformed output fails the call
            failed += wl.ops_per_call
            traceback.print_exc()
    return busy, failed


def timed_calls(wl, seconds: float):
    """Call indices until the deadline has passed, the minimum is done and
    the last cycle is whole."""
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < wl.min_calls or index % wl.calls_per_cycle
           or time.perf_counter() < deadline):
        yield index
        index += 1


def untraced_phase(wl, seconds: float, setup_s: float):
    latencies = []
    busy, failed = run_pass(wl, timed_calls(wl, seconds), latencies)
    attempted = len(latencies) * wl.ops_per_call
    failed = min(failed + wl.finish(), attempted)
    p50, p90 = (float(v) for v in np.percentile(latencies, [50, 90]))
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((attempted - failed) / busy, "1/s"),
        "op_ms_p50": (1e3 * p50, "ms"),
        "op_ms_p90": (1e3 * p90, "ms"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "lock_frac_ris": (wl.lock_frac(), "fraction"),
    }
    info = {"calls": len(latencies), "busy_s": busy,
            "samples_beyond_p90": sum(x > p90 for x in latencies)}
    return metrics, attempted, failed, info


def traced_phase(wl, seconds: float):
    calls = wl.trace_calls(seconds)
    plain_busy, failed = run_pass(wl, range(calls))
    windows_before = wl.windows_logged
    with Tracer() as tracer:
        traced_busy, traced_failed = run_pass(wl, range(calls))
    attempted = 2 * calls * wl.ops_per_call
    failed = min(failed + traced_failed + wl.finish(), attempted)

    metrics = {}
    for span, _, _ in SPANS:
        self_ms = tracer.self_ns(span) / 1e6
        metrics[f"{span}.calls"] = (tracer.calls[span], "count")
        metrics[f"{span}.self_ms"] = (self_ms, "ms")
        metrics[f"{span}.self_share"] = (self_ms / (1e3 * traced_busy),
                                         "fraction")
    precoder_calls = tracer.calls[PRECODER_SPAN]
    metrics["beamform.split_precoder.distinct_frac"] = (
        tracer.distinct_weights / precoder_calls if precoder_calls else 0.0,
        "fraction")
    refixes = (tracer.calls["strategy.estimate_position"]
               - tracer.calls["strategy.run_closed_loop"])
    traced_windows = wl.windows_logged - windows_before
    metrics["strategy.estimate_position.refix_frac"] = (
        refixes / traced_windows if traced_windows else 0.0, "fraction")
    metrics["strategy.estimate_position.err_deg_p50"] = (
        wl.pos_err_deg_p50(), "deg")
    metrics["trace_overhead_frac"] = (traced_busy / plain_busy - 1.0,
                                      "fraction")
    info = {"calls": calls, "traced_windows": traced_windows,
            "plain_busy_s": plain_busy,
            "traced_busy_s": traced_busy,
            "roots": len(tracer.root_ns),
            "root_s": sum(tracer.root_ns) / 1e9,
            "self_s": sum(tracer.self_ns(s) for s, _, _ in SPANS) / 1e9,
            "roots_off_balance": len(tracer.check_roots())}
    return metrics, attempted, failed, info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    """HEAD of the enclosing git checkout, read from .git without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    """sha256 over the package sources, so runs outside git stay traceable."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "risvital").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  min_calls: int | None = None):
    """Set up and run one workload; return (result, info) dictionaries."""
    import_s = import_package()
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        if min_calls is not None:
            wl.min_calls = min_calls
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            wl.warmup(repeat)
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)
        gc.collect()
        if trace:
            metrics, attempted, failed, run_info = traced_phase(wl, seconds)
        else:
            metrics, attempted, failed, run_info = untraced_phase(
                wl, seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": float(value), "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    info = {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "setup_import_s": import_s,
            "setup_repeats_s": setup_times, "run": run_info,
            "digest": wl.digest(), "env": environment()}
    return result, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result, info = run_benchmark(args.workload, args.seed, args.seconds,
                                     bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
