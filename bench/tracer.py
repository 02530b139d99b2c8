"""Span tracer that times calls into risvital's public functions.

The tracer wraps each listed function and rebinds the wrapper under every
name that refers to the original in the loaded ``risvital`` modules, so
calls made through ``from .x import f`` bindings are timed as well.
Methods are rebound on their class. Everything is restored on exit; the
package source is never touched.

Spans are aggregated in memory as they close: per span name the call
count, the summed duration and the summed duration of direct child
spans. Self time is duration minus child time. A span with no traced
parent is a root; the summed root durations equal the summed self times
of all spans, which ``check_roots`` asserts per root.
"""

import sys
from time import perf_counter_ns

# (span name, module, attribute path inside the module)
SPANS = (
    ("strategy.gamma_sweep", "strategy", "gamma_sweep"),
    ("strategy.run_closed_loop", "strategy", "run_closed_loop"),
    ("strategy.run_once", "strategy", "run_once"),
    ("strategy.plan_transmissions", "strategy", "plan_transmissions"),
    ("strategy.evaluate_and_update", "strategy", "evaluate_and_update"),
    ("strategy.estimate_position", "strategy", "estimate_position"),
    ("beamform.split_precoder", "beamform", "split_precoder"),
    ("beamform.temporal_weights", "beamform", "temporal_weights"),
    ("scenario.simulate_acquisition", "scenario", "simulate_acquisition"),
    ("scenario.extract_vital_signs", "scenario", "extract_vital_signs"),
    ("scenario.ris_config", "scenario", "Scenario.ris_config"),
    ("scenario.base_trace", "scenario", "Scenario.base_trace"),
    ("geometry.angles_from_placement", "geometry", "angles_from_placement"),
    ("geometry.ula_steering", "geometry", "ula_steering"),
    ("channel.realize_channel", "channel", "realize_channel"),
    ("physio.rcs_series", "physio", "rcs_series"),
    ("sigproc.clutter_filter", "sigproc", "clutter_filter"),
    ("sigproc.separate_paths", "sigproc", "separate_paths"),
    ("sigproc.phase_demodulate", "sigproc", "phase_demodulate"),
    ("sigproc.power_spectrum", "sigproc", "power_spectrum"),
    ("sigproc.peak_quality", "sigproc", "peak_quality"),
    ("sigproc.root_music_doa", "sigproc", "root_music_doa"),
    ("config.load_config", "config", "load_config"),
    ("config.config_hash", "config", "config_hash"),
    ("cli.main", "cli", "main"),
)

# Spans that open a scope for counting distinct precoder weight vectors:
# one acquisition (or position probe) is the unit the ratio is taken over.
SCOPE_SPANS = frozenset({"strategy.run_once", "strategy.estimate_position"})
PRECODER_SPAN = "beamform.split_precoder"
PACKAGE = "risvital"


class Tracer:
    """Context manager that rebinds SPANS to timing wrappers while active."""

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in SPANS}
        self.total_ns = dict.fromkeys(self.calls, 0)
        self.child_ns = dict.fromkeys(self.calls, 0)
        self.root_ns = []          # duration of each root span, in order
        self.root_self_ns = []     # summed self time inside each root
        self.distinct_weights = 0  # distinct split_precoder outputs per scope
        self._stack = []           # [child_ns] per open span
        self._scopes = []          # sets of weight bytes per open scope
        self._self_acc = 0
        self._saved = []

    # -- rebinding -------------------------------------------------------
    def __enter__(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for span, mod_name, attr in SPANS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            owner_path, _, leaf = attr.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[leaf]
                self._rebind(owner, leaf, original, span)
                continue
            original = getattr(module, leaf)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, key, original, span)
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()
        return False

    def _rebind(self, owner, key, original, span):
        self._saved.append((owner, key, original))
        setattr(owner, key, self._wrap(span, original))

    # -- span bookkeeping ------------------------------------------------
    def _wrap(self, span, fn):
        stack = self._stack
        scopes = self._scopes
        opens_scope = span in SCOPE_SPANS
        is_precoder = span == PRECODER_SPAN

        def traced(*args, **kwargs):
            is_root = not stack
            if is_root:
                self_before = self._self_acc
            if is_root or opens_scope:
                scopes.append(set())
            frame = [0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if is_precoder:
                    scopes[-1].add(result.weights.tobytes())
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                self.calls[span] += 1
                self.total_ns[span] += duration
                self.child_ns[span] += frame[0]
                self._self_acc += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if is_root or opens_scope:
                    self.distinct_weights += len(scopes.pop())
                if is_root:
                    self.root_ns.append(duration)
                    self.root_self_ns.append(self._self_acc - self_before)
            return result

        return traced

    # -- results ---------------------------------------------------------
    def self_ns(self, span: str) -> int:
        return self.total_ns[span] - self.child_ns[span]

    def check_roots(self, tolerance_ns: int = 1000) -> list:
        """Roots whose self times (own plus all descendants) miss their duration."""
        return [i for i, (dur, acc) in enumerate(zip(self.root_ns,
                                                     self.root_self_ns))
                if abs(dur - acc) > tolerance_ns]
