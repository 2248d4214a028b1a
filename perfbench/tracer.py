"""Per-layer tracing of loqsim, installed from outside the package.

Public functions are replaced by timing wrappers in every loqsim module
that bound them at import (``from .interferometer import apply`` makes a
second binding in ``runner`` and ``heralded``), and methods are replaced
on their class.  Each call becomes a span (name, start, end, parent) kept
in memory; self time is a span's duration minus its children's.  The
permanent, called tens of thousands of times per large evolution, gets a
count-and-accumulate wrapper instead of a span per call.

Work done inside the tracer's own hooks (norms, sector sizes) is charged
to no layer: it is added to the enclosing span's child time.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("loqsim.dsl", "parse", "dsl.parse"),
    ("loqsim.runner", "run", "runner.run"),
    ("loqsim.runner", "hom_report", "runner.run"),
    ("loqsim.runner", "cnot_herald_report", "runner.run"),
    ("loqsim.runner", "teleport_cnot_report", "runner.run"),
    ("loqsim.runner", "cluster_demo_report", "runner.run"),
    ("loqsim.runner", "format_report", "runner.format"),
    ("loqsim.interferometer", "compose", "interferometer.compose"),
    ("loqsim.interferometer", "apply", "interferometer.apply"),
    ("loqsim.detection", "herald", "detection.herald"),
    ("loqsim.detection", "measure_all", "detection.measure_all"),
    ("loqsim.detection", "derive_rng", "detection.derive_rng"),
    ("loqsim.encoding", "decode", "encoding.decode"),
    ("loqsim.encoding", "LogicalState.apply", "encoding.logical_apply"),
    ("loqsim.heralded", "run_heralded", "heralded.run_heralded"),
    ("loqsim.heralded", "run_photonic", "heralded.run_photonic"),
    ("loqsim.heralded", "conditional_logical_map", "heralded.conditional_map"),
    ("loqsim.teleport", "teleported_cnot", "teleport.teleported_cnot"),
    ("loqsim.teleport", "bell_measure_ideal", "teleport.bell_measure"),
    ("loqsim.teleport", "_cnot_resource", "teleport.cnot_resource"),
    ("loqsim.cluster", "initial_cluster_state", "cluster.build"),
    ("loqsim.cluster", "build_cluster", "cluster.build"),
    ("loqsim.cluster", "run_pattern", "cluster.run_pattern"),
    ("loqsim.cluster", "measure_node", "cluster.measure_node"),
)

# spans whose self time and call count are reported, named as their metrics
SPANS = ("cli.main",) + tuple(dict.fromkeys(name for _m, _a, name in TARGETS))

PERMANENT_SIZES = range(2, 9)


def _sector_amplitudes(state) -> int:
    """Amplitudes in the photon-number sectors a state occupies."""
    m = state.mode_count
    return sum(math.comb(n + m - 1, n) for n in {sum(o) for o in state.terms})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [case, name, start, end, parent, child_s]
        self.stack: list[int] = []
        self.case = -1
        self.perm_calls: Counter = Counter()
        self.perm_s = 0.0
        self.amplitudes_out = 0
        self.norm_drift_max = 0.0
        self.herald_kept = 0
        self.herald_evaluated = 0
        self.attempts = 0
        self.max_active_nodes = 0
        self.amp_bytes_touched = 0

    # -- wrappers ---------------------------------------------------------

    def _charge(self, seconds: float) -> None:
        if self.stack:
            self.spans[self.stack[-1]][5] += seconds

    def wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if before is not None:
                h0 = perf_counter()
                before(args)
                self._charge(perf_counter() - h0)
            parent = stack[-1] if stack else -1
            rec = [self.case, name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec[2], rec[3] = t0, t1
                if parent >= 0:
                    spans[parent][5] += t1 - t0
            if after is not None:
                h0 = perf_counter()
                after(args, result)
                self._charge(perf_counter() - h0)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_permanent(self, fn):
        calls = self.perm_calls

        def counted(matrix):
            t0 = perf_counter()
            result = fn(matrix)
            dt = perf_counter() - t0
            self.perm_s += dt
            calls[len(matrix)] += 1
            self._charge(dt)
            return result

        return counted

    # -- hooks --------------------------------------------------------------

    def _after_apply(self, args, out):
        self.amplitudes_out += out.term_count()
        drift = abs(args[1].norm_squared() - out.norm_squared())
        self.norm_drift_max = max(self.norm_drift_max, drift)

    def _after_herald(self, args, record):
        self.herald_evaluated += _sector_amplitudes(args[0])
        self.herald_kept += record.residual_state.term_count()

    def _after_teleport(self, args, result):
        self.attempts += result[1].attempts

    def _before_measure(self, args):
        width = len(args[0].nodes)
        self.max_active_nodes = max(self.max_active_nodes, width)
        self.amp_bytes_touched += 16 << width

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "interferometer.apply": (None, self._after_apply),
            "detection.herald": (None, self._after_herald),
            "teleport.teleported_cnot": (None, self._after_teleport),
            "cluster.measure_node": (self._before_measure, None),
        }
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth)))
                continue
            before, after = hooks.get(name, (None, None))
            original = getattr(module, attr)
            _rebind(original, self.wrap(name, original, before, after))
        interferometer = importlib.import_module("loqsim.interferometer")
        original = interferometer.permanent
        _rebind(original, self.wrap_permanent(original))

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for _case, name, t0, t1, _parent, child in self.spans:
            self_s[name] += (t1 - t0) - child
            calls[name] += 1
        m: dict[str, float] = {}
        for name in SPANS:
            m[f"{name}_s"] = self_s.get(name, 0.0)
            m[f"{name}_calls"] = calls.get(name, 0)
        m["interferometer.permanent_s"] = self.perm_s
        m["interferometer.permanent_calls"] = sum(self.perm_calls.values())
        for n in PERMANENT_SIZES:
            m[f"interferometer.permanent_calls.n{n}"] = self.perm_calls.get(n, 0)
        m["interferometer.amplitudes_out"] = self.amplitudes_out
        m["fock.norm_drift_max"] = self.norm_drift_max
        m["heralded.kept_amplitude_ratio"] = (
            self.herald_kept / self.herald_evaluated if self.herald_evaluated else 0.0
        )
        m["heralded.evaluated_amplitudes"] = self.herald_evaluated
        m["teleport.attempts"] = self.attempts
        m["cluster.max_active_nodes"] = self.max_active_nodes
        m["cluster.amp_bytes_touched"] = self.amp_bytes_touched
        return m

    def span_dump(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "fields": ["case", "name", "start_s", "end_s", "parent", "child_s"],
            "names": names,
            "spans": [[c, index[n], t0, t1, p, ch] for c, n, t0, t1, p, ch in self.spans],
        }


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in the loaded loqsim modules."""
    for name, module in list(sys.modules.items()):
        if name != "loqsim" and not name.startswith("loqsim."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
