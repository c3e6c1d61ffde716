"""In-memory span recorder for the benchmark's traced run.

Spans are recorded around calls into the package's public functions by
replacing them at the module bindings the package itself calls through
(for example ``lmsharq.sim.generate_series``, which ``sim.run`` resolves
at call time). Functions called once per burst only get a call counter,
so the event loop's own time stays one span, ``sim.run``.

A span is ``[name, start, end, parent index or None, op id]``. Nothing
is written while the benchmark runs; the caller dumps ``spans`` at exit.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name). Every binding a workload calls through.
SPAN_BINDINGS = (
    ("lmsharq.cli", "main", "cli.main"),
    ("lmsharq.presets", "default_mi_table", "presets.default_mi_table"),
    ("lmsharq.presets", "default_code_spec", "presets.default_code_spec"),
    ("lmsharq.presets", "load_environment", "presets.load_environment"),
    ("lmsharq.presets", "load_reference_wer", "presets.load_reference_wer"),
    ("lmsharq.cli", "sweep", "sim.sweep"),
    ("lmsharq.cli", "run", "sim.run"),
    ("lmsharq.sim", "run", "sim.run"),
    ("lmsharq.sim", "calibration_cdf", "sim.calibration_cdf"),
    ("lmsharq.sim", "generate_series", "channel.generate_series"),
    ("lmsharq.sim", "build_enhanced_table", "schemes.build_enhanced_table"),
    ("lmsharq.mi", "build_mi_table", "mi.build_mi_table"),
)

# (module, attribute, counter name). Per-burst calls: counted, not timed.
COUNT_BINDINGS = (
    ("lmsharq.sim", "mi_update", "schemes.mi_update"),
    ("lmsharq.sim", "mi_needed", "schemes.mi_needed"),
    ("lmsharq.schemes", "mi_needed", "schemes.mi_needed"),
    ("lmsharq.schemes", "mi_of", "mi.mi_of"),
    ("lmsharq.fec", "mi_of", "mi.mi_of"),
    ("lmsharq.sim", "is_decodable", "fec.is_decodable"),
)

# Layer times that partition an op's wall time; the rest is unattributed.
STAGE_METRICS = (
    "sim.loop_self_s",
    "sim.calibration_cdf_s",
    "channel.generate_series_s",
    "schemes.build_enhanced_table_s",
    "metrics.from_log_s",
    "presets.load_s",
    "cli.self_s",
    "mi.build_mi_table_s",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []

    def span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, perf_counter(), None, stack[-1] if stack else None, self.op_id]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()

        return traced

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    def install(self):
        """Replace every listed binding with its traced or counting wrapper."""
        for bindings, wrap in ((SPAN_BINDINGS, self.span), (COUNT_BINDINGS, self.counted)):
            for module_name, attr, name in bindings:
                module = importlib.import_module(module_name)
                setattr(module, attr, wrap(name, getattr(module, attr)))
        run_metrics = importlib.import_module("lmsharq.metrics").RunMetrics
        run_metrics.from_log = staticmethod(self.span("metrics.from_log", run_metrics.from_log))

    def layer_metrics(self, mi_samples: int, warnings: int, overhead_ratio: float) -> dict:
        """Reduce the spans and counters to the per-layer metrics.

        Self time is a span's duration minus that of its direct children.
        ``sim.calibration_cdf_s`` includes the calibration series it
        generates; ``channel.generate_series_*`` covers the other series.
        A layer a workload never enters reads 0.
        """
        spans = self.spans
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        out = dict.fromkeys(STAGE_METRICS, 0.0)
        span_calls: Counter = Counter()
        series_calls = 0
        op_total = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans):
            took = end - start
            parent_name = spans[parent][0] if parent is not None else ""
            span_calls[name] += 1
            if name == "op":
                op_total += took
            elif name == "cli.main":
                out["cli.self_s"] += took - children[i]
            elif name == "sim.run":
                out["sim.loop_self_s"] += took - children[i]
            elif name == "sim.calibration_cdf":
                out["sim.calibration_cdf_s"] += took
            elif name == "channel.generate_series" and parent_name != "sim.calibration_cdf":
                out["channel.generate_series_s"] += took
                series_calls += 1
            elif name == "schemes.build_enhanced_table":
                out["schemes.build_enhanced_table_s"] += took
            elif name == "metrics.from_log":
                out["metrics.from_log_s"] += took
            elif name.startswith("presets.") and not parent_name.startswith("presets."):
                out["presets.load_s"] += took
            elif name == "mi.build_mi_table":
                out["mi.build_mi_table_s"] += took
        bursts = self.calls["schemes.mi_update"]
        build_s = out["mi.build_mi_table_s"]
        out.update({
            "unattributed_s": op_total - sum(out.values()),
            "sim.loop_us_per_burst": out["sim.loop_self_s"] / bursts * 1e6 if bursts else 0.0,
            "schemes.mi_update_calls": bursts,
            "schemes.mi_needed_calls": self.calls["schemes.mi_needed"],
            "mi.mi_of_calls": self.calls["mi.mi_of"],
            "fec.is_decodable_calls": self.calls["fec.is_decodable"],
            "sim.calibration_cdf_calls": span_calls["sim.calibration_cdf"],
            "channel.generate_series_calls": series_calls,
            "schemes.build_enhanced_table_calls": span_calls["schemes.build_enhanced_table"],
            "mi.samples_per_s": mi_samples / build_s if build_s > 0.0 else 0.0,
            "schemes.warnings": warnings,
            "trace_overhead_ratio": overhead_ratio,
        })
        return out
