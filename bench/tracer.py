"""Per-layer spans, recorded from the benchmark's side of each call.

While a traced compile runs, each layer's function is replaced at the
module attribute where the compile pipeline looks it up, so the real
``melodify.cli.main`` path runs and only those lookups are redirected.
A timing tracer records spans (id, layer, start, end, parent id,
compile id) in memory; a separate memory tracer records each layer's
tracemalloc peak, so tracemalloc never slows the timed calls.

Building a tracer fails loudly when a wrapped attribute is gone, and
``require_calls`` fails when a layer the workload exercises recorded
no call: a refactor that moves a lookup must move the benchmark too,
not silently zero a layer.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from pathlib import Path

# (layer metric prefix, module the pipeline looks the function up in, attribute)
LAYERS = (
    ("ingest.parse_table", "melodify.cli", "parse_table"),
    ("ingest.validate_binding", "melodify.melodifier", "validate_binding"),
    ("melodifier.derive_character", "melodify.melodifier", "derive_character"),
    ("melodifier.melodify", "melodify.cli", "melodify"),
    ("stats.segment_trends", "melodify.melodifier", "segment_trends"),
    ("stats.compute_variance", "melodify.melodifier", "compute_variance"),
    ("stats.proportions", "melodify.melodifier", "proportions"),
    ("theory.quantize_pitch", "melodify.melodifier", "quantize_pitch"),
    ("score.expand_loops", "melodify.cli", "expand_loops"),
    ("score.structural_errors", "melodify.smf", "structural_errors"),
    ("score.total_duration_ticks", "melodify.cli", "total_duration_ticks"),
    ("smf.write_smf", "melodify.cli", "write_smf"),
    ("smf.write_text_score", "melodify.cli", "write_text_score"),
)
MAIN = ("cli.main", "melodify.cli", "main")
ALL_LAYERS = (MAIN[0],) + tuple(layer for layer, _, _ in LAYERS)

# Layers that allocate in proportion to their input; peaks include children.
PEAK_LAYERS = (
    "cli.main",
    "ingest.parse_table",
    "melodifier.melodify",
    "stats.segment_trends",
    "score.expand_loops",
    "score.structural_errors",
    "smf.write_smf",
    "smf.write_text_score",
)

# Work counts: metric name -> (layer, unit, count from (args, result)).
WORK = {
    "ingest.parse_table.rows": (
        "ingest.parse_table", "rows/compile", lambda args, out: out.row_count),
    "score.expand_loops.events_out": (
        "score.expand_loops", "events/compile", lambda args, out: len(out.events)),
    "smf.write_smf.events_in": (
        "smf.write_smf", "events/compile", lambda args, out: len(args[0].events)),
    "smf.write_smf.bytes_out": (
        "smf.write_smf", "bytes/compile", lambda args, out: len(out)),
}

# Layers every compile path runs, and those only some workloads reach.
_ALWAYS = (
    "cli.main", "ingest.parse_table", "ingest.validate_binding",
    "melodifier.derive_character", "melodifier.melodify", "stats.compute_variance",
    "score.expand_loops", "score.structural_errors", "score.total_duration_ticks",
    "smf.write_smf", "smf.write_text_score",
)
EXPECTED = {
    "small-mixed": ALL_LAYERS,
    "line-long": _ALWAYS + ("stats.segment_trends",),
    "bar-wide": _ALWAYS + ("theory.quantize_pitch",),
    "pie-loop": _ALWAYS + ("stats.proportions", "theory.quantize_pitch"),
}


class TraceError(RuntimeError):
    """The traced run cannot measure a layer it must measure."""


class Tracer:
    """Wrappers for every layer, timing or (``memory``) tracemalloc ones."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.compile_id = 0
        self.calls = dict.fromkeys(ALL_LAYERS, 0)
        self.errors = dict.fromkeys(ALL_LAYERS, 0)
        self.self_s = dict.fromkeys(ALL_LAYERS, 0.0)
        self.peak_bytes = dict.fromkeys(ALL_LAYERS, 0)
        self.work = dict.fromkeys(WORK, 0)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches = []
        for layer, module_name, attr in LAYERS + (MAIN,):
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                raise TraceError(
                    f"{module_name}.{attr} is missing: layer {layer} cannot be traced")
            wrapped = self._wrap(layer, original)
            if layer == MAIN[0]:
                self.main = wrapped
            else:
                self._patches.append((module, attr, original, wrapped))

    @contextlib.contextmanager
    def installed(self):
        """Redirect every layer lookup to its wrapper; call ``self.main``
        inside to run a traced compile."""
        try:
            for module, attr, _, wrapped in self._patches:
                setattr(module, attr, wrapped)
            if self.memory:
                tracemalloc.start()
            yield self.main
        finally:
            if self.memory:
                tracemalloc.stop()
            for module, attr, original, _ in reversed(self._patches):
                setattr(module, attr, original)

    def _wrap(self, layer: str, fn):
        work = [(name, count) for name, (owner, _, count) in WORK.items() if owner == layer]
        enter, leave = (self._enter_mem, self._leave_mem) if self.memory else (
            self._enter_time, self._leave_time)

        def traced(*args, **kwargs):
            frame = enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(layer, frame)
                self.errors[layer] += 1
                raise
            leave(layer, frame)
            for name, count in work:
                self.work[name] += count(args, result)
            return result

        return traced

    def _enter_time(self) -> list:
        parent = self._stack[-1][0] if self._stack else None
        self._next_id += 1
        frame = [self._next_id, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _leave_time(self, layer: str, frame: list) -> None:
        end = time.perf_counter()
        span_id, parent, child_s, start = frame
        self._stack.pop()
        self.calls[layer] += 1
        self.self_s[layer] += (end - start) - child_s
        if self._stack:
            self._stack[-1][2] += end - start
        self.spans.append((span_id, layer, start, end, parent, self.compile_id))

    def _enter_mem(self) -> list:
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]  # level at entry, highest level seen so far
        self._stack.append(frame)
        return frame

    def _leave_mem(self, layer: str, frame: list) -> None:
        peak = max(frame[1], tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        self.calls[layer] += 1
        self.peak_bytes[layer] = max(self.peak_bytes[layer], peak - frame[0])
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)

    def require_calls(self, workload: str) -> None:
        silent = [layer for layer in EXPECTED[workload] if self.calls[layer] == 0]
        if silent:
            raise TraceError(f"{workload}: no calls recorded for {', '.join(silent)}")

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "layer", "start", "end", "parent", "compile"]
        with path.open("w", encoding="utf-8") as out:
            json.dump({"fields": fields, "spans": self.spans}, out)


def layer_metrics(timing: Tracer, compiles: int, memory: Tracer) -> dict:
    """Per-layer metrics, per compile of the timing pass, with units."""
    metrics = {}
    for layer in ALL_LAYERS:
        metrics[f"{layer}.calls"] = (timing.calls[layer] / compiles, "calls/compile")
        metrics[f"{layer}.self_s"] = (timing.self_s[layer] / compiles, "s/compile")
        metrics[f"{layer}.errors"] = (timing.errors[layer] / compiles, "errors/compile")
        if layer in PEAK_LAYERS:
            metrics[f"{layer}.peak_mb"] = (memory.peak_bytes[layer] / 2**20, "MB")
    for name, (_, unit, _) in WORK.items():
        metrics[name] = (timing.work[name] / compiles, unit)
    return metrics
