"""Outside-in tracing of forge's layers.

The tracer wraps forge's public functions from the outside: each target
is replaced in its defining module and at every ``from ... import``
binding that points at the same object, and methods are replaced on their
classes. Nothing inside ``src/forge`` changes. Spans (name, start, end,
parent, run id) stay in memory and are written once, at the end, to a
path outside the run directory. Counters record work done at the same
boundaries (bytes read and staged, texts embedded, score attempts).
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Hook = Callable[["Tracer", tuple, dict, Any], None]


class Tracer:
    """Span recorder plus counters for one traced operation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # One list per span: [name, start, end, parent index or -1].
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.embedded: set = set()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------

    def traced(self, fn: Callable, name: str, after: Optional[Hook] = None) -> Callable:
        """``fn`` wrapped in a span called ``name``; ``after`` sees the result."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def patch_function(self, module: str, attr: str, replacement: Callable) -> None:
        """Rebind ``module.attr`` wherever a forge module holds that object."""
        original = getattr(sys.modules[module], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "forge" or mod_name.startswith("forge.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, replacement)

    def patch_method(self, cls: type, attr: str, replacement: Callable) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        """Wrap every traced forge boundary. Call after importing forge."""
        import forge.pipeline as pipeline
        from forge.protocol import EventStream
        from forge.providers import ScriptedEmbedder

        for module, attr, name, after in FUNCTION_TARGETS:
            fn = getattr(sys.modules[module], attr)
            self.patch_function(module, attr, self.traced(fn, name, after))

        factory = pipeline._prediction_validator

        def traced_factory(truth):
            return self.traced(factory(truth), "execution.validator")

        self.patch_function("forge.pipeline", "_prediction_validator", traced_factory)

        self.patch_method(pipeline.RecordingChatProvider, "complete", self.traced(
            pipeline.RecordingChatProvider.complete, "providers.complete"))
        self.patch_method(ScriptedEmbedder, "embed", self.traced(
            ScriptedEmbedder.embed, "providers.embed", _count_embedded))
        self.patch_method(EventStream, "append", self.traced(
            EventStream.append, "protocol.EventStream.append"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": None if parent < 0 else parent, "run": self.run_id,
                }) + "\n")

    def layer_metrics(self) -> Dict[str, float]:
        out = span_metrics(self.spans)
        out.update(self.counters)
        out["providers.embed.unique_texts"] = float(len(self.embedded))
        sandbox_s = out.get("execution.run_sandbox.s", 0.0)
        out["execution.run_sandbox.stage_s"] = (
            sandbox_s - out.get("execution.run_sandbox.child_s", 0.0))
        revisions = out.get("execution.revisions", 0.0)
        out["execution.success_ratio"] = (
            out.get("execution.successes", 0.0) / revisions if revisions else 0.0)
        return out


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_metrics(spans: Sequence[Sequence]) -> Dict[str, float]:
    """``<name>.calls``, ``.s`` (inclusive) and ``.self_s`` per span name.

    Self time is a span's duration minus the part of it that its direct
    children cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".s"] += end - start
        out[name + ".self_s"] += (end - start) - covered(children.get(i, ()), start, end)
    return dict(out)


def median_metrics(samples: Sequence[Dict[str, float]]) -> Dict[str, float]:
    names = sorted({k for s in samples for k in s})
    return {k: statistics.median(s.get(k, 0.0) for s in samples) for k in names}


# ----------------------------------------------------------------------
# Counters recorded after a traced call returns
# ----------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_file_bytes(key: str) -> Hook:
    def hook(tracer, args, kwargs, result):
        tracer.counters[key] += os.path.getsize(args[0])
    return hook


def _count_layers(tracer, args, kwargs, result):
    tracer.counters["retrieval.layers"] += len(result.trace.layers)


def _count_rounds(tracer, args, kwargs, result):
    tracer.counters["consensus.rounds"] += result[1].rounds_used


def _count_attempts(tracer, args, kwargs, result):
    tracer.counters["consensus.score_attempts"] += result[1]


def _count_embedded(tracer, args, kwargs, result):
    texts = _arg(args, kwargs, 1, "texts")
    tracer.counters["providers.embed.texts"] += len(texts)
    tracer.embedded.update(texts)


def _count_store_files(tracer, args, kwargs, result):
    directory = _arg(args, kwargs, 1, "directory")
    entities = os.path.join(directory, "entities")
    tracer.counters["protocol.save_store.files"] += len(os.listdir(entities)) + 1


def _count_sandbox(tracer, args, kwargs, result):
    artifact = _arg(args, kwargs, 0, "artifact")
    inputs = _arg(args, kwargs, 2, "inputs") or {}
    staged = sum(len(text.encode("utf-8")) for text in artifact.files.values())
    for source in inputs.values():
        if isinstance(source, bytes):
            staged += len(source)
        elif os.path.isfile(source):
            staged += os.path.getsize(source)
    tracer.counters["execution.run_sandbox.bytes_staged"] += staged
    tracer.counters["execution.run_sandbox.child_s"] += result.wall_time


def _count_revisions(tracer, args, kwargs, result):
    revisions = result[2].revisions
    tracer.counters["execution.revisions"] += len(revisions)
    tracer.counters["execution.successes"] += sum(1 for r in revisions if r.failure is None)


# (module, attribute, span name, counter hook). The three persist helpers
# share one span name: together they are the pipeline's persist step.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str, Optional[Hook]], ...] = (
    ("forge.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("forge.pipeline", "stage_analyze", "pipeline.stage_analyze", None),
    ("forge.pipeline", "stage_design", "pipeline.stage_design", None),
    ("forge.pipeline", "stage_execute", "pipeline.stage_execute", None),
    ("forge.pipeline", "stage_evaluate", "pipeline.stage_evaluate", None),
    ("forge.pipeline", "persist_artifact", "pipeline.persist", None),
    ("forge.pipeline", "persist_predictions", "pipeline.persist", None),
    ("forge.pipeline", "persist_loop_trace", "pipeline.persist", None),
    ("forge.task_analysis", "load_bundle", "task_analysis.load_bundle", None),
    ("forge.task_analysis", "profile_dataset", "task_analysis.profile_dataset", None),
    ("forge.task_analysis", "run_analysis_stage", "task_analysis.run_analysis_stage", None),
    ("forge.matrixio", "read_matrix", "matrixio.read_matrix",
     _count_file_bytes("matrixio.read_matrix.bytes")),
    ("forge.matrixio", "align_predictions", "matrixio.align_predictions", None),
    ("forge.matrixio", "write_json", "matrixio.write_json",
     _count_file_bytes("matrixio.write_json.bytes")),
    ("forge.retrieval", "load_corpus", "retrieval.load_corpus", None),
    ("forge.retrieval", "retrieve", "retrieval.retrieve", _count_layers),
    ("forge.retrieval", "score", "retrieval.score", None),
    ("forge.retrieval", "overlap", "retrieval.overlap", None),
    ("forge.consensus", "select_experts", "consensus.select_experts", None),
    ("forge.consensus", "run_discussion", "consensus.run_discussion", _count_rounds),
    ("forge.consensus", "request_score", "consensus.request_score", _count_attempts),
    ("forge.protocol", "save_store", "protocol.save_store", _count_store_files),
    ("forge.execution", "refinement_loop", "execution.refinement_loop", _count_revisions),
    ("forge.execution", "run_sandbox", "execution.run_sandbox", _count_sandbox),
    ("forge.execution", "classify_failure", "execution.classify_failure", None),
    ("forge.metrics", "metric_report", "metrics.metric_report", None),
    ("forge.metrics", "pointwise_metrics", "metrics.pointwise_metrics", None),
    ("forge.metrics", "select_de_genes", "metrics.select_de_genes", None),
)
