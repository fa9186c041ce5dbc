"""The traced run: spans around each layer's public functions.

:class:`Tracer` installs wrappers from this file — nothing in ``src/``
changes — around the functions at each layer boundary (see
:data:`TARGETS`).  A wrapper records one span per call: name, start,
end, parent span and run id.  Spans stay in memory; :meth:`Tracer.restore`
puts every original function back.

Two views come out of the spans of one traced call (the root span):

* a stage's busy time is the time during which it is the innermost
  open *stage* span, i.e. its spans' duration minus what nested stage
  spans cover; ``unaccounted_s`` is the rest of the root span.  Stage
  busy times plus ``unaccounted_s`` add up to the call's wall time;
* a layer's time is the summed duration of its spans (a layer span that
  opens inside a span of the same name is not recorded twice).  The one
  self time reported, ``parallel.wait_s``, is the parallel pool span's
  duration minus its child spans (the shard encodes).

Wrappers only fire on the thread that installed them.  Functions that
run in worker processes of the parallel executor are never traced (the
pool is forked before the wrappers go in); those workers report through
their shard ledgers instead.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The pipeline stages whose busy time the traced run reports.
STAGES = ("validate", "dedup", "parse", "mine", "detect", "registry", "solve")

#: (span name, module, attribute path) of every wrapped function.  An
#: attribute path ``Class.method`` wraps the method on the class; a plain
#: function name is wrapped in every ``repro`` module that binds it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # repro.pipeline stage functions (batch, parallel shards, streaming
    # blocks) and the streaming executor's per-record stages.
    ("validate", "repro.pipeline.framework", "validate_stage"),
    ("dedup", "repro.pipeline.framework", "dedup_stage"),
    ("parse", "repro.pipeline.framework", "parse_stage"),
    ("mine", "repro.pipeline.framework", "mine_stage"),
    ("mine", "repro.pipeline.framework", "segment_block"),
    ("detect", "repro.pipeline.framework", "detect_stage"),
    ("registry", "repro.pipeline.framework", "registry_stage"),
    ("solve", "repro.pipeline.framework", "solve_stage"),
    ("validate", "repro.pipeline.streaming", "StreamingCleaner._validate"),
    ("dedup", "repro.pipeline.streaming", "StreamingCleaner._is_duplicate"),
    ("parse", "repro.pipeline.streaming", "StreamingCleaner._parse"),
    # repro.skeleton
    ("skeleton.preload", "repro.skeleton.cache", "TemplateCache.preload"),
    ("skeleton.build", "repro.skeleton.cache", "TemplateCache.build"),
    (
        "skeleton.materialise",
        "repro.skeleton.cache",
        "LazyParsedQuery._materialise",
    ),
    # repro.sqlparser
    ("sqlparser.scan", "repro.sqlparser.scanner", "scan"),
    ("sqlparser.parse", "repro.sqlparser.parser", "Parser.parse_statement"),
    # repro.patterns
    ("patterns.sws", "repro.patterns.sws", "detect_sws"),
    ("patterns.registry", "repro.patterns.registry", "PatternRegistry.from_runs"),
    # repro.pipeline.parallel (parent side)
    ("parallel.shard", "repro.pipeline.parallel", "shard_records"),
    ("parallel.encode", "repro.store.columnar", "encode_shard"),
    ("parallel.pool", "repro.pipeline.parallel", "ParallelCleaner._run_pool"),
    # repro.store and the streaming executor's checkpoints
    (
        "store.witness_load",
        "repro.store.sources",
        "ColumnarSource.template_witnesses",
    ),
    ("store.read", "repro.store.columnar", "read_chunk"),
    ("store.checkpoint", "repro.store.checkpoint", "RunCheckpoint.save_state"),
    ("store.checkpoint", "repro.store.checkpoint", "RunCheckpoint.spill_chunk"),
    (
        "store.checkpoint",
        "repro.pipeline.streaming",
        "StreamingCleaner.export_state",
    ),
)


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped functions; restores them afterwards."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = 0
        self.missing: List[str] = []
        self._next_id = 0
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._thread = threading.get_ident()
        #: (owner, attribute, original value) of every installed wrapper.
        self._installed: List[Tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if self._open.get(name) or threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._open[name] = self._open.get(name, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            self.spans.append(
                Span(span_id, name, start, end, parent, self.run_id)
            )

    def run_spans(self, run_id: int) -> List[Span]:
        return [span for span in self.spans if span.run_id == run_id]

    # ------------------------------------------------------------------
    # Installing and restoring wrappers

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        traced.__perfbench_wrapper__ = True  # type: ignore[attr-defined]
        return traced

    def _replace(self, owner: object, attr: str, value: object) -> None:
        self._installed.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; record the ones that do not exist."""
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if "." in path:
                class_name, attr = path.split(".", 1)
                owner = getattr(module, class_name, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._replace(owner, attr, wrapped)
                continue
            fn = getattr(module, path, None)
            if fn is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(name, fn)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is fn:
                        self._replace(loaded, attr, wrapped)

    def restore(self) -> None:
        """Put every original function back, newest wrapper first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def installed_wrappers() -> List[str]:
    """Every ``repro`` attribute that is still a tracer wrapper."""
    found = []
    for loaded in list(sys.modules.values()):
        module_name = getattr(loaded, "__name__", "")
        if not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            candidates = [(attr, value)]
            if isinstance(value, type):
                candidates = [
                    (f"{attr}.{inner}", raw) for inner, raw in vars(value).items()
                ]
            for label, raw in candidates:
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if getattr(fn, "__perfbench_wrapper__", False):
                    found.append(f"{module_name}.{label}")
    return found


# ----------------------------------------------------------------------
# Reading the spans of one traced call


def stage_times(spans: List[Span], root: Span) -> Tuple[Dict[str, float], float]:
    """Busy seconds per stage and the unaccounted rest of ``root``.

    Each instant of the root span is charged to the innermost stage span
    open at that instant, or to ``unaccounted`` when none is open.
    """
    by_id = {span.span_id: span for span in spans}

    def stage_parent(span: Span) -> int:
        parent = span.parent
        while parent is not None and parent != root.span_id:
            if by_id[parent].name in STAGES:
                return parent
            parent = by_id[parent].parent
        return root.span_id

    covered: Dict[int, float] = {}
    for span in spans:
        if span.name in STAGES and span.span_id != root.span_id:
            key = stage_parent(span)
            covered[key] = covered.get(key, 0.0) + span.duration
    busy = {stage: 0.0 for stage in STAGES}
    for span in spans:
        if span.name in STAGES and span.span_id != root.span_id:
            busy[span.name] += span.duration - covered.get(span.span_id, 0.0)
    unaccounted = root.duration - covered.get(root.span_id, 0.0)
    return busy, unaccounted


def layer_seconds(spans: List[Span], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(span.duration for span in spans if span.name == name)


def self_seconds(spans: List[Span], name: str) -> float:
    """Summed self time of the spans called ``name``: each span's
    duration minus the durations of its direct child spans."""
    ids = {span.span_id for span in spans if span.name == name}
    children = sum(span.duration for span in spans if span.parent in ids)
    return layer_seconds(spans, name) - children
