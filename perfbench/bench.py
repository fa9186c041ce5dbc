"""One workload run: set up, compute the reference, time checked calls.

:func:`run_workload` is what ``run.py --workload NAME`` executes in its
own process.  Untraced runs (``trace=False``) give the end-to-end
metrics; traced runs give the per-layer metrics, from calls made with
the :class:`~tracing.Tracer` installed, next to untraced calls of the same
run for ``trace_overhead``.

Every timed call and set-up is bracketed by runs of the host-speed
kernel (:mod:`hostspeed`), and the end-to-end times are reported in
normalised seconds: the measured seconds rescaled to a host of fixed
speed.  The measured seconds go into every report next to them.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from check import Reference, check, reference_for, tree_digest
from hostspeed import kernel_seconds, normalised
from metrics import END_TO_END, ERROR_RATE, PER_LAYER, layer_map
from tracing import (
    STAGES, Span, Tracer, layer_seconds, self_seconds, stage_times,
)
from workloads import Workload, make_workload

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: Fewest timed calls per run, whatever ``seconds`` says.
MIN_CALLS = 3


@dataclass
class Calls:
    """Outcome of a series of checked calls."""

    seconds: List[float] = field(default_factory=list)
    #: per passed call, the mean of the kernel runs just before and after.
    kernels: List[float] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def absorb(self, other: "Calls") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)

    def normalised(self) -> List[float]:
        return normalised(self.seconds, self.kernels)


def bracketed(action: Callable):
    """Run ``action`` between two kernel runs; returns its result, its
    wall seconds and the mean kernel seconds."""
    before = kernel_seconds()
    gc.collect()
    started = time.perf_counter()
    result = action()
    elapsed = time.perf_counter() - started
    after = kernel_seconds()
    return result, elapsed, (before + after) / 2


def checked_call(
    workload: Workload,
    reference: Reference,
    calls: Calls,
    timed: Optional[Callable] = None,
):
    """One call: timed, then checked.  ``timed`` wraps the call itself.

    Returns the call's result when it passed the check, else ``None``.
    """
    calls.attempted += 1
    try:
        result, elapsed, kernel = bracketed(
            lambda: timed(workload.call) if timed else workload.call()
        )
    except Exception as exc:  # any raise is a failed call
        calls.failures.append(f"raised {exc!r}")
        workload.after_call()
        return None
    workload.after_call()
    reason = check(result, reference)
    if reason is not None:
        calls.failures.append(reason)
        return None
    calls.seconds.append(elapsed)
    calls.kernels.append(kernel)
    return result


def call_for(
    workload: Workload,
    reference: Reference,
    seconds: float,
    min_calls: int,
    timed: Optional[Callable] = None,
) -> Calls:
    """Checked calls until ``seconds`` have passed and ``min_calls`` ran."""
    calls = Calls()
    deadline = time.perf_counter() + seconds
    while calls.attempted < min_calls or time.perf_counter() < deadline:
        checked_call(workload, reference, calls, timed)
    return calls


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_rev(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, workload: Workload, trace: bool) -> Dict[str, object]:
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = list(range(os.cpu_count() or 1))
    return {
        "git_rev": git_rev(root),
        "source_sha256": tree_digest(root),
        "cpus": cpus,
        "cpu_count": len(cpus),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": workload.seed,
        "size": workload.size,
        "input_records": workload.records,
        "traced": trace,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# ----------------------------------------------------------------------
# Per-layer metrics of one traced call


def ledger_metrics(result) -> Dict[str, float]:
    """The per-layer counts the run's own ledger carries."""
    metrics = result.metrics
    parse = metrics.stage("parse").counters
    merge = metrics.stages.get("merge")
    hits = parse.get("parse_cache_hits", 0)
    lookups = hits + parse.get("parse_cache_misses", 0)
    cold = parse.get("parse_cold", 0)
    preloaded = parse.get("parse_dict_preloaded", 0)
    templates = parse.get("interner_size", 0)
    if merge is not None and merge.counters.get("interner_size"):
        templates = merge.counters["interner_size"]  # run-global count
    values = {
        "skeleton.hit_ratio": hits / lookups if lookups else 0.0,
        "skeleton.cold_builds": cold,
        "skeleton.evictions": parse.get("parse_cache_evictions", 0),
        "skeleton.builds_per_template": (
            (cold + preloaded) / templates if templates else 0.0
        ),
        "skeleton.materialised": parse.get("parse_materialised", 0),
        "detect.instances": metrics.stage("detect").get("instances_detected"),
        "solve.solved": metrics.stage("solve").get("instances_solved"),
        "parallel.merge_s": 0.0,
        "parallel.bytes_shipped": 0,
        "parallel.worker_cpu_s": 0.0,
        "parallel.shard_skew": 0.0,
        "parallel.shards_retried": 0,
    }
    stats = getattr(result, "parallel_stats", None)
    if stats is not None:
        shard_sizes = [report.records_in for report in stats.shards]
        values.update(
            {
                "parallel.merge_s": merge.wall_seconds if merge else 0.0,
                "parallel.bytes_shipped": stats.bytes_shipped,
                "parallel.worker_cpu_s": sum(
                    report.timings.total for report in stats.shards
                ),
                "parallel.shard_skew": (
                    max(shard_sizes) / statistics.mean(shard_sizes)
                    if shard_sizes and sum(shard_sizes)
                    else 0.0
                ),
                "parallel.shards_retried": stats.shards_retried,
            }
        )
    return values


def traced_metrics(tracer: Tracer, run_id: int, result) -> Dict[str, float]:
    """Every per-layer metric of traced call ``run_id`` except
    ``trace_overhead``."""
    spans = tracer.run_spans(run_id)
    root = next(span for span in spans if span.name == "clean")
    busy, unaccounted = stage_times(spans, root)
    values: Dict[str, float] = {f"{stage}.busy_s": busy[stage] for stage in STAGES}
    values["unaccounted_s"] = unaccounted
    for metric, layer in (
        ("skeleton.preload_s", "skeleton.preload"),
        ("skeleton.build_s", "skeleton.build"),
        ("skeleton.materialise_s", "skeleton.materialise"),
        ("sqlparser.scan_s", "sqlparser.scan"),
        ("sqlparser.parse_s", "sqlparser.parse"),
        ("patterns.sws_s", "patterns.sws"),
        ("patterns.registry_s", "patterns.registry"),
        ("parallel.shard_s", "parallel.shard"),
        ("parallel.encode_s", "parallel.encode"),
        ("store.witness_load_s", "store.witness_load"),
        ("store.read_s", "store.read"),
        ("store.checkpoint_s", "store.checkpoint"),
    ):
        values[metric] = layer_seconds(spans, layer)
    values["parallel.wait_s"] = self_seconds(spans, "parallel.pool")
    values.update(ledger_metrics(result))
    return values


# ----------------------------------------------------------------------
# The run


@dataclass
class RunOutcome:
    metrics: Dict[str, Dict[str, object]]
    attempted: int
    failed: int
    failures: List[str]
    report: Dict[str, object]
    #: every span of the traced calls (empty for untraced runs).
    spans: List[Span] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: float,
    root: Path,
    workdir: Path,
    *,
    min_calls: int = MIN_CALLS,
    setup_reps: int = SETUP_REPS,
    corrupt: Optional[Callable] = None,
) -> RunOutcome:
    """Run one workload and return its metrics.

    ``corrupt`` (tests only) is applied to every call's result before the
    check, so a deliberately wrong output can be shown to fail.
    """
    workload = make_workload(name, seed, size, workdir)
    reference = reference_for(name, seed, size, root, workdir)

    setup = Calls()
    for rep in range(setup_reps):
        if rep:
            workload.teardown()
        _, elapsed, kernel = bracketed(workload.setup)
        setup.seconds.append(elapsed)
        setup.kernels.append(kernel)
    if workload.records != reference.records_in:
        raise RuntimeError(
            f"set-up built {workload.records} records, the reference "
            f"{reference.records_in}"
        )

    spans: List[Span] = []
    timed = None
    if corrupt is not None:
        timed = lambda call: corrupt(call())  # noqa: E731

    try:
        warmup = Calls()
        checked_call(workload, reference, warmup, timed)
        if not trace:
            calls = call_for(workload, reference, seconds, min_calls, timed)
            calls.absorb(warmup)
            per_layer = None
        else:
            calls = call_for(workload, reference, seconds / 2, 1, timed)
            calls.absorb(warmup)
            per_layer, traced_wall, spans = _traced_calls(
                workload, reference, seconds / 2, calls, timed
            )
    finally:
        workload.teardown()

    failed = len(calls.failures)
    metrics: Dict[str, Dict[str, object]] = {}
    wall = statistics.median(calls.normalised()) if calls.seconds else None
    error_rate = failed / calls.attempted
    if not trace:
        if wall is not None:
            values = {
                "setup_s": statistics.median(setup.normalised()),
                "wall_s": wall,
                "queries_per_s": workload.records / wall,
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {
                metric: _metric(values[metric], unit)
                for metric, unit in END_TO_END.items()
            }
    elif wall is not None and per_layer:
        per_layer["trace_overhead"] = traced_wall / wall
        metrics = {
            metric: _metric(per_layer[metric], unit)
            for metric, unit in PER_LAYER.items()
        }
    report = {
        "provenance": provenance(root, workload, trace),
        "calls": {
            "attempted": calls.attempted,
            "failed": failed,
            "untraced_seconds": calls.seconds,
            "untraced_kernel_seconds": calls.kernels,
            "setup_seconds": setup.seconds,
            "setup_kernel_seconds": setup.kernels,
            "failures": calls.failures,
        },
        # The end-to-end times as measured, before normalisation.
        "measured": {
            "setup_s": statistics.median(setup.seconds),
            "wall_s": (
                statistics.median(calls.seconds) if calls.seconds else None
            ),
            "kernel_s": (
                statistics.median(calls.kernels) if calls.kernels else None
            ),
        },
        ERROR_RATE[0]: error_rate,
        "metrics": metrics,
        "layer_map": layer_map() if trace else None,
    }
    return RunOutcome(
        metrics, calls.attempted, failed, calls.failures, report, spans
    )


def _traced_calls(
    workload: Workload,
    reference: Reference,
    seconds: float,
    calls: Calls,
    timed: Optional[Callable],
):
    """Traced calls for ``seconds``: median per-layer metrics, median
    normalised wall time, and every span recorded."""
    tracer = Tracer()
    samples: List[Dict[str, float]] = []
    walls: List[float] = []
    deadline = time.perf_counter() + seconds

    def root_span(call):
        if timed is not None:
            return tracer.call("clean", timed, call)
        return tracer.call("clean", call)

    with tracer:
        while tracer.run_id == 0 or time.perf_counter() < deadline:
            tracer.run_id += 1
            traced = Calls()
            result = checked_call(workload, reference, traced, root_span)
            calls.absorb(traced)
            if result is not None:
                walls.extend(traced.normalised())
                samples.append(traced_metrics(tracer, tracer.run_id, result))
            del result
    if tracer.missing:
        print(
            "perfbench: trace targets not found: " + ", ".join(tracer.missing),
            file=sys.stderr,
        )
    if not samples:
        return None, None, tracer.spans
    per_layer = {
        metric: statistics.median(sample[metric] for sample in samples)
        for metric in samples[0]
    }
    return per_layer, statistics.median(walls), tracer.spans
