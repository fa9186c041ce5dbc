"""Differential test harness: every executor must tell the same story.

The observability layer's core contract is that batch, streaming and
parallel (at any worker count) runs over the same log produce *equal*
shared-stage counter ledgers (``PipelineMetrics.comparable()``) — not
just equal clean logs.  A miscounted duplicate or a dropped parse
failure is invisible to record-level equivalence tests but breaks the
ledger immediately.

For a matrix of generated workloads and hand-built edge-case logs this
suite asserts, for each executor:

* the comparable ledger equals the batch reference, counter for counter
  (including the per-label antipattern and solved breakdowns);
* the conservation laws hold (``records_in == records_out +
  duplicates_removed`` per stage, and the stage hand-offs line up);
* the clean log itself still matches batch (the pre-existing guarantee).
"""

import gc
import time

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.obs import NULL, Recorder
from repro.pipeline import CleaningPipeline, ExecutionConfig, PipelineConfig
from repro.workload import WorkloadConfig, generate, skyserver_catalog

KEYS = frozenset(skyserver_catalog().key_column_names())

#: (id, execution) — the five execution paths under comparison.  The
#: parallel entries use a small chunk size so that even the small test
#: logs split into several shards and genuinely exercise the fan-out.
EXECUTIONS = (
    ("batch", "batch"),
    ("streaming", "streaming"),
    ("parallel-1", ExecutionConfig(mode="parallel", workers=1, chunk_size=200)),
    ("parallel-2", ExecutionConfig(mode="parallel", workers=2, chunk_size=200)),
    ("parallel-4", ExecutionConfig(mode="parallel", workers=4, chunk_size=200)),
)

#: Generated-workload matrix: different seeds and sizes, so dedup rate,
#: antipattern mix and user count all vary across cases.
WORKLOADS = {
    "seed2018": WorkloadConfig(seed=2018, scale=0.05),
    "seed7": WorkloadConfig(seed=7, scale=0.04),
    "seed99": WorkloadConfig(seed=99, scale=0.06),
}

_workload_cache = {}


def workload_log(name):
    if name not in _workload_cache:
        _workload_cache[name] = generate(WORKLOADS[name]).log
    return _workload_cache[name]


def config(keys=KEYS):
    return PipelineConfig(detection=DetectionContext(key_columns=keys))


def run_all(log, keys=KEYS):
    """Clean ``log`` on every execution path; return {id: result}."""
    return {
        name: repro.clean(log, config(keys), execution=execution)
        for name, execution in EXECUTIONS
    }


def assert_differential(log, keys=KEYS):
    results = run_all(log, keys)
    reference = results["batch"].metrics.comparable()
    reference_records = results["batch"].clean_log.records()
    for name, result in results.items():
        assert result.metrics is not None, name
        violations = result.metrics.conservation_violations()
        assert violations == [], f"{name}: {violations}"
        assert result.metrics.comparable() == reference, name
        assert result.clean_log.records() == reference_records, name
    return results


class TestWorkloadMatrix:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_executors_emit_identical_ledgers(self, name):
        assert_differential(workload_log(name))

    def test_ledger_is_nontrivial(self):
        """Guard against vacuous equality: the matrix logs must actually
        exercise every stage counter the contract covers."""
        results = run_all(workload_log("seed2018"))
        stages = results["batch"].metrics.comparable()
        assert stages["dedup"]["counters"]["duplicates_removed"] > 0
        assert stages["parse"]["counters"]["syntax_errors"] > 0
        assert stages["parse"]["counters"]["non_select"] > 0
        assert stages["mine"]["counters"]["pattern_instances"] > 0
        assert stages["detect"]["counters"]["instances_detected"] > 0
        assert stages["detect"]["labels"]["antipatterns"]
        assert stages["solve"]["counters"]["instances_solved"] > 0

    def test_explicit_conservation_laws(self):
        """The issue's laws, spelled out against raw counters."""
        for name, result in run_all(workload_log("seed7")).items():
            stages = result.metrics.comparable()
            dedup = stages["dedup"]["counters"]
            parse = stages["parse"]["counters"]
            solve = stages["solve"]["counters"]
            assert (
                dedup["records_in"]
                == dedup["records_out"] + dedup["duplicates_removed"]
            ), name
            assert (
                parse["records_in"]
                == parse["records_out"]
                + parse["syntax_errors"]
                + parse["non_select"]
            ), name
            assert dedup["records_out"] == parse["records_in"], name
            assert parse["records_out"] == solve["records_in"], name
            assert (
                solve["records_in"]
                == solve["records_out"] + solve["queries_removed"]
            ), name


class TestEdgeCaseLogs:
    def test_empty_log(self):
        """Zero records: the ledgers must still be structurally equal
        (every canonical counter present at zero)."""
        results = assert_differential(QueryLog([]))
        stages = results["streaming"].metrics.comparable()
        assert stages["dedup"]["counters"]["records_in"] == 0
        assert stages["solve"]["counters"]["records_out"] == 0

    def test_all_duplicates(self):
        log = QueryLog(
            LogRecord(
                seq=i,
                sql="SELECT name FROM Employees WHERE id = 5",
                timestamp=i * 0.1,
                user="u",
            )
            for i in range(8)
        )
        results = assert_differential(log)
        counters = results["batch"].metrics.comparable()["dedup"]["counters"]
        assert counters["duplicates_removed"] == 7

    def test_unparseable_and_non_select(self):
        statements = [
            "SELECT name FROM Employees WHERE id = 1",
            "SELECT name FROM WHERE broken ((",
            "DROP TABLE Employees",
            "SELECT name FROM Employees WHERE id = 2",
            "INSERT INTO Employees VALUES (1)",
            "not sql at all",
        ]
        log = QueryLog(
            LogRecord(seq=i, sql=sql, timestamp=float(i * 400), user=f"u{i % 2}")
            for i, sql in enumerate(statements)
        )
        results = assert_differential(log)
        counters = results["batch"].metrics.comparable()["parse"]["counters"]
        assert counters["syntax_errors"] >= 1
        assert counters["non_select"] >= 1

    def test_multi_user_stifle_runs(self):
        log = QueryLog(
            LogRecord(
                seq=user * 100 + i,
                sql=f"SELECT name FROM Employees WHERE empId = {user * 50 + i}",
                timestamp=user * 10_000 + i * 2.0,
                user=f"user{user}",
            )
            for user in range(5)
            for i in range(6)
        )
        results = assert_differential(log, keys=frozenset({"empid"}))
        detect = results["batch"].metrics.comparable()["detect"]
        assert detect["counters"]["instances_detected"] >= 5


class TestParseCacheDifferential:
    """The parse fast path must be invisible in every output: same clean
    records, same comparable ledger, zero conservation violations —
    with the cache on (default) and off, on every executor."""

    def test_cache_off_matches_cache_on(self):
        log = workload_log("seed2018")
        reference = repro.clean(log, config(), parse_cache=False)
        assert reference.metrics.conservation_violations() == []
        ref_counters = reference.metrics.comparable()["parse"]["counters"]
        # The executor-dependent cache counters are excluded from the
        # comparable view entirely.
        assert "parse_cache_hits" not in ref_counters
        for name, execution in EXECUTIONS:
            result = repro.clean(log, config(), execution=execution)
            assert result.clean_log.records() == reference.clean_log.records(), name
            assert result.metrics.comparable() == reference.metrics.comparable(), name
            assert result.metrics.conservation_violations() == [], name
            raw = result.metrics.stages["parse"].counters
            assert raw["parse_cache_hits"] > 0, name
            assert (
                raw["parse_cache_hits"] + raw["parse_cache_misses"]
                == raw["records_in"]
            ), name

    def test_cache_disabled_books_zero_traffic(self):
        log = workload_log("seed7")
        result = repro.clean(log, config(), parse_cache=False)
        raw = result.metrics.stages["parse"].counters
        assert raw["parse_cache_hits"] == 0
        assert raw["parse_cache_misses"] == 0
        assert raw["parse_cache_evictions"] == 0


class TestInternerDifferential:
    """Template interning must be invisible in the comparable ledger
    while the raw per-executor counters stay inspectable: batch and
    streaming book the run-global dictionary size, parallel shards each
    intern their own templates (so the parse-stage sum can exceed the
    global count) and the merge stage carries the folded global size."""

    def test_interner_size_is_booked_and_excluded(self):
        log = workload_log("seed2018")
        results = run_all(log)
        sizes = {}
        for name, result in results.items():
            raw = result.metrics.stages["parse"].counters
            assert raw["interner_size"] > 0, name
            view = result.metrics.comparable()["parse"]["counters"]
            assert "interner_size" not in view, name
            sizes[name] = raw["interner_size"]

        # Batch and streaming intern one global dictionary; its size is
        # the distinct template count of the parsed stream.
        batch_result = CleaningPipeline(config()).run(log)
        distinct = len(
            {query.template_id for query in batch_result.parse_stage.queries}
        )
        assert sizes["batch"] == distinct
        assert sizes["streaming"] == distinct
        # Every shard re-interns templates the other shards also saw, so
        # the per-shard sum is at least the global dictionary size...
        for name in ("parallel-1", "parallel-2", "parallel-4"):
            assert sizes[name] >= distinct, name
        # ...while the merge stage folds the shard interners back into
        # one run-global dictionary of exactly the batch size.
        for name in ("parallel-1", "parallel-2", "parallel-4"):
            merge = results[name].metrics.stages["merge"].counters
            assert merge["interner_size"] == distinct, name

    def test_batch_result_carries_run_interner(self):
        log = workload_log("seed7")
        result = CleaningPipeline(config()).run(log)
        interner = result.interner
        assert interner is not None
        queries = result.parse_stage.queries
        assert len(interner) == len({q.template_id for q in queries})
        for query in queries:
            assert interner.fingerprint(query.interned_id) == query.template_id


class TestRecorderOverhead:
    def test_batch_overhead_is_small(self):
        """The acceptance bar is ≤5% batch overhead; asserting that
        tightly on shared CI is flaky, so this guards the order of
        magnitude (best-of-7 under a generous bound) while the E21
        benchmark records the precise ratio in BENCH_parallel.json.

        A run takes a few tens of milliseconds, so the host's speed
        drifts across the measurement: plain and recorded runs alternate
        so that drift lands on both sides, and each starts from a
        collected heap so one side does not pay the other's garbage."""
        log = workload_log("seed2018")
        pipeline = CleaningPipeline(config())
        # warm parse caches, imports and both recorder paths
        pipeline.run(log, recorder=NULL)
        pipeline.run(log, recorder=Recorder())

        best = {"plain": float("inf"), "recorded": float("inf")}
        for _ in range(7):
            for side, recorder_factory in (
                ("plain", lambda: NULL),
                ("recorded", Recorder),
            ):
                recorder = recorder_factory()
                gc.collect()
                started = time.perf_counter()
                pipeline.run(log, recorder=recorder)
                elapsed = time.perf_counter() - started
                best[side] = min(best[side], elapsed)

        plain, recorded = best["plain"], best["recorded"]
        assert recorded <= plain * 1.25, (
            f"recorder overhead {recorded / plain - 1.0:.1%} "
            f"(plain {plain:.3f}s, recorded {recorded:.3f}s)"
        )
