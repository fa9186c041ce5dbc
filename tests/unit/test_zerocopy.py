"""Unit tests for the parallel data plane.

Three pieces, bottom up: the shard payload
(:func:`repro.store.columnar.encode_shard` / ``decode_shard``), the warm
:class:`repro.pipeline.parallel.WorkerPool` registry, and the adaptive
shard planner — plus an end-to-end check that a warm pool's workers
reset their persistent parse caches when the parse knobs change.
"""

from __future__ import annotations

import math
import pickle

import pytest

import repro
from repro.log import LogRecord, QueryLog
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.pipeline.parallel import (
    WorkerPool,
    discard_worker_pool,
    get_worker_pool,
    shard_records,
    shutdown_worker_pools,
)
from repro.store.columnar import decode_shard, encode_shard


def record(seq, sql, user="u", **kwargs):
    kwargs.setdefault("timestamp", float(seq))
    return LogRecord(seq=seq, sql=sql, user=user, **kwargs)


def sample_records(count=12, users=3):
    return [
        record(
            i,
            f"SELECT name FROM Employee WHERE empId = {i % 5}",
            user=f"user{i % users}",
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Shard payload: the wire-format spec


class TestShardCodec:
    def test_empty_shard_roundtrips(self):
        assert list(decode_shard(encode_shard([]))) == []

    def test_roundtrip_preserves_order_and_fields(self):
        records = sample_records()
        restored = list(decode_shard(encode_shard(records)))
        assert restored == records

    def test_verbatim_fallback_statements_survive(self):
        records = [
            record(0, "not sql at all"),
            record(1, "SELECT '\x00' FROM t"),  # the marker byte itself
            record(2, ""),
            record(3, "SELECT a FROM t WHERE b = 'o''brien'"),
        ]
        assert list(decode_shard(encode_shard(records))) == records

    def test_oddball_records_survive(self):
        records = [
            record(0, None),
            record(1, 12345),
            record(2, "SELECT 1 FROM T", timestamp=7),  # int timestamp
            record(3, "SELECT 2 FROM T", rows=2**70),  # beyond int64
            record(4, "SELECT 3 FROM T", user=None),
        ]
        restored = list(decode_shard(encode_shard(records)))
        assert restored == records
        assert type(restored[2].timestamp) is int

    def test_nan_timestamp_survives(self):
        records = [record(0, "SELECT 1 FROM T", timestamp=float("nan"))]
        (restored,) = decode_shard(encode_shard(records))
        assert math.isnan(restored.timestamp)

    def test_payload_is_plain_field_tuples(self):
        # field tuples in LogRecord order, not pickled LogRecord objects:
        # the smaller payload keeps the parent's peak memory down
        records = sample_records(count=3)
        fields = pickle.loads(encode_shard(records))
        assert [type(item) for item in fields] == [tuple] * 3
        assert fields[1] == (1, records[1].sql, 1.0, "user1", None, None, None)

    def test_encode_accepts_a_one_shot_iterator(self):
        records = sample_records()
        assert encode_shard(iter(records)) == encode_shard(records)

    @pytest.mark.parametrize("cut", (0, 1, -1))
    def test_truncated_payload_is_rejected(self, cut):
        data = encode_shard(sample_records())
        with pytest.raises((pickle.UnpicklingError, EOFError)):
            decode_shard(data[: cut if cut >= 0 else len(data) + cut])


# ----------------------------------------------------------------------
# Warm pool registry


@pytest.fixture
def pool_registry():
    shutdown_worker_pools()
    yield
    shutdown_worker_pools()


class TestWorkerPool:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_executor_is_lazy_and_generation_counts(self, pool_registry):
        pool = WorkerPool(2)
        assert not pool.alive
        assert pool.generation == 0
        first = pool.executor
        assert pool.alive
        assert pool.generation == 1
        assert pool.executor is first  # no re-provision on access
        rebuilt = pool.rebuild()
        assert rebuilt is not first
        assert pool.generation == 2
        pool.shutdown()
        assert not pool.alive
        # a shut-down pool is reusable: next access provisions again
        assert pool.executor is not None
        assert pool.generation == 3
        pool.shutdown()

    def test_registry_returns_one_pool_per_worker_count(self, pool_registry):
        pool = get_worker_pool(2)
        assert get_worker_pool(2) is pool
        assert get_worker_pool(3) is not pool
        discard_worker_pool(2)
        assert get_worker_pool(2) is not pool

    def test_shutdown_worker_pools_clears_the_registry(self, pool_registry):
        pool = get_worker_pool(2)
        pool.executor  # provision
        shutdown_worker_pools()
        assert not pool.alive
        assert get_worker_pool(2) is not pool


# ----------------------------------------------------------------------
# Adaptive shard planning


class TestAdaptiveSharding:
    def test_single_worker_gets_a_single_shard(self):
        records = sample_records(count=200, users=8)
        assert len(shard_records(records, 1, 0)) == 1

    def test_fanout_targets_about_twice_the_workers(self):
        records = sample_records(count=4000, users=64)
        for workers in (2, 4):
            shards = shard_records(records, workers, 0)
            assert workers < len(shards) <= 2 * workers + 1

    def test_adaptive_shards_are_balanced(self):
        records = sample_records(count=4000, users=64)
        shards = shard_records(records, 4, 0)
        sizes = [len(shard) for shard in shards]
        # the packing budget is ceil(total/target): no shard more than
        # one bucket beyond the budget, none pathologically small
        assert max(sizes) <= 2 * min(sizes) + max(
            len(records) // 64, 1
        )

    def test_explicit_chunk_size_keeps_legacy_packing(self):
        records = sample_records(count=300, users=16)
        shards = shard_records(records, 4, 40)
        # a shard only exceeds the bound when a single user demands it
        user_max = max(
            sum(1 for r in records if r.user == f"user{u}") for u in range(16)
        )
        assert all(len(s) <= max(40, user_max) for s in shards)
        assert len(shards) >= len(records) // 40


# ----------------------------------------------------------------------
# Warm pools, end to end


def knob_log():
    """Eight users cycling through templates that every parse knob
    touches: a ``@variable`` (``fold_variables``), ORDER BY and TOP
    (``strict_triple``), and a Stifle-shaped key lookup to solve."""
    shapes = (
        "SELECT name FROM Employee WHERE empId = {n}",
        "SELECT TOP 5 a FROM t WHERE b = {n} ORDER BY a DESC",
        "SELECT ra FROM PhotoObj WHERE objID = @id AND type = {n}",
    )
    return QueryLog(
        record(
            i,
            shapes[i % len(shapes)].format(n=i % 7),
            user=f"user{i % 8}",
        )
        for i in range(240)
    )


class TestWorkerCacheReset:
    @pytest.mark.parametrize(
        "knob",
        [
            {"fold_variables": True},
            {"strict_triple": True},
            {"parse_cache_size": 64},
        ],
        ids=["fold_variables", "strict_triple", "parse_cache_size"],
    )
    def test_a_knob_change_resets_the_worker_caches(self, pool_registry, knob):
        log = knob_log()
        execution = ExecutionConfig(mode="parallel", workers=2, chunk_size=30)
        # Warm the registry pool until a default run is served entirely
        # from the workers' persistent caches.
        for _ in range(5):
            warm = repro.clean(log, PipelineConfig(), execution=execution)
            if warm.parallel_stats.stats.parse_cache_misses == 0:
                break
        assert warm.parallel_stats.stats.parse_cache_misses == 0

        knob = dict(knob)
        size = knob.pop("parse_cache_size", execution.parse_cache_size)
        config = PipelineConfig(**knob)
        changed = repro.clean(
            log,
            config,
            execution=ExecutionConfig(
                mode="parallel",
                workers=2,
                chunk_size=30,
                parse_cache_size=size,
            ),
        )
        reference = repro.clean(
            log, config, execution=ExecutionConfig(parse_cache=False)
        )
        assert changed.clean_log.records() == reference.clean_log.records()
        assert changed.metrics.comparable() == reference.metrics.comparable()
        assert changed.metrics.conservation_violations() == []
        # A reused cache would serve every template from the warm run.
        assert changed.parallel_stats.stats.parse_cache_misses > 0
