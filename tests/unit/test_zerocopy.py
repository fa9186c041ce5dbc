"""Unit tests for the parallel data plane.

Four pieces, bottom up: the shard payload
(:func:`repro.store.columnar.encode_shard` / ``decode_shard``), the
template-cache seed transport
(:meth:`repro.skeleton.cache.TemplateCache.export_seed`), the warm
:class:`repro.pipeline.parallel.WorkerPool` registry, and the adaptive
shard planner — plus an end-to-end check that a seeded pool's workers
really start their parse caches warm.
"""

from __future__ import annotations

import math
import pickle

import pytest

import repro
from repro.log import LogRecord, QueryLog
from repro.obs import Recorder
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.pipeline.framework import parse_log
from repro.pipeline.parallel import (
    WorkerPool,
    discard_worker_pool,
    get_worker_pool,
    set_worker_seed,
    shard_records,
    shutdown_worker_pools,
)
from repro.skeleton.cache import TemplateCache
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
# Template-cache seed transport


def _seeded_cache(records):
    cache = TemplateCache()
    parse_log(records, cache=cache, recorder=Recorder())
    return cache


class TestCacheSeed:
    def test_from_seed_restores_templates_with_zeroed_counters(self):
        records = sample_records()
        cache = _seeded_cache(records)
        assert len(cache) > 0 and cache.misses > 0

        warm = TemplateCache.from_seed(cache.export_seed())
        assert len(warm) == len(cache)
        assert warm.key_entries == cache.key_entries
        assert (warm.hits, warm.misses, warm.evictions) == (0, 0, 0)
        # every statement the donor saw is a hit in the restored cache
        for rec in records:
            assert warm.fetch(rec) is not None
        assert warm.misses == 0

    def test_from_seed_trims_to_smaller_capacity(self):
        cache = _seeded_cache(
            [
                record(i, f"SELECT c{i} FROM t{i} WHERE a = {i}")
                for i in range(6)
            ]
        )
        assert len(cache) == 6
        warm = TemplateCache.from_seed(cache.export_seed(), max_entries=2)
        assert len(warm) <= 2
        assert warm.key_entries <= 2

    def test_from_seed_rejects_garbage(self):
        import pickle

        with pytest.raises(Exception):
            TemplateCache.from_seed(pickle.dumps({"not": "a cache"}))


# ----------------------------------------------------------------------
# Warm pool registry


@pytest.fixture
def pool_registry():
    shutdown_worker_pools()
    yield
    set_worker_seed(None)
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
# Seeded pools, end to end


class TestSeededPoolEndToEnd:
    def test_seeded_workers_start_their_parse_cache_warm(self, pool_registry):
        records = [
            record(
                i,
                f"SELECT name FROM Employee WHERE empId = {i % 9}",
                user=f"user{i % 8}",
            )
            for i in range(160)
        ]
        log = QueryLog(records)
        execution = ExecutionConfig(mode="parallel", workers=2, chunk_size=40)

        cold = repro.clean(log, PipelineConfig(), execution=execution)
        assert cold.parallel_stats.stats.parse_cache_misses > 0

        set_worker_seed(_seeded_cache(records))
        warm = repro.clean(log, PipelineConfig(), execution=execution)
        pstats = warm.parallel_stats.stats
        assert pstats.parse_cache_misses == 0
        assert pstats.parse_cache_hits > 0
        # seeding is a pure speed knob: the output is byte-identical
        assert warm.clean_log == cold.clean_log
        assert warm.metrics.comparable() == cold.metrics.comparable()

    def test_mismatched_seed_knobs_are_ignored(self, pool_registry):
        records = sample_records(count=120, users=8)
        log = QueryLog(records)
        # the seed declares fold_variables=True; the run uses defaults —
        # workers must fall back to a cold cache, not serve stale skeletons
        set_worker_seed(_seeded_cache(records), fold_variables=True)
        result = repro.clean(
            log,
            PipelineConfig(),
            execution=ExecutionConfig(mode="parallel", workers=2, chunk_size=30),
        )
        assert result.parallel_stats.stats.parse_cache_misses > 0
        assert result.metrics.conservation_violations() == []

    def test_dictionary_warmed_runs_reuse_the_warm_pool(
        self, pool_registry, tmp_path
    ):
        records = sample_records(count=160, users=8)
        log = QueryLog(records)
        path = tmp_path / "templates.dict"
        _seeded_cache(records).save_dict(path)
        execution = ExecutionConfig(
            mode="parallel", workers=2, chunk_size=40, template_dict=str(path)
        )

        first = repro.clean(log, PipelineConfig(), execution=execution)
        pool = get_worker_pool(2)
        generation = pool.generation
        assert generation >= 1
        # the same dictionary exports the same seed: no pool refork
        second = repro.clean(log, PipelineConfig(), execution=execution)
        assert get_worker_pool(2) is pool
        assert pool.generation == generation
        assert second.clean_log == first.clean_log
        assert second.parallel_stats.stats.parse_cache_misses == 0
