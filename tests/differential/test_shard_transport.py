"""Differential suite: the shard transport tells the same story.

Parallel shards reach their workers one way only: each is pickled once
as plain record field tuples (:func:`repro.store.columnar.encode_shard`)
and rebuilt in the worker (``decode_shard``).  That changes *how* the
records travel and nothing else.  For a generated workload and a
poisoned log this suite pins every ``workers × error-policy``
combination, under the adaptive shard plan, to the batch reference:
identical clean records, an equal ``comparable()`` ledger counter for
counter, and zero conservation violations.  It also pins the byte
accounting to the payloads themselves: every shard ships exactly its
own encoded payload, once.
"""

from __future__ import annotations

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.pipeline.parallel import shard_records
from repro.store.columnar import encode_shard
from repro.workload import WorkloadConfig, generate, skyserver_catalog

KEYS = frozenset(skyserver_catalog().key_column_names())

WORKER_COUNTS = (1, 2, 4)


def _execution(workers):
    # chunk_size=0: the adaptive sharder, so the matrix exercises the
    # default shard plan rather than only the fixed legacy packing.
    return ExecutionConfig(mode="parallel", workers=workers, chunk_size=0)


def _config():
    return PipelineConfig(detection=DetectionContext(key_columns=KEYS))


@pytest.fixture(scope="module")
def workload_log():
    return generate(WorkloadConfig(seed=2018, scale=0.05)).log


@pytest.fixture(scope="module")
def workload_reference(workload_log):
    return repro.clean(workload_log, _config())


class TestTransportMatrix:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_pinned_to_batch(self, workers, workload_log, workload_reference):
        result = repro.clean(
            workload_log, _config(), execution=_execution(workers)
        )
        assert result.clean_log.records() == (
            workload_reference.clean_log.records()
        )
        assert result.metrics.comparable() == (
            workload_reference.metrics.comparable()
        )
        assert result.metrics.conservation_violations() == []

    @pytest.mark.parametrize("workers", (2, 4))
    def test_each_shard_ships_its_own_payload_once(
        self, workers, workload_log
    ):
        pstats = repro.clean(
            workload_log, _config(), execution=_execution(workers)
        ).parallel_stats
        shards = shard_records(workload_log, workers, 0)
        assert pstats.shard_count == len(shards) > 1
        assert sorted(report.shard for report in pstats.shards) == list(
            range(len(shards))
        )
        for report in pstats.shards:
            assert report.bytes_shipped == len(
                encode_shard(shards[report.shard])
            ), report.shard
        assert pstats.bytes_shipped == sum(
            len(encode_shard(shard)) for shard in shards
        )
        merge = pstats.metrics.stages["merge"].counters
        assert merge["bytes_shipped"] == pstats.bytes_shipped


# ----------------------------------------------------------------------
# Poisoned log: malformed fields survive the transport unmangled, so the
# workers' validate stage reaches the same verdicts as batch


def _poisoned_log():
    records = []
    seq = 0
    for step in range(15):
        for user in range(6):
            records.append(
                LogRecord(
                    seq=seq,
                    sql=(
                        "SELECT name FROM Employee "
                        f"WHERE empId = {step % 4 + user}"
                    ),
                    timestamp=float(step * 10 + user),
                    user=f"user{user}",
                )
            )
            seq += 1
    poison = [
        LogRecord(seq=900, sql="SELECT 1 FROM T", timestamp=float("nan"),
                  user="user1"),
        LogRecord(seq=901, sql=None, timestamp=42.0, user="user2"),
        LogRecord(seq=902, sql=12345, timestamp=43.0, user="user3"),
    ]
    return QueryLog(records), QueryLog(records + poison), poison


class TestPoisonedLogOverTheTransport:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("policy", ("lenient", "quarantine"))
    def test_policies_match_batch(self, policy, workers):
        valid, poisoned, poison = _poisoned_log()
        reference = repro.clean(valid, PipelineConfig())
        config = PipelineConfig(error_policy=policy)
        result = repro.clean(poisoned, config, execution=_execution(workers))
        assert result.clean_log == reference.clean_log
        if policy == "quarantine":
            assert result.quarantine.seqs() == [r.seq for r in poison]
        else:
            assert not result.quarantine
        assert result.metrics.conservation_violations() == []
        batch = repro.clean(poisoned, config)
        assert result.metrics.comparable() == batch.metrics.comparable()
