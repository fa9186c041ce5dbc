"""Unit tests for the checkpoint layer (repro.store.checkpoint)."""

import dataclasses
import json

import pytest

import repro
from repro.log import LogRecord, QueryLog, write_jsonl
from repro.obs import NULL, Recorder
from repro.pipeline.config import ExecutionConfig, PipelineConfig
from repro.pipeline.streaming import StreamingCleaner
from repro.store import (
    CheckpointError,
    RunCheckpoint,
    clean_streaming_source,
    config_digest,
    open_log,
    write_columnar,
)
from repro.store.checkpoint import STATE_VERSION
from repro.store.sources import InMemorySource
from repro.workload import generate_log


@pytest.fixture(scope="module")
def workload():
    return generate_log(seed=2018, scale=0.04)


def streaming_config(**execution_kwargs):
    execution_kwargs.setdefault("mode", "streaming")
    return PipelineConfig(execution=ExecutionConfig(**execution_kwargs))


class TestConfigDigest:
    def test_stable_across_calls(self):
        config = streaming_config()
        assert config_digest(config) == config_digest(streaming_config())

    def test_sensitive_to_what_matters(self):
        base = config_digest(streaming_config())
        assert config_digest(
            PipelineConfig(
                dedup_threshold=2.0,
                execution=ExecutionConfig(mode="streaming"),
            )
        ) != base
        assert config_digest(
            streaming_config(source_chunk_records=17)
        ) != base

    def test_frozensets_digest_order_free(self):
        from repro.antipatterns.base import DetectionContext

        a = PipelineConfig(
            detection=DetectionContext(key_columns=frozenset({"a", "b", "c"}))
        )
        b = PipelineConfig(
            detection=DetectionContext(key_columns=frozenset({"c", "b", "a"}))
        )
        assert config_digest(a) == config_digest(b)


class TestRunCheckpoint:
    def test_spill_round_trip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "ck")
        records = [
            LogRecord(0, "SELECT a FROM t", 1.0, "u1", "1.2.3.4", "s", 2),
            LogRecord(1, "SELECT b FROM t", float("nan"), None, None, None, None),
        ]
        checkpoint.spill_chunk(3, records)
        loaded = checkpoint.load_spill(3)
        assert loaded[0] == records[0]
        assert loaded[1].seq == 1 and loaded[1].timestamp != loaded[1].timestamp

    def test_state_round_trip_and_version_gate(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "ck")
        assert not checkpoint.has_state()
        with pytest.raises(CheckpointError, match="nothing to resume"):
            checkpoint.load_state()
        checkpoint.save_state({"version": STATE_VERSION, "chunks_done": 2})
        assert checkpoint.load_state()["chunks_done"] == 2
        checkpoint.save_state({"version": STATE_VERSION + 1})
        with pytest.raises(CheckpointError, match="state version"):
            checkpoint.load_state()

    def test_missing_spill_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing spill"):
            RunCheckpoint(tmp_path).load_spill(0)


class TestStreamingStateRoundTrip:
    def test_export_restore_continues_identically(self, workload):
        config = streaming_config()
        records = workload.records()
        half = len(records) // 2

        reference = StreamingCleaner(config, recorder=NULL)
        expected = list(reference.process(records))

        first = StreamingCleaner(config, recorder=NULL)
        head = list(first.feed(records[:half]))
        state = json.loads(json.dumps(first.export_state()))  # via real JSON

        second = StreamingCleaner(config, recorder=NULL)
        second.restore_state(state)
        tail = list(second.feed(records[half:])) + list(second.finish())

        assert head + tail == expected
        ref_stats = dataclasses.asdict(reference.stats)
        res_stats = dataclasses.asdict(second.stats)
        # The cache-traffic counters (and the lazy-emission counters
        # that follow them) are restore-dependent by design: the revived
        # cleaner starts with an empty parse cache, so its hit/miss/cold
        # traffic differs from the uninterrupted run's.
        for name in ("parse_cache_hits", "parse_cache_misses",
                     "parse_cache_evictions", "parse_lazy_hits",
                     "parse_materialised", "parse_cold"):
            ref_stats.pop(name), res_stats.pop(name)
        assert res_stats == ref_stats

    def test_cache_conservation_survives_restore(self, workload):
        config = streaming_config()
        records = workload.records()
        first = StreamingCleaner(config, recorder=NULL)
        list(first.feed(records[:200]))
        state = first.export_state()
        second = StreamingCleaner(config, recorder=NULL)
        second.restore_state(state)
        list(second.feed(records[200:]))
        list(second.finish())
        stats = second.stats
        processed = (
            stats.records_in
            - stats.records_invalid
            - stats.duplicates_removed
        )
        assert stats.parse_cache_hits + stats.parse_cache_misses == processed

    def test_quarantine_survives_restore(self):
        config = PipelineConfig(
            error_policy="quarantine",
            execution=ExecutionConfig(mode="streaming"),
        )
        bad = [
            LogRecord(0, "SELECT a FROM t", 1.0, "u"),
            LogRecord(1, "SELEKT garbage", 2.0, "u"),
            LogRecord(2, "SELECT b FROM t", float("nan"), "u"),
        ]
        cleaner = StreamingCleaner(config, recorder=NULL)
        list(cleaner.feed(bad))
        state = json.loads(json.dumps(cleaner.export_state()))
        restored = StreamingCleaner(config, recorder=NULL)
        restored.restore_state(state)
        assert restored.quarantine.by_reason() == cleaner.quarantine.by_reason()
        nan_entry = [
            e for e in restored.quarantine if e.reason == "invalid_timestamp"
        ][0]
        assert nan_entry.record.timestamp != nan_entry.record.timestamp  # NaN


class TestCleanStreamingSource:
    def test_checkpointed_equals_plain(self, workload, tmp_path):
        config = streaming_config(source_chunk_records=150)
        source = InMemorySource(workload, chunk_records=150)
        plain, _ = clean_streaming_source(source, config, Recorder())
        checked, cleaner = clean_streaming_source(
            source, config, Recorder(), checkpoint_dir=tmp_path / "ck"
        )
        assert checked.records() == plain.records()
        state = RunCheckpoint(tmp_path / "ck").load_state()
        assert state["complete"] is True

    def test_resume_mid_run_reproduces_result(self, workload, tmp_path):
        config = streaming_config(source_chunk_records=100)
        source = InMemorySource(workload, chunk_records=100)
        reference, _ = clean_streaming_source(source, config, Recorder())

        # Simulate a kill after three chunks: run the driver's own loop
        # partially, checkpointing as it would, then abandon it.
        from repro.store.checkpoint import config_digest as digest_fn

        checkpoint = RunCheckpoint(tmp_path / "ck")
        recorder = Recorder()
        cleaner = StreamingCleaner(config, recorder=recorder)
        for index, chunk in enumerate(source.open_chunks()):
            if index >= 3:
                break
            emitted = list(cleaner.feed(chunk))
            checkpoint.spill_chunk(index, emitted)
            checkpoint.save_state(
                {
                    "version": STATE_VERSION,
                    "source_fingerprint": source.fingerprint(),
                    "config_digest": digest_fn(config),
                    "chunks_done": index + 1,
                    "complete": False,
                    "cleaner": cleaner.export_state(),
                    "metrics": recorder.metrics.as_dict(),
                }
            )

        resumed, _ = clean_streaming_source(
            source,
            config,
            Recorder(),
            checkpoint_dir=tmp_path / "ck",
            resume=True,
        )
        assert resumed.records() == reference.records()

    def test_resume_of_complete_run_is_idempotent(self, workload, tmp_path):
        config = streaming_config(source_chunk_records=150)
        source = InMemorySource(workload, chunk_records=150)
        first, _ = clean_streaming_source(
            source, config, Recorder(), checkpoint_dir=tmp_path / "ck"
        )
        again, _ = clean_streaming_source(
            source,
            config,
            Recorder(),
            checkpoint_dir=tmp_path / "ck",
            resume=True,
        )
        assert again.records() == first.records()

    def test_resume_rejects_changed_source(self, workload, tmp_path):
        config = streaming_config(source_chunk_records=150)
        source = InMemorySource(workload, chunk_records=150)
        clean_streaming_source(
            source, config, Recorder(), checkpoint_dir=tmp_path / "ck"
        )
        other = InMemorySource(
            workload.records()[: len(workload) // 2], chunk_records=150
        )
        with pytest.raises(CheckpointError, match="different source"):
            clean_streaming_source(
                other,
                config,
                Recorder(),
                checkpoint_dir=tmp_path / "ck",
                resume=True,
            )

    def test_resume_rejects_changed_config(self, workload, tmp_path):
        config = streaming_config(source_chunk_records=150)
        source = InMemorySource(workload, chunk_records=150)
        clean_streaming_source(
            source, config, Recorder(), checkpoint_dir=tmp_path / "ck"
        )
        changed = PipelineConfig(
            dedup_threshold=5.0,
            execution=ExecutionConfig(mode="streaming", source_chunk_records=150),
        )
        with pytest.raises(CheckpointError, match="different configuration"):
            clean_streaming_source(
                source,
                changed,
                Recorder(),
                checkpoint_dir=tmp_path / "ck",
                resume=True,
            )

    def test_resume_requires_checkpoint_dir(self, workload):
        with pytest.raises(CheckpointError, match="requires a checkpoint_dir"):
            clean_streaming_source(
                InMemorySource(workload),
                streaming_config(),
                Recorder(),
                resume=True,
            )


class TestCleanApiCheckpointing:
    def test_checkpoint_dir_rejected_outside_streaming(self, workload, tmp_path):
        for mode in ("batch", "parallel"):
            with pytest.raises(ValueError, match="streaming"):
                repro.clean(
                    workload,
                    execution=mode,
                    checkpoint_dir=tmp_path / "ck",
                )

    def test_resume_requires_checkpoint_dir(self, workload):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            repro.clean(workload, execution="streaming", resume=True)

    def test_checkpointed_path_run_matches_in_memory(self, workload, tmp_path):
        store = tmp_path / "log.columnar"
        write_columnar(workload, store, chunk_records=200)
        base = repro.clean(workload, execution="streaming")
        checked = repro.clean(
            str(store),
            execution="streaming",
            checkpoint_dir=str(tmp_path / "ck"),
        )
        assert checked.clean_log.records() == base.clean_log.records()
        assert checked.metrics.comparable() == base.metrics.comparable()
        assert checked.metrics.conservation_violations() == []
        assert checked.original is None  # out-of-core runs keep no input log

    def test_jsonl_source_checkpoint_resume(self, workload, tmp_path):
        path = tmp_path / "log.jsonl"
        write_jsonl(workload, path)
        execution = ExecutionConfig(mode="streaming", source_chunk_records=120)
        base = repro.clean(workload, execution="streaming")
        run = repro.clean(
            str(path), execution=execution, checkpoint_dir=tmp_path / "ck"
        )
        resumed = repro.clean(
            str(path),
            execution=execution,
            checkpoint_dir=tmp_path / "ck",
            resume=True,
        )
        assert run.clean_log.records() == base.clean_log.records()
        assert resumed.clean_log.records() == base.clean_log.records()
