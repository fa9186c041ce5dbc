"""Unit tests for the unified ``repro.clean()`` entry point."""

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.log import LogRecord, QueryLog
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.pipeline.streaming import StreamingCleaner
from repro.skeleton.cache import TemplateCache

KEYS = frozenset({"empid", "id", "objid"})


def stifle_log(n=4):
    return QueryLog(
        LogRecord(
            seq=i,
            sql=f"SELECT name FROM e WHERE id = {i}",
            timestamp=i * 0.1,
            user="u",
        )
        for i in range(n)
    )


def config(**kwargs):
    return PipelineConfig(
        detection=DetectionContext(key_columns=KEYS), **kwargs
    )


class TestCleanDispatch:
    def test_default_is_batch_with_full_artifacts(self):
        result = repro.clean(stifle_log(), config())
        assert result.execution_mode == "batch"
        assert len(result.clean_log) == 1
        assert result.registry is not None
        assert result.overview().original_size == 4

    def test_streaming_mode(self):
        result = repro.clean(stifle_log(), config(), execution="streaming")
        assert result.execution_mode == "streaming"
        assert len(result.clean_log) == 1
        assert result.streaming_stats.records_in == 4
        assert result.streaming_stats.records_out == 1
        assert result.parallel_stats is None

    def test_parallel_mode(self):
        result = repro.clean(
            stifle_log(),
            config(),
            execution=ExecutionConfig(mode="parallel", workers=2),
        )
        assert result.execution_mode == "parallel"
        assert len(result.clean_log) == 1
        assert result.parallel_stats.records_in == 4
        assert result.streaming_stats is None

    def test_mode_can_come_from_the_config_itself(self):
        cfg = config(execution=ExecutionConfig(mode="streaming"))
        result = repro.clean(stifle_log(), cfg)
        assert result.execution_mode == "streaming"

    def test_execution_override_does_not_mutate_config(self):
        cfg = config()
        repro.clean(stifle_log(), cfg, execution="streaming")
        assert cfg.execution.mode == "batch"

    def test_invalid_mode_string(self):
        with pytest.raises(ValueError):
            repro.clean(stifle_log(), execution="distributed")

    def test_all_modes_agree(self):
        log = stifle_log(6)
        results = {
            mode: repro.clean(log, config(), execution=mode)
            for mode in ("batch", "streaming", "parallel")
        }
        statements = {
            mode: result.clean_log.statements()
            for mode, result in results.items()
        }
        assert statements["batch"] == statements["streaming"]
        assert statements["batch"] == statements["parallel"]


class TestLeanResultGuards:
    """Streaming/parallel results say *why* an artifact is missing."""

    def test_overview_raises_with_mode_in_message(self):
        result = repro.clean(stifle_log(), config(), execution="streaming")
        with pytest.raises(ValueError, match="streaming"):
            result.overview()

    def test_removal_log_raises(self):
        result = repro.clean(stifle_log(), config(), execution="parallel")
        with pytest.raises(ValueError, match="parallel"):
            result.removal_log

    def test_clean_log_always_available(self):
        for mode in ("batch", "streaming", "parallel"):
            result = repro.clean(stifle_log(), config(), execution=mode)
            assert isinstance(result.clean_log, QueryLog)


class TestExports:
    def test_exports(self):
        assert callable(repro.clean)
        assert repro.ExecutionConfig is ExecutionConfig
        assert "clean" in repro.__all__

    def test_one_call_shims_are_gone(self):
        import repro.log
        import repro.pipeline

        assert not hasattr(repro, "clean_log")
        assert not hasattr(repro.pipeline, "clean_log")
        assert not hasattr(repro.pipeline, "clean_log_streaming")
        assert not hasattr(repro.pipeline, "clean_log_parallel")
        assert not hasattr(repro.log, "read_csv")
        assert not hasattr(repro.log, "read_jsonl")
        with pytest.raises(TypeError):
            StreamingCleaner(config(), 4)
        with pytest.raises(TypeError):
            repro.clean(stifle_log(), transfer="pickle")
        with pytest.raises(TypeError):
            ExecutionConfig(mode="parallel", transfer="pickle")
        # No cache warming: the template dictionary and worker seeds.
        with pytest.raises(TypeError):
            repro.clean(stifle_log(), template_dict="templates.dict")
        with pytest.raises(TypeError):
            ExecutionConfig(template_dict="templates.dict")
        assert not hasattr(repro.pipeline, "set_worker_seed")
        for name in ("save_dict", "load_dict", "dict_witnesses",
                     "export_seed", "from_seed"):
            assert not hasattr(TemplateCache, name), name
        assert hasattr(TemplateCache, "preload")
