"""Differential suite: the lazy parse fast path tells the same story.

Every parse-cache hit is a lazy query, which changes *when* SQL text
and ASTs materialise, and nothing else.  For a generated workload this
suite pins every executor configuration's cached run to its own
uncached run (``parse_cache=False``, a fresh full parse of every
statement): identical clean records, an equal ``comparable()`` ledger
counter for counter, and zero conservation violations — plus the
lazy-specific accounting laws (``parse_lazy_hits + parse_eager ==
parse.records_out``, uncached runs booking zero lazy hits).
"""

from __future__ import annotations

import pytest

import repro
from repro.antipatterns import DetectionContext
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.workload import WorkloadConfig, generate, skyserver_catalog

KEYS = frozenset(skyserver_catalog().key_column_names())

EXECUTIONS = {
    "batch": ExecutionConfig(mode="batch"),
    "streaming": ExecutionConfig(mode="streaming"),
    "parallel-1": ExecutionConfig(mode="parallel", workers=1, chunk_size=0),
    "parallel-2": ExecutionConfig(mode="parallel", workers=2, chunk_size=0),
    "parallel-4": ExecutionConfig(mode="parallel", workers=4, chunk_size=0),
}


@pytest.fixture(scope="module")
def workload_log():
    return generate(WorkloadConfig(seed=2018, scale=0.05)).log


def _config():
    return PipelineConfig(detection=DetectionContext(key_columns=KEYS))


class TestLazyParseMatrix:
    @pytest.mark.parametrize("name", sorted(EXECUTIONS))
    def test_cached_matches_uncached(self, name, workload_log):
        execution = EXECUTIONS[name]
        cached = repro.clean(workload_log, _config(), execution=execution)
        uncached = repro.clean(
            workload_log, _config(), execution=execution, parse_cache=False
        )
        assert cached.clean_log.records() == uncached.clean_log.records()
        assert cached.metrics.comparable() == uncached.metrics.comparable()
        assert cached.metrics.conservation_violations() == []
        assert uncached.metrics.conservation_violations() == []

        cached_parse = cached.metrics.stages["parse"].counters
        uncached_parse = uncached.metrics.stages["parse"].counters
        # The ledger law, by hand (the conservation check above already
        # enforces it, but pin the counters exist and carry traffic).
        assert (
            cached_parse["parse_lazy_hits"] + cached_parse["parse_eager"]
            == cached_parse["records_out"]
        )
        assert cached_parse["parse_lazy_hits"] > 0, (
            "a repetitive workload must take the lazy path"
        )
        assert uncached_parse["parse_lazy_hits"] == 0
        assert uncached_parse["parse_cache_hits"] == 0
        # Materialisation is bounded by emission.
        assert (
            cached_parse["parse_materialised"]
            <= cached_parse["parse_lazy_hits"]
        )

    def test_cli_knob_reaches_the_run(self, workload_log, tmp_path):
        """--no-parse-cache flows through to the execution config and
        leaves the clean log unchanged."""
        import json

        from repro.cli.main import main
        from repro.log.io import write_csv

        source = tmp_path / "log.csv"
        write_csv(workload_log, source)
        ledgers = {}
        outputs = {}
        for flags in ((), ("--no-parse-cache",)):
            out = tmp_path / f"clean{len(flags)}.csv"
            metrics = tmp_path / f"metrics{len(flags)}.json"
            code = main(
                [
                    "clean",
                    str(source),
                    "--output",
                    str(out),
                    "--metrics-json",
                    str(metrics),
                    *flags,
                ]
            )
            assert code == 0
            ledgers[flags] = json.loads(metrics.read_text())
            outputs[flags] = out.read_bytes()
        off = ("--no-parse-cache",)
        assert outputs[()] == outputs[off]
        cached = ledgers[()]["stages"]["parse"]["counters"]
        uncached = ledgers[off]["stages"]["parse"]["counters"]
        assert cached["parse_cache_hits"] > 0
        assert uncached["parse_cache_hits"] == 0
        assert uncached["parse_lazy_hits"] == 0
