"""Every template is built once per parse cache, whatever the input.

The cold path — :meth:`~repro.skeleton.cache.TemplateCache.fetch` miss,
then :meth:`~repro.skeleton.cache.TemplateCache.build` — is the only way
a template enters a cache during a run, so the number of ``build`` calls
a run makes must equal the ``parse_cold`` its own ledger books.  A build
the ledger does not see (a cache warmed before the first record) is
wasted work.  These tests count the calls with a wrapper over every
input kind and executor, and pin the eviction count of a log that
overflows the cache.
"""

import pytest

import repro
from repro.log import LogRecord, QueryLog
from repro.log.io import write_csv
from repro.pipeline import ExecutionConfig, PipelineConfig
from repro.skeleton.cache import TemplateCache
from repro.store.columnar import write_columnar
from repro.workload.generator import generate_log


def distinct_log(count):
    """``count`` statements, each its own template (distinct columns and
    tables), spread over eight users."""
    return QueryLog(
        LogRecord(
            seq=i,
            sql=f"SELECT c{i} FROM t{i} WHERE a = {i}",
            timestamp=float(i),
            user=f"user{i % 8}",
        )
        for i in range(count)
    )


def skyserver_log():
    """A SkyServer-shaped log: few templates, many repeats."""
    return generate_log(seed=11, scale=0.03)


def as_input(kind, log, tmp_path):
    """``log`` as a clean() input of the given kind."""
    if kind == "memory":
        return log
    if kind == "csv":
        path = tmp_path / "log.csv"
        write_csv(log, path)
        return str(path)
    path = tmp_path / "log.columnar"
    write_columnar(log, path, chunk_records=128)
    return str(path)


@pytest.fixture()
def build_calls(monkeypatch):
    """Count TemplateCache.build calls made in this process."""
    calls = []
    original = TemplateCache.build

    def counting_build(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TemplateCache, "build", counting_build)
    return calls


EXECUTORS = {
    "batch": {"mode": "batch"},
    "streaming": {"mode": "streaming"},
    "streaming-checkpoint": {"mode": "streaming"},
    "parallel-1": {"mode": "parallel", "workers": 1},
    "parallel-2": {"mode": "parallel", "workers": 2},
}

INPUTS = {
    "store-distinct": ("store", lambda: distinct_log(600)),
    "store-skyserver": ("store", skyserver_log),
    "csv": ("csv", skyserver_log),
    "memory": ("memory", skyserver_log),
}


class TestBuildOnceLaw:
    @pytest.mark.parametrize("executor", list(EXECUTORS))
    @pytest.mark.parametrize("source", list(INPUTS))
    def test_builds_equal_the_ledger_cold_parses(
        self, tmp_path, build_calls, source, executor
    ):
        kind, make_log = INPUTS[source]
        log_input = as_input(kind, make_log(), tmp_path)
        kwargs = {}
        if executor == "streaming-checkpoint":
            kwargs["checkpoint_dir"] = str(tmp_path / "ckpt")
        result = repro.clean(
            log_input,
            PipelineConfig(error_policy="lenient"),
            execution=ExecutionConfig(**EXECUTORS[executor]),
            **kwargs,
        )
        counters = result.metrics.stage("parse").counters
        if executor == "parallel-2":
            # The workers build; the parent never touches a cache.
            assert len(build_calls) == 0
        else:
            assert counters["parse_cold"] > 0
            assert len(build_calls) == counters["parse_cold"]
        assert result.metrics.conservation_violations() == []


class TestEvictionAccounting:
    @pytest.mark.parametrize("mode", ["batch", "streaming"])
    @pytest.mark.parametrize("kind", ["memory", "csv", "store"])
    def test_overflowing_distinct_log(self, tmp_path, kind, mode):
        # Each build past the bound evicts one exact-text (L1) and one
        # fingerprint (L2) entry.
        count, size = 400, 150
        result = repro.clean(
            as_input(kind, distinct_log(count), tmp_path),
            execution=ExecutionConfig(mode=mode, parse_cache_size=size),
        )
        counters = result.metrics.stage("parse").counters
        assert counters["parse_cold"] == count
        assert counters["parse_cache_evictions"] == 2 * (count - size)
