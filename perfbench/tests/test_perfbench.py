"""The benchmark's own tests, on tiny inputs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import repro
from bench import run_workload
from hostspeed import NOMINAL_S, normalised
from metrics import END_TO_END, MOVES, PER_LAYER
from tracing import TARGETS, Tracer, installed_wrappers, stage_times
from workloads import make_workload, workload_names

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
TINY = 0.03


def run_tiny(name, tmp_path, trace, **kwargs):
    return run_workload(
        name,
        seed=7,
        seconds=0.05,
        trace=trace,
        size=TINY,
        root=ROOT,
        workdir=tmp_path,
        min_calls=1,
        setup_reps=1,
        **kwargs,
    )


def target_values():
    """The current raw value of every trace target's attribute."""
    values = {}
    for _, module_name, path in TARGETS:
        owner = sys.modules[module_name]
        attr = path
        if "." in path:
            class_name, attr = path.split(".", 1)
            owner = getattr(owner, class_name)
        values[(module_name, path)] = vars(owner)[attr]
    return values


@pytest.mark.parametrize("name", workload_names())
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_is_correct_and_complete(name, trace, tmp_path):
    outcome = run_tiny(name, tmp_path, trace)
    assert outcome.failures == []
    assert outcome.correct
    assert outcome.report["error_rate"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert set(outcome.metrics) == set(expected)
    for metric, unit in expected.items():
        value = outcome.metrics[metric]["value"]
        assert isinstance(value, (int, float)), metric
        assert value >= 0, metric
        assert outcome.metrics[metric]["unit"] == unit
    if trace:
        roots = [span for span in outcome.spans if span.name == "clean"]
        assert roots and all(span.parent is None for span in roots)
    else:
        assert outcome.spans == []
        for metric in END_TO_END:
            assert outcome.metrics[metric]["value"] > 0, metric
    calls = outcome.report["calls"]
    assert len(calls["untraced_kernel_seconds"]) == len(calls["untraced_seconds"])
    assert len(calls["setup_kernel_seconds"]) == len(calls["setup_seconds"])
    provenance = outcome.report["provenance"]
    for key in ("git_rev", "cpus", "python", "seed", "input_records", "timestamp"):
        assert key in provenance


@pytest.mark.parametrize(
    "name", ["skyserver-batch", "adhoc-store-streaming"]
)
def test_stage_self_times_and_unaccounted_add_up_to_wall(name, tmp_path):
    workload = make_workload(name, 7, TINY, tmp_path)
    workload.setup()
    try:
        with Tracer() as tracer:
            tracer.run_id = 1
            tracer.call("clean", workload.call)
        workload.after_call()
    finally:
        workload.teardown()
    spans = tracer.run_spans(1)
    root = next(span for span in spans if span.name == "clean")
    busy, unaccounted = stage_times(spans, root)
    assert all(seconds >= 0 for seconds in busy.values())
    assert unaccounted >= 0
    assert sum(busy.values()) > 0
    assert sum(busy.values()) + unaccounted == pytest.approx(
        root.duration, rel=1e-9, abs=1e-9
    )
    for span in spans:
        assert span.run_id == 1
        assert span.parent is not None or span is root


def drop_first_record(result):
    clean = list(result.clean_log)
    return replace(result, solve_result=None, cleaned=repro.QueryLog(clean[1:]))


def inflate_ledger(result):
    result.metrics.stage("solve").count("instances_solved", 1)
    return result


@pytest.mark.parametrize("corrupt", [drop_first_record, inflate_ledger])
@pytest.mark.parametrize("trace", [False, True])
def test_corrupted_output_counts_as_failure(corrupt, trace, tmp_path):
    outcome = run_tiny("skyserver-batch", tmp_path, trace, corrupt=corrupt)
    assert outcome.attempted >= 2
    assert outcome.failed == outcome.attempted
    assert not outcome.correct
    assert outcome.report["error_rate"] == 1.0


def test_no_wrapper_left_installed(tmp_path):
    run_tiny("skyserver-batch", tmp_path, trace=False)  # imports every layer
    before = target_values()
    assert installed_wrappers() == []
    run_tiny("adhoc-store-streaming", tmp_path, trace=True)
    assert installed_wrappers() == []
    assert target_values() == before

    with pytest.raises(RuntimeError):
        with Tracer():
            assert installed_wrappers()
            raise RuntimeError("a call that dies mid-trace")
    assert installed_wrappers() == []
    assert target_values() == before


def test_every_trace_target_exists(tmp_path):
    run_tiny("skyserver-parallel", tmp_path, trace=False)
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.missing == []


def test_benchmark_json_names_the_workloads_and_mapped_layers():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == workload_names()
    assert set(MOVES) == set(PER_LAYER)
    for _, workloads in MOVES.values():
        assert set(workloads) <= set(workload_names())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skyserver-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def test_times_are_rescaled_by_the_paired_kernel_run():
    assert normalised([2.0, 3.0], [2 * NOMINAL_S, NOMINAL_S]) == [1.0, 3.0]
    with pytest.raises(ValueError):
        normalised([1.0], [])


def test_wall_s_is_the_median_normalised_call(tmp_path):
    outcome = run_tiny("skyserver-batch", tmp_path, trace=False)
    calls = outcome.report["calls"]
    expected = statistics.median(
        normalised(calls["untraced_seconds"], calls["untraced_kernel_seconds"])
    )
    assert outcome.metrics["wall_s"]["value"] == expected
    measured = outcome.report["measured"]
    assert measured["wall_s"] == statistics.median(calls["untraced_seconds"])


def test_the_kernel_imports_nothing_of_the_program():
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys, hostspeed; hostspeed.kernel_seconds(10); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        cwd=HERE,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
