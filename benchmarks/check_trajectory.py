"""Consolidated benchmark-trajectory gate.

Each perf PR in this repo lands with its own benchmark (E22 fast path,
E25 zero-copy data plane, E28 parse engine v4)
and each benchmark asserts its own acceptance
bars when it runs.  This script is the belt to those braces: it
re-reads the ``BENCH_*.json`` reports the benchmarks just wrote and
re-asserts every bar in one place, so a regression in an *older*
experiment fails the build with a single consolidated summary instead
of being spread across step logs — and so a report that silently
stopped being written, truncated mid-write or left in a stale schema
is itself a counted failure, never an abort that masks the rest of
the sweep.

Bars are scale-aware, mirroring the in-test logic: speed bars relax at
smoke scale exactly as the benchmarks relax them, hardware-gated bars
(E25's multicore speedup) stay dormant where the cores are missing, and
the correctness bars — byte identity, equal comparable ledgers, zero
conservation violations — hold at every scale.

Usage: ``python benchmarks/check_trajectory.py [--allow-missing]``
(exit 0 = every bar holds, 1 = regression or missing report).
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).parent

CHECKS = []


def experiment(name):
    def register(fn):
        CHECKS.append((name, fn))
        return fn

    return register


def _clean_run_bars(runs, identical_key, metrics_key):
    for run in runs:
        if not run.get(identical_key):
            yield f"{run['mode']}: clean log diverged from the reference"
        if not run.get(metrics_key):
            yield f"{run['mode']}: comparable ledger diverged"
        if run.get("conservation_violations"):
            yield f"{run['mode']}: {run['conservation_violations']}"


@experiment("E22 parse fast path — BENCH_parse_fastpath.json")
def check_fastpath(report):
    stage = report["parse_stage"]
    if stage["warm_speedup"] < 3.0:
        yield f"warm-cache speedup {stage['warm_speedup']:.2f}x < 3.0x"
    if stage["warm_hit_rate"] <= 0.95:
        yield f"warm hit rate {stage['warm_hit_rate']:.2%} <= 95%"
    if report["streaming_vs_batch_parse_ratio"] > 1.5:
        yield (
            "streaming parse "
            f"{report['streaming_vs_batch_parse_ratio']:.2f}x batch > 1.5x"
        )
    yield from _clean_run_bars(
        report["clean_runs"], "identical_to_reference", "metrics_match_reference"
    )


@experiment("E25 zero-copy data plane — BENCH_parallel.json")
def check_zerocopy(report):
    section = report.get("zerocopy")
    if section is None:
        yield "report carries no zerocopy section (E25 did not run)"
        return
    runs = section["runs"]
    for run in runs:
        if not run.get("identical_to_batch"):
            yield f"{run['mode']} (workers={run['workers']}): not byte-identical"
        if not run.get("metrics_match_batch"):
            yield f"{run['mode']} (workers={run['workers']}): ledger diverged"
    inline = [r for r in runs if "overhead_vs_batch" in r]
    if not inline:
        yield "no parallel-1 inline run recorded"
    elif inline[0]["overhead_vs_batch"] > 1.2:
        yield f"parallel-1 costs {inline[0]['overhead_vs_batch']:.2f}x batch > 1.2x"
    if section["visible_cpus"] >= 4:
        best = max(
            r["speedup_vs_batch"] for r in runs if r.get("workers") == 4
        )
        if best < 3.0:
            yield (
                f"parallel-4 only {best:.2f}x vs batch on "
                f"{section['visible_cpus']} CPUs (bar 3.0x)"
            )


@experiment("E28 parse engine v4 — BENCH_parse_v4.json")
def check_parse_v4(report):
    cold = report["cold_parse"]
    full = report["scale"] >= report["full_scale"]
    bar = 1.5 if full else 1.2
    if cold["speedup"] < bar:
        yield (
            f"cold-parse speedup {cold['speedup']:.2f}x < {bar}x "
            f"at scale {report['scale']}"
        )
    if cold["mismatches"]:
        yield f"{cold['mismatches']} cold-parse output mismatches vs the v3 flow"
    pre = report["preload"]
    bar = 2.0 if full else 1.5
    if pre["speedup"] < bar:
        yield (
            f"batched-preload speedup {pre['speedup']:.2f}x < {bar}x "
            f"at scale {report['scale']}"
        )
    if pre["loaded_v4"] != pre["witnesses"]:
        yield (
            f"batched preload admitted {pre['loaded_v4']}/{pre['witnesses']} "
            "witnesses"
        )
    if pre["loaded_v3"] != pre["loaded_v4"]:
        yield (
            f"batched preload admitted {pre['loaded_v4']} witnesses but the "
            f"per-witness flow admitted {pre['loaded_v3']}"
        )
    if not pre["identical_hit_behavior"]:
        yield "post-preload fetch behavior diverged from the per-witness flow"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--allow-missing",
        action="store_true",
        help="skip absent reports instead of failing (local spot checks)",
    )
    options = parser.parse_args(argv)

    # Every report is loaded and every check runs before the verdict:
    # a gate that stops at the first bad report hides how many
    # experiments actually regressed, and an unreadable or
    # wrong-format report (a truncated write, a stale pre-rename
    # schema) used to abort the whole gate with a traceback instead of
    # being counted as the failure it is.
    failures = 0
    for name, check in CHECKS:
        path = HERE / name.rsplit("— ", 1)[1]
        if not path.exists():
            if options.allow_missing:
                print(f"SKIP  {name}: no report")
                continue
            print(f"FAIL  {name}: report missing")
            failures += 1
            continue
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as error:
            print(f"FAIL  {name}: unreadable report ({error})")
            failures += 1
            continue
        try:
            problems = list(check(report))
        except Exception as error:  # noqa: BLE001 - a bad report is a failure
            print(f"FAIL  {name}: malformed report ({error!r})")
            failures += 1
            continue
        if problems:
            failures += 1
            print(f"FAIL  {name}")
            for problem in problems:
                print(f"      - {problem}")
        else:
            print(f"OK    {name} (scale {report.get('scale', '?')})")
    if failures:
        print(f"\n{failures} of {len(CHECKS)} experiments failed the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
