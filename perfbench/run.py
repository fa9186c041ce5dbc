"""End-to-end benchmark of ``repro.clean()``.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, a table
    python3 perfbench/run.py --workload skyserver-batch --seed 2018 \\
        --seconds 25 --trace 0

With ``--workload`` one workload runs in this process and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  Without it, every workload
runs in its own child process and a summary is printed.  Each run also
writes a report with provenance under ``.perfbench/reports/``; a traced
run also writes its spans there, one ``[id, name, start, end, parent,
run id]`` array per line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SECONDS = 25


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_tree() -> bool:
    """The program's sources must sit next to the benchmark."""
    if (ROOT / "src" / "repro" / "__init__.py").is_file():
        return True
    print(
        f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
        "run from a full checkout of the repository",
        file=sys.stderr,
    )
    return False


def run_one(args) -> int:
    from bench import run_workload
    from metrics import ERROR_RATE
    from workloads import DEFAULT_SEED

    seed = DEFAULT_SEED if args.seed is None else args.seed
    base = ROOT / ".perfbench"
    workdir = base / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = run_workload(
            args.workload,
            seed,
            args.seconds,
            bool(args.trace),
            1.0,
            ROOT,
            workdir,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reports = base / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    report_path = reports / (
        f"{args.workload}-seed{seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    report_path.write_text(json.dumps(outcome.report, indent=2) + "\n")
    if outcome.spans:
        spans_path = report_path.with_suffix(".spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as out:
            for span in outcome.spans:
                out.write(json.dumps(dataclasses.astuple(span)) + "\n")

    for reason in outcome.failures:
        print(f"perfbench: failed call: {reason}", file=sys.stderr)
    error_rate = outcome.report[ERROR_RATE[0]]
    print(f"{args.workload} seed={seed} trace={args.trace} report={report_path}")
    for name, metric in outcome.metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {ERROR_RATE[0]:32s} {error_rate:>16.6g} {ERROR_RATE[1]}")
    for name, value in outcome.report["measured"].items():
        if value is not None:
            print(f"  {'measured ' + name:32s} {value:>16.6g} s")
    print(
        json.dumps(
            {
                "correct": outcome.correct and bool(outcome.metrics),
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": outcome.metrics,
            }
        )
    )
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Every workload in its own child process, then one summary."""
    from workloads import workload_names

    status = 0
    for name in workload_names():
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exit code {child.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"  {'correct':32s} {result['correct']!s:>16} "
            f"({result['failed']} of {result['attempted']} calls failed)"
        )
        status = status or int(not result["correct"])
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not check_tree():
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
