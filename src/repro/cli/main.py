"""Command-line interface: ``sqlog-clean``.

Subcommands:

* ``generate`` — synthesise a SkyServer-shaped log to CSV/JSONL/columnar;
* ``clean``    — run the cleaning pipeline on a log file or columnar
  store, write the clean log and print the Table 5-style overview;
  ``--checkpoint-dir`` / ``--resume`` make streaming runs kill-resilient;
* ``convert``  — convert a log between CSV, JSONL and the columnar store;
* ``patterns`` — print the top patterns/antipatterns of a log;
* ``cluster``  — run the downstream clustering comparison.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, List, Optional

from ..analysis.experiment import run_downstream_experiment
from ..antipatterns.base import DetectionContext
from ..errors import QuarantineChannel
from ..log.io import write_csv, write_jsonl
from ..log.models import LogRecord, QueryLog
from ..patterns.sws import SwsConfig
from ..pipeline.config import PipelineConfig
from ..pipeline.framework import CleaningPipeline
from ..store import CheckpointError, open_log
from ..workload.generator import WorkloadConfig, generate
from ..workload.schema import skyserver_catalog


def _read_log(
    path: str,
    errors: str = "strict",
    channel: Optional[QuarantineChannel] = None,
) -> QueryLog:
    with open_log(path, errors=errors, channel=channel) as source:
        return source.read()


def _output_format(path: str) -> str:
    """The format implied by an *output* path's extension.

    Unlike input sniffing there is nothing on disk to inspect yet, so
    anything that is not ``.csv`` / ``.jsonl`` becomes a columnar store
    directory.
    """
    if path.endswith(".jsonl"):
        return "jsonl"
    if path.endswith(".csv"):
        return "csv"
    return "columnar"


def _write_records(
    records: Iterable[LogRecord], path: str, fmt: Optional[str] = None
) -> None:
    from ..store.columnar import write_columnar

    fmt = fmt or _output_format(path)
    if fmt == "jsonl":
        write_jsonl(records, path)
    elif fmt == "csv":
        write_csv(records, path)
    else:
        write_columnar(records, path)


def _write_log(log: QueryLog, path: str) -> None:
    _write_records(log, path)


def _default_config(
    dedup: float,
    use_schema: bool,
    sws: bool,
    error_policy: str = "strict",
) -> PipelineConfig:
    detection = DetectionContext(
        key_columns=frozenset(skyserver_catalog().key_column_names())
        if use_schema
        else None
    )
    return PipelineConfig(
        dedup_threshold=dedup,
        detection=detection,
        sws=SwsConfig() if sws else None,
        error_policy=error_policy,
    )


def cmd_generate(args: argparse.Namespace) -> int:
    result = generate(WorkloadConfig(seed=args.seed, scale=args.scale))
    _write_log(result.log, args.output)
    counts = result.truth.count_by_label()
    print(f"wrote {len(result.log):,} queries to {args.output}")
    for label in sorted(counts):
        print(f"  planted {label:<14} {counts[label]:,}")
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    import json

    from ..obs import JsonlSink, Recorder
    from ..pipeline.api import clean
    from ..pipeline.config import ExecutionConfig

    config = _default_config(
        args.dedup_threshold,
        args.skyserver_schema,
        args.sws,
        args.error_policy,
    )
    if args.streaming and args.parallel:
        print("choose one of --streaming / --parallel", file=sys.stderr)
        return 2
    mode = "streaming" if args.streaming else "parallel" if args.parallel else "batch"
    execution_kwargs = {"mode": mode, "workers": args.workers}
    if args.no_parse_cache:
        execution_kwargs["parse_cache"] = False
    if args.parse_cache_size is not None:
        execution_kwargs["parse_cache_size"] = args.parse_cache_size
    if args.no_pool_reuse:
        execution_kwargs["pool_reuse"] = False
    try:
        execution = ExecutionConfig(**execution_kwargs)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.checkpoint_dir and mode != "streaming":
        print(
            "--checkpoint-dir requires --streaming (batch and parallel "
            "runs have no serialisable mid-run state)",
            file=sys.stderr,
        )
        return 2
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    recorder = Recorder(sinks=[JsonlSink(sys.stderr)] if args.trace else [])
    # The input path goes straight into clean(): the non-batch executors
    # stream it out of core, and the checkpoint layer needs the source
    # (not a materialised log) to fingerprint and to seek on resume.
    try:
        result = clean(
            args.input,
            config,
            execution=execution,
            recorder=recorder,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )
    except CheckpointError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    recorder.close()  # flush the final metrics event to the trace sinks
    if args.metrics_json:
        metrics = result.metrics.as_dict()
        violations = result.metrics.conservation_violations()
        if violations:
            metrics["conservation_violations"] = violations
        metrics_path = Path(args.metrics_json)
        metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(
            json.dumps(metrics, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote per-stage metrics to {args.metrics_json}")
    quarantine = result.quarantine
    if args.quarantine_json:
        payload = {"error_policy": args.error_policy}
        payload.update(quarantine.as_dict())
        quarantine_path = Path(args.quarantine_json)
        quarantine_path.parent.mkdir(parents=True, exist_ok=True)
        quarantine_path.write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote quarantine report to {args.quarantine_json}")
    if args.error_policy == "quarantine":
        reasons = ", ".join(
            f"{reason} {count:,}"
            for reason, count in sorted(quarantine.by_reason().items())
        )
        print(
            f"quarantined {len(quarantine):,} records"
            + (f" ({reasons})" if reasons else "")
        )
    if args.output:
        _write_log(result.clean_log, args.output)
        print(
            f"wrote clean log ({len(result.clean_log):,} queries) to {args.output}"
        )
    if mode == "streaming":
        stats = result.streaming_stats
        print(
            f"streamed {stats.records_in:,} records -> {stats.records_out:,} "
            f"(dup {stats.duplicates_removed:,}, syntax {stats.syntax_errors:,}, "
            f"non-select {stats.non_select:,}, solved {stats.instances_solved:,}; "
            f"peak open queries {stats.max_open_queries:,})"
        )
        return 0
    if mode == "parallel":
        pstats = result.parallel_stats
        timings = " ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in pstats.timings.as_dict().items()
        )
        print(
            f"parallel-cleaned {pstats.records_in:,} records -> "
            f"{pstats.records_out:,} with {pstats.workers} workers over "
            f"{pstats.shard_count} shards in {pstats.wall_seconds:.2f}s "
            f"({pstats.throughput:,.0f} records/s; "
            f"{pstats.bytes_shipped:,} payload bytes shipped; stage "
            f"seconds summed across workers: {timings})"
        )
        return 0
    print(result.overview().format())
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    count = 0

    def counted(chunks: Iterable[List[LogRecord]]) -> Iterable[LogRecord]:
        nonlocal count
        for chunk in chunks:
            count += len(chunk)
            yield from chunk

    with open_log(args.input) as source:
        _write_records(counted(source.open_chunks()), args.output, args.to)
    print(f"wrote {count:,} records to {args.output}")
    return 0


def cmd_patterns(args: argparse.Namespace) -> int:
    log = _read_log(args.input)
    config = _default_config(args.dedup_threshold, args.skyserver_schema, True)
    result = CleaningPipeline(config).run(log)
    print(f"{'#':>3} {'freq':>8} {'pop':>5} {'ips':>4}  type            skeleton")
    for rank, stats in enumerate(result.registry.top(args.top), start=1):
        kinds = "/".join(sorted(stats.antipattern_types)) or "-"
        print(
            f"{rank:>3} {stats.frequency:>8} {stats.user_popularity:>5} "
            f"{stats.distinct_ips:>4}  {kinds:<15} {stats.skeletons[0][:90]}"
        )
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    log = _read_log(args.input)
    config = _default_config(args.dedup_threshold, args.skyserver_schema, False)
    report = run_downstream_experiment(
        log, thresholds=tuple(args.thresholds), config=config
    )
    print(f"{'threshold':>9}  " + "  ".join(f"{v:>18}" for v in report.series))
    for threshold in args.thresholds:
        cells = []
        for variant in report.series:
            result = report.result(variant, threshold)
            cells.append(
                f"{result.cluster_count:>6} cl {result.average_size:>7.1f} avg"
            )
        print(f"{threshold:>9.1f}  " + "  ".join(f"{c:>18}" for c in cells))
    return 0


def cmd_traffic(args: argparse.Namespace) -> int:
    from ..analysis.traffic import traffic_report
    from ..pipeline.framework import parse_log

    log = _read_log(args.input)
    parsed = parse_log(log).queries
    report = traffic_report(log, parsed, top=args.top)
    print(f"queries: {report.total_queries:,}   users: {report.distinct_users:,}")
    busiest = report.busiest_day
    if busiest:
        print(f"busiest day: {busiest[0]} ({busiest[1]:,} queries)")
    print(
        f"sessions: {report.sessions.count:,} "
        f"(median {report.sessions.median_queries:g} queries, "
        f"median duration {report.sessions.median_duration:.0f}s)"
    )
    print(
        f"top-10 users issue {report.top_user_share(10):.1%} of the traffic"
    )
    print("\ntop users:")
    for user, volume in report.top_users[: args.top]:
        print(f"  {volume:>8,}  {user}")
    print("\ntop tables:")
    for table, volume in report.top_tables[: args.top]:
        print(f"  {volume:>8,}  {table}")
    return 0


def cmd_bots(args: argparse.Namespace) -> int:
    from ..analysis.behavior import BehaviorConfig, classify_users

    log = _read_log(args.input)
    config = _default_config(args.dedup_threshold, args.skyserver_schema, True)
    result = CleaningPipeline(config).run(log)
    verdicts = classify_users(
        result, BehaviorConfig(use_shape_features=not args.no_shape_features)
    )
    ranked = sorted(
        verdicts.values(), key=lambda v: (-v.score, -v.activity.query_count)
    )
    print(
        f"{'user':<24} {'verdict':<7} {'score':>5} {'queries':>8} "
        f"{'gap(s)':>8} {'diversity':>9} {'flagged':>8}"
    )
    for verdict in ranked[: args.top]:
        activity = verdict.activity
        gap = (
            f"{activity.median_gap:8.1f}"
            if activity.median_gap != float("inf")
            else "     inf"
        )
        print(
            f"{verdict.user:<24} {'BOT' if verdict.is_bot else 'human':<7} "
            f"{verdict.score:>5.1f} {activity.query_count:>8} {gap} "
            f"{activity.template_diversity:>9.2f} "
            f"{activity.antipattern_share:>8.2f}"
        )
    bots = sum(1 for v in verdicts.values() if v.is_bot)
    print(f"\n{bots} of {len(verdicts)} users classified as bots")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from ..pipeline.report import export_report

    log = _read_log(args.input)
    config = _default_config(args.dedup_threshold, args.skyserver_schema, True)
    result = CleaningPipeline(config).run(log)
    written = export_report(result, args.output_dir)
    for name, path in sorted(written.items()):
        print(f"wrote {name:<16} {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqlog-clean",
        description="Detect and clean antipatterns in an SQL query log.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesise a SkyServer-shaped log")
    gen.add_argument("output", help="output file (.csv or .jsonl)")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.set_defaults(func=cmd_generate)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="log file (.csv or .jsonl)")
        p.add_argument("--dedup-threshold", type=float, default=1.0)
        p.add_argument(
            "--skyserver-schema",
            action="store_true",
            help="use the synthetic SkyServer schema's key attributes "
            "for the Stifle key check",
        )

    clean = sub.add_parser("clean", help="run the cleaning pipeline")
    common(clean)
    clean.add_argument("-o", "--output", help="write the clean log here")
    clean.add_argument("--sws", action="store_true", help="also flag SWS patterns")
    clean.add_argument(
        "--streaming",
        action="store_true",
        help="use the bounded-memory streaming cleaner (no pattern "
        "registry / SWS / overview statistics)",
    )
    clean.add_argument(
        "--parallel",
        action="store_true",
        help="hash-shard the log by user and clean on several CPU cores "
        "(no pattern registry / SWS / overview statistics)",
    )
    clean.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for --parallel (0 = one per CPU)",
    )
    clean.add_argument(
        "--no-pool-reuse",
        action="store_true",
        help="give this run a private worker pool instead of the warm "
        "process-wide one (the warm pool is reused across runs and "
        "shut down atexit)",
    )
    clean.add_argument(
        "--metrics-json",
        metavar="PATH",
        help="write the run's per-stage metrics ledger (counters, "
        "antipatterns by label, wall times) as JSON to PATH",
    )
    clean.add_argument(
        "--error-policy",
        choices=["strict", "lenient", "quarantine"],
        default="strict",
        help="what to do with unreadable/invalid/unparsable records: "
        "strict raises, lenient drops and counts, quarantine drops, "
        "counts and captures them for auditing",
    )
    clean.add_argument(
        "--quarantine-json",
        metavar="PATH",
        help="write everything the run set aside (reasons + records) "
        "as JSON to PATH (most useful with --error-policy quarantine)",
    )
    clean.add_argument(
        "--trace",
        action="store_true",
        help="stream span-style stage trace events as JSON lines to stderr",
    )
    clean.add_argument(
        "--no-parse-cache",
        action="store_true",
        help="disable the fingerprint-keyed parse fast path (every "
        "statement takes the full parser; output is identical either way)",
    )
    clean.add_argument(
        "--parse-cache-size",
        type=int,
        default=None,
        metavar="N",
        help="max cached statement templates per cache instance "
        "(default 4096; one cache per run, per streaming instance, "
        "or per parallel shard)",
    )
    clean.add_argument(
        "--checkpoint-dir",
        metavar="PATH",
        default=None,
        help="persist per-chunk progress into PATH so a killed run can "
        "be resumed (requires --streaming)",
    )
    clean.add_argument(
        "--resume",
        action="store_true",
        help="continue the run recorded in --checkpoint-dir instead of "
        "starting over",
    )
    clean.set_defaults(func=cmd_clean)

    convert = sub.add_parser(
        "convert",
        help="convert a log between CSV, JSONL and the columnar store",
    )
    convert.add_argument(
        "input", help="log input (.csv / .jsonl file or columnar store)"
    )
    convert.add_argument(
        "output",
        help="output path; .csv and .jsonl select those formats, "
        "anything else becomes a columnar store directory",
    )
    convert.add_argument(
        "--to",
        choices=["csv", "jsonl", "columnar"],
        default=None,
        help="output format (default: inferred from the output path)",
    )
    convert.set_defaults(func=cmd_convert)

    patterns = sub.add_parser("patterns", help="print the top patterns")
    common(patterns)
    patterns.add_argument("--top", type=int, default=30)
    patterns.set_defaults(func=cmd_patterns)

    traffic = sub.add_parser(
        "traffic", help="traffic-report statistics (volumes, sessions, tables)"
    )
    traffic.add_argument("input", help="log file (.csv or .jsonl)")
    traffic.add_argument("--top", type=int, default=10)
    traffic.set_defaults(func=cmd_traffic)

    bots = sub.add_parser("bots", help="classify users as humans or bots")
    common(bots)
    bots.add_argument("--top", type=int, default=25)
    bots.add_argument(
        "--no-shape-features",
        action="store_true",
        help="duration/volume features only (the traffic-report baseline)",
    )
    bots.set_defaults(func=cmd_bots)

    report = sub.add_parser("report", help="export a full CSV report")
    common(report)
    report.add_argument("output_dir", help="directory for the CSV files")
    report.set_defaults(func=cmd_report)

    cluster = sub.add_parser("cluster", help="downstream clustering comparison")
    common(cluster)
    cluster.add_argument(
        "--thresholds",
        type=float,
        nargs="+",
        default=[0.1, 0.5, 0.9],
    )
    cluster.set_defaults(func=cmd_cluster)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``sqlog-clean`` command."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
