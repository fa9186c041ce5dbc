"""Streaming variant of the cleaning pipeline.

The paper's log has 42 million statements; holding the parsed log in
memory (as :class:`~repro.pipeline.framework.CleaningPipeline` does) is
fine for samples but not for full-scale runs.  The streaming cleaner
processes records in time order with bounded state:

* **dedup** — a last-seen map keyed by (user, normalised statement),
  pruned of entries older than the threshold;
* **blocking** — per-user open blocks; a block closes when its user goes
  quiet for longer than the miner's ``block_gap`` (measured against the
  stream clock), when it reaches the execution config's
  ``max_block_queries``, or at end of stream;
* **detect + solve** — each closed block runs
  :func:`~repro.pipeline.framework.clean_block` (the same detect→solve
  stage code the batch pipeline composes) and its clean records are
  emitted.

The result is record-for-record identical to the batch pipeline's clean
log whenever no block was force-closed by the size bound, because both
detectors and solver only ever look *within* a block.  Global analyses
that need the whole log (the pattern registry, SWS classification) are
out of scope here by design — they are downstream consumers.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import (
    NESTING_DEPTH,
    PARSE_ERROR,
    QuarantineChannel,
    RecordFailure,
    record_fault,
)
from ..log.dedup import normalize_statement_text
from ..log.models import LogRecord, QueryLog
from ..obs import Recorder
from ..patterns.models import Block, ParsedQuery
from ..skeleton.cache import LazyParsedQuery, TemplateCache, rebind_query
from ..skeleton.interner import TemplateInterner
from ..sqlparser import SqlError, UnsupportedStatementError, parse
from .config import PipelineConfig
from .framework import clean_block


@dataclass
class StreamingStats:
    """Counters of one streaming run.

    The ``parse_cache_*`` trio mirrors the instance's
    :class:`~repro.skeleton.cache.TemplateCache` totals (all zero when
    the fast path is disabled); they are synchronised from the cache
    whenever counters are flushed to the recorder.
    """

    records_in: int = 0
    records_out: int = 0
    records_invalid: int = 0
    duplicates_removed: int = 0
    syntax_errors: int = 0
    non_select: int = 0
    parse_quarantined: int = 0
    blocks_closed: int = 0
    blocks_force_closed: int = 0
    instances_detected: int = 0
    instances_solved: int = 0
    max_open_queries: int = 0
    parse_cache_hits: int = 0
    parse_cache_misses: int = 0
    parse_cache_evictions: int = 0
    #: queries emitted as lazy skeleton binds (parse-cache hits).
    parse_lazy_hits: int = 0
    #: lazy queries a downstream consumer forced to materialise
    #: (mirrored from the cache's counter at every flush).
    parse_materialised: int = 0
    #: statements that went through the full parser (the cold path) —
    #: with the cache enabled this equals ``parse_cache_misses``.
    parse_cold: int = 0
    #: distinct template fingerprints the run's interner assigned ids to
    #: (mirrored from the :class:`~repro.skeleton.interner
    #: .TemplateInterner` at every counter flush).
    interner_size: int = 0

    def merge(self, other: "StreamingStats") -> None:
        """Fold another run's counters into this one (sharded runs).

        ``max_open_queries`` adds up too: concurrent shards are resident
        at the same time, so the sum is the honest peak estimate.
        """
        self.records_in += other.records_in
        self.records_out += other.records_out
        self.records_invalid += other.records_invalid
        self.duplicates_removed += other.duplicates_removed
        self.syntax_errors += other.syntax_errors
        self.non_select += other.non_select
        self.parse_quarantined += other.parse_quarantined
        self.blocks_closed += other.blocks_closed
        self.blocks_force_closed += other.blocks_force_closed
        self.instances_detected += other.instances_detected
        self.instances_solved += other.instances_solved
        self.max_open_queries += other.max_open_queries
        self.parse_cache_hits += other.parse_cache_hits
        self.parse_cache_misses += other.parse_cache_misses
        self.parse_cache_evictions += other.parse_cache_evictions
        self.parse_lazy_hits += other.parse_lazy_hits
        self.parse_materialised += other.parse_materialised
        self.parse_cold += other.parse_cold
        # Like the cache counters this sums per-shard distinct counts
        # (shards intern independently); the folded run-level dictionary
        # lives in ParallelStats.interner.
        self.interner_size += other.interner_size


class StreamingCleaner:
    """Process a record stream with bounded memory.

    :param config: the same configuration the batch pipeline takes;
        ``config.sws`` is ignored (needs global state).  The force-close
        bound per open block comes from ``config.execution
        .max_block_queries`` — the memory ceiling is roughly ``open
        users × max_block_queries``.
    :param recorder: observability recorder; a fresh
        :class:`~repro.obs.Recorder` by default, so per-stage metrics
        are always collected (pass :data:`repro.obs.NULL` to opt out).
        Dedup/parse wall times are measured per record and credited in
        bulk; mine/detect/solve are booked per closed block by
        :func:`~repro.pipeline.framework.clean_block`.  Counters are
        flushed when :meth:`process` finishes — a partially consumed
        stream leaves the ledger behind by design.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        recorder: Optional[Recorder] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.recorder = Recorder() if recorder is None else recorder
        self.max_block_queries = self.config.execution.max_block_queries
        self.stats = StreamingStats()
        #: records set aside under the ``quarantine`` error policy.
        self.quarantine = QuarantineChannel()
        self._open: Dict[str, List[ParsedQuery]] = {}
        self._last_seen: Dict[Tuple[str, str], float] = {}
        self._last_prune = 0.0
        #: counters already flushed to the recorder (delta bookkeeping).
        self._flushed = StreamingStats()
        # Per-record hot-path state: config knobs hoisted to attributes
        # (a dataclass-field chain costs two attribute loads per record),
        # a running open-query total, and the earliest stream time at
        # which any open block could go idle — _flush_idle only scans the
        # open table when the clock actually passes that deadline.
        execution = self.config.execution
        self._parse_cache: Optional[TemplateCache] = (
            TemplateCache(execution.parse_cache_size)
            if execution.parse_cache
            else None
        )
        #: run-scoped template dictionary — one per cleaner instance,
        #: exactly like the parse cache above.
        self._interner = TemplateInterner()
        self._intern = self._interner.intern
        self._error_policy = self.config.error_policy
        self._fold_variables = self.config.fold_variables
        self._strict_triple = self.config.strict_triple
        self._dedup_threshold = self.config.dedup_threshold
        self._block_gap = self.config.miner.block_gap
        self._open_count = 0
        self._oldest_open = float("inf")
        # Cache-counter baselines: a cleaner restored from a checkpoint
        # starts with a *fresh* (empty) parse cache, so the public stats
        # mirror the pre-restore totals plus the new cache's counters.
        self._cache_base_hits = 0
        self._cache_base_misses = 0
        self._cache_base_evictions = 0
        self._cache_base_materialised = 0

    # ------------------------------------------------------------------
    # Stages

    def _validate(self, record: LogRecord) -> bool:
        """Intake validation: ``True`` when the record may enter the
        stream.  Runs *before* the stream clock is consulted, so a
        non-finite timestamp can never pollute idle-flush arithmetic."""
        reason = record_fault(record)
        if reason is None:
            return True
        if self._error_policy == "strict":
            raise RecordFailure(record, reason, "validate")
        self.stats.records_invalid += 1
        if self._error_policy == "quarantine":
            self.quarantine.add(record, reason, "validate")
        return False

    def _is_duplicate(self, record: LogRecord) -> bool:
        threshold = self._dedup_threshold
        key = (record.user_key(), normalize_statement_text(record.sql))
        previous = self._last_seen.get(key)
        self._last_seen[key] = record.timestamp
        # The 0 <= guard matters for out-of-order streams: a record that
        # arrives *before* its last-seen twin (negative delta) is clock
        # skew, not a reload, and must not be swallowed as a duplicate.
        if previous is not None and 0 <= record.timestamp - previous <= threshold:
            return True
        # periodically prune entries that can never match again
        if record.timestamp - self._last_prune > max(threshold, 1.0) * 64:
            horizon = record.timestamp - threshold
            self._last_seen = {
                k: ts for k, ts in self._last_seen.items() if ts >= horizon
            }
            self._last_prune = record.timestamp
        return False

    def _parse(self, record: LogRecord) -> Optional[ParsedQuery]:
        cache = self._parse_cache
        if cache is not None:
            cached = cache.fetch(record)
            if cached is None:
                cached = self._cold_parse(record)
        else:
            self.stats.parse_cold += 1
            cached = self._full_parse(record)
        if type(cached) is tuple:
            error, reason = cached
            if isinstance(error, UnsupportedStatementError):
                self.stats.non_select += 1
            else:
                self._parse_reject(record, reason, str(error))
            return None
        # Verify the id against *this* run's interner even on a cache
        # hit, exactly as parse_log does.
        query = rebind_query(
            cached, record, self._intern(cached.template_id)
        )
        if type(query) is LazyParsedQuery:
            self.stats.parse_lazy_hits += 1
        return query

    def _cold_parse(self, record: LogRecord):
        """Cold path after a cache miss: the one-shot
        :meth:`~repro.skeleton.cache.TemplateCache.build` (parse engine
        v3), with failures stored as the shared (error, reason) pair.
        Books ``parse_cold`` — unlike :meth:`_full_parse`, which the
        checkpoint restore also uses and which must stay counter-free.
        """
        self.stats.parse_cold += 1
        cache = self._parse_cache
        try:
            return cache.build(
                record,
                fold_variables=self._fold_variables,
                strict_triple=self._strict_triple,
                interner=self._interner,
            )
        except SqlError as error:
            cached = (error, PARSE_ERROR)
        except RecursionError:
            cached = (
                SqlError("statement exceeds supported nesting depth"),
                NESTING_DEPTH,
            )
        cache.store(record.sql, cached)
        return cached

    def _full_parse(self, record: LogRecord):
        """Full parse of one record: a bound ParsedQuery, or the
        (error, reason) pair of a failure — the cacheable outcome shape
        shared with :func:`~repro.pipeline.framework.parse_log`."""
        try:
            statement = parse(record.sql)
            return ParsedQuery.from_statement(
                record,
                statement,
                fold_variables=self._fold_variables,
                strict_triple=self._strict_triple,
                interner=self._interner,
            )
        except SqlError as error:
            # Includes UnsupportedStatementError — classified at use.
            return (error, PARSE_ERROR)
        except RecursionError:
            return (
                SqlError("statement exceeds supported nesting depth"),
                NESTING_DEPTH,
            )

    def _parse_reject(self, record: LogRecord, reason: str, detail: str) -> None:
        if self._error_policy == "quarantine":
            self.stats.parse_quarantined += 1
            self.quarantine.add(record, reason, "parse", detail=detail)
        else:
            self.stats.syntax_errors += 1

    def _close_block(self, user: str) -> List[LogRecord]:
        queries = self._open.pop(user, [])
        if not queries:
            return []
        self._open_count -= len(queries)
        self.stats.blocks_closed += 1
        block = Block(user=user, queries=tuple(queries))
        result = clean_block(block, self.config, self.recorder)
        self.stats.instances_detected += result.instances_detected
        self.stats.instances_solved += result.instances_solved
        return result.records

    def _flush_idle(self, now: float) -> Iterator[LogRecord]:
        """Close every block idle at stream time ``now``; remember the
        oldest last-activity timestamp among the blocks that stay open.

        ``_oldest_open`` lets :meth:`process` skip this scan entirely
        until a record's timestamp could actually expire something.  It
        is a *lower bound* (appends to existing blocks don't raise it),
        so a stale value only causes a harmless extra scan — and the
        skip test uses the same ``now - last > gap`` expression as the
        close test here, so a skipped scan provably had nothing to do.
        """
        gap = self._block_gap
        oldest = float("inf")
        for user in list(self._open):
            queries = self._open[user]
            if not queries:
                continue
            last = queries[-1].timestamp
            if now - last > gap:
                yield from self._emit(self._close_block(user))
            elif last < oldest:
                oldest = last
        self._oldest_open = oldest

    def _emit(self, records: List[LogRecord]) -> Iterator[LogRecord]:
        # records_out is counted here, at the single emission point, so
        # the stats are correct whether the caller drives process()
        # directly or goes through run().
        self.stats.records_out += len(records)
        return iter(records)

    # ------------------------------------------------------------------
    # Driver

    def process(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Consume a time-ordered record stream, yield clean records.

        Emission order is block-close order; feed the output into a
        :class:`QueryLog` to restore global time order.  Equivalent to
        :meth:`feed` followed by :meth:`finish` — drive those directly
        to process a stream in checkpointable slices.
        """
        yield from self.feed(records)
        yield from self.finish()

    def feed(self, records: Iterable[LogRecord]) -> Iterator[LogRecord]:
        """Consume a slice of the stream *without* ending it.

        Open blocks stay open across calls — a chunk boundary is not a
        quiet period, so feeding a stream in arbitrary slices yields
        exactly the records :meth:`process` would have yielded (modulo
        the end-of-stream closes, which :meth:`finish` performs).  The
        slices must jointly be time-ordered, like the stream itself.
        """
        recorder = self.recorder
        timed = recorder.enabled
        clock = time.perf_counter
        validate_seconds = 0.0
        dedup_seconds = 0.0
        parse_seconds = 0.0
        stats = self.stats
        gap = self._block_gap
        max_block = self.max_block_queries
        for record in records:
            stats.records_in += 1
            if timed:
                started = clock()
                valid = self._validate(record)
                after_validate = clock()
                validate_seconds += after_validate - started
            else:
                valid = self._validate(record)
            if not valid:
                continue
            # Only scan the open-block table when this record's stream
            # time can actually expire the *oldest* open block — the
            # common case is a cheap subtraction instead of a full scan.
            if record.timestamp - self._oldest_open > gap:
                yield from self._flush_idle(record.timestamp)
                if timed:
                    # Block cleaning ran untimed in between (clean_block
                    # books its own spans); rebaseline the dedup timer.
                    after_validate = clock()

            duplicate = self._is_duplicate(record)
            if timed:
                after_dedup = clock()
                dedup_seconds += after_dedup - after_validate
            if duplicate:
                stats.duplicates_removed += 1
                continue
            parsed = self._parse(record)
            if timed:
                parse_seconds += clock() - after_dedup
            if parsed is None:
                continue
            user = record.user_key()
            bucket = self._open.get(user)
            if bucket is None:
                bucket = self._open[user] = []
            bucket.append(parsed)
            self._open_count += 1
            if record.timestamp < self._oldest_open:
                self._oldest_open = record.timestamp
            if self._open_count > stats.max_open_queries:
                stats.max_open_queries = self._open_count
            if len(bucket) >= max_block:
                stats.blocks_force_closed += 1
                yield from self._emit(self._close_block(user))
        if timed:
            recorder.add_seconds("validate", validate_seconds, calls=1)
            recorder.add_seconds("dedup", dedup_seconds, calls=1)
            recorder.add_seconds("parse", parse_seconds, calls=1)

    def finish(self) -> Iterator[LogRecord]:
        """End the stream: close every open block and flush the
        counters."""
        for user in list(self._open):
            yield from self._emit(self._close_block(user))
        self._flush_counters()

    def _flush_counters(self) -> None:
        """Book the per-record counters accumulated since the last flush.

        Dedup and parse happen per record here (not via the batch stage
        functions), so their counters are derived from
        :class:`StreamingStats` deltas; mine/detect/solve were already
        booked per closed block by
        :func:`~repro.pipeline.framework.clean_block`.
        """
        recorder = self.recorder
        cache = self._parse_cache
        if cache is not None:
            # The cache keeps the authoritative totals; mirror them into
            # the public stats so both views agree at every flush point.
            # The baselines are zero except after a checkpoint restore,
            # where they carry the dead instance's cache totals.
            self.stats.parse_cache_hits = self._cache_base_hits + cache.hits
            self.stats.parse_cache_misses = (
                self._cache_base_misses + cache.misses
            )
            self.stats.parse_cache_evictions = (
                self._cache_base_evictions + cache.evictions
            )
            self.stats.parse_materialised = (
                self._cache_base_materialised + cache.materialised
            )
        # Same mirroring for the interner's dictionary size.
        self.stats.interner_size = len(self._interner)
        if not recorder.enabled:
            return
        recorder.ensure_counters()
        stats, flushed = self.stats, self._flushed
        records_in = stats.records_in - flushed.records_in
        invalid = stats.records_invalid - flushed.records_invalid
        duplicates = stats.duplicates_removed - flushed.duplicates_removed
        syntax_errors = stats.syntax_errors - flushed.syntax_errors
        non_select = stats.non_select - flushed.non_select
        parse_quarantined = stats.parse_quarantined - flushed.parse_quarantined
        recorder.count("validate", "records_in", records_in)
        recorder.count("validate", "records_out", records_in - invalid)
        recorder.count("validate", "records_quarantined", invalid)
        dedup_in = records_in - invalid
        recorder.count("dedup", "records_in", dedup_in)
        recorder.count("dedup", "records_out", dedup_in - duplicates)
        recorder.count("dedup", "duplicates_removed", duplicates)
        parse_in = dedup_in - duplicates
        parse_out = parse_in - syntax_errors - non_select - parse_quarantined
        lazy_hits = stats.parse_lazy_hits - flushed.parse_lazy_hits
        recorder.count("parse", "records_in", parse_in)
        recorder.count("parse", "records_out", parse_out)
        recorder.count("parse", "parse_lazy_hits", lazy_hits)
        recorder.count("parse", "parse_eager", parse_out - lazy_hits)
        recorder.count(
            "parse",
            "parse_cold",
            stats.parse_cold - flushed.parse_cold,
        )
        recorder.count(
            "parse",
            "parse_materialised",
            stats.parse_materialised - flushed.parse_materialised,
        )
        recorder.count("parse", "syntax_errors", syntax_errors)
        recorder.count("parse", "non_select", non_select)
        recorder.count("parse", "records_quarantined", parse_quarantined)
        recorder.count(
            "parse",
            "parse_cache_hits",
            stats.parse_cache_hits - flushed.parse_cache_hits,
        )
        recorder.count(
            "parse",
            "parse_cache_misses",
            stats.parse_cache_misses - flushed.parse_cache_misses,
        )
        recorder.count(
            "parse",
            "parse_cache_evictions",
            stats.parse_cache_evictions - flushed.parse_cache_evictions,
        )
        recorder.count(
            "parse",
            "interner_size",
            stats.interner_size - flushed.interner_size,
        )
        self._flushed = replace(stats)

    def run(self, log: QueryLog) -> QueryLog:
        """Convenience: stream a whole log, return the clean log."""
        return QueryLog(self.process(log))

    # ------------------------------------------------------------------
    # Checkpointing (see :mod:`repro.store.checkpoint`)

    def export_state(self) -> Dict[str, object]:
        """Snapshot the cleaner's full mutable state as JSON-ready data.

        Call between :meth:`feed` slices.  Counters are flushed first,
        so a recorder serialised right after this call agrees with the
        snapshot.  Open blocks are stored as their *source records* —
        :meth:`restore_state` re-parses them, which is cheaper than
        serialising parsed ASTs and provably equivalent (parsing is
        deterministic).
        """
        from ..log.io import record_as_dict

        self._flush_counters()
        oldest = self._oldest_open
        return {
            "stats": dataclasses.asdict(self.stats),
            "flushed": dataclasses.asdict(self._flushed),
            "interner": list(self._interner.fingerprints()),
            "last_seen": [
                [user, text, timestamp]
                for (user, text), timestamp in self._last_seen.items()
            ],
            "last_prune": self._last_prune,
            "open": [
                [user, [record_as_dict(query.record) for query in queries]]
                for user, queries in self._open.items()
            ],
            "oldest_open": None if oldest == float("inf") else oldest,
            "cache_baseline": [
                self.stats.parse_cache_hits,
                self.stats.parse_cache_misses,
                self.stats.parse_cache_evictions,
                self.stats.parse_materialised,
            ],
            "quarantine": self.quarantine.to_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore a freshly constructed cleaner from :meth:`export_state`.

        The interner is rebuilt first (its id order *is* its state), so
        re-parsing the open-block records reassigns exactly the interned
        ids the dead run had handed out.  The parse cache starts empty —
        its counter baselines carry the dead run's totals, keeping the
        ``hits + misses == parse.records_in`` conservation law additive
        across the restore.
        """
        from ..log.io import record_from_dict

        self.stats = StreamingStats(**state["stats"])  # type: ignore[arg-type]
        self._flushed = StreamingStats(**state["flushed"])  # type: ignore[arg-type]
        self._interner = TemplateInterner(state["interner"])  # type: ignore[arg-type]
        self._intern = self._interner.intern
        self._last_seen = {
            (user, text): timestamp
            for user, text, timestamp in state["last_seen"]  # type: ignore[union-attr]
        }
        self._last_prune = state["last_prune"]  # type: ignore[assignment]
        baseline = state["cache_baseline"]
        self._cache_base_hits = baseline[0]  # type: ignore[index]
        self._cache_base_misses = baseline[1]  # type: ignore[index]
        self._cache_base_evictions = baseline[2]  # type: ignore[index]
        self._cache_base_materialised = baseline[3]  # type: ignore[index]
        self.quarantine = QuarantineChannel.from_state(state["quarantine"])  # type: ignore[arg-type]
        self._open = {}
        self._open_count = 0
        for user, record_dicts in state["open"]:  # type: ignore[union-attr]
            queries: List[ParsedQuery] = []
            for data in record_dicts:
                record = record_from_dict(data)
                parsed = self._full_parse(record)
                if type(parsed) is tuple:
                    raise ValueError(
                        "checkpoint is inconsistent: open-block record "
                        f"seq={record.seq} no longer parses"
                    )
                queries.append(parsed)
            self._open[user] = queries
            self._open_count += len(queries)
        oldest = state["oldest_open"]
        self._oldest_open = float("inf") if oldest is None else oldest  # type: ignore[assignment]
