"""The benchmark's workloads: input generation, set-up and one timed call.

Every workload turns a seed into its input, sets up once (the part
``setup_s`` times) and then offers :meth:`Workload.call`, one
``repro.clean()`` call over that input.  All load comes from this one
process; the program only ever sees the generated records.

* ``skyserver-batch`` — the SkyServer mix on the batch executor with the
  paper's configuration (SkyServer key columns, SWS scan on): the whole
  Fig. 1 pipeline, with heavily repeated templates.
* ``skyserver-parallel`` — the same log on the parallel executor
  (``workers = nproc``, pickle transfer, SWS off because parallel skips
  the registry), with the warm worker pool forked during set-up.  The
  workers keep their parse caches from call to call, so after the
  warm-up call they parse this log from warm caches only: it measures
  warm repeats, and a cold-path parse change does not show here.
* ``adhoc-store-streaming`` — distinct-template ad-hoc statements
  written once to a columnar store of several chunks and cleaned from
  the store path by the streaming executor with a fresh checkpoint
  directory per call: every statement misses every parse-cache level.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

import repro
from repro.antipatterns import DetectionContext
from repro.patterns import SwsConfig
from repro.pipeline.parallel import get_worker_pool, shutdown_worker_pools
from repro.workload import WorkloadConfig, generate, skyserver_catalog
from repro.workload.profiles import HumanAdhoc

DEFAULT_SEED = 2018

#: Queries of the SkyServer mix at size 1.0.  The mix is generated at
#: ``SKYSERVER_SCALE`` (≈ 37k queries, varying a few percent with the
#: seed) and cut to this many records in time order, so every seed
#: cleans the same number of queries.
SKYSERVER_RECORDS = 33_000
SKYSERVER_SCALE = 2.2

#: Distinct-template statements of the ad-hoc workload at size 1.0.
#: The default parse cache holds 4,096 templates, so this is only about
#: a fifth more than fits: a default cache of 5,000 or more would stop
#: the evictions here and show a gain that a SkyServer-sized log would
#: not see.
ADHOC_STATEMENTS = 5000

#: Chunks of the ad-hoc columnar store (1,000 records each at size 1.0):
#: every call reads the store chunk by chunk and checkpoints after each.
ADHOC_CHUNKS = 5

#: The four SkyServer shape families of the ad-hoc workload.  ``{i}`` is
#: a per-statement identifier, so every statement is a new template.
ADHOC_SHAPES = (
    "SELECT objid, ra_{i}, dec FROM photoprimary_{i} "
    "WHERE ra BETWEEN {a} AND {b} AND dec > {c}",
    "SELECT TOP 10 p.objid_{i}, s.z FROM photoobj AS p "
    "JOIN specobj_{i} AS s ON p.objid = s.bestobjid "
    "WHERE s.z < {a} AND p.r < {b} ORDER BY s.z DESC",
    "SELECT count(*) FROM star_{i} WHERE htmid_{i} = {a} AND name = '{n}'",
    "SELECT u, g, r_{i}, i FROM galaxy_{i} "
    "WHERE dbo.fgetnearbyobjeq({a}, {b}, {c}) > 0 AND flags = {d} "
    "GROUP BY u, g, r_{i}, i HAVING count(*) > {e}",
)


def paper_config(sws: bool) -> repro.PipelineConfig:
    """The paper's configuration: SkyServer key columns, SWS optional."""
    return repro.PipelineConfig(
        detection=DetectionContext(
            key_columns=frozenset(skyserver_catalog().key_column_names())
        ),
        sws=SwsConfig() if sws else None,
    )


def skyserver_log(seed: int, size: float) -> repro.QueryLog:
    """The synthetic SkyServer mix (Sec. 6's traffic shape), cut to
    ``SKYSERVER_RECORDS * size`` records."""
    config = WorkloadConfig(seed=seed, scale=SKYSERVER_SCALE * size)
    records = generate(config).log.records()
    return repro.QueryLog(records[: int(SKYSERVER_RECORDS * size)])


def adhoc_log(seed: int, size: float) -> repro.QueryLog:
    """Distinct-template ad-hoc statements with seeded metadata.

    Users, sessions and timing follow the program's own model of ad-hoc
    traffic, :class:`~repro.workload.profiles.HumanAdhoc`: its users and
    IPs, one session per burst of its burst size, its inter-query gaps,
    and bursts scattered over the generator's default timeline, as
    :func:`~repro.workload.generate` does.  Everything is drawn from
    ``seed``; the identifiers are distinct, so no two statements share a
    template.
    """
    rng = random.Random(seed)
    profile = HumanAdhoc()
    timeline = WorkloadConfig()
    identities = profile.users(rng)
    count = max(8, int(ADHOC_STATEMENTS * size))
    identifiers = iter(rng.sample(range(10 * count), count))
    # (timestamp, tiebreak, user, ip, session, sql), sorted into log order.
    rows = []
    session = 0
    while len(rows) < count:
        session += 1
        user, ip = rng.choice(identities)
        clock = timeline.start_time + rng.uniform(0.0, timeline.duration)
        for _ in range(min(profile._size(rng), count - len(rows))):
            clock += profile._gap(rng)
            ident = next(identifiers)
            sql = ADHOC_SHAPES[ident % len(ADHOC_SHAPES)].format(
                i=ident,
                a=rng.randrange(360),
                b=rng.randrange(360, 720),
                c=rng.randrange(-90, 90),
                d=rng.randrange(1 << 20),
                e=rng.randrange(1, 9),
                n=f"n{rng.randrange(10**6)}",
            )
            rows.append(
                (clock, len(rows), user, ip, f"adhoc-sess-{session}", sql)
            )
    rows.sort()
    return repro.QueryLog(
        [
            repro.LogRecord(
                seq=seq, sql=sql, timestamp=clock, user=user, ip=ip,
                session=session,
            )
            for seq, (clock, _, user, ip, session, sql) in enumerate(rows)
        ]
    )


def warm_pool(workers: int) -> None:
    """Provision the registry pool for ``workers`` and start every worker."""
    pool = get_worker_pool(workers)
    seen = set()
    for _ in range(20):
        batch = [pool.submit(os.getpid) for _ in range(2 * workers)]
        seen.update(future.result() for future in batch)
        if len(seen) >= workers:
            return


class Workload:
    """One workload: its input, its configuration, its timed call."""

    name = ""

    def __init__(self, seed: int, size: float, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.records = 0

    def make_log(self) -> repro.QueryLog:
        raise NotImplementedError

    def config(self) -> repro.PipelineConfig:
        raise NotImplementedError

    def reference_config(self) -> repro.PipelineConfig:
        """The workload's configuration on the uncached batch executor."""
        config = self.config()
        return replace(
            config,
            execution=replace(
                config.execution, mode="batch", parse_cache=False
            ),
        )

    def setup(self) -> None:
        """Build everything a call needs (the part ``setup_s`` times)."""
        self.log = self.make_log()
        self.records = len(self.log)

    def call(self):
        """One ``repro.clean()`` call; returns its ``PipelineResult``."""
        return repro.clean(self.log, self.config())

    def after_call(self) -> None:
        """Untimed clean-up after a call."""

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""
        self.__dict__.pop("log", None)


class SkyserverBatch(Workload):
    name = "skyserver-batch"

    def make_log(self) -> repro.QueryLog:
        return skyserver_log(self.seed, self.size)

    def config(self) -> repro.PipelineConfig:
        return paper_config(sws=True)


class SkyserverParallel(SkyserverBatch):
    name = "skyserver-parallel"

    def __init__(self, seed: int, size: float, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.workers = repro.ExecutionConfig().resolved_workers()

    def config(self) -> repro.PipelineConfig:
        return replace(
            paper_config(sws=False),
            execution=repro.ExecutionConfig(
                mode="parallel", workers=self.workers
            ),
        )

    def setup(self) -> None:
        super().setup()
        if self.workers > 1:
            warm_pool(self.workers)

    def teardown(self) -> None:
        super().teardown()
        shutdown_worker_pools(wait=True)


class AdhocStoreStreaming(Workload):
    name = "adhoc-store-streaming"

    def make_log(self) -> repro.QueryLog:
        return adhoc_log(self.seed, self.size)

    def config(self) -> repro.PipelineConfig:
        return paper_config(sws=False)

    def setup(self) -> None:
        super().setup()
        self.store = self.workdir / "store"
        shutil.rmtree(self.store, ignore_errors=True)
        per_chunk = -(-self.records // ADHOC_CHUNKS)
        repro.write_columnar(self.log, self.store, chunk_records=per_chunk)
        # The timed calls read the store, not the in-memory log.
        del self.log
        self.checkpoint = self.workdir / "checkpoint"

    def call(self):
        return repro.clean(
            str(self.store),
            self.config(),
            execution="streaming",
            checkpoint_dir=str(self.checkpoint),
        )

    def after_call(self) -> None:
        shutil.rmtree(self.checkpoint, ignore_errors=True)

    def teardown(self) -> None:
        shutil.rmtree(self.store, ignore_errors=True)
        shutil.rmtree(self.checkpoint, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[int, float, Path], Workload]] = {
    cls.name: cls
    for cls in (SkyserverBatch, SkyserverParallel, AdhocStoreStreaming)
}


def make_workload(
    name: str, seed: int, size: float, workdir: Path
) -> Workload:
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        ) from None
    return factory(seed, size, workdir)


def workload_names() -> List[str]:
    return list(WORKLOADS)
