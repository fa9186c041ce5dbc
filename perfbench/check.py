"""Output checks: every timed call is compared against a reference.

The reference is the workload's own input cleaned once by the uncached
batch executor (``parse_cache=False``: every statement takes the full
parser, no cache level is consulted).  It is computed in a child process,
so the workload process's peak RSS measures the timed calls and not the
reference, and kept under ``.perfbench/references/`` keyed by workload,
seed, size and a digest of the program's and the benchmark's sources, so
each workload and seed is cleaned by the reference path once per source
tree.  Nothing about it is committed.

A call fails when it raises, when the digest of its clean log differs
from the reference's, when its ``comparable()`` ledger differs, or when
its ledger breaks a conservation law.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional

import repro

from workloads import make_workload


@dataclass(frozen=True)
class Reference:
    """What every timed call must reproduce."""

    digest: str
    comparable: Dict[str, Dict[str, object]]
    records_in: int


def log_digest(records: Iterable[repro.LogRecord]) -> str:
    """SHA-256 over every field of every record, in log order."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(
            f"{r.seq}\x1f{r.sql}\x1f{r.timestamp!r}\x1f{r.user}\x1f"
            f"{r.ip}\x1f{r.session}\x1f{r.rows}\x1e".encode()
        )
    return digest.hexdigest()


def compute_reference(
    name: str, seed: int, size: float, workdir: str
) -> Reference:
    """Clean the workload's input on the uncached batch executor."""
    workload = make_workload(name, seed, size, Path(workdir))
    log = workload.make_log()
    result = repro.clean(log, workload.reference_config())
    violations = result.metrics.conservation_violations()
    if violations:
        raise RuntimeError(f"reference run breaks conservation: {violations}")
    return Reference(
        digest=log_digest(result.clean_log),
        comparable=result.metrics.comparable(),
        records_in=len(log),
    )


def reference_in_child(
    name: str, seed: int, size: float, workdir: Path
) -> Reference:
    """:func:`compute_reference` in a forked child process, waited for."""
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(
            compute_reference, name, seed, size, str(workdir)
        ).result()


def tree_digest(root: Path) -> str:
    """SHA-256 over the program's and the benchmark's Python sources."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    paths = sorted((root / "src").rglob("*.py")) + sorted(here.glob("*.py"))
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_for(
    name: str, seed: int, size: float, root: Path, workdir: Path
) -> Reference:
    """The stored reference for this source tree, computed if missing."""
    store = root / ".perfbench" / "references"
    path = store / f"{name}-seed{seed}-size{size!r}-{tree_digest(root)[:16]}.json"
    try:
        return Reference(**json.loads(path.read_text()))
    except (OSError, ValueError, TypeError):
        pass
    reference = reference_in_child(name, seed, size, workdir)
    store.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    partial.write_text(json.dumps(asdict(reference)))
    os.replace(partial, path)
    return reference


def check(result, reference: Reference) -> Optional[str]:
    """``None`` when ``result`` matches ``reference``, else the reason."""
    if log_digest(result.clean_log) != reference.digest:
        return "clean-log digest differs from the uncached batch reference"
    if result.metrics.comparable() != reference.comparable:
        return "comparable() ledger differs from the uncached batch reference"
    violations = result.metrics.conservation_violations()
    if violations:
        return "conservation violations: " + "; ".join(violations)
    return None
