"""The on-disk columnar log format (template dictionary + constant
vectors, chunk-compressed).

"Query Log Compression for Workload Analytics" observes that an SQL log
is a template dictionary plus per-record constant vectors: the number of
distinct statement *shapes* grows orders of magnitude slower than the
log, so storing each record as ``(template_id, constants...)`` removes
almost all of the redundancy before generic compression even starts.
This module is that representation on disk:

``<store>/``
  ``manifest.json``   format marker, record/chunk counts, chunk sizes
  ``templates.bin``   zlib(JSON) template dictionary — the id-ordered
                      template ``texts`` plus one first-seen *witness*
                      statement per template (see below)
  ``chunk-00000.bin`` zlib(JSON dict of per-record columns)
  ``chunk-00001.bin`` …

Each chunk holds up to ``chunk_records`` records in **file order** as
parallel columns — ``seq`` / ``timestamp`` / ``user`` / ``ip`` /
``session`` / ``rows`` / ``template`` (dictionary ids) / ``constants``
(one constant vector per record) — so a reader materialises one chunk at
a time and never the whole log.

**Templating is text-level and unconditionally lossless.**  The store
cannot reuse the lexer's canonical fingerprints (they normalise away the
original spelling), so it extracts string literals (``'...'`` with
``''`` escapes) and standalone numbers with a guarded regex, replaces
each with a ``"\\x00"`` marker, and splices them back verbatim on read.
A statement that itself contains the marker byte — which never occurs in
real SQL text — is stored whole under the reserved template id ``-1``.
The round trip is the exact inverse of the extraction, so
``read(write(log)) == log`` holds for *any* input, however unparsable.

Since parse engine v3 ``templates.bin`` additionally carries one
**witness** statement per template — the first record text that interned
it.  Witnesses are store metadata, read back by
:func:`load_template_witnesses`; the cleaning pipeline does not warm its
parse caches from them (a preload costs one cold build per template,
the same build the template's first occurrence pays anyway).  Stores
written before v3 simply yield no witnesses.

Every file is written atomically (temp file + ``os.replace``) and the
manifest is written **last**, so a directory with a manifest is always a
complete, readable store; a crashed writer leaves no manifest behind.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..log.models import LogRecord
from ..skeleton.interner import TemplateInterner

PathLike = Union[str, Path]

#: Format marker checked by the reader (and by ``open_log`` sniffing).
FORMAT_NAME = "repro-columnar"
FORMAT_VERSION = 1

#: Placeholder spliced into templates where a constant was lifted out.
MARKER = "\x00"

#: Reserved template id for statements stored verbatim (text contains
#: the marker byte, so the splice inverse would be ambiguous).
VERBATIM_TEMPLATE = -1

#: One extraction pass: string literals first (so digits inside them are
#: never touched), then standalone numeric literals.  The lookbehind
#: keeps digits that are part of an identifier (``t1``, ``objID2``) or a
#: dotted name in the template.  Extraction quality only affects the
#: compression ratio — losslessness comes from the splice being the
#: exact inverse, not from what the regex matches.
_CONSTANT_RE = re.compile(
    r"'(?:[^']|'')*'"
    r"|(?<![\w.])\d+(?:\.\d+)?(?:[eE][+-]?\d+)?"
)

_CHUNK_COLUMNS = ("seq", "timestamp", "user", "ip", "session", "rows")


# ----------------------------------------------------------------------
# Text-level template codec


def encode_sql(sql: str) -> Tuple[str, List[str]]:
    """Split ``sql`` into a marker template and its constant vector.

    ``decode_sql`` restores the original text exactly.  Raises
    ``ValueError`` when the text contains the marker byte — callers
    handle that case with :data:`VERBATIM_TEMPLATE`.
    """
    if MARKER in sql:
        raise ValueError("statement contains the template marker byte")
    constants: List[str] = []

    def lift(match: "re.Match[str]") -> str:
        constants.append(match.group(0))
        return MARKER

    return _CONSTANT_RE.sub(lift, sql), constants


def decode_sql(template: str, constants: Sequence[str]) -> str:
    """Splice ``constants`` back into ``template`` (inverse of
    :func:`encode_sql`)."""
    parts = template.split(MARKER)
    if len(parts) != len(constants) + 1:
        raise ValueError(
            f"template has {len(parts) - 1} slots but "
            f"{len(constants)} constants"
        )
    pieces = [parts[0]]
    for constant, part in zip(constants, parts[1:]):
        pieces.append(constant)
        pieces.append(part)
    return "".join(pieces)


# ----------------------------------------------------------------------
# Atomic binary files


def _write_bytes_atomic(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise


def _dump_compressed(path: Path, payload: object) -> None:
    raw = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    _write_bytes_atomic(path, zlib.compress(raw, 6))


def _load_compressed(path: Path) -> object:
    return json.loads(zlib.decompress(path.read_bytes()).decode("utf-8"))


def chunk_file_name(index: int) -> str:
    return f"chunk-{index:05d}.bin"


# ----------------------------------------------------------------------
# Writer


class ColumnarWriter:
    """Incremental store writer: append records, then :meth:`close`.

    Records are buffered up to ``chunk_records`` and flushed as one
    compressed chunk file; ``close`` writes the template dictionary and
    finally the manifest.  Until the manifest lands the directory is not
    a valid store, which is the crash-safety contract.
    """

    def __init__(self, path: PathLike, *, chunk_records: int = 8192) -> None:
        if chunk_records < 1:
            raise ValueError(
                f"chunk_records must be >= 1, got {chunk_records}"
            )
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.path.mkdir(parents=True, exist_ok=True)
        self._templates = TemplateInterner()
        #: first-seen statement text per template id (the witness).
        self._witnesses: List[str] = []
        self._buffer: Dict[str, list] = {
            name: [] for name in _CHUNK_COLUMNS
        }
        self._buffer["template"] = []
        self._buffer["constants"] = []
        self._chunk_sizes: List[int] = []
        self._record_count = 0
        self._closed = False

    def append(self, record: LogRecord) -> None:
        buffer = self._buffer
        buffer["seq"].append(record.seq)
        buffer["timestamp"].append(record.timestamp)
        buffer["user"].append(record.user)
        buffer["ip"].append(record.ip)
        buffer["session"].append(record.session)
        buffer["rows"].append(record.rows)
        sql = record.sql
        try:
            template, constants = encode_sql(sql)
        except ValueError:
            buffer["template"].append(VERBATIM_TEMPLATE)
            buffer["constants"].append([sql])
        else:
            template_id = self._templates.intern(template)
            buffer["template"].append(template_id)
            buffer["constants"].append(constants)
            if template_id == len(self._witnesses):
                # First record of a new template: its verbatim text is
                # the template's witness (verbatim statements carry the
                # marker byte and are skipped — they would not parse).
                self._witnesses.append(sql)
        self._record_count += 1
        if len(buffer["seq"]) >= self.chunk_records:
            self._flush_chunk()

    def extend(self, records: Iterable[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def _flush_chunk(self) -> None:
        size = len(self._buffer["seq"])
        if not size:
            return
        _dump_compressed(
            self.path / chunk_file_name(len(self._chunk_sizes)), self._buffer
        )
        self._chunk_sizes.append(size)
        for column in self._buffer.values():
            column.clear()

    def close(self) -> None:
        if self._closed:
            return
        self._flush_chunk()
        _dump_compressed(
            self.path / "templates.bin",
            {
                "texts": list(self._templates.fingerprints()),
                "witnesses": self._witnesses,
            },
        )
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "record_count": self._record_count,
            "chunk_records": self.chunk_records,
            "chunks": self._chunk_sizes,
            "template_count": len(self._templates),
        }
        _write_bytes_atomic(
            self.path / "manifest.json",
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
        self._closed = True

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


def write_columnar(
    records: Iterable[LogRecord],
    path: PathLike,
    *,
    chunk_records: int = 8192,
) -> None:
    """Write ``records`` (any iterable, file order preserved) as a
    columnar store directory at ``path``."""
    with ColumnarWriter(path, chunk_records=chunk_records) as writer:
        writer.extend(records)


# ----------------------------------------------------------------------
# Reader


def is_columnar_store(path: PathLike) -> bool:
    """``True`` when ``path`` is a directory holding a store manifest."""
    manifest = Path(path) / "manifest.json"
    if not manifest.is_file():
        return False
    try:
        data = json.loads(manifest.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return False
    return isinstance(data, dict) and data.get("format") == FORMAT_NAME


def read_manifest(path: PathLike) -> Dict[str, object]:
    """Load and validate the manifest of the store at ``path``."""
    manifest_path = Path(path) / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"{path} is not a columnar store (no manifest.json)")
    data = json.loads(manifest_path.read_text(encoding="utf-8"))
    if data.get("format") != FORMAT_NAME:
        raise ValueError(
            f"{path} is not a {FORMAT_NAME} store "
            f"(format={data.get('format')!r})"
        )
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported {FORMAT_NAME} version {data.get('version')!r}"
        )
    return data


def load_templates(path: PathLike) -> List[str]:
    """The store's template dictionary, id-ordered.

    Reads both layouts: the v3 ``{"texts", "witnesses"}`` dict and the
    original plain list (stores written before witnesses existed).
    """
    payload = _load_compressed(Path(path) / "templates.bin")
    if isinstance(payload, dict):
        return payload["texts"]  # type: ignore[return-value]
    return payload  # type: ignore[return-value]


def load_template_witnesses(path: PathLike) -> List[str]:
    """One first-seen witness statement text per store template.

    Empty for stores written before parse engine v3 — witnesses are
    optional metadata, never a requirement for reading the store.
    """
    payload = _load_compressed(Path(path) / "templates.bin")
    if isinstance(payload, dict):
        witnesses = payload.get("witnesses", [])
        if isinstance(witnesses, list):
            return witnesses
    return []


def read_chunk(
    path: PathLike, index: int, templates: Sequence[str]
) -> List[LogRecord]:
    """Materialise one chunk of the store as records in file order."""
    columns = _load_compressed(Path(path) / chunk_file_name(index))
    records: List[LogRecord] = []
    append = records.append
    template_ids = columns["template"]  # type: ignore[index]
    constant_vectors = columns["constants"]  # type: ignore[index]
    for position in range(len(template_ids)):
        template_id = template_ids[position]
        constants = constant_vectors[position]
        if template_id == VERBATIM_TEMPLATE:
            sql = constants[0]
        else:
            sql = decode_sql(templates[template_id], constants)
        append(
            LogRecord(
                seq=columns["seq"][position],  # type: ignore[index]
                sql=sql,
                timestamp=columns["timestamp"][position],  # type: ignore[index]
                user=columns["user"][position],  # type: ignore[index]
                ip=columns["ip"][position],  # type: ignore[index]
                session=columns["session"][position],  # type: ignore[index]
                rows=columns["rows"][position],  # type: ignore[index]
            )
        )
    return records


def iter_columnar_chunks(
    path: PathLike, *, start_chunk: int = 0
) -> Iterator[List[LogRecord]]:
    """Stream the store chunk by chunk (bounded memory), optionally
    skipping the first ``start_chunk`` chunks without reading them."""
    manifest = read_manifest(path)
    templates: Optional[List[str]] = None
    for index in range(start_chunk, len(manifest["chunks"])):  # type: ignore[arg-type]
        if templates is None:
            templates = load_templates(path)
        yield read_chunk(path, index, templates)


def store_size_bytes(path: PathLike) -> int:
    """Total size of the store's data files (compression reporting)."""
    base = Path(path)
    total = 0
    for name in os.listdir(base):
        if name == "manifest.json" or name == "templates.bin" or (
            name.startswith("chunk-") and name.endswith(".bin")
        ):
            total += (base / name).stat().st_size
    return total


# ----------------------------------------------------------------------
# Shard payload (the parallel executor's wire format)
#
# One shard of records travels to a worker as a single protocol-5 pickle
# of plain field tuples in ``LogRecord`` field order.  Pickle keeps every
# field's exact type and value, so malformed rows (``sql=None``, an
# integer timestamp, a NaN, a row count beyond int64) reach the worker's
# validate stage unmangled and are quarantined there.  Tuples rather
# than pickled ``LogRecord`` objects keep the payload, and with it the
# parent's peak memory, smaller.  The format is process-local: no magic,
# no version.


def encode_shard(records: Iterable[LogRecord]) -> bytes:
    """Pickle one shard of records as field tuples, order preserved."""
    return pickle.dumps(
        [
            (r.seq, r.sql, r.timestamp, r.user, r.ip, r.session, r.rows)
            for r in records
        ],
        protocol=5,
    )


def decode_shard(buffer) -> List[LogRecord]:
    """The records of an :func:`encode_shard` payload (any bytes-like
    buffer), in their original order."""
    return [LogRecord(*fields) for fields in pickle.loads(buffer)]
