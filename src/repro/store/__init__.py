"""repro.store — out-of-core log input: sources, the columnar store,
and run checkpoints.

* :mod:`~repro.store.sources` — the :class:`LogSource` protocol and its
  adapters (:class:`InMemorySource`, :class:`CsvSource`,
  :class:`JsonlSource`, :class:`ColumnarSource`), plus :func:`open_log`,
  the single entry point for reading any on-disk log.
* :mod:`~repro.store.columnar` — the ``repro-columnar`` on-disk format:
  a template dictionary plus zlib-compressed per-record column chunks —
  and the shard payload (:func:`encode_shard` / :func:`decode_shard`)
  the parallel executor ships to workers.
* :mod:`~repro.store.checkpoint` — :class:`RunCheckpoint` and the
  chunked streaming driver behind ``repro.clean(source,
  checkpoint_dir=...)`` / ``--resume``.
"""

from .checkpoint import (
    CheckpointError,
    RunCheckpoint,
    clean_streaming_source,
    config_digest,
)
from .columnar import (
    ColumnarWriter,
    decode_shard,
    decode_sql,
    encode_shard,
    encode_sql,
    is_columnar_store,
    read_manifest,
    store_size_bytes,
    write_columnar,
)
from .sources import (
    DEFAULT_CHUNK_RECORDS,
    ColumnarSource,
    CsvSource,
    InMemorySource,
    JsonlSource,
    LogSource,
    as_source,
    open_log,
    sniff_format,
)

__all__ = [
    "LogSource",
    "InMemorySource",
    "CsvSource",
    "JsonlSource",
    "ColumnarSource",
    "open_log",
    "as_source",
    "sniff_format",
    "DEFAULT_CHUNK_RECORDS",
    "ColumnarWriter",
    "write_columnar",
    "is_columnar_store",
    "read_manifest",
    "store_size_bytes",
    "encode_sql",
    "decode_sql",
    "encode_shard",
    "decode_shard",
    "RunCheckpoint",
    "CheckpointError",
    "clean_streaming_source",
    "config_digest",
]
