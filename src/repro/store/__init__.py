"""``repro.store``: chunked, memory-mapped, on-disk columnar trace store.

The row-at-a-time CSV format (:mod:`repro.trace.io`) is fine for the
paper's 25 modest traces but collapses at production scale: a
1000x-scaled trace neither parses quickly nor fits comfortably in RAM.
This package stores a trace as a directory of fixed-size binary chunk
files -- the same struct-of-arrays layout
:class:`~repro.trace.TraceColumns` uses in memory -- plus a JSON
manifest with the dtype schema, per-chunk row counts, arrival min/max
(range pruning) and SHA-256 checksums.

Write side: :func:`pack` (one-shot) and :class:`StoreWriter` (streaming
-- producers append request/column batches of any size and never hold
the full trace).  Read side: :func:`open_store` returns a
:class:`TraceStore` with lazy ``np.memmap`` chunk access, re-chunking
iteration, pruned range/mask selection and a ``to_trace()`` escape
hatch.  Pair with :mod:`repro.streaming` for out-of-core analysis.

The format itself -- chunk files, checksummed index, crash journal,
durable manifest writes, memmap decode and verification -- is the
schema-driven table core in :mod:`repro.store.table`, shared with the
fleet and span stores.  This package adds the trace schema, re-chunking,
range pruning and :func:`repair`, which quarantines, rebuilds or
finalizes damaged/half-written stores (``docs/fault-model.md``).

See ``docs/trace-store.md`` for the on-disk layout and chunk-size
guidance.
"""

from .format import (
    CHUNK_COLUMNS,
    COLUMN_DTYPES,
    DEFAULT_CHUNK_ROWS,
    JOURNAL_FORMAT,
    JOURNAL_NAME,
    MANIFEST_NAME,
    QUARANTINE_SUFFIX,
    ROW_NBYTES,
    STORE_FORMAT,
    STORE_VERSION,
    chunk_filename,
)
from .manifest import (
    ChunkInfo,
    StoreJournal,
    StoreManifest,
    journal_path,
    read_journal,
    read_manifest,
    write_journal,
    write_manifest,
)
from .reader import TraceStore, open_store, verify_chunk_file
from .repair import RepairReport, repair
from .table import BadChunk, StoreError, StoreVerifyResult
from .writer import StoreWriter, concat_columns, pack, write_chunk_file

__all__ = [
    "CHUNK_COLUMNS",
    "COLUMN_DTYPES",
    "DEFAULT_CHUNK_ROWS",
    "JOURNAL_FORMAT",
    "JOURNAL_NAME",
    "MANIFEST_NAME",
    "QUARANTINE_SUFFIX",
    "ROW_NBYTES",
    "STORE_FORMAT",
    "STORE_VERSION",
    "chunk_filename",
    "BadChunk",
    "ChunkInfo",
    "RepairReport",
    "StoreError",
    "StoreJournal",
    "StoreManifest",
    "StoreVerifyResult",
    "journal_path",
    "read_journal",
    "read_manifest",
    "repair",
    "verify_chunk_file",
    "write_journal",
    "write_manifest",
    "TraceStore",
    "open_store",
    "StoreWriter",
    "concat_columns",
    "pack",
    "write_chunk_file",
]
