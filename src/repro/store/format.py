"""The trace store's table schema and on-disk layout constants.

A trace store is a :mod:`chunked table <repro.store.table>` directory::

    mystore/
        manifest.json         # schema, metadata, per-chunk index
        chunk-000000.bin      # columnar binary, CHUNK_COLUMNS order
        chunk-000001.bin
        ...

Each chunk file holds the seven :class:`~repro.trace.TraceColumns`
arrays for a contiguous slice of the request stream, stored column by
column (struct-of-arrays on disk, exactly like in memory)::

    offset 0          : arrival_us       float64[rows]  little-endian
    offset 8*rows     : service_start_us float64[rows]
    offset 16*rows    : complete_us      float64[rows]
    offset 24*rows    : lba              int64[rows]
    offset 32*rows    : size             int64[rows]
    offset 40*rows    : op               uint8[rows]
    offset 41*rows    : flags            uint8[rows]

``arrival_us`` is the schema's range column: every chunk entry records
its min/max, so range selection skips chunks without opening them.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .table import TableSchema

#: Explicit little-endian dtype per column -- the on-disk byte contract.
COLUMN_DTYPES: Dict[str, str] = {
    "arrival_us": "<f8",
    "service_start_us": "<f8",
    "complete_us": "<f8",
    "lba": "<i8",
    "size": "<i8",
    "op": "|u1",
    "flags": "|u1",
}

#: Column order inside each chunk file (must match the write order).
CHUNK_COLUMNS: Tuple[str, ...] = tuple(COLUMN_DTYPES)

TRACE_SCHEMA = TableSchema(
    label="trace store",
    format="repro-trace-store",
    version=1,
    manifest_name="manifest.json",
    chunk_pattern="chunk-{:06d}.bin",
    columns=tuple(COLUMN_DTYPES.items()),
    range_column="arrival_us",
)

#: Manifest ``format`` marker and current layout version.
STORE_FORMAT = TRACE_SCHEMA.format
STORE_VERSION = TRACE_SCHEMA.version

#: File name of the JSON manifest inside the store directory.
MANIFEST_NAME = TRACE_SCHEMA.manifest_name

#: File name of the writer's crash journal (``manifest.partial.json``),
#: present only while a :class:`~repro.store.writer.StoreWriter` is
#: mid-stream; ``repro.store.repair`` can finalize a store from it.
JOURNAL_NAME = TRACE_SCHEMA.journal_name

#: Manifest ``format`` marker of the crash journal.
JOURNAL_FORMAT = TRACE_SCHEMA.journal_format

#: Suffix appended to quarantined (corrupt/torn) chunk files by repair.
QUARANTINE_SUFFIX = ".corrupt"

#: Bytes one row occupies across all columns (3*8 + 2*8 + 2*1).
ROW_NBYTES = TRACE_SCHEMA.row_nbytes

#: Default rows per chunk: 64 Ki rows is ~2.1 MiB per chunk file, small
#: enough that a re-chunking reader never concatenates much, large enough
#: that the manifest stays tiny even for 1000x-scaled traces.
DEFAULT_CHUNK_ROWS = 65536

#: File name of the ``index``-th chunk (zero-based, zero-padded).
chunk_filename = TRACE_SCHEMA.chunk_filename
