"""Streaming writer for chunked columnar trace stores.

:class:`StoreWriter` accepts column batches (or ``Request`` batches) of
any size and re-chunks them into fixed-size chunk files, so producers --
the workload generator, the ``blkparse`` importer, a device replay loop
-- can emit a store incrementally without ever materializing a full
:class:`~repro.trace.Trace` in memory.  :func:`pack` is the one-shot
convenience over it.

Chunk bytes, checksums, the crash journal and the durable manifest write
are the table core's (:class:`~repro.store.table.TableWriter`); this
module adds the re-chunking buffer and the ``arrival_sorted`` tracking.
"""

from __future__ import annotations

from pathlib import Path
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Sequence, Type, Union

import numpy as np

from repro.trace import Request, Trace, TraceColumns

from .format import CHUNK_COLUMNS, DEFAULT_CHUNK_ROWS, TRACE_SCHEMA
from .manifest import ChunkInfo, StoreError, StoreManifest
from .table import TableWriter, write_chunk


def _column_map(columns: TraceColumns) -> Dict[str, np.ndarray]:
    return {name: getattr(columns, name) for name in CHUNK_COLUMNS}


def write_chunk_file(path: Path, columns: TraceColumns) -> ChunkInfo:
    """Write one chunk file and return its manifest entry.

    The one byte-level writer shared by :class:`StoreWriter` and
    :func:`repro.store.repair.repair`, so a rebuilt chunk is bit-identical
    to the original pack's.
    """
    return ChunkInfo.from_dict(write_chunk(TRACE_SCHEMA, path, _column_map(columns)))


def concat_columns(pieces: Sequence[TraceColumns]) -> TraceColumns:
    """Concatenate column sets into one (empty input -> empty columns)."""
    pieces = [piece for piece in pieces if len(piece)]
    if not pieces:
        return TraceColumns.empty()
    if len(pieces) == 1:
        return pieces[0]
    return TraceColumns(
        *(
            np.concatenate([getattr(piece, name) for piece in pieces])
            for name in CHUNK_COLUMNS
        )
    )


class StoreWriter:
    """Incrementally write one trace store directory.

    Usage::

        with StoreWriter(path, name="Twitter", metadata=meta) as writer:
            for batch in produce_request_batches():
                writer.append_requests(batch)
        store = open_store(path)

    ``append_*`` calls may carry any number of rows; the writer buffers
    at most ``chunk_rows`` rows (one chunk) before flushing to disk.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: str = "trace",
        metadata: Optional[Dict[str, str]] = None,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        overwrite: bool = False,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self.path = Path(path)
        self.name = name
        self.metadata = dict(metadata or {})
        self.chunk_rows = int(chunk_rows)
        self._pending: List[TraceColumns] = []
        self._pending_rows = 0
        self._sorted = True
        self._last_arrival: Optional[float] = None
        #: Populated by :meth:`close`.
        self.manifest: Optional[StoreManifest] = None
        self._table = TableWriter(TRACE_SCHEMA, self.path, overwrite)

    # -- appending ------------------------------------------------------------

    def append_columns(self, columns: TraceColumns) -> None:
        """Queue a columnar batch (any length, including zero)."""
        if self._table.closed:
            raise StoreError("writer is closed")
        rows = len(columns)
        if rows == 0:
            return
        arrivals = columns.arrival_us
        if self._sorted:
            if self._last_arrival is not None and float(arrivals[0]) < self._last_arrival:
                self._sorted = False
            elif rows > 1 and bool(np.any(np.diff(arrivals) < 0)):
                self._sorted = False
        self._last_arrival = float(arrivals[-1])
        self._pending.append(columns)
        self._pending_rows += rows
        while self._pending_rows >= self.chunk_rows:
            self._flush_rows(self.chunk_rows)

    def append_requests(self, requests: Sequence[Request]) -> None:
        """Queue a batch of :class:`~repro.trace.Request` records."""
        if requests:
            self.append_columns(TraceColumns.from_requests(list(requests)))

    def append_trace(self, trace: Trace) -> None:
        """Queue a whole trace's columns (adopts its cached view)."""
        self.append_columns(trace.columns())

    # -- flushing -------------------------------------------------------------

    def _take_rows(self, rows: int) -> TraceColumns:
        """Remove exactly ``rows`` rows from the front of the buffer."""
        taken: List[TraceColumns] = []
        needed = rows
        while needed > 0:
            piece = self._pending[0]
            if len(piece) <= needed:
                taken.append(piece)
                needed -= len(piece)
                self._pending.pop(0)
            else:
                taken.append(piece.select(slice(0, needed)))
                self._pending[0] = piece.select(slice(needed, len(piece)))
                needed = 0
        self._pending_rows -= rows
        return concat_columns(taken)

    def _flush_rows(self, rows: int) -> None:
        self._table.write_chunk(
            _column_map(self._take_rows(rows)),
            {
                "name": self.name,
                "metadata": self.metadata,
                "chunk_rows": self.chunk_rows,
                "arrival_sorted": self._sorted,
            },
        )

    # -- finalization ---------------------------------------------------------

    @property
    def rows_written(self) -> int:
        """Rows already flushed to chunk files."""
        return self._table.rows_written

    def close(self) -> StoreManifest:
        """Flush the partial tail chunk and write the manifest durably."""
        if self._table.closed:
            raise StoreError("writer is already closed")
        if self._pending_rows:
            self._flush_rows(self._pending_rows)
        manifest = StoreManifest(
            name=self.name,
            metadata=self.metadata,
            chunks=[ChunkInfo.from_dict(entry) for entry in self._table.chunks],
            arrival_sorted=self._sorted,
        )
        self._table.close(manifest.header())
        self.manifest = manifest
        return manifest

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # Only finalize a clean exit; a raised exception leaves no manifest,
        # so the partial directory is not mistaken for a valid store.
        if exc_type is None and not self._table.closed:
            self.close()


def pack(
    source: Union[Trace, TraceColumns, Iterable[TraceColumns]],
    path: Union[str, Path],
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    name: Optional[str] = None,
    metadata: Optional[Dict[str, str]] = None,
    overwrite: bool = False,
) -> StoreManifest:
    """Pack ``source`` into a store directory at ``path``.

    ``source`` may be a :class:`~repro.trace.Trace` (name/metadata are
    taken from it unless overridden), a single
    :class:`~repro.trace.TraceColumns`, or any iterable of column
    batches (the fully streaming path).
    """
    if isinstance(source, Trace):
        name = source.name if name is None else name
        metadata = source.metadata if metadata is None else metadata
        source = source.columns()
    writer = StoreWriter(
        path,
        name="trace" if name is None else name,
        metadata=metadata,
        chunk_rows=chunk_rows,
        overwrite=overwrite,
    )
    for batch in [source] if isinstance(source, TraceColumns) else source:
        writer.append_columns(batch)
    return writer.close()
