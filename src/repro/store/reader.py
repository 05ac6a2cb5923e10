"""Memory-mapped reader for chunked columnar trace stores.

:class:`TraceStore` never loads the whole trace: each chunk file is
:func:`numpy.memmap`-ed lazily on access, so touching one column of one
chunk faults in only those pages.  The reading surface:

* :meth:`TraceStore.chunk` -- one stored chunk as zero-copy
  :class:`~repro.trace.TraceColumns` over the memmaps;
* :meth:`TraceStore.iter_chunks` -- the stream, optionally re-chunked to
  any ``chunk_rows`` (crossing pieces are concatenated, so memory stays
  bounded by one output chunk);
* :meth:`TraceStore.select_arrival_range` / :meth:`TraceStore.where` --
  range and mask selection; the range form consults the manifest's
  per-chunk arrival min/max and never opens non-overlapping chunks;
* :meth:`TraceStore.to_trace` -- the materializing escape hatch back to
  a full in-memory :class:`~repro.trace.Trace`.

Memmap lifetime caveat: the arrays returned by :meth:`chunk` (and, for
single-chunk pieces, :meth:`iter_chunks`) keep their backing file mapped
for as long as the arrays live.  Deleting or rewriting a store directory
while views of it are alive is undefined behaviour -- copy first
(``np.array(column)``) if the store may go away.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.trace import Trace, TraceColumns

from .format import TRACE_SCHEMA
from .manifest import ChunkInfo, StoreManifest, read_manifest
from .table import BadChunk, StoreVerifyResult, check_chunk, decode_chunk, verify_chunks
from .writer import concat_columns


def verify_chunk_file(
    store_dir: Union[str, Path], info: ChunkInfo
) -> Optional[BadChunk]:
    """Check one chunk file against its index entry; ``None`` when sound.

    :func:`repro.store.repair.repair` uses it on journal entries too,
    before a manifest exists.
    """
    return check_chunk(Path(store_dir) / info.file, info.nbytes, info.sha256)


class TraceStore:
    """One opened chunked trace store directory (read-only)."""

    def __init__(self, path: Union[str, Path], manifest: StoreManifest) -> None:
        self.path = Path(path)
        self.manifest = manifest
        #: How many chunk files have actually been opened (tests use this
        #: to assert that range pruning skips non-overlapping chunks).
        self.chunks_opened = 0

    # -- identity -------------------------------------------------------------

    @property
    def name(self) -> str:
        """Trace name recorded in the manifest."""
        return self.manifest.name

    @property
    def metadata(self) -> dict:
        """Trace metadata recorded in the manifest."""
        return dict(self.manifest.metadata)

    @property
    def num_chunks(self) -> int:
        """Number of chunk files."""
        return len(self.manifest.chunks)

    @property
    def arrival_sorted(self) -> bool:
        """True when the stream is globally non-decreasing in arrival."""
        return self.manifest.arrival_sorted

    def __len__(self) -> int:
        return self.manifest.total_rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceStore({str(self.path)!r}, rows={len(self)}, "
            f"chunks={self.num_chunks})"
        )

    # -- chunk access ---------------------------------------------------------

    def chunk(self, index: int) -> TraceColumns:
        """The ``index``-th stored chunk as zero-copy memmap columns."""
        info = self.manifest.chunks[index]
        arrays = decode_chunk(TRACE_SCHEMA, self.path / info.file, info.rows)
        self.chunks_opened += 1
        return TraceColumns(**arrays)

    def iter_chunks(self, chunk_rows: Optional[int] = None) -> Iterator[TraceColumns]:
        """Iterate the stream as column batches.

        ``chunk_rows=None`` yields the stored chunks as-is (zero-copy).
        An explicit ``chunk_rows`` re-chunks: every yielded batch has
        exactly ``chunk_rows`` rows except possibly the last.  Batches
        that cross stored-chunk boundaries are concatenated (a copy
        bounded by one output chunk); batches inside one stored chunk
        are zero-copy views.
        """
        if chunk_rows is None:
            for index in range(self.num_chunks):
                yield self.chunk(index)
            return
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        pending: List[TraceColumns] = []
        pending_rows = 0
        for index in range(self.num_chunks):
            piece = self.chunk(index)
            position = 0
            rows = len(piece)
            while position < rows:
                take = min(rows - position, chunk_rows - pending_rows)
                pending.append(piece.select(slice(position, position + take)))
                pending_rows += take
                position += take
                if pending_rows == chunk_rows:
                    yield concat_columns(pending)
                    pending = []
                    pending_rows = 0
        if pending_rows:
            yield concat_columns(pending)

    def columns(self) -> TraceColumns:
        """Every chunk concatenated into one in-memory column set."""
        return concat_columns([self.chunk(i) for i in range(self.num_chunks)])

    # -- selection ------------------------------------------------------------

    def chunks_overlapping(self, start_us: float, end_us: float) -> List[int]:
        """Indices of chunks whose arrival span intersects ``[start, end)``.

        Pure manifest arithmetic -- no chunk file is opened.  Valid for
        unsorted stores too: per-chunk min/max are computed from the
        data, not assumed from ordering.
        """
        return [
            index
            for index, info in enumerate(self.manifest.chunks)
            if info.max_arrival_us >= start_us and info.min_arrival_us < end_us
        ]

    def select_arrival_range(self, start_us: float, end_us: float) -> TraceColumns:
        """Rows with ``start_us <= arrival_us < end_us``, pruned by chunk.

        Only chunks whose manifest min/max span intersects the range are
        opened; within each, a boolean mask selects the exact rows.
        """
        pieces: List[TraceColumns] = []
        for index in self.chunks_overlapping(start_us, end_us):
            piece = self.chunk(index)
            arrivals = piece.arrival_us
            mask = (arrivals >= start_us) & (arrivals < end_us)
            if mask.all():
                pieces.append(piece)
            elif mask.any():
                pieces.append(piece.select(mask))
        return concat_columns(pieces)

    def where(self, predicate: Callable[[TraceColumns], np.ndarray]) -> TraceColumns:
        """Rows for which ``predicate(chunk)`` is true, one chunk at a time.

        ``predicate`` receives each chunk's columns and returns a boolean
        mask of its length; memory stays bounded by the matching rows.
        """
        pieces: List[TraceColumns] = []
        for index in range(self.num_chunks):
            piece = self.chunk(index)
            mask = np.asarray(predicate(piece), dtype=bool)
            if mask.shape != (len(piece),):
                raise ValueError("predicate mask does not match chunk length")
            if mask.any():
                pieces.append(piece.select(mask))
        return concat_columns(pieces)

    # -- materialization ------------------------------------------------------

    def to_trace(self) -> Trace:
        """Materialize the full in-memory :class:`~repro.trace.Trace`.

        For arrival-sorted stores the columns are adopted directly
        ("columns from birth"); an unsorted store (e.g. a raw blkparse
        import) goes through the ``Trace`` constructor, whose stable
        arrival sort reproduces the whole-file parse exactly.
        """
        columns = self.columns()
        if self.arrival_sorted:
            return Trace.from_columns(self.name, columns, metadata=self.metadata)
        return Trace(
            name=self.name, requests=columns.to_requests(), metadata=self.metadata
        )

    # -- integrity ------------------------------------------------------------

    def verify(self, strict: bool = True) -> StoreVerifyResult:
        """Re-hash every chunk file against the manifest checksums.

        Returns a :class:`StoreVerifyResult` describing every chunk
        checked and every mismatch found.  With ``strict=True`` (the
        default, preserving the original contract) the first problem
        raises :class:`~repro.store.manifest.StoreError` instead;
        ``strict=False`` is the survey mode :func:`repro.store.repair.repair`
        builds on.
        """
        return verify_chunks(
            TRACE_SCHEMA,
            self.path,
            [info.as_dict() for info in self.manifest.chunks],
            strict=strict,
        )

    @property
    def chunk_infos(self) -> Sequence[ChunkInfo]:
        """The manifest's per-chunk index entries."""
        return tuple(self.manifest.chunks)


def open_store(path: Union[str, Path]) -> TraceStore:
    """Open the trace store directory at ``path`` (manifest validated)."""
    return TraceStore(path, read_manifest(path))
