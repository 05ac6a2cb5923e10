"""Chunked columnar span table: a table-core schema for spans.

A span store is a :mod:`chunked table <repro.store.table>` directory::

    spans/
      spans.json        # manifest: string tables, chunk index, checksums
      spans-00000.bin   # chunk: 6 columns, column-major, little-endian
      spans-00001.bin

Each chunk holds ``chunk_rows`` spans (the last one fewer) as six
concatenated column arrays: ``parent`` (int64), ``name_id``/``cat_id``/
``track_id`` (uint32 indices into the manifest's string tables), and
``start_us``/``dur_us`` (float64).  The table core owns chunk bytes,
checksums, the crash journal (``spans.partial.json`` while packing), the
durable manifest write, memmap decode and verification; this module adds
string interning (first-seen order, so any process and any hash seed
packs byte-identical directories) and :meth:`SpanStore.totals_by_name`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.store.table import (
    StoreError,
    StoreVerifyResult,
    TableSchema,
    TableWriter,
    decode_chunk,
    open_index,
    verify_chunks,
)

from .core import S_CAT, S_DUR, S_NAME, S_PARENT, S_START, S_TRACK, Telemetry


class SpanStoreError(StoreError):
    """A span store is missing, malformed, or fails verification."""


SPAN_SCHEMA = TableSchema(
    label="span store",
    format="repro-span-store",
    version=1,
    manifest_name="spans.json",
    chunk_pattern="spans-{:05d}.bin",
    columns=(
        ("parent", "<i8"),
        ("name_id", "<u4"),
        ("cat_id", "<u4"),
        ("track_id", "<u4"),
        ("start_us", "<f8"),
        ("dur_us", "<f8"),
    ),
    columns_layout=None,
    error=SpanStoreError,
)

#: Manifest file name inside a span-store directory.
SPAN_MANIFEST_NAME = SPAN_SCHEMA.manifest_name


def pack_spans(
    telemetry: Telemetry,
    path: str,
    chunk_rows: int = 65536,
    overwrite: bool = False,
) -> dict:
    """Write ``telemetry``'s spans as a span store; returns the manifest."""
    if chunk_rows < 1:
        raise ValueError("chunk_rows must be positive")
    writer = TableWriter(SPAN_SCHEMA, path, overwrite)
    # String -> id tables; dicts keep first-seen order for the manifest.
    names: Dict[str, int] = {}
    cats: Dict[str, int] = {}
    tracks: Dict[str, int] = {}

    def header() -> dict:
        return {
            "chunk_rows": chunk_rows,
            "names": list(names),
            "cats": list(cats),
            "tracks": list(tracks),
        }

    spans = telemetry.spans
    for offset in range(0, len(spans), chunk_rows):
        batch = spans[offset : offset + chunk_rows]
        rows = len(batch)
        columns = {
            "parent": np.fromiter((span[S_PARENT] for span in batch), "<i8", rows),
            "name_id": np.fromiter(
                (names.setdefault(span[S_NAME], len(names)) for span in batch),
                "<u4",
                rows,
            ),
            "cat_id": np.fromiter(
                (cats.setdefault(span[S_CAT], len(cats)) for span in batch), "<u4", rows
            ),
            "track_id": np.fromiter(
                (tracks.setdefault(span[S_TRACK], len(tracks)) for span in batch),
                "<u4",
                rows,
            ),
            "start_us": np.fromiter((span[S_START] for span in batch), "<f8", rows),
            "dur_us": np.fromiter((span[S_DUR] for span in batch), "<f8", rows),
        }
        writer.write_chunk(columns, header())
    manifest_header = header()
    manifest_header["meta"] = {str(key): str(value) for key, value in telemetry.meta.items()}
    return writer.close(manifest_header)


@dataclass
class SpanChunk:
    """One memory-mapped chunk of a span store, as column arrays."""

    parent: np.ndarray
    name_id: np.ndarray
    cat_id: np.ndarray
    track_id: np.ndarray
    start_us: np.ndarray
    dur_us: np.ndarray

    def __len__(self) -> int:
        return len(self.parent)


class SpanStore:
    """Read-side handle on a packed span store directory."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.manifest = open_index(SPAN_SCHEMA, path)
        self.names: List[str] = self.manifest["names"]
        self.cats: List[str] = self.manifest["cats"]
        self.tracks: List[str] = self.manifest["tracks"]

    def __len__(self) -> int:
        return self.manifest["total_rows"]

    @property
    def num_chunks(self) -> int:
        return len(self.manifest["chunks"])

    def iter_chunks(self) -> Iterator[SpanChunk]:
        """Yield each chunk's columns, one memory-mapped chunk at a time."""
        for info in self.manifest["chunks"]:
            path = Path(self.path) / info["file"]
            yield SpanChunk(**decode_chunk(SPAN_SCHEMA, path, info["rows"]))

    def verify(self) -> StoreVerifyResult:
        """Re-hash every chunk against the manifest; raises on mismatch."""
        return verify_chunks(SPAN_SCHEMA, self.path, self.manifest["chunks"])

    def totals_by_name(self) -> Dict[str, Tuple[int, float]]:
        """Out-of-core ``name -> (count, total_us)`` aggregation."""
        counts = np.zeros(len(self.names), dtype=np.int64)
        totals = np.zeros(len(self.names), dtype=np.float64)
        for chunk in self.iter_chunks():
            counts += np.bincount(chunk.name_id, minlength=len(self.names))
            totals += np.bincount(
                chunk.name_id, weights=chunk.dur_us, minlength=len(self.names)
            )
        return {
            name: (int(counts[index]), float(totals[index]))
            for index, name in enumerate(self.names)
        }


def open_span_store(path: str) -> SpanStore:
    """Open a packed span store directory for reading."""
    return SpanStore(path)
