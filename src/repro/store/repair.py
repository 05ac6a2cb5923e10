"""Crash-consistency repair for chunked trace stores.

Two failure shapes, one entry point (:func:`repair`):

* **Damaged packed store** -- a manifest exists but some chunk files are
  torn, bit-flipped or missing.  Bad chunks are quarantined (renamed with
  :data:`~repro.store.format.QUARANTINE_SUFFIX`) and then either rebuilt
  from a caller-provided source trace (checksum-verified against the
  manifest, so the rebuild is provably bit-identical to the original
  pack) or -- when the damage is a pure tail and no source is available --
  truncated out of the index.  Losing a *mid-stream* chunk with no source
  is unrecoverable and raises.

* **Killed writer** -- no manifest, but the writer's crash journal
  (:data:`~repro.store.format.JOURNAL_NAME`) is present.  The journaled
  chunks are re-hashed, any chunk file beyond the journal (the torn tail
  the kill interrupted) is quarantined, and the store is finalized: with
  a source, the missing tail is re-chunked at the journal's ``chunk_rows``
  so the result is byte-identical to a never-crashed pack; without one,
  the manifest covers the verified prefix.

Every repair ends with a strict :meth:`~repro.store.reader.TraceStore.verify`
of the repaired store, so ``repair()`` returning implies ``verify()``
passes.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.trace import Trace, TraceColumns

from .format import QUARANTINE_SUFFIX, TRACE_SCHEMA, chunk_filename
from .manifest import (
    ChunkInfo,
    StoreError,
    StoreManifest,
    journal_path,
    manifest_path,
    read_journal,
    write_manifest,
)
from .reader import open_store, verify_chunk_file
from .table import read_index
from .writer import write_chunk_file


@dataclass
class RepairReport:
    """What one :func:`repair` call did to a store directory."""

    path: str
    #: True when the store was finalized from a killed writer's journal.
    used_journal: bool = False
    #: Chunk files renamed aside as ``<name>.corrupt``.
    quarantined: List[str] = field(default_factory=list)
    #: Chunk files re-written from the source trace (checksum-verified).
    rebuilt: List[str] = field(default_factory=list)
    #: Trailing chunks dropped from the index (no source to rebuild from).
    dropped_chunks: List[str] = field(default_factory=list)
    #: Rows in the repaired, verified store.
    total_rows: int = 0

    def describe(self) -> str:
        """One-line human summary for the CLI."""
        actions = []
        if self.used_journal:
            actions.append("finalized from writer journal")
        if self.quarantined:
            actions.append(f"quarantined {', '.join(self.quarantined)}")
        if self.rebuilt:
            actions.append(f"rebuilt {', '.join(self.rebuilt)}")
        if self.dropped_chunks:
            actions.append(f"dropped {', '.join(self.dropped_chunks)}")
        if not actions:
            actions.append("nothing to do")
        return f"{self.path}: {'; '.join(actions)} ({self.total_rows} rows)"


def _source_columns(
    source: Optional[Union[Trace, TraceColumns]]
) -> Optional[TraceColumns]:
    if source is None:
        return None
    if isinstance(source, Trace):
        return source.columns()
    return source


def _quarantine(store_dir: Path, file_name: str, report: RepairReport) -> None:
    path = store_dir / file_name
    if path.is_file():
        os.replace(path, store_dir / (file_name + QUARANTINE_SUFFIX))
    report.quarantined.append(file_name)


def _rebuild_chunk(
    store_dir: Path,
    info: ChunkInfo,
    row_offset: int,
    columns: TraceColumns,
    report: RepairReport,
) -> None:
    """Re-write one chunk from source rows and prove it matches the index."""
    if row_offset + info.rows > len(columns):
        raise StoreError(
            f"source trace has {len(columns)} rows; cannot rebuild "
            f"{info.file} covering rows {row_offset}..{row_offset + info.rows}"
        )
    piece = columns.select(slice(row_offset, row_offset + info.rows))
    written = write_chunk_file(store_dir / info.file, piece)
    if written.sha256 != info.sha256:
        raise StoreError(
            f"rebuilt {info.file} does not match the recorded checksum -- "
            "the provided source is not the trace this store was packed from"
        )
    report.rebuilt.append(info.file)


def _repair_against_index(
    store_dir: Path,
    chunks: List[ChunkInfo],
    columns: Optional[TraceColumns],
    report: RepairReport,
) -> List[ChunkInfo]:
    """Quarantine+rebuild (or truncate) bad chunks; returns the kept index."""
    problems = (verify_chunk_file(store_dir, info) for info in chunks)
    bad = [(i, problem) for i, problem in enumerate(problems) if problem is not None]
    if not bad:
        return list(chunks)
    for _, problem in bad:
        if problem.reason != "missing":
            _quarantine(store_dir, problem.file, report)
    bad_indices = [index for index, _ in bad]
    if columns is not None:
        offsets = [0, *itertools.accumulate(info.rows for info in chunks)]
        for index in bad_indices:
            _rebuild_chunk(store_dir, chunks[index], offsets[index], columns, report)
        return list(chunks)
    # No source: recoverable only when the damage is a pure tail.
    first_bad = bad_indices[0]
    if bad_indices != list(range(first_bad, len(chunks))):
        raise StoreError(
            f"chunk {chunks[first_bad].file} is damaged mid-stream and no "
            "source trace was provided to rebuild it"
        )
    report.dropped_chunks.extend(chunks[i].file for i in bad_indices)
    return list(chunks[:first_bad])


def repair(
    path: Union[str, Path],
    source: Optional[Union[Trace, TraceColumns]] = None,
) -> RepairReport:
    """Detect, quarantine and (where possible) undo store damage.

    ``source`` -- the trace the store was packed from, when available --
    turns quarantines into checksum-verified rebuilds and lets a killed
    writer's store be completed to a byte-identical clean pack.  Raises
    :class:`~repro.store.manifest.StoreError` when the damage is
    unrecoverable (mid-stream loss with no source, no manifest *and* no
    journal, or a source that does not match the recorded checksums).
    """
    store_dir = Path(path)
    report = RepairReport(path=str(store_dir))
    columns = _source_columns(source)
    manifest_file = manifest_path(store_dir)
    journal_file = journal_path(store_dir)

    if manifest_file.is_file():
        manifest = StoreManifest.from_dict(read_index(TRACE_SCHEMA, store_dir))
        kept = _repair_against_index(store_dir, manifest.chunks, columns, report)
        if kept != manifest.chunks:
            manifest = StoreManifest(
                name=manifest.name,
                metadata=manifest.metadata,
                chunks=kept,
                arrival_sorted=manifest.arrival_sorted,
            )
            write_manifest(store_dir, manifest)
        # A crash between manifest write and journal cleanup in close()
        # leaves both; the manifest wins.
        if journal_file.exists():
            journal_file.unlink()
    elif journal_file.is_file():
        report.used_journal = True
        journal = read_journal(store_dir)
        kept = _repair_against_index(store_dir, journal.chunks, columns, report)
        journaled_files = {info.file for info in journal.chunks}
        for stray in sorted(store_dir.glob("chunk-*.bin")):
            if stray.name not in journaled_files:
                # The torn tail the kill interrupted (never journaled).
                _quarantine(store_dir, stray.name, report)
        arrival_sorted = journal.arrival_sorted
        if columns is not None:
            # Complete the pack: re-chunk the tail exactly as the writer
            # would have, so the result is byte-identical to a clean pack.
            done_rows = sum(info.rows for info in kept)
            chunk_rows = journal.chunk_rows
            position = done_rows
            while position < len(columns):
                take = min(chunk_rows, len(columns) - position)
                info = write_chunk_file(
                    store_dir / chunk_filename(len(kept)),
                    columns.select(slice(position, position + take)),
                )
                report.rebuilt.append(info.file)
                kept.append(info)
                position += take
            arrivals = columns.arrival_us
            arrival_sorted = bool(
                arrivals.size < 2 or not np.any(np.diff(arrivals) < 0)
            )
        write_manifest(
            store_dir,
            StoreManifest(
                name=journal.name,
                metadata=journal.metadata,
                chunks=kept,
                arrival_sorted=arrival_sorted,
            ),
        )
        journal_file.unlink()
    else:
        raise StoreError(
            f"{store_dir!s} has neither a manifest nor a writer journal -- "
            "nothing to repair from"
        )

    repaired = open_store(store_dir)
    repaired.verify(strict=True)
    report.total_rows = repaired.manifest.total_rows
    return report
