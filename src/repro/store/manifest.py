"""Typed views of the trace store's manifest and crash journal.

The manifest records identity -- trace ``name`` and free-form string
``metadata``, the pair a :class:`~repro.trace.Trace` carries, so store
round-trips are lossless -- plus ``arrival_sorted``: whether the
concatenated stream is globally non-decreasing in arrival time (always
true for generated/replayed traces; possibly false for raw ``blkparse``
imports, which complete out of arrival order).  Format, version, column
schema, row total and the chunk index are the table core's
(:mod:`repro.store.table`), which also validates them on read and writes
both files durably.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Union

from .format import TRACE_SCHEMA
from .table import StoreError, index_document, open_index, read_index, write_json


@dataclass(frozen=True)
class ChunkInfo:
    """Index entry for one chunk file."""

    file: str
    rows: int
    min_arrival_us: float
    max_arrival_us: float
    sha256: str
    nbytes: int

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "ChunkInfo":
        try:
            return cls(
                str(raw["file"]),
                int(raw["rows"]),  # type: ignore[arg-type]
                float(raw["min_arrival_us"]),  # type: ignore[arg-type]
                float(raw["max_arrival_us"]),  # type: ignore[arg-type]
                str(raw["sha256"]),
                int(raw["nbytes"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StoreError(f"malformed chunk entry in manifest: {raw!r}") from error


def _identity(raw: Dict[str, object]) -> Dict[str, object]:
    """Constructor fields shared by the manifest and the journal."""
    metadata = raw.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise StoreError("store metadata must be an object")
    return {
        "name": str(raw.get("name", "trace")),
        "metadata": {str(k): str(v) for k, v in metadata.items()},
        "chunks": [ChunkInfo.from_dict(entry) for entry in raw.get("chunks", [])],  # type: ignore[union-attr]
        "arrival_sorted": bool(raw.get("arrival_sorted", True)),
    }


@dataclass
class StoreManifest:
    """Everything a reader needs to interpret the chunk files."""

    name: str
    metadata: Dict[str, str] = field(default_factory=dict)
    chunks: List[ChunkInfo] = field(default_factory=list)
    arrival_sorted: bool = True

    @property
    def total_rows(self) -> int:
        """Requests across every chunk."""
        return sum(chunk.rows for chunk in self.chunks)

    @property
    def total_nbytes(self) -> int:
        """Payload bytes across every chunk file."""
        return sum(chunk.nbytes for chunk in self.chunks)

    def header(self) -> Dict[str, object]:
        """The trace store's own manifest keys (the core adds the rest)."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "arrival_sorted": self.arrival_sorted,
        }

    def as_dict(self) -> Dict[str, object]:
        return index_document(
            TRACE_SCHEMA, self.header(), [chunk.as_dict() for chunk in self.chunks]
        )

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "StoreManifest":
        """Build from a manifest object :func:`~repro.store.table.read_index` validated."""
        return cls(**_identity(raw))  # type: ignore[arg-type]


@dataclass
class StoreJournal:
    """The writer's crash journal: everything flushed so far.

    Re-written durably after every chunk flush and deleted on a clean
    ``close()``, so its presence (without a manifest) marks a store whose
    writer died mid-stream.  The journaled chunks were fully written and
    fsynced *before* the journal entry, so repair can trust them after
    re-hashing; any chunk file beyond the journal is a torn tail.
    """

    name: str
    metadata: Dict[str, str] = field(default_factory=dict)
    chunk_rows: int = 0
    chunks: List[ChunkInfo] = field(default_factory=list)
    arrival_sorted: bool = True

    @property
    def total_rows(self) -> int:
        """Rows across every journaled (durable) chunk."""
        return sum(chunk.rows for chunk in self.chunks)

    def header(self) -> Dict[str, object]:
        """The trace store's own journal keys (the core adds the rest)."""
        return {
            "name": self.name,
            "metadata": dict(self.metadata),
            "chunk_rows": self.chunk_rows,
            "arrival_sorted": self.arrival_sorted,
        }

    def as_dict(self) -> Dict[str, object]:
        return index_document(
            TRACE_SCHEMA,
            self.header(),
            [chunk.as_dict() for chunk in self.chunks],
            journal=True,
        )

    def dumps(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "StoreJournal":
        """Build from a journal object :func:`~repro.store.table.read_index` validated."""
        return cls(chunk_rows=int(raw.get("chunk_rows", 0)), **_identity(raw))  # type: ignore[arg-type]


def journal_path(store_dir: Union[str, Path]) -> Path:
    """Path of the crash journal inside ``store_dir``."""
    return Path(store_dir) / TRACE_SCHEMA.journal_name


def manifest_path(store_dir: Union[str, Path]) -> Path:
    """Path of the manifest file inside ``store_dir``."""
    return Path(store_dir) / TRACE_SCHEMA.manifest_name


def write_journal(store_dir: Union[str, Path], journal: StoreJournal) -> Path:
    """Durably and atomically write the crash journal."""
    path = journal_path(store_dir)
    write_json(path, journal.as_dict())
    return path


def write_manifest(store_dir: Union[str, Path], manifest: StoreManifest) -> Path:
    """Durably and atomically write ``manifest`` into ``store_dir``."""
    path = manifest_path(store_dir)
    write_json(path, manifest.as_dict())
    return path


def read_journal(store_dir: Union[str, Path]) -> StoreJournal:
    """Load and validate the crash journal of ``store_dir``."""
    return StoreJournal.from_dict(read_index(TRACE_SCHEMA, store_dir, journal=True))


def read_manifest(store_dir: Union[str, Path]) -> StoreManifest:
    """Load and validate the manifest of ``store_dir`` (chunk files present)."""
    return StoreManifest.from_dict(open_index(TRACE_SCHEMA, store_dir))
