"""Deterministic damage injectors for chunked trace stores.

These are the storage-side counterpart of the device fault hooks: given
a :class:`~repro.faults.plan.FaultPlan`, they damage a packed store in a
seed-reproducible way so the repair tests (and ``repro-trace store
repair`` demos) exercise exactly the failure shapes the store's
crash-consistency machinery claims to handle:

* :func:`tear_chunk` -- truncate a chunk file to a prefix, the signature
  of a torn write (process killed / power lost mid-``write``);
* :func:`corrupt_chunk` -- flip one byte at a ``plan.stream("store")``-
  chosen offset, the signature of silent bit rot.

Both locate chunks through the manifest (falling back to a killed
writer's journal), never by globbing, so they damage only what the
store's own index believes exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from .plan import FaultPlan


@dataclass(frozen=True)
class StoreDamage:
    """What one injector call did (for test assertions and logs)."""

    file: str
    kind: str  # "torn" or "corrupt"
    offset: int
    original_nbytes: int
    damaged_nbytes: int


def _chunk_index_entries(store_dir: Path) -> List[dict]:
    """The store's chunk index: manifest if present, else the journal."""
    # Imported here so repro.faults stays importable without repro.store
    # (the device-side fault path has no storage dependency).
    from repro.store.format import TRACE_SCHEMA
    from repro.store.table import read_index

    journal = not (store_dir / TRACE_SCHEMA.manifest_name).is_file()
    return read_index(TRACE_SCHEMA, store_dir, journal=journal)["chunks"]


def tear_chunk(
    store_dir: Union[str, Path],
    chunk_index: int = -1,
    keep_bytes: Optional[int] = None,
    drop_manifest: bool = False,
) -> StoreDamage:
    """Truncate one chunk file to a prefix (a torn write).

    ``keep_bytes`` defaults to half the file; ``drop_manifest=True``
    additionally deletes the manifest, turning the directory into the
    "killed writer" shape (journal-only) when a journal is present.
    """
    store_dir = Path(store_dir)
    chunks = _chunk_index_entries(store_dir)
    info = chunks[chunk_index]
    path = store_dir / info["file"]
    original = path.stat().st_size
    keep = original // 2 if keep_bytes is None else int(keep_bytes)
    if not 0 <= keep < original:
        raise ValueError(f"keep_bytes must be in [0, {original}); got {keep}")
    with open(path, "r+b") as handle:
        handle.truncate(keep)
    if drop_manifest:
        from repro.store.manifest import manifest_path

        manifest_path(store_dir).unlink(missing_ok=True)
    return StoreDamage(
        file=info["file"],
        kind="torn",
        offset=keep,
        original_nbytes=original,
        damaged_nbytes=keep,
    )


def corrupt_chunk(
    store_dir: Union[str, Path],
    plan: FaultPlan,
    chunk_index: Optional[int] = None,
) -> StoreDamage:
    """Flip one byte of one chunk file at a seed-chosen position.

    The chunk (when ``chunk_index`` is ``None``) and the byte offset are
    drawn from ``plan.stream("store")``, so the same plan always damages
    the same byte of the same file -- corruption tests are replayable.
    """
    store_dir = Path(store_dir)
    chunks = _chunk_index_entries(store_dir)
    stream = plan.stream("store")
    if chunk_index is None:
        chunk_index = int(stream.integers(0, len(chunks)))
    info = chunks[chunk_index]
    path = store_dir / info["file"]
    original = path.stat().st_size
    if original == 0:
        raise ValueError(f"{info['file']} is empty; nothing to corrupt")
    offset = int(stream.integers(0, original))
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        # XOR with 0xFF always changes the byte, whatever its value.
        handle.write(bytes([byte ^ 0xFF]))
    return StoreDamage(
        file=info["file"],
        kind="corrupt",
        offset=offset,
        original_nbytes=original,
        damaged_nbytes=original,
    )
