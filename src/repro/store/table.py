"""One schema-driven chunked-table core under every on-disk store.

The trace store (:mod:`repro.store`), the fleet store
(:mod:`repro.fleet.store`) and the span store
(:mod:`repro.telemetry.spanstore`) share one format and differ only in
their :class:`TableSchema`.  A table is a directory holding

* *chunk files*: a run of rows stored column by column in schema order,
  little-endian, with no header, so any column of any chunk
  memory-maps straight into a zero-copy NumPy view;
* the JSON *manifest*: format marker, version, the store's own header,
  the row total and one index entry per chunk -- file name, rows, byte
  size, the SHA-256 of the exact bytes written and, when the schema has a
  range column, that column's min/max for pruning;
* while a writer is mid-stream, the *journal*
  ``<manifest stem>.partial.json``: the chunks flushed so far, rewritten
  after every flush and removed once the manifest is in place.  A journal
  without a manifest marks a killed writer.

Durability: a chunk file is fsynced before the journal names it, and
every manifest or journal write fsyncs a temp file, renames it over the
target with ``os.replace`` and fsyncs the directory -- after a crash the
file holds the old or the new version, never a torn one.  No timestamps
anywhere: the same rows always produce byte-identical directories.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Type, Union

import numpy as np

#: A chunk index entry exactly as the manifest and journal record it.
ChunkEntry = Dict[str, object]


class StoreError(RuntimeError):
    """A store directory is missing, malformed or corrupt."""


@dataclass(frozen=True)
class TableSchema:
    """Everything that tells one chunked-table format from another."""

    #: Noun used in messages, e.g. ``"trace store"``.
    label: str
    #: Manifest ``format`` marker and layout version.
    format: str
    version: int
    #: File name of the manifest inside the store directory.
    manifest_name: str
    #: ``str.format`` pattern of chunk file names (zero-based index).
    chunk_pattern: str
    #: ``(column, little-endian dtype)`` pairs in on-disk order.
    columns: Tuple[Tuple[str, str], ...]
    #: Column whose per-chunk min/max the index records, for pruning.
    range_column: Optional[str] = None
    #: How the manifest spells the columns: ``"mapping"`` (name -> dtype),
    #: ``"pairs"`` (``[[name, dtype], ...]``) or ``None`` (not recorded).
    columns_layout: Optional[str] = "mapping"
    #: Manifest key holding the row total.
    total_key: str = "total_rows"
    #: Exception type raised for this store's problems.
    error: Type[StoreError] = StoreError

    @property
    def journal_name(self) -> str:
        return Path(self.manifest_name).stem + ".partial.json"

    @property
    def journal_format(self) -> str:
        return self.format + "-journal"

    @property
    def row_nbytes(self) -> int:
        """Bytes one row occupies across all columns."""
        return sum(np.dtype(dtype).itemsize for _, dtype in self.columns)

    def chunk_filename(self, index: int) -> str:
        """File name of the ``index``-th chunk."""
        if index < 0:
            raise ValueError("chunk index must be non-negative")
        return self.chunk_pattern.format(index)

    def columns_json(self) -> object:
        """The column schema as the manifest records it (``None``: absent)."""
        if self.columns_layout == "pairs":
            return [[name, dtype] for name, dtype in self.columns]
        if self.columns_layout == "mapping":
            return dict(self.columns)
        return None

    def stale_files(self, directory: Path) -> List[Path]:
        """Every file of this format in ``directory``: chunks, index, temps."""
        prefix, _, rest = self.chunk_pattern.partition("{")
        patterns = [prefix + "*" + rest.partition("}")[2]]
        for name in (self.manifest_name, self.journal_name):
            patterns += [name, f".{name}.*.tmp"]
        return [path for pattern in patterns for path in sorted(directory.glob(pattern))]


# -- durable writes -----------------------------------------------------------


def write_durably(path: Path, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload``, durably.

    The bytes go to a same-directory temp file that is fsynced before
    ``os.replace`` moves it over ``path``; the directory is fsynced after,
    so the rename itself survives a crash.  On failure the temp file is
    removed and ``path`` is left as it was.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def write_json(path: Path, document: Mapping[str, object]) -> None:
    """Durably write ``document`` as sorted-key, indented JSON."""
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    write_durably(path, text.encode("utf-8"))


def write_chunk(
    schema: TableSchema, path: Path, columns: Mapping[str, object]
) -> ChunkEntry:
    """Write one chunk file and return its index entry.

    Columns go to disk in schema order while a SHA-256 is folded over the
    exact bytes written; the file is fsynced before the entry is returned,
    so a journal naming it never outlives its contents.
    """
    digest = hashlib.sha256()
    nbytes = 0
    with open(path, "wb") as handle:
        for name, dtype in schema.columns:
            payload = np.ascontiguousarray(columns[name], dtype=dtype).tobytes()
            digest.update(payload)
            handle.write(payload)
            nbytes += len(payload)
        handle.flush()
        os.fsync(handle.fileno())
    entry: ChunkEntry = {
        "file": path.name,
        "rows": nbytes // schema.row_nbytes,
        "nbytes": nbytes,
        "sha256": digest.hexdigest(),
    }
    if schema.range_column is not None:
        values = np.asarray(columns[schema.range_column])
        entry[f"min_{schema.range_column}"] = float(values.min())
        entry[f"max_{schema.range_column}"] = float(values.max())
    return entry


def index_document(
    schema: TableSchema,
    header: Mapping[str, object],
    chunks: List[ChunkEntry],
    journal: bool = False,
) -> Dict[str, object]:
    """The manifest (or journal) JSON object for ``chunks`` plus ``header``.

    The manifest carries the row total under :attr:`TableSchema.total_key`;
    the journal does not (its chunk list is the durable prefix so far).
    """
    document: Dict[str, object] = dict(header)
    document["format"] = schema.journal_format if journal else schema.format
    document["version"] = schema.version
    columns = schema.columns_json()
    if columns is not None:
        document["columns"] = columns
    if not journal:
        document[schema.total_key] = sum(int(entry["rows"]) for entry in chunks)
    document["chunks"] = list(chunks)
    return document


class TableWriter:
    """Stream chunk files into one store directory, journaling each flush.

    Construction claims the directory: an existing manifest or journal is
    refused unless ``overwrite``; then every file of the schema (index,
    stale temps, chunks) is removed.  :meth:`write_chunk` writes the next
    chunk and rewrites the journal; :meth:`close` writes the manifest and
    removes the journal.
    """

    def __init__(
        self, schema: TableSchema, path: Union[str, Path], overwrite: bool = False
    ) -> None:
        self.schema = schema
        self.path = Path(path)
        self.chunks: List[ChunkEntry] = []
        self.closed = False
        self.path.mkdir(parents=True, exist_ok=True)
        if not overwrite:
            if (self.path / schema.manifest_name).exists():
                raise schema.error(
                    f"{self.path!s} already holds a {schema.label}; refusing to "
                    "replace a store that already exists without overwrite=True"
                )
            if (self.path / schema.journal_name).exists():
                raise schema.error(
                    f"{self.path!s} already holds a crashed writer's journal "
                    "(pass overwrite=True to replace it)"
                )
        for stale in schema.stale_files(self.path):
            stale.unlink()

    @property
    def rows_written(self) -> int:
        """Rows already flushed to chunk files."""
        return sum(int(entry["rows"]) for entry in self.chunks)

    def write_chunk(
        self, columns: Mapping[str, object], journal_header: Mapping[str, object]
    ) -> ChunkEntry:
        """Write the next chunk, then journal every chunk flushed so far."""
        file_name = self.schema.chunk_filename(len(self.chunks))
        entry = write_chunk(self.schema, self.path / file_name, columns)
        self.chunks.append(entry)
        write_json(
            self.path / self.schema.journal_name,
            index_document(self.schema, journal_header, self.chunks, journal=True),
        )
        return entry

    def close(self, header: Mapping[str, object]) -> Dict[str, object]:
        """Write the manifest durably, then drop the journal it supersedes."""
        manifest = index_document(self.schema, header, self.chunks)
        write_json(self.path / self.schema.manifest_name, manifest)
        with contextlib.suppress(FileNotFoundError):
            (self.path / self.schema.journal_name).unlink()
        self.closed = True
        return manifest


# -- reading ------------------------------------------------------------------


def read_index(
    schema: TableSchema, store_dir: Union[str, Path], journal: bool = False
) -> Dict[str, object]:
    """Load and validate the manifest (or journal) of ``store_dir``.

    Checks the format marker, version and column schema, that every chunk
    entry is well formed with ``nbytes == rows * row width``, and that a
    manifest's row total matches its chunks.  Chunk files are not opened.
    """
    name = schema.journal_name if journal else schema.manifest_name
    path = Path(store_dir) / name
    what = f"{schema.label} {'journal' if journal else 'manifest'}"
    if not path.is_file():
        raise schema.error(f"no {schema.label} at {store_dir!s} (missing {name})")
    try:
        raw = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise schema.error(f"corrupt {what} at {path!s}: {error}") from error
    if not isinstance(raw, dict):
        raise schema.error(f"corrupt {what} at {path!s}: not a JSON object")
    if raw.get("format") != (schema.journal_format if journal else schema.format):
        raise schema.error(f"{path!s} is not a {what}: format={raw.get('format')!r}")
    if raw.get("version") != schema.version:
        raise schema.error(
            f"unsupported {what} version {raw.get('version')!r} "
            f"(reader supports {schema.version})"
        )
    expected = schema.columns_json()
    if expected is not None and raw.get("columns") != expected:
        raise schema.error(
            f"incompatible column schema {raw.get('columns')!r}; expected {expected!r}"
        )
    if not isinstance(raw.get("chunks"), list):
        raise schema.error(f"malformed {what} at {path!s}: no chunk list")
    total = 0
    for entry in raw["chunks"]:
        try:
            str(entry["file"]), str(entry["sha256"])
            rows, nbytes = int(entry["rows"]), int(entry["nbytes"])
        except (KeyError, TypeError, ValueError) as error:
            raise schema.error(f"malformed chunk entry in {what}: {entry!r}") from error
        if nbytes != rows * schema.row_nbytes:
            raise schema.error(
                f"chunk {entry['file']}: {nbytes} bytes inconsistent with "
                f"{rows} rows x {schema.row_nbytes} bytes per row"
            )
        total += rows
    declared = raw.get(schema.total_key)
    if not journal and declared is not None and int(declared) != total:
        raise schema.error(
            f"{what} {schema.total_key}={declared} disagrees with chunk sum {total}"
        )
    return raw


def open_index(schema: TableSchema, store_dir: Union[str, Path]) -> Dict[str, object]:
    """:func:`read_index` of the manifest, plus every chunk file present."""
    manifest = read_index(schema, store_dir)
    for entry in manifest["chunks"]:  # type: ignore[union-attr]
        if not (Path(store_dir) / entry["file"]).is_file():
            raise schema.error(
                f"{schema.label} at {store_dir!s} is missing chunk file {entry['file']}"
            )
    return manifest


def decode_chunk(schema: TableSchema, path: Path, rows: int) -> Dict[str, np.ndarray]:
    """Memory-map one chunk file and slice it into zero-copy column views."""
    try:
        mapped = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as error:
        raise schema.error(
            f"unreadable {schema.label} chunk {path.name!r}: {error}"
        ) from None
    if mapped.nbytes != rows * schema.row_nbytes:
        raise schema.error(
            f"{schema.label} chunk {path.name!r} is {mapped.nbytes} bytes, "
            f"manifest says {rows * schema.row_nbytes}"
        )
    columns: Dict[str, np.ndarray] = {}
    offset = 0
    for name, dtype in schema.columns:
        columns[name] = np.frombuffer(mapped, dtype=dtype, count=rows, offset=offset)
        offset += rows * np.dtype(dtype).itemsize
    return columns


# -- verification -------------------------------------------------------------


@dataclass(frozen=True)
class BadChunk:
    """One chunk file that failed verification."""

    file: str
    #: Why: ``"missing"`` (file gone), ``"truncated"`` (short file, a torn
    #: write), or ``"corrupt"`` (right size, wrong checksum -- bit rot).
    reason: str
    expected_nbytes: int
    actual_nbytes: int

    def describe(self) -> str:
        """One-line human summary."""
        if self.reason == "missing":
            return f"{self.file}: missing"
        if self.reason == "truncated":
            return (
                f"{self.file}: truncated ({self.actual_nbytes} of "
                f"{self.expected_nbytes} bytes)"
            )
        return f"{self.file}: checksum mismatch"


@dataclass
class StoreVerifyResult:
    """Outcome of re-hashing every chunk against its index entry."""

    chunks_checked: int = 0
    bytes_verified: int = 0
    bad_chunks: List[BadChunk] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every chunk matched its recorded checksum and size."""
        return not self.bad_chunks

    def describe(self) -> str:
        """One-line human summary for the CLI."""
        if self.ok:
            return (
                f"ok: {self.chunks_checked} chunks, "
                f"{self.bytes_verified} bytes verified"
            )
        problems = "; ".join(bad.describe() for bad in self.bad_chunks)
        return f"FAILED ({len(self.bad_chunks)} of {self.chunks_checked} chunks): {problems}"


def check_chunk(path: Path, nbytes: int, sha256: str) -> Optional[BadChunk]:
    """Re-hash one chunk file against its entry; ``None`` when sound."""
    if not path.is_file():
        return BadChunk(path.name, "missing", nbytes, 0)
    digest = hashlib.sha256()
    read = 0
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
            read += len(block)
    if read != nbytes:
        return BadChunk(path.name, "truncated", nbytes, read)
    if digest.hexdigest() != sha256:
        return BadChunk(path.name, "corrupt", nbytes, read)
    return None


def verify_chunks(
    schema: TableSchema,
    store_dir: Union[str, Path],
    entries: Iterable[ChunkEntry],
    strict: bool = True,
) -> StoreVerifyResult:
    """Re-hash every indexed chunk file.

    ``strict=True`` raises ``schema.error`` at the first bad chunk;
    ``strict=False`` surveys them all into the returned result.
    """
    result = StoreVerifyResult()
    for entry in entries:
        nbytes = int(entry["nbytes"])  # type: ignore[arg-type]
        result.chunks_checked += 1
        bad = check_chunk(Path(store_dir) / str(entry["file"]), nbytes, str(entry["sha256"]))
        if bad is None:
            result.bytes_verified += nbytes
        elif not strict:
            result.bad_chunks.append(bad)
        elif bad.reason == "truncated":
            raise schema.error(
                f"{schema.label} chunk {bad.file}: {bad.actual_nbytes} bytes on "
                f"disk, manifest says {nbytes}"
            )
        elif bad.reason == "missing":
            raise schema.error(f"{schema.label} chunk {bad.file}: file is missing")
        else:
            raise schema.error(f"{schema.label} chunk {bad.file}: checksum mismatch")
    return result
