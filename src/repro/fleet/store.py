"""Chunked columnar fleet store: a table-core schema for per-device rows.

A fleet store is a :mod:`chunked table <repro.store.table>` directory::

    fleet/
      fleet.json          # manifest: scenario, string tables, chunk index
      devices-00000.bin   # chunk: FLEET_COLUMNS arrays, column-major
      devices-00001.bin

Each chunk holds ``chunk_devices`` per-device rows (the last one fewer).
The table core owns chunk bytes, checksums, the crash journal
(``fleet.partial.json`` while a run is in flight), the durable manifest
write, memmap decode and verification; this module adds row -> column
assembly, the app / config / fault-profile string tables (scenario-mix
order) and the scenario header, which makes the store self-describing:
``show-device --resimulate`` needs nothing else.  No timestamps: two
runs of the same scenario produce byte-identical directories regardless
of ``--jobs`` or ``PYTHONHASHSEED`` (the CI fleet job compares them).
"""

from __future__ import annotations

from pathlib import Path
from types import TracebackType
from typing import Dict, Iterator, List, Optional, Tuple, Type, Union

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

from .scenario import FleetScenario

#: Per-device row schema: (column, little-endian dtype), in on-disk order.
#: ``*_id`` columns index the manifest's string tables (scenario-mix
#: order); ``stats_digest64`` is the leading 8 bytes of the device's
#: canonical :func:`repro.faults.replay.stats_digest`, the re-simulation
#: parity anchor.
FLEET_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("device_index", "<i8"),
    ("app_id", "<u4"),
    ("config_id", "<u4"),
    ("fault_id", "<u4"),
    ("rate_factor", "<f8"),
    ("size_factor", "<f8"),
    ("requests", "<i8"),
    ("duration_us", "<f8"),
    ("mean_response_us", "<f8"),
    ("mean_service_us", "<f8"),
    ("max_response_us", "<f8"),
    ("no_wait_requests", "<i8"),
    ("data_bytes_written", "<i8"),
    ("data_bytes_read", "<i8"),
    ("flash_bytes_consumed", "<i8"),
    ("gc_collections", "<i8"),
    ("idle_gc_collections", "<i8"),
    ("gc_migrated_slots", "<i8"),
    ("erases", "<i8"),
    ("max_erase", "<i8"),
    ("mean_erase", "<f8"),
    ("wakeups", "<i8"),
    ("low_power_us", "<f8"),
    ("energy_uj", "<f8"),
    ("read_retries", "<i8"),
    ("uncorrectable_reads", "<i8"),
    ("program_failures", "<i8"),
    ("erase_failures", "<i8"),
    ("bad_blocks_retired", "<i8"),
    ("fault_events", "<i8"),
    ("stats_digest64", "<u8"),
)

#: Column name -> dtype string, for quick lookups.
FLEET_DTYPES: Dict[str, str] = {name: dtype for name, dtype in FLEET_COLUMNS}

#: Default devices per chunk file (~66 KiB at 271 B/row).
DEFAULT_CHUNK_DEVICES = 256

#: A per-device row: column name -> Python scalar.
DeviceRow = Dict[str, Union[int, float]]


class FleetStoreError(StoreError):
    """A fleet store is missing, malformed, or fails verification."""


FLEET_SCHEMA = TableSchema(
    label="fleet store",
    format="repro-fleet-store",
    version=1,
    manifest_name="fleet.json",
    chunk_pattern="devices-{:05d}.bin",
    columns=FLEET_COLUMNS,
    columns_layout="pairs",
    total_key="total_devices",
    error=FleetStoreError,
)

#: Manifest file name inside a fleet-store directory.
FLEET_MANIFEST_NAME = FLEET_SCHEMA.manifest_name


class FleetStoreWriter:
    """Incrementally write one fleet store directory, row batches in
    device-index order.

    The writer buffers at most ``chunk_devices`` rows before flushing a
    chunk file, so the executor's memory stays bounded by the shard
    size regardless of population size.
    """

    def __init__(
        self,
        path: Union[str, Path],
        scenario: FleetScenario,
        chunk_devices: int = DEFAULT_CHUNK_DEVICES,
        overwrite: bool = False,
    ) -> None:
        if chunk_devices <= 0:
            raise ValueError("chunk_devices must be positive")
        self.path = Path(path)
        self.scenario = scenario
        self.chunk_devices = int(chunk_devices)
        self._pending: List[DeviceRow] = []
        self.manifest: Optional[Dict[str, object]] = None
        self._table = TableWriter(FLEET_SCHEMA, self.path, overwrite)

    @property
    def rows_written(self) -> int:
        """Rows already flushed to chunk files."""
        return self._table.rows_written

    def append_row(self, row: DeviceRow) -> None:
        """Queue one device's row (rows must arrive in device-index order)."""
        if self._table.closed:
            raise FleetStoreError("fleet writer is closed")
        expected = self.rows_written + len(self._pending)
        if int(row["device_index"]) != expected:
            raise FleetStoreError(
                f"rows must arrive in device-index order: got device "
                f"{row['device_index']}, expected {expected}"
            )
        missing = [name for name, _ in FLEET_COLUMNS if name not in row]
        if missing:
            raise FleetStoreError(f"device row is missing columns: {missing}")
        self._pending.append(row)
        if len(self._pending) >= self.chunk_devices:
            self._flush(self.chunk_devices)

    def append_rows(self, rows: List[DeviceRow]) -> None:
        """Queue a batch of rows (in device-index order)."""
        for row in rows:
            self.append_row(row)

    def _header(self) -> Dict[str, object]:
        return {"scenario": self.scenario.as_dict(), "chunk_devices": self.chunk_devices}

    def _flush(self, count: int) -> None:
        batch, self._pending = self._pending[:count], self._pending[count:]
        self._table.write_chunk(
            {name: [row[name] for row in batch] for name, _ in FLEET_COLUMNS},
            self._header(),
        )

    def close(self, request_summary: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """Flush the tail chunk and write the manifest durably.

        ``request_summary`` (optional) is the fleet-level request-stat
        rollup the executor folded; it is embedded verbatim so the
        manifest's bytes cover the merged metric states too.
        """
        if self._table.closed:
            raise FleetStoreError("fleet writer is already closed")
        if self._pending:
            self._flush(len(self._pending))
        header = self._header()
        header["apps"] = self.scenario.app_names()
        header["configs"] = self.scenario.config_names()
        header["fault_profiles"] = self.scenario.fault_profile_names()
        if request_summary is not None:
            header["request_summary"] = request_summary
        self.manifest = self._table.close(header)
        return self.manifest

    def __enter__(self) -> "FleetStoreWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        # Only finalize a clean exit; an exception leaves no manifest.
        if exc_type is None and not self._table.closed:
            self.close()


class FleetStore:
    """Read-side handle on a packed fleet store directory."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        manifest = open_index(FLEET_SCHEMA, self.path)
        self.manifest = manifest
        self.apps: List[str] = list(manifest["apps"])
        self.configs: List[str] = list(manifest["configs"])
        self.fault_profiles: List[str] = list(manifest["fault_profiles"])

    def __len__(self) -> int:
        return int(self.manifest["total_devices"])

    @property
    def num_chunks(self) -> int:
        return len(self.manifest["chunks"])

    @property
    def request_summary(self) -> Optional[Dict[str, object]]:
        """The fleet-level request-stat rollup, when the run recorded one."""
        return self.manifest.get("request_summary")

    def scenario(self) -> FleetScenario:
        """The population description this store was produced from."""
        return FleetScenario.from_dict(self.manifest["scenario"])

    def _decode_chunk(self, info: Dict[str, object]) -> Dict[str, np.ndarray]:
        return decode_chunk(FLEET_SCHEMA, self.path / str(info["file"]), int(info["rows"]))

    def iter_chunks(self) -> Iterator[Dict[str, np.ndarray]]:
        """Yield each chunk's columns, one memory-mapped chunk at a time."""
        for info in self.manifest["chunks"]:
            yield self._decode_chunk(info)

    def column(self, name: str) -> np.ndarray:
        """One column concatenated across all chunks (copies into memory)."""
        if name not in FLEET_DTYPES:
            raise KeyError(f"unknown fleet column {name!r}")
        pieces = [chunk[name] for chunk in self.iter_chunks()]
        if not pieces:
            return np.empty(0, dtype=FLEET_DTYPES[name])
        return np.concatenate(pieces)

    def device_row(self, index: int) -> DeviceRow:
        """Device ``index``'s row, touching only its chunk."""
        if not 0 <= index < len(self):
            raise IndexError(f"device index {index} outside [0, {len(self)})")
        position = index
        for info in self.manifest["chunks"]:
            rows = int(info["rows"])
            if position < rows:
                columns = self._decode_chunk(info)
                return {
                    name: (
                        float(columns[name][position])
                        if np.dtype(dtype).kind == "f"
                        else int(columns[name][position])
                    )
                    for name, dtype in FLEET_COLUMNS
                }
            position -= rows
        raise FleetStoreError("manifest chunk rows disagree with total_devices")

    def verify(self) -> StoreVerifyResult:
        """Re-hash every chunk against the manifest; raises on mismatch."""
        return verify_chunks(FLEET_SCHEMA, self.path, self.manifest["chunks"])


def open_fleet_store(path: Union[str, Path]) -> FleetStore:
    """Open a packed fleet store directory for reading."""
    return FleetStore(path)
