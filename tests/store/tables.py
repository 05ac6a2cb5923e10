"""Fixed small inputs for the three chunked-table stores.

Shared by the byte-identity golden test and the conformance suite: each
builder writes one store of a given kind from inputs that never change,
so the resulting file bytes are a pure function of the store format.
"""

from __future__ import annotations

from pathlib import Path

from repro.fleet import FleetScenario, FleetStoreWriter
from repro.fleet.store import FLEET_COLUMNS
from repro.store import StoreWriter
from repro.telemetry import Telemetry, pack_spans
from repro.trace import SECTOR, Op, Request

TRACE_CHUNK_ROWS = 16
FLEET_CHUNK_DEVICES = 4
SPAN_CHUNK_ROWS = 16


def trace_requests(count: int = 40):
    """Replayed requests, deliberately out of arrival order."""
    requests = []
    for i in range(count):
        arrival = float((i * 7) % count) * 12.5
        service = arrival + (i % 3) * 2.0
        requests.append(
            Request(
                arrival_us=arrival,
                lba=(i * 13 % 64) * SECTOR,
                size=SECTOR * (1 + i % 4),
                op=Op.WRITE if i % 3 else Op.READ,
                service_start_us=service,
                finish_us=service + 100.0 + i,
            )
        )
    return requests


def trace_writer(path: Path, overwrite: bool = False) -> StoreWriter:
    return StoreWriter(
        path,
        name="golden",
        metadata={"app": "Golden", "seed": "7"},
        chunk_rows=TRACE_CHUNK_ROWS,
        overwrite=overwrite,
    )


def build_trace_store(path: Path, overwrite: bool = False) -> None:
    writer = trace_writer(path, overwrite)
    requests = trace_requests()
    for start in range(0, len(requests), 9):
        writer.append_requests(requests[start : start + 9])
    writer.close()


def build_trace_journal(path: Path, overwrite: bool = False) -> None:
    """A writer that stops after two flushed chunks (journal, no manifest)."""
    trace_writer(path, overwrite).append_requests(trace_requests())


def fleet_scenario() -> FleetScenario:
    return FleetScenario(
        devices=10,
        name="golden",
        seed=7,
        apps={"Twitter": 2.0, "Music": 1.0},
        configs={"small-4PS": 1.0, "small-HPS": 1.0},
    )


def fleet_row(index: int):
    row = {}
    for position, (name, dtype) in enumerate(FLEET_COLUMNS):
        if name == "device_index":
            row[name] = index
        elif dtype == "<f8":
            row[name] = index * 100.25 + position
        else:
            row[name] = index * 100 + position
    return row


def fleet_writer(path: Path, overwrite: bool = False) -> FleetStoreWriter:
    return FleetStoreWriter(
        path, fleet_scenario(), chunk_devices=FLEET_CHUNK_DEVICES, overwrite=overwrite
    )


def build_fleet_store(path: Path, overwrite: bool = False) -> None:
    writer = fleet_writer(path, overwrite)
    writer.append_rows([fleet_row(i) for i in range(10)])
    writer.close(request_summary={"size_stats": {"num_requests": 600}})


def span_recording(count: int = 50) -> Telemetry:
    sink = Telemetry()
    sink.meta["app"] = "golden"
    sink.meta["seed"] = 7
    for i in range(count):
        sink.add_span(
            ("write", "read", "gc")[i % 3],
            start_us=i * 10.5,
            dur_us=1.0 + i % 5,
            cat="device" if i % 2 else "host",
            track=f"unit-{i % 4}",
            parent=-1 if i % 5 == 0 else i - 1,
        )
    return sink


def build_span_store(path: Path, overwrite: bool = False) -> None:
    pack_spans(
        span_recording(), str(path), chunk_rows=SPAN_CHUNK_ROWS, overwrite=overwrite
    )


#: Store kind -> builder, in the golden file's order.
BUILDERS = {
    "trace": build_trace_store,
    "trace-journal": build_trace_journal,
    "fleet": build_fleet_store,
    "spans": build_span_store,
}
