"""One conformance suite for every schema over the chunked-table core.

The trace, fleet and span stores are schemas over :mod:`repro.store.table`;
each must re-pack byte-identically, survey-verify every kind of chunk
damage, leave a journal (never a manifest) when its writer raises
mid-stream, and fsync every manifest and journal write before and after
it replaces the old file.
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.fleet import open_fleet_store
from repro.fleet.store import FLEET_SCHEMA
from repro.store import open_store
from repro.store.format import TRACE_SCHEMA
from repro.store.table import TableSchema, read_index, verify_chunks
from repro.telemetry import open_span_store, pack_spans
from repro.telemetry.spanstore import SPAN_SCHEMA

from . import tables


@dataclass(frozen=True)
class Kind:
    schema: TableSchema
    #: Build the store from fixed inputs (``overwrite`` as the writer takes it).
    build: Callable[..., None]
    #: The store's own reader.
    open: Callable[[Path], object]
    #: Start the writer, flush at least one chunk, then raise.
    crash: Callable[[Path], None]


def _crash_trace(path):
    with tables.trace_writer(path) as writer:
        writer.append_requests(tables.trace_requests())
        raise RuntimeError("boom")


def _crash_fleet(path):
    with tables.fleet_writer(path) as writer:
        writer.append_rows([tables.fleet_row(i) for i in range(6)])
        raise RuntimeError("boom")


def _crash_spans(path):
    recording = tables.span_recording()
    # A parent id that is not an integer fails the last chunk's encode.
    recording.spans.append(("bad", "", "", "not-an-id", 0.0, 1.0))
    pack_spans(recording, str(path), chunk_rows=tables.SPAN_CHUNK_ROWS)


KINDS = {
    "trace": Kind(TRACE_SCHEMA, tables.build_trace_store, open_store, _crash_trace),
    "fleet": Kind(FLEET_SCHEMA, tables.build_fleet_store, open_fleet_store, _crash_fleet),
    "spans": Kind(
        SPAN_SCHEMA,
        tables.build_span_store,
        lambda path: open_span_store(str(path)),
        _crash_spans,
    ),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _files(directory: Path):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_repack_is_byte_identical(kind, tmp_path):
    kind.build(tmp_path / "a")
    kind.build(tmp_path / "b")
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    kind.build(tmp_path / "a", overwrite=True)
    assert _files(tmp_path / "a") == first


def test_survey_verify_reports_every_kind_of_damage(kind, tmp_path):
    kind.build(tmp_path)
    store = kind.open(tmp_path)
    chunks = read_index(kind.schema, tmp_path)["chunks"]
    torn, rotted, lost = (tmp_path / entry["file"] for entry in chunks[:3])
    torn.write_bytes(torn.read_bytes()[:-1])
    blob = bytearray(rotted.read_bytes())
    blob[3] ^= 0xFF
    rotted.write_bytes(bytes(blob))
    lost.unlink()

    survey = verify_chunks(kind.schema, tmp_path, chunks, strict=False)
    assert not survey.ok
    assert survey.chunks_checked == len(chunks)
    assert [(bad.file, bad.reason) for bad in survey.bad_chunks] == [
        (torn.name, "truncated"),
        (rotted.name, "corrupt"),
        (lost.name, "missing"),
    ]
    with pytest.raises(kind.schema.error, match="bytes on disk"):
        store.verify()


def test_writer_raising_mid_stream_leaves_journal_and_no_manifest(kind, tmp_path):
    crashed = tmp_path / "crashed"
    with pytest.raises((RuntimeError, ValueError)):
        kind.crash(crashed)
    assert not (crashed / kind.schema.manifest_name).exists()
    journal = read_index(kind.schema, crashed, journal=True)
    assert journal["chunks"]
    assert verify_chunks(kind.schema, crashed, journal["chunks"]).ok
    with pytest.raises(kind.schema.error, match="no .* at"):
        kind.open(crashed)
    with pytest.raises(kind.schema.error, match="journal"):
        kind.build(crashed)
    kind.build(crashed, overwrite=True)
    kind.build(tmp_path / "clean")
    assert _files(crashed) == _files(tmp_path / "clean")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc/self/fd")
def test_every_index_write_fsyncs_before_and_after_replace(kind, tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.readlink(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", os.path.realpath(src), os.path.realpath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    kind.build(tmp_path)

    index_names = {kind.schema.manifest_name, kind.schema.journal_name}
    writes = [
        position
        for position, event in enumerate(events)
        if event[0] == "replace" and Path(event[2]).name in index_names
    ]
    assert {Path(events[position][2]).name for position in writes} == index_names
    for position in writes:
        _, temp, target = events[position]
        assert events[position - 1] == ("fsync", temp)
        assert events[position + 1] == ("fsync", str(Path(target).parent))
