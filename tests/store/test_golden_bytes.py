"""Byte identity of every store format against committed digests.

Each store kind is built from the fixed inputs in :mod:`tests.store.tables`
and the SHA-256 of every file in its directory must match
``golden/store_digests.json``.  Any change to file names, chunk bytes,
manifest or journal JSON shows up here.  Regenerate (only for an
intended format change) with ``pytest tests/store/test_golden_bytes.py
--update-golden``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from .tables import BUILDERS

GOLDEN = Path(__file__).with_name("golden") / "store_digests.json"


def _digests(directory: Path):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_store_bytes_match_golden(tmp_path, update_golden):
    observed = {}
    for kind, build in BUILDERS.items():
        build(tmp_path / kind)
        observed[kind] = _digests(tmp_path / kind)
    if update_golden:
        GOLDEN.write_text(json.dumps(observed, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden store digests rewritten")
    assert observed == json.loads(GOLDEN.read_text())
