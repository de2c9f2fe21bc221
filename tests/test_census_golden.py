"""Pinned census bytes for every genus from 2 to 18.

For each genus ``g`` the sha256 of two outputs must match
``tests/census_golden.json``: the JSON Lines file that :func:`write_census`
writes for ``census(CensusQuery(genus=g))``, and the stdout of the command
``census --genus g --workers 1`` run in process.  Together they cover 13,290
records in both line formats, the file's and the CLI's.

Regenerate the golden file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_census_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from perisurf.census import CensusQuery, census, write_census
from perisurf.cli import main

GOLDEN = Path(__file__).with_name("census_golden.json")
GENERA = range(2, 19)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(g: int, scratch: Path) -> dict:
    path = scratch / f"genus{g}.jsonl"
    write_census(census(CensusQuery(genus=g), workers=1), path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["census", "--genus", str(g), "--workers", "1"])
    assert code == 0
    return {"file_sha256": _sha256(path.read_bytes()),
            "stdout_sha256": _sha256(out.getvalue().encode())}


@pytest.mark.parametrize("g", GENERA)
def test_census_bytes_match_golden(g, tmp_path, monkeypatch):
    monkeypatch.delenv("PERISURF_FORMAT", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digests(g, tmp_path) == golden[str(g)]


def test_golden_file_covers_exactly_the_genera():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden, key=int) == [str(g) for g in GENERA]


def _regenerate() -> None:
    os.environ.pop("PERISURF_FORMAT", None)
    with tempfile.TemporaryDirectory() as scratch:
        golden = {str(g): _digests(g, Path(scratch)) for g in GENERA}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(golden)} genera written to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
