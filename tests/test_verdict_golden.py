"""Pinned fillability verdicts for every marking of the genus 2-4 census.

The sha256 in ``tests/verdict_golden.json`` is taken over the output of
``fill --json`` for each of the 5,924 markings of ``_census_markings()``,
in that order.  The digest is computed through the library, which prints
the same bytes as the CLI: ``json.dumps(verdict_to_json(v), indent=2)``
plus a newline per marking.  A few markings are also run through the CLI
in process, one per verdict, to keep the two equal.

Regenerate the golden file (only when a verdict change is intended) with::

    PYTHONPATH=src python tests/test_verdict_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

from perisurf.cli import main
from perisurf.core import format_data_set
from perisurf.fillability import classify_marked, verdict_to_json
from test_fillability import _census_markings

GOLDEN = Path(__file__).with_name("verdict_golden.json")


def _fill_json(m) -> str:
    """What ``fill --json`` prints for the marking ``m``."""
    return json.dumps(verdict_to_json(classify_marked(m)), indent=2) + "\n"


def _digest() -> dict:
    sha = hashlib.sha256()
    count = 0
    for m in _census_markings():
        sha.update(_fill_json(m).encode())
        count += 1
    return {"markings": count, "sha256": sha.hexdigest()}


def test_verdicts_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _digest() == golden


def test_verdict_tally():
    tally = Counter(classify_marked(m).verdict for m in _census_markings())
    assert tally == {"SteinFillable": 2962, "Overtwisted": 37,
                     "Unknown": 2925}


def test_cli_prints_the_hashed_bytes():
    first = {}
    for m in _census_markings():
        first.setdefault(classify_marked(m).verdict, m)
        if len(first) == 3:
            break
    assert sorted(first) == ["Overtwisted", "SteinFillable", "Unknown"]
    for m in first.values():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["fill", format_data_set(m), "--json"])
        assert (code, out.getvalue()) == (0, _fill_json(m)), m


def _regenerate() -> None:
    golden = _digest()
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{golden['markings']} markings written to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
