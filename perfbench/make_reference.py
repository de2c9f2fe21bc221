"""Pin the outputs the workloads are checked against.

    python3 perfbench/make_reference.py

Runs every corpus entry through the checkout's perisurf and writes
``perfbench/reference/{census,openbook,profile,cli}.json``.  Run it only on
a commit whose outputs are known to be right (the references were made at
the commit that introduced the benchmark); a later change that alters an
output on purpose says so and regenerates the affected file.
"""

from __future__ import annotations

import hashlib
import json
import os

import gen
from common import REFERENCE, WORK, bootstrap, digest, run_cli
from spans import NullRecorder

ps = bootstrap()

import cli_session  # noqa: E402  (imported after bootstrap on purpose)
import openbook_queries  # noqa: E402
import profile_search  # noqa: E402


def census_reference() -> dict:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"reference-{os.getpid()}.jsonl"
    out = {}
    try:
        for g in gen.CENSUS_GENERA:
            records = ps.census(ps.CensusQuery(genus=g), workers=1)
            ps.write_census(records, path)
            out[str(g)] = {"records": len(records),
                           "sha256": hashlib.sha256(path.read_bytes())
                           .hexdigest()}
    finally:
        path.unlink(missing_ok=True)
    return out


def openbook_reference() -> dict:
    rec = NullRecorder()
    out = {}
    for kind, entries in gen.query_corpus().items():
        for entry in entries:
            out[openbook_queries.key(kind, entry)] = digest(
                openbook_queries.run_item(rec, kind, entry))
    return out


def profile_reference() -> dict:
    rec = NullRecorder()
    out = {}
    for p, q in gen.slope_strata()["A"]:
        outcome = profile_search.run_slope(rec, "A", p, q)
        out[f"{p}/{q}"] = [outcome["found"], outcome["built_ok"]]
    return out


def cli_reference() -> dict:
    out = {}
    commands = [cli_session.census_args(1), cli_session.census_args(2)]
    for args in commands + gen.cli_corpus():
        code, stdout, _ = run_cli(args)
        out[cli_session.key(args)] = cli_session.outcome(code, stdout)
    return out


def main() -> None:
    REFERENCE.mkdir(exist_ok=True)
    for name, make in (("census", census_reference),
                       ("openbook", openbook_reference),
                       ("profile", profile_reference),
                       ("cli", cli_reference)):
        text = json.dumps(make(), indent=0, sort_keys=True) + "\n"
        (REFERENCE / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
