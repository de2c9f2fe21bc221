"""census_sweep: serial censuses of mid genera, written and read back.

Item = one record.  Latency is one ``census(CensusQuery(genus=G),
workers=1)`` call.  Throughput is records per second of census, write and
read time.  Outputs are checked against per-genus record counts and JSONL
digests pinned in ``reference/census.json``, against the records read
back, against ``polygon_verified`` on every irreducible record, and, for a
seeded sample of low-degree cells, against the brute-force oracle.
"""

from __future__ import annotations

import hashlib
import os

import gen
from common import WORK, bootstrap, item_clock, load_reference, repeat
from spans import paired

ps = bootstrap()

# over the seven genera, p75 lies between the third and the second slowest;
# the two beyond it are timed at least seven times each
TAIL_PCT = 75
ORACLE_CELLS = 3
MIN_PASSES = 7


def warm_up() -> None:
    ps.census(ps.CensusQuery(genus=2), workers=1)


def _jsonl_path(tag: str = ""):
    WORK.mkdir(exist_ok=True)
    return WORK / f"census-{os.getpid()}{tag}.jsonl"


def check_genus(g: int, records, data: bytes, read_back, ref: dict) -> list[str]:
    """Problems with one genus's census output; empty when it is right."""
    want = ref.get(str(g))
    if want is None:
        return [f"genus {g}: no reference"]
    problems = []
    if len(records) != want["records"]:
        problems.append(f"genus {g}: {len(records)} records, "
                        f"expected {want['records']}")
    if hashlib.sha256(data).hexdigest() != want["sha256"]:
        problems.append(f"genus {g}: JSONL digest differs from the reference")
    if read_back != records:
        problems.append(f"genus {g}: JSONL read back differs from the records")
    unverified = sum(1 for r in records
                     if r.action_class == "type1-irreducible"
                     and r.polygon_verified is not True)
    if unverified:
        problems.append(f"genus {g}: {unverified} irreducible records "
                        "without a verified polygon")
    return problems


def check_oracle(n: int, g: int, records) -> list[str]:
    cell = [r.data_set for r in records if r.data_set.degree == n]
    if cell != ps.enumerate_oracle(n, g):
        return [f"cell (degree {n}, genus {g}) differs from the oracle"]
    return []


def sweep(g: int, path):
    """One item: census, write, read back.  Returns (records, read back,
    census seconds, total seconds)."""
    t0 = item_clock()
    records = ps.census(ps.CensusQuery(genus=g), workers=1)
    t1 = item_clock()
    ps.write_census(records, path)
    read_back = ps.read_census(path)
    return records, read_back, t1 - t0, item_clock() - t0


def timed(seed: int, seconds: float, tally, between) -> dict:
    ref = load_reference("census")
    path = _jsonl_path()
    last: dict[int, list] = {}

    def run_one(g):
        records, back, census_s, total_s = sweep(g, path)
        tally.check(check_genus(g, records, path.read_bytes(), back, ref))
        last[g] = records
        return census_s, total_s

    genera = gen.census_rounds(seed, 1)[0]
    try:
        run = repeat(genera, run_one, seconds, between, MIN_PASSES)
    finally:
        path.unlink(missing_ok=True)
    # the oracle check runs outside the timed region
    for n, g in gen.oracle_cells(seed, sorted(last), ORACLE_CELLS):
        tally.check(check_oracle(n, g, last[g]))
    # throughput counts records: a genus weighs as many as it has
    run["weights"] = [len(last[g]) for g in genera]
    return run


# --- traced run ----------------------------------------------------------------


def replay(g: int, rec, cells: list) -> list:
    """``census()`` for one genus through its public steps, one span each:
    ``enumerate_data_sets`` per degree, then ``classify``, then polygon
    build and verify for each irreducible record.  ``cells`` receives
    (data sets found, enumerate ns) per degree."""
    records = []
    for n in range(1, ps.degree_cap(g) + 1):
        found = rec.call("census.enumerate", ps.enumerate_data_sets, n, g)
        cells.append((len(found), rec.last_ns()))
        if not found:
            rec.count("census.enumerate.empty")
            rec.count("census.enumerate.empty_ms", rec.last_ns() / 1e6)
        for d in found:
            label = rec.call("core.classify", ps.classify, d).label
            verified = None
            if label == "type1-irreducible":
                pres = rec.call("realization.build", ps.polygon_realization, d)
                verified = rec.call("realization.verify",
                                    ps.verify_realization, pres, d).ok
                rec.count("realization.verify.ok", verified)
            records.append(ps.CensusRecord(d, g, label, verified))
    return records


def traced(seed: int, tally, rec) -> dict:
    """One round over every genus.  Per genus the plain ``census()`` call
    and the traced replay, each followed by the same JSONL write and read,
    run in alternating order; the replay must give the same records."""
    ref = load_reference("census")
    path, plain_path = _jsonl_path(), _jsonl_path("-plain")
    untraced_ns = traced_ns = 0
    per_genus = {}
    try:
        for k, g in enumerate(gen.census_rounds(seed, 1)[0]):
            cells: list = []

            def run_traced():
                with rec.span("item.census", item=g):
                    records = replay(g, rec, cells)
                    rec.call("census.write", ps.write_census, records, path)
                    return records, rec.call("census.read", ps.read_census,
                                             path)

            def run_plain():
                records = ps.census(ps.CensusQuery(genus=g), workers=1)
                ps.write_census(records, plain_path)
                ps.read_census(plain_path)
                return records

            plain, (replayed, back), u_ns, t_ns = paired(
                k, run_plain, run_traced)
            untraced_ns += u_ns
            traced_ns += t_ns
            data = path.read_bytes()
            rec.count("census.write.bytes", len(data))
            problems = check_genus(g, replayed, data, back, ref)
            if replayed != plain:
                problems.append(f"genus {g}: traced replay differs from "
                                "census()")
            tally.check(problems)
            rec.count("census.records", len(replayed))
            empty_ns = [ns for count, ns in cells if count == 0]
            per_genus[g] = {
                "records": len(replayed),
                "cells": len(cells),
                "empty_frac": round(len(empty_ns) / len(cells), 4),
                "empty_busy_frac": round(
                    sum(empty_ns) / sum(ns for _, ns in cells), 4),
            }
    finally:
        path.unlink(missing_ok=True)
        plain_path.unlink(missing_ok=True)
    return {"untraced_s": untraced_ns / 1e9, "traced_s": traced_ns / 1e9,
            "notes": {"per_genus": dict(sorted(per_genus.items()))}}
