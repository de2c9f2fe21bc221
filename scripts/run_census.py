"""Run a census of periodic data sets and write it as JSON Lines.

Typical runs:

    python3 scripts/run_census.py --genus 2 --out census_g2.jsonl
    python3 scripts/run_census.py --max-genus 4 --degrees 1-12 --oracle
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from perisurf.census import CensusQuery, census, write_census
from perisurf.core import _CLASS_LABELS, format_data_set


def parse_degrees(text: str) -> tuple[int, ...]:
    """Accept "2,3,4" and "1-12" (and mixtures of both)."""
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk:
            lo, hi = chunk.split("-", 1)
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(chunk))
    return tuple(out)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--genus", type=int, help="exact orbit-space genus")
    group.add_argument("--max-genus", type=int, help="census all genera up to this")
    ap.add_argument("--degrees", type=parse_degrees, default=None,
                    help='degree filter, e.g. "2,3,4" or "1-12"')
    ap.add_argument("--class", dest="action_class", default=None,
                    choices=_CLASS_LABELS)
    ap.add_argument("--oracle", action="store_true",
                    help="enumerate by brute force instead of the direct generator")
    ap.add_argument("--workers", type=int, default=None,
                    help="accepted for compatibility; the census always runs "
                         "in one process")
    ap.add_argument("--out", default=None, help="JSONL output path (default: stdout summary only)")
    args = ap.parse_args(argv)

    query = CensusQuery(genus=args.genus, max_genus=args.max_genus,
                        degrees=args.degrees, action_class=args.action_class)
    t0 = time.perf_counter()
    records = census(query, workers=args.workers, oracle=args.oracle)
    dt = time.perf_counter() - t0

    by_cell = Counter((r.genus, r.data_set.degree) for r in records)
    by_class = Counter(r.action_class for r in records)

    print(f"{len(records)} data sets in {dt:.2f}s "
          f"({'oracle' if args.oracle else 'direct'} enumeration)")
    for (g, n), k in sorted(by_cell.items()):
        print(f"  genus {g}, degree {n}: {k}")
    for label, k in sorted(by_class.items()):
        print(f"  {label}: {k}")

    unverified = [r for r in records
                  if r.polygon_verified is False]
    if unverified:
        print("POLYGON VERIFICATION FAILURES:")
        for r in unverified:
            print("  " + format_data_set(r.data_set))
        return 1

    if args.out:
        count = write_census(records, args.out)
        print(f"wrote {count} records to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
