"""Map the feasibility region of surgery-profile constructions.

Sweeps coprime (p, q) over a window and records whether the candidate
search finds a pair of profile functions passing the contact and
symplectic checks.  The run prints a small grid: '#' = a verified profile
exists, '.' = the search exhausted its candidates, ' ' = skipped (p = 0
or not coprime).

Empirically the feasible set is |q| < p: the binding arc forces q < p
(its symplectic form evaluates to 2r(q - p)), the collar corner forces
p > -q, and every p < 0 column is blank of hits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from perisurf.profiles import search_profiles, verify_profile, write_profile_csv


@dataclass(frozen=True)
class SweepWindow:
    p_min: int = -6
    p_max: int = 6
    q_min: int = -6
    q_max: int = 6
    candidates: int = 400
    samples: int = 256


def sweep(win: SweepWindow) -> dict[tuple[int, int], bool]:
    hits: dict[tuple[int, int], bool] = {}
    for p in range(win.p_min, win.p_max + 1):
        for q in range(win.q_min, win.q_max + 1):
            if p == 0 or math.gcd(abs(p), abs(q)) != 1:
                continue
            pp = search_profiles(p, q, candidates=win.candidates,
                                 samples=win.samples)
            hits[(p, q)] = pp is not None
    return hits


def render(win: SweepWindow, hits: dict[tuple[int, int], bool]) -> str:
    rows = []
    header = "q\\p " + " ".join(f"{p:3d}" for p in range(win.p_min, win.p_max + 1))
    rows.append(header)
    for q in range(win.q_max, win.q_min - 1, -1):
        cells = []
        for p in range(win.p_min, win.p_max + 1):
            if (p, q) not in hits:
                cells.append("   ")
            else:
                cells.append("  #" if hits[(p, q)] else "  .")
        rows.append(f"{q:3d} " + " ".join(cells))
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--window", type=int, default=6, help="half-width of the (p, q) box")
    ap.add_argument("--candidates", type=int, default=400)
    ap.add_argument("--dump", metavar="P,Q",
                    help="also write profile_P_Q.csv for this single slope")
    args = ap.parse_args(argv)

    w = args.window
    win = SweepWindow(-w, w, -w, w, candidates=args.candidates)
    hits = sweep(win)
    print(render(win, hits))

    found = sorted(k for k, v in hits.items() if v)
    boundary_misses = [k for k, v in hits.items()
                       if not v and abs(k[1]) < k[0]]
    print(f"\n{len(found)} feasible slopes of {len(hits)} tested")
    if boundary_misses:
        print("unexpected misses inside |q| < p:",
              ", ".join(map(str, sorted(boundary_misses))))

    if args.dump:
        p, q = (int(x) for x in args.dump.split(","))
        pp = search_profiles(p, q, candidates=args.candidates)
        if pp is None:
            print(f"no profile found for (p, q) = ({p}, {q})")
            return 1
        path = f"profile_{p}_{q}.csv"
        write_profile_csv(pp, path)
        report = verify_profile(pp)
        print(f"wrote {path} (K={pp.K}, H={pp.H}, verified={report.ok})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
