"""Whole-system gate: one test per numbered criterion.

Each test funnels every check through a failure list and ends in
``_conclude``, which prints a single ``criterion N: PASS/FAIL`` line and
raises with the collected details.  Tolerances: combinatorial values are
compared exactly; profile verification runs at 1e-9 on 1024-point grids;
the near-core symplectic comparison allows 1e-6; wall-clock budgets are
1 s / 10 s / 60 s where stated.
"""

import math
import random
import time
from fractions import Fraction

from perisurf.census import (
    CensusQuery,
    census,
    enumerate_data_sets,
    enumerate_irreducible,
    enumerate_oracle,
)
from perisurf.core import (
    canonicalize,
    format_data_set,
    genus,
    parse_data_set,
    validate,
)
from perisurf.fillability import classify_assembly, classify_marked
from perisurf.gluing import Assembly, assemble, build_edge, compatible_pairs, glue, self_glue
from perisurf.openbook import fractional_dehn_twist, page_descriptor
from perisurf.profiles import (
    binding_symplectic_deviation,
    build_profile,
    search_profiles,
    verify_profile,
)
from perisurf.realization import polygon_realization, verify_realization


def ds(text):
    return parse_data_set(text)


def _conclude(num: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} - {label}")
    assert not failures, f"criterion {num} ({label}):\n  " + "\n  ".join(failures)


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _pool_degree_12_genus_4():
    """Every valid data set with degree <= 12 and surface genus <= 4."""
    return [d for g in range(0, 5) for n in range(1, 13)
            for d in enumerate_data_sets(n, g)]


# --- 1. worked-example regressions -------------------------------------------


def test_criterion_1_worked_example_regressions():
    failures = []
    t0 = time.perf_counter()

    for text, want in (
        ("(2,0;(1,2)×4)", 1),
        ("(5,0;(1,5),(3,5),(1,5))", 2),
        ("(6,0;(1,2),(1,3),(1,6))", 1),
        # quoted result of the five-fold two-piece assembly below; the
        # computed assembly reorders the cones but has the same genus
        ("(5,0;(3,5),(3,5),(1,5),(2,5))", 4),
    ):
        got = genus(ds(text))
        _check(failures, got == want, f"genus{text} = {got}, wanted {want}")

    pieces5 = (ds("(5_+,0;(3,5),(1,5),(3,5),[1,2,3])"),
               ds("(5_+,0;(1,5),(2,5),(1,5),[1,3])"))
    asm5 = Assembly(pieces5, (build_edge(pieces5, (0, 1), (1, 2)),))
    five = assemble(asm5)
    _check(failures, genus(five.data_set) == 4,
           f"five-fold assembly genus {genus(five.data_set)}, wanted 4")

    pieces6 = (ds("(6_+,0;(1,2),(1,3),(1,6),[3])"),
               ds("(6_+,0;(1,3),(5,6),(5,6),[2,3])"))
    asm6 = Assembly(pieces6, (build_edge(pieces6, (0, 3), (1, 3)),))
    six = assemble(asm6)
    _check(failures, genus(six.data_set) == 3,
           f"six-fold assembly genus {genus(six.data_set)}, wanted 3")

    glued = glue(ds("(6,0;(1,2),(1,3),(1,6))"),
                 ds("(6,0;(1,2),(2,3),(5,6))"), 3, 3)
    want = ds("(6,0;(1,2),(1,2),(1,3),(2,3))")
    _check(failures, canonicalize(glued)[0] == want,
           f"hexagon gluing gave {format_data_set(canonicalize(glued)[0])}")

    first = glue(ds("(3,0;(1,3),(1,3),(1,3))"),
                 ds("(3,0;(2,3),(2,3),(2,3))"), 1, 1)
    _check(failures, first == ds("(3,0;(1,3),(1,3),(2,3),(2,3))"),
           f"three-fold gluing gave {format_data_set(first)}")
    second = self_glue(first, 2, 3)
    _check(failures, second == ds("(3,1;(1,3),(2,3))"),
           f"three-fold self-gluing gave {format_data_set(second)}")

    # boundary rotation angles, as multiples of 2*pi (slope 1/5 <-> 2*pi/5)
    page = page_descriptor(ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])"))
    slopes = [o.full_period_slope for o in page.boundary_orbits]
    _check(failures, slopes == [Fraction(1, 5), Fraction(1, 5)],
           f"five-fold positive page slopes {slopes}, wanted two 1/5")

    page = page_descriptor(ds("(5_-,0;(1,5),(1,5),(3,5),[1,2,3])"))
    slopes = [o.full_period_slope for o in page.boundary_orbits]
    _check(failures, Fraction(-3, 5) in slopes,
           f"five-fold negative page slopes {slopes}, wanted a -3/5 entry")

    page = page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    slopes = [o.full_period_slope for o in page.boundary_orbits]
    _check(failures, slopes == [Fraction(-1, 6)],
           f"hexagonal negative page slopes {slopes}, wanted [-1/6]")

    fdtc = fractional_dehn_twist(
        ds("(2_+,0;(1,2),(1,2),(1,2),(1,2),[1])"), 1)
    _check(failures, fdtc == Fraction(1, 2),
           f"hyperelliptic boundary coefficient {fdtc}, wanted 1/2")

    for name, asm in (("five-fold", asm5), ("six-fold", asm6)):
        verdict = classify_assembly(asm)
        _check(failures, verdict.verdict == "SteinFillable",
               f"{name} assembly classified {verdict.verdict} "
               f"({verdict.certificate}), wanted SteinFillable")

    verdict = classify_marked(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    _check(failures,
           verdict.verdict == "Overtwisted"
           and verdict.certificate == "left-veering-resolution"
           and "left-veering resolution: 6 negative boundary twists"
           in verdict.notes,
           f"hexagonal negative set classified {verdict.verdict} "
           f"({verdict.certificate}, notes {verdict.notes})")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 1.0,
           f"worked examples took {elapsed:.3f}s, budget 1s")
    _conclude(1, "worked-example regressions (exact, < 1 s)", failures)


# --- 2. polygon suite ---------------------------------------------------------


def test_criterion_2_polygon_suite():
    failures = []
    t0 = time.perf_counter()
    count = 0
    for n in range(2, 31):
        for d in enumerate_irreducible(n):
            count += 1
            report = verify_realization(polygon_realization(d), d)
            if not report.ok:
                failures.append(
                    f"{format_data_set(d)}: involution={report.involution_ok} "
                    f"equivariance={report.equivariance_ok} "
                    f"euler genus {report.euler_genus} vs {report.rh_genus}")
    elapsed = time.perf_counter() - t0
    _check(failures, count > 0, "no irreducible data sets were generated")
    _check(failures, elapsed < 10.0,
           f"{count} polygons took {elapsed:.2f}s, budget 10s")
    _conclude(2, f"polygon suite over {count} irreducible data sets "
                 "(degree <= 30, < 10 s)", failures)


# --- 3. gluing property suite -------------------------------------------------


def test_criterion_3_gluing_property_suite():
    failures = []
    pool = _pool_degree_12_genus_4()
    by_degree = {}
    for d in pool:
        by_degree.setdefault(d.degree, []).append(d)
    degrees = sorted(by_degree)
    rng = random.Random(20260814)

    trials = 0
    while trials < 10_000 and len(failures) < 5:
        d1 = rng.choice(by_degree[rng.choice(degrees)])
        d2 = rng.choice(by_degree[d1.degree])
        options = compatible_pairs(d1, d2)
        if not options:
            continue
        i, j = rng.choice(options)
        glued = glue(d1, d2, i, j)
        trials += 1
        report = validate(glued)
        if not report.valid:
            failures.append(
                f"glue({format_data_set(d1)}, {format_data_set(d2)}, "
                f"{i}, {j}) violates {[v[0] for v in report.violations]}")
            continue
        k = d1.degree // d1.cone_pairs[i - 1].order
        if genus(glued) != genus(d1) + genus(d2) + k - 1:
            failures.append(
                f"glue({format_data_set(d1)}, {format_data_set(d2)}, {i}, {j}) "
                f"has genus {genus(glued)}, additivity wanted "
                f"{genus(d1)} + {genus(d2)} + {k} - 1")

    self_trials = 0
    while self_trials < 10_000 and len(failures) < 10:
        d = rng.choice(by_degree[rng.choice(degrees)])
        ps = d.cone_pairs
        if len(ps) < 4:
            continue
        options = [(r, s)
                   for r in range(1, len(ps) + 1)
                   for s in range(r + 1, len(ps) + 1)
                   if ps[r - 1].order == ps[s - 1].order
                   and (ps[r - 1].c + ps[s - 1].c) % ps[r - 1].order == 0]
        if not options:
            continue
        r, s = rng.choice(options)
        out = self_glue(d, r, s)
        self_trials += 1
        k = d.degree // ps[r - 1].order
        if not validate(out).valid:
            failures.append(f"self_glue({format_data_set(d)}, {r}, {s}) "
                            "produced an invalid data set")
        if out.quotient_genus != d.quotient_genus + 1:
            failures.append(f"self_glue({format_data_set(d)}, {r}, {s}) "
                            f"moved the quotient genus by "
                            f"{out.quotient_genus - d.quotient_genus}, not 1")
        if genus(out) != genus(d) + k:
            failures.append(f"self_glue({format_data_set(d)}, {r}, {s}) "
                            f"moved the genus by {genus(out) - genus(d)}, "
                            f"wanted {k}")

    _check(failures, trials == 10_000 and self_trials == 10_000,
           f"only ran {trials} gluing and {self_trials} self-gluing trials")
    _conclude(3, "randomized gluing properties (2 x 10^4 trials, exact)",
              failures)


# --- 4. census against the brute-force oracle ---------------------------------


def test_criterion_4_census_oracle_equivalence():
    failures = []
    t0 = time.perf_counter()
    for g in range(0, 5):
        for n in range(1, 13):
            fast = set(enumerate_data_sets(n, g))
            slow = set(enumerate_oracle(n, g))
            if fast != slow:
                only_fast = [format_data_set(d) for d in fast - slow]
                only_slow = [format_data_set(d) for d in slow - fast]
                failures.append(f"degree {n} genus {g}: generator-only "
                                f"{only_fast}, oracle-only {only_slow}")

    records = census(CensusQuery(genus=2), workers=1)
    top = max(r.data_set.degree for r in records)
    _check(failures, top == 10,
           f"genus-2 census reaches degree {top}, wanted 10")

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"census sweep took {elapsed:.1f}s, "
                                     "budget 60s")
    _conclude(4, "census matches the brute-force oracle "
                 "(degree <= 12, genus <= 4, < 60 s)", failures)


# --- 5. filling profile suite -------------------------------------------------


def test_criterion_5_profile_suite():
    failures = []
    rng = random.Random(20260814)

    for _ in range(20):
        while True:
            p = rng.randrange(2, 13)
            q = rng.randrange(1, p)
            if math.gcd(p, q) == 1:
                break
        report = verify_profile(build_profile(p, q, samples=1024),
                                tolerance=1e-9)
        if not report.ok:
            failures.append(f"slope {q}/{p}: build+verify failed at "
                            f"{report.first_violation}")

    for _ in range(20):
        while True:
            p = rng.choice([k for k in range(-9, 10) if k])
            q = rng.randrange(-9, 0)
            if math.gcd(abs(p), abs(q)) == 1:
                break
        found = search_profiles(p, q, candidates=1000)
        if found is not None:
            failures.append(
                f"slope {q}/{p}: expected no verifying profile for negative "
                f"q, but the 1000-candidate search found one "
                f"(K={found.K}, H={found.H}) passing every check at 1e-9")

    # near the binding core the symplectic margin is 2r(q - p): its sign is
    # sign(q - p) and the sampled value tracks the closed form within 1e-6
    for p, q in ((2, 1), (5, 1), (7, 3), (1, 2), (5, -1)):
        pp = build_profile(p, q)
        deviation = binding_symplectic_deviation(pp)
        if deviation > 1e-6:
            failures.append(f"slope {q}/{p}: near-core symplectic samples "
                            f"drift {deviation:.2e} from 2r(q-p)")
        df = (pp.f0[2] - pp.f0[0]) / (pp.grid[2] - pp.grid[0])
        dg = (pp.g0[2] - pp.g0[0]) / (pp.grid[2] - pp.grid[0])
        numeric = p * df + q * dg
        if (numeric < 0) != (q < p) or numeric == 0:
            failures.append(f"slope {q}/{p}: near-core symplectic sample "
                            f"{numeric:.2e} disagrees with sign({q}-{p})")

    _conclude(5, "filling profiles (20 slopes in (0,1) verify at 1e-9 on "
                 "1024 points; 20 negative slopes find nothing; near-core "
                 "sign within 1e-6)", failures)


# --- 6. parser round-trip ------------------------------------------------------


# every tuple-notation form that appears verbatim in the worked examples:
# subscript and underscore signs, comma preambles, repetition shorthand,
# spaced variants, and the plain minus for free rotations
QUOTED_LITERALS = (
    "(2,0;(1,2),(1,2),(1,2),(1,2))",
    "(2,0;(1,2)×4)",
    "(2,1,1;−)",
    "(2₊,0;(1,2),(1,2),(1,2),(1,2),[1])",
    "(2_+,0;(1,2),(1,2),(1,2),(1,2),[1])",
    "(3,0;(1,3),(1,3),(1,3))",
    "(3,0;(1,3),(1,3),(2,3),(2,3))",
    "(3,1;(1,3),(2,3))",
    "(4,2,1;−)",
    "(5,0;(1,5),(1,5),(1,5))",
    "(5,0;(1,5),(3,5),(1,5))",
    "(5,0;(3,5),(3,5),(1,5),(2,5))",
    "(5_+,0;(1,5),(3,5),(1,5),[1,3])",
    "(5_+, 0; (1,5), (3,5), (1,5), [1,3])",
    "(5₊,0;(3,5),(1,5),(3,5),[1,2,3])",
    "(5₊,0;(1,5),(2,5),(1,5),[1,3])",
    "(5₊,0;(1,5),(3,5),(1,5),[1,3])",
    "(5₋,0;(1,5),(1,5),(3,5),[1,2,3])",
    "(6,0;(1,2),(1,2),(1,3),(2,3))",
    "(6,0;(1,2),(1,2),(1,6))",
    "(6,0;(1,2),(1,3),(1,6))",
    "(6,0;(1,2),(2,3),(5,6))",
    "(6,0;(1,6),(1,2),(1,3))",
    "(6₋,0;(1,2),(2,3),(5,6),[3])",
    "(6_-,0;(1,2),(2,3),(5,6),[3])",
    "(6₋,0;(1,2),(1,3),(1,6),[2])",
    "(6₊,0,(1,2),(1,3),(1,6),[3])",
    "(6₊,0,(1,3),(5,6),(5,6),[2,3])",
)


def test_criterion_6_parser_round_trip():
    failures = []
    for d in _pool_degree_12_genus_4():
        back = parse_data_set(format_data_set(d))
        if back != d:
            failures.append(f"{format_data_set(d)} reparsed as "
                            f"{format_data_set(back)}")

    for text in QUOTED_LITERALS:
        try:
            d = parse_data_set(text)
        except Exception as exc:
            failures.append(f"{text!r} failed to parse: {exc}")
            continue
        back = parse_data_set(format_data_set(d))
        if back != d:
            failures.append(f"{text!r} does not round-trip through "
                            f"{format_data_set(d)!r}")

    _conclude(6, "parse/format identity on the census and "
                 f"{len(QUOTED_LITERALS)} quoted literals", failures)
