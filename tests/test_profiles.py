import csv
import hashlib
import json
import math
import struct
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import chain, product
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import perisurf.profiles as profiles
from perisurf.profiles import (
    ProfilePair,
    _BINDING_END,
    _COLLAR_START,
    _assemble_profile,
    _condition_values,
    _in_corner,
    _plan,
    binding_symplectic_deviation,
    build_profile,
    search_profiles,
    verify_profile,
    write_profile_csv,
)
from reference import (
    _default_twist_count_by_scan,
    _profile_points_of_mixed_products,
    _reference_assemble,
    _reference_binding_deviation,
    _reference_derivatives,
    _reference_search,
    _reference_verify,
)


def test_build_profile_defaults():
    pp = build_profile(2, 1)
    assert (pp.K, pp.H) == (2, 5.0)
    assert len(pp.grid) == 1024
    assert pp.f0[0] == 2 * pp.H and pp.g0[0] == 0.0
    assert pp.f0[-1] == -2 - 1 * pp.K
    assert pp.g0[-1] == -1 + 2 * pp.K


# The outcomes of reference._default_twist_count_by_scan are pinned in
# twist_count_golden.json.  Regenerate the file by running that scan with
#
#     PYTHONPATH=src python tests/test_profiles.py
TWIST_COUNT_GOLDEN = Path(__file__).with_name("twist_count_golden.json")


def _twist_count_outcomes(count) -> dict:
    """The offset, or the ValueError message, that ``count`` gives for every
    p in 1..79 and q in -400..400 and a few far slopes: their number, the
    number refused and the sha256 of the ``repr`` of their list."""
    slopes = [(p, q) for p in range(1, 80) for q in range(-400, 401)]
    slopes += [(1, 10**6), (1, -10**6), (7, 100003), (99991, -99989),
               (3, 100000)]
    outcomes = []
    for p, q in slopes:
        try:
            outcomes.append(count(p, q))
        except ValueError as exc:
            outcomes.append(str(exc))
    return {"slopes": len(outcomes),
            "refused": sum(isinstance(o, str) for o in outcomes),
            "sha256": hashlib.sha256(repr(outcomes).encode()).hexdigest()}


def test_default_twist_count_matches_the_scan():
    # the closed form gives the scan's offset or its ValueError message
    outcomes = _twist_count_outcomes(profiles._default_twist_count)
    assert (outcomes["slopes"], outcomes["refused"]) == (63284, 28520)
    assert outcomes == json.loads(TWIST_COUNT_GOLDEN.read_text())


def test_positive_slope_profile_verifies():
    report = verify_profile(build_profile(2, 1))
    assert report.ok
    assert report.first_violation is None
    assert report.inconclusive == ()


def test_mixed_sign_slope_profile_verifies():
    pp = build_profile(5, -1)
    assert pp.K == 2
    assert verify_profile(pp).ok


def test_build_profile_argument_errors():
    with pytest.raises(ValueError):
        build_profile(-2, 1)
    with pytest.raises(ValueError):
        build_profile(4, 2)
    with pytest.raises(ValueError, match="pass K explicitly"):
        build_profile(1, -1)


def test_bad_collar_offset_builds_but_fails_verify():
    # building never rejects a shape; the endpoint corner is the verifier's
    # job, and it is exact (no tolerance window)
    pp = build_profile(5, -1, K=10)
    report = verify_profile(pp)
    assert report.contact_ok and not report.symplectic_ok
    assert report.first_violation == (1.0, "corner", 5.0)

    pp = build_profile(1, -1, K=1)  # endpoint exactly on the corner edge
    assert verify_profile(pp).first_violation == (1.0, "corner", 0.0)


def test_binding_arc_matches_closed_form():
    assert binding_symplectic_deviation(build_profile(2, 1)) < 1e-6
    assert binding_symplectic_deviation(build_profile(5, -1)) < 1e-6


def test_verify_needs_enough_samples():
    with pytest.raises(ValueError):
        verify_profile(_assemble_profile(2, 1, 2, 5.0, samples=32))


def test_corrupted_profile_fails_with_located_violation():
    pp = build_profile(2, 1)
    bad = replace(pp, g0=tuple(-g for g in pp.g0))
    report = verify_profile(bad)
    assert not report.ok
    r, condition, value = report.first_violation
    assert condition in ("contact", "symplectic")
    assert value != 0


def test_search_finds_profile_for_positive_p_negative_q():
    pp = search_profiles(5, -1)
    assert pp is not None
    # the shape that passed the coarse search still passes on a fine grid
    fine = _assemble_profile(pp.p, pp.q, pp.K, pp.H, samples=1024)
    assert verify_profile(fine).ok


def test_search_exhausts_for_negative_p():
    assert search_profiles(-1, -2) is None
    assert search_profiles(-2, -1, candidates=300) is None


def test_search_budget_stops_at_the_last_candidate():
    # (1, 1) misses the corner at K = 1, so its first shape in the corner,
    # K = 2 and H = 1 at the first peak, is candidate 101; it passes
    assert search_profiles(1, 1, candidates=100) is None
    found = search_profiles(1, 1, candidates=101)
    assert (found.K, found.H) == (2, 1.0)
    assert found == search_profiles(1, 1)
    assert _reference_search(1, 1, candidates=100) == (None, 100)
    pp, tried = _reference_search(1, 1, candidates=101)
    assert ((pp.K, pp.H), tried) == ((2, 1.0), 101)


def test_search_argument_errors():
    with pytest.raises(ValueError):
        search_profiles(0, 1)
    with pytest.raises(ValueError):
        search_profiles(2, 4)
    # too coarse a grid is refused up front, even for slopes whose every
    # candidate misses the corner and so never reaches verification
    for p, q in ((2, 1), (-3, 8), (1, -5)):
        with pytest.raises(ValueError, match="at least 64 samples"):
            search_profiles(p, q, samples=32)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="candidates must be at least 1"):
            search_profiles(5, 1, candidates=budget)


def test_profile_needs_two_samples_to_build_and_matching_lengths_to_verify():
    with pytest.raises(ValueError, match="need at least two samples"):
        build_profile(2, 1, samples=1)
    pp = build_profile(2, 1, samples=128)
    with pytest.raises(ValueError, match="grid, f0 and g0 differ in length"):
        verify_profile(replace(pp, f0=pp.f0[:-1]))


def test_sample_plans_interleave_with_reference_floats():
    # the plan of one sample count never leaks into a profile of another
    def built(samples):
        return build_profile(5, 1, samples=samples)

    def want(samples):
        return _reference_assemble(5, 1, 2, 8.0, samples=samples)

    assert repr(built(1024)) == repr(want(1024))
    pp, _ = _reference_search(5, 1, samples=256)
    assert repr(search_profiles(5, 1, samples=256)) == repr(pp)
    for samples in (1000, 64, 1024):
        assert repr(built(samples)) == repr(want(samples))


def test_profiles_of_one_sample_count_share_one_grid():
    assert build_profile(5, 1).grid is build_profile(2, 1, peak=2.0).grid
    assert build_profile(5, 1).grid is not build_profile(5, 1,
                                                         samples=1000).grid


def test_sample_plan_memo_is_bounded():
    info = profiles._sample_plan.cache_info
    assert info().maxsize is not None
    for samples in range(64, 64 + 2 * info().maxsize):
        build_profile(2, 1, samples=samples)
        assert info().currsize <= info().maxsize


def test_sample_plans_above_the_cli_bound_are_not_kept():
    # the memo keeps plans up to the CLI's --samples bound; a larger plan is
    # built for its caller alone and leaves the memo as it was
    from perisurf.cli import _LIMITS

    assert profiles._KEPT_SAMPLES == _LIMITS["samples"][3]
    info = profiles._sample_plan.cache_info
    search_profiles(5, 1)
    grid = build_profile(5, 1).grid
    kept = info()
    big = build_profile(2, 1, samples=200_000)
    assert len(big.grid) == 200_000
    assert big.grid[::19_999] == tuple(i / 199_999
                                       for i in range(0, 200_000, 19_999))
    assert info() == kept
    # the 256- and 1024-sample plans of the search and the verifier stay
    search_profiles(5, 1)
    assert build_profile(2, 1).grid is grid
    assert info().misses == kept.misses and info().hits == kept.hits + 2


def test_float_sample_count_is_refused_after_a_build_at_that_count():
    build_profile(5, 1, samples=1024)
    with pytest.raises(TypeError):
        build_profile(5, 1, samples=1024.0)


def test_binding_deviation_of_a_grid_with_no_binding_interior():
    # two samples, r = 0 and r = 1: no sample lies inside the binding arc
    assert binding_symplectic_deviation(build_profile(2, 1, samples=2)) == 0.0
    # nor in a hand-built one-sample profile, which has no stencil at all
    pp = ProfilePair((0.0,), (10.0,), (0.0,), 2, 1, 2, 5.0)
    assert binding_symplectic_deviation(pp) == 0.0


def test_binding_deviation_of_short_grids_matches_reference():
    # from 10 samples on, the binding arc has an interior sample
    for samples in range(2, 20):
        pp = build_profile(2, 1, samples=samples)
        assert (repr(binding_symplectic_deviation(pp))
                == repr(_reference_binding_deviation(pp)))


def test_binding_deviation_reads_no_sample_past_the_binding_arc():
    # equal last grid values would divide by zero in a pass over the whole
    # grid; the deviation reads only the samples up to the binding end
    pp = build_profile(2, 1, samples=64)
    grid = pp.grid[:-1] + pp.grid[-2:-1]
    assert grid[-1] == grid[-2]
    assert (repr(binding_symplectic_deviation(replace(pp, grid=grid)))
            == repr(binding_symplectic_deviation(pp)))


def test_profile_csv_roundtrip(tmp_path):
    pp = build_profile(2, 1, samples=128)
    path = tmp_path / "profile.csv"
    write_profile_csv(pp, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "f0", "g0"]
    assert len(rows) == 129
    assert float(rows[1][0]) == pp.grid[0]
    assert float(rows[-1][2]) == pp.g0[-1]


@given(st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-3, max_value=12),
       st.floats(min_value=0, max_value=11),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, 6.0]),
       st.sampled_from([64, 65, 256, 257, 1024, 1025]),
       st.booleans(),
       st.sampled_from([1e-9, 0.25, 0.0, -1.0, math.nan, math.inf]))
@example(2, 1, 2, 5.0, 1.0, 1024, False, 1e-9)
@example(5, -1, 10, 3.0, 1.0, 256, False, 1e-9)
@example(2, 3, 2, 1.0, 1.0, 256, True, 1e-9)
def test_condition_stream_matches_reference_verifier(p, q, K, H, peak,
                                                     samples, flip, tolerance):
    pp = _assemble_profile(p, q, K, H, peak=peak, samples=samples)
    want_pp = _reference_assemble(p, q, K, H, peak=peak, samples=samples)
    assert repr(pp) == repr(want_pp)
    if flip:
        pp = replace(pp, g0=tuple(-g for g in pp.g0))
    # repr tells every distinct float apart, -0.0 from 0.0 included
    assert (repr(verify_profile(pp, tolerance))
            == repr(_reference_verify(pp, tolerance)))
    assert (repr(binding_symplectic_deviation(pp))
            == repr(_reference_binding_deviation(pp)))


def _bits(values) -> bytes:
    # the IEEE 754 doubles themselves: -0.0 and 0.0 differ here
    return struct.pack(f"{len(values)}d", *values)


# slopes of both signs of p and q, and far ones up to the CLI's bound
BIT_SLOPES = [(p, q) for p in (1, 2, 3, 5, 9, -1, -4, -7)
              for q in range(-27, 19, 3) if math.gcd(abs(p), abs(q)) == 1]
BIT_SLOPES += [(99991, -99989), (1, 100000), (100000, -99999),
               (-99999, 100000), (7, 100000)]


# The digest of the reference side of the test below is pinned in
# float_loop_golden.json, which the same command regenerates.
FLOAT_LOOP_GOLDEN = Path(__file__).with_name("float_loop_golden.json")
FLOAT_LOOP_INPUTS = list(product(BIT_SLOPES, (1, 2, 3, 7), (1.0, 2.5, 6.0),
                                 (1.0, 0.5, 2.0), (64, 256, 1024)))


def _float_loop_digest(floats_of) -> dict:
    """The number of ``FLOAT_LOOP_INPUTS`` and the sha256 of the bits of the
    sequences that ``floats_of(p, q, K, H, peak, samples)`` yields for each
    of them in turn."""
    digest = hashlib.sha256()
    for (p, q), K, H, peak, samples in FLOAT_LOOP_INPUTS:
        for values in floats_of(p, q, K, H, peak, samples):
            digest.update(_bits(values))
    return {"profiles": len(FLOAT_LOOP_INPUTS), "sha256": digest.hexdigest()}


def _program_floats(p, q, K, H, peak, samples):
    # f0 and g0, and on the 64-sample grids the contact and symplectic values
    pp = _assemble_profile(p, q, K, H, peak=peak, samples=samples)
    yield pp.f0
    yield pp.g0
    if samples == 64:
        yield from _condition_values(pp.grid, pp.f0, pp.g0, p, q)


def _mixed_product_floats(p, q, K, H, peak, samples):
    # the same sequences from the int operands and the derivative pass
    plan = _plan(samples)
    _, f0, g0 = zip(*_profile_points_of_mixed_products(p, q, K, H, peak, plan))
    f0, g0 = tuple(chain(*f0)), tuple(chain(*g0))
    yield f0
    yield g0
    if samples == 64:
        df = _reference_derivatives(plan.grid, f0)
        dg = _reference_derivatives(plan.grid, g0)
        yield [f * dg_ - df_ * g
               for f, g, df_, dg_ in zip(f0[1:], g0[1:], df[1:], dg[1:])]
        yield [p * df_ + q * dg_ for df_, dg_ in zip(df, dg)]


def test_float_loops_give_the_samples_of_the_mixed_products():
    # the loops convert p, q, q K and p K to floats once and skip a zero
    # bump; every sample is the double the int operands gave, and so is
    # every condition value on the 64-sample grids
    golden = json.loads(FLOAT_LOOP_GOLDEN.read_text())
    assert golden["profiles"] == 8640
    assert _float_loop_digest(_program_floats) == golden


# The outcomes of reference._reference_search on the inputs of the
# reference comparisons below are pinned in search_golden.json, which the
# same command regenerates.
SEARCH_GOLDEN = Path(__file__).with_name("search_golden.json")
SEARCH_BUDGETS = (1, 37, 300, 1000)
SEARCH_SLOPES = [(p, q) for p in (*range(1, 10), *range(-9, 0))
                 for q in range(-27, 19) if math.gcd(abs(p), abs(q)) == 1]
# slopes p < q < 2p, whose shapes all fail on the binding arc at a tight
# tolerance; at 1.0 the search accepts a shape for 2/3 (K = 2, H = 1.0, at
# candidate 101), so a found shape is pinned as well
ARC_SLOPES = ((2, 3), (7, 12), (9, 17))
ARC_TOLERANCES = (0.25, 1.0, math.nan)
# tolerances at the edges of the band: none (-1), tight, wide and all of R;
# with no band the rounding of the binding arc's values decides 1/1
EDGE_TOLERANCES = (-1, 1e-3, 5, math.inf)


def _pinned(outcomes: list) -> dict:
    """The number of ``outcomes`` and the sha256 of their ``repr``."""
    return {"outcomes": len(outcomes),
            "sha256": hashlib.sha256(repr(outcomes).encode()).hexdigest()}


def _reference_search_outcomes() -> dict:
    """What the reference search gives on the inputs of the comparisons."""
    budgets = []
    for p, q in SEARCH_SLOPES:
        want, accepted_at = _reference_search(
            p, q, candidates=max(SEARCH_BUDGETS), samples=64)
        budgets += [want if accepted_at <= budget else None
                    for budget in SEARCH_BUDGETS]
    return {"budgets": _pinned(budgets), **{
        f"binding_arc[{tolerance}]": _pinned([
            _reference_search(p, q, samples=256, tolerance=tolerance)[0]
            for p, q in ARC_SLOPES])
        for tolerance in ARC_TOLERANCES}, **{
        f"tolerance[{tolerance}]": _pinned([
            _reference_search(p, q, samples=64, tolerance=tolerance)[0]
            for p, q in SEARCH_SLOPES])
        for tolerance in EDGE_TOLERANCES}}


def test_search_matches_reference_search():
    # the coarsest grid verification accepts keeps the reference affordable;
    # every candidate decision is the one of the reference verifier, whose
    # equivalence on all three grid sizes is the test above
    outcomes = [search_profiles(p, q, candidates=budget, samples=64)
                for p, q in SEARCH_SLOPES for budget in SEARCH_BUDGETS]
    assert len(outcomes) == 2136
    golden = json.loads(SEARCH_GOLDEN.read_text())
    assert _pinned(outcomes) == golden["budgets"]


def test_search_builds_one_shape_in_the_corner_and_none_outside_it(
        monkeypatch):
    # one slope of each stratum of perfbench's slope_strata: 0 < q < p and
    # -p < q < 0 verify their first shape in the corner, p < q < 2p fails
    # it on the binding arc, and q < -p has no K in the corner
    built = []
    assemble = profiles._assemble_profile

    def counting(p, q, K, H, peak=1.0, samples=1024):
        built.append((p, q, K, H, peak))
        return assemble(p, q, K, H, peak, samples)

    monkeypatch.setattr(profiles, "_assemble_profile", counting)
    for (p, q), found, shapes in (((5, 2), True, [(5, 2, 1, 1.0, 1.0)]),
                                  ((7, 12), False, [(7, 12, 2, 1.0, 1.0)]),
                                  ((7, -2), True, [(7, -2, 1, 1.0, 1.0)]),
                                  ((2, -5), False, [])):
        built.clear()
        assert (search_profiles(p, q) is not None) == found
        assert built == shapes


@pytest.mark.parametrize("tolerance", ARC_TOLERANCES)
def test_binding_arc_pruning_matches_reference_search(tolerance):
    # a wide tolerance moves the first definite violation deeper into the
    # binding arc and NaN makes every check definite
    outcomes = [search_profiles(p, q, samples=256, tolerance=tolerance)
                for p, q in ARC_SLOPES]
    golden = json.loads(SEARCH_GOLDEN.read_text())
    assert _pinned(outcomes) == golden[f"binding_arc[{tolerance}]"]


@pytest.mark.parametrize("tolerance", EDGE_TOLERANCES)
def test_search_matches_reference_search_at_edge_tolerances(tolerance):
    outcomes = [search_profiles(p, q, samples=64, tolerance=tolerance)
                for p, q in SEARCH_SLOPES]
    golden = json.loads(SEARCH_GOLDEN.read_text())
    assert _pinned(outcomes) == golden[f"tolerance[{tolerance}]"]


# Exact polynomials in t for step 5 of the search_profiles lemma: lists of
# Fraction coefficients, the constant term first, with no trailing zero.


def _poly(*terms):
    # the sum of the (coefficient, polynomial) terms
    out = [Fraction(0)] * max(len(poly) for _, poly in terms)
    for c, poly in terms:
        for i, x in enumerate(poly):
            out[i] += c * x
    while out and out[-1] == 0:
        out.pop()
    return out


def _product(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly((1, out))


def _derivative(poly):
    return _poly((1, [i * c for i, c in enumerate(poly)][1:] or [0]))


def _value(poly, t):
    return sum(c * t ** i for i, c in enumerate(poly))


def _remainder(a, b):
    a = list(a)
    while len(a) >= len(b):
        k, shift = a[-1] / b[-1], len(a) - len(b)
        a = _poly((1, a), (-k, [0] * shift + b))
    return a


def _roots_in_unit_interval(poly):
    """The number of distinct roots in (0, 1] of ``poly``, by Sturm's
    theorem: the sign changes of its Sturm sequence at 0 less those at 1."""
    sturm = [poly, _derivative(poly)]
    while sturm[-1]:
        sturm.append(_poly((-1, _remainder(sturm[-2], sturm[-1]))))

    def changes(t):
        signs = [v > 0 for v in (_value(s, t) for s in sturm[:-1]) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    return changes(0) - changes(1)


# the cubic Hermite basis h00, h10, h01 and h11 on [0, 1]
HERMITE_BASIS = ([1, 0, -3, 2], [0, 1, -2, 1], [0, 0, 3, -2], [0, 0, -1, 1])
# the slopes of perfbench's slope_strata(), restated, and the far slopes of
# BIT_SLOPES with a collar offset in the corner
STURM_SLOPES = [(p, q) for p in range(1, 10) for q in range(-3 * p, 2 * p)
                if q != 0 and math.gcd(p, abs(q)) == 1]
STURM_SLOPES += [(p, q) for p, q in BIT_SLOPES[-5:] if p > 0]


def test_hermite_arc_contact_numerator_is_positive_exactly():
    # step 5 of the search_profiles lemma: on the Hermite arc of the
    # bump-free shape at the first corner K and H = 1, f g' - f' g (in the
    # arc's parameter t) is a quartic with positive ends and no root in
    # [0, 1].  Step 4 rides along: p f + q g has a positive t^3 term, so
    # its slope is a convex quadratic and peaks at an end of the arc
    a, b = Fraction(_BINDING_END), Fraction(_COLLAR_START)
    width = b - a
    shapes = 0
    for p, q in STURM_SLOPES:
        # the least K in the corner is at most |q| + 1; none is when q <= -p
        K = next((K for K in range(1, abs(q) + 2) if _in_corner(p, q, K)),
                 None)
        if K is None:
            assert q <= -p
            continue
        f = _poly(*zip((2 - a * a, -2 * a * width, -b * p - q * K,
                        -p * width), HERMITE_BASIS))
        g = _poly(*zip((a * a, 2 * a * width, -b * q + p * K, -q * width),
                       HERMITE_BASIS))
        contact = _poly((1, _product(f, _derivative(g))),
                        (-1, _product(_derivative(f), g)))
        assert len(contact) == 5, (p, q)
        assert _value(contact, 0) > 0 and _value(contact, 1) > 0, (p, q)
        assert _roots_in_unit_interval(contact) == 0, (p, q)
        assert _poly((p, f), (q, g))[3] > 0, (p, q)
        shapes += 1
    assert shapes == 86


if __name__ == "__main__":
    TWIST_COUNT_GOLDEN.write_text(json.dumps(
        _twist_count_outcomes(_default_twist_count_by_scan), indent=1) + "\n")
    print(f"scan outcomes written to {TWIST_COUNT_GOLDEN}", file=sys.stderr)
    SEARCH_GOLDEN.write_text(json.dumps(
        _reference_search_outcomes(), indent=1) + "\n")
    print(f"search outcomes written to {SEARCH_GOLDEN}", file=sys.stderr)
    FLOAT_LOOP_GOLDEN.write_text(json.dumps(
        _float_loop_digest(_mixed_product_floats), indent=1) + "\n")
    print(f"float-loop digest written to {FLOAT_LOOP_GOLDEN}", file=sys.stderr)
