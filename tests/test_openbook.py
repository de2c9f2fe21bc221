from dataclasses import fields
from fractions import Fraction

import pytest

from perisurf.census import CensusQuery, census
from perisurf.core import parse_data_set
from perisurf.gluing import Ext, Rot, Twist, boundary_slope
from perisurf.openbook import (
    BoundaryOrbit,
    OpenBookDescriptor,
    SurgeryEntry,
    UnsupportedResolution,
    Veering,
    descriptor_to_json,
    fractional_dehn_twist,
    integral_resolution,
    page_descriptor,
    surgery_description,
    surgery_to_json,
    veering,
)


def ds(text):
    return parse_data_set(text)


F = Fraction


def slopes(d):
    return {b.mark: b.full_period_slope for b in d.boundary_orbits}


def test_positive_five_fold_page():
    d = page_descriptor(ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])"))
    assert d.page_genus == 2
    assert d.boundary_count == 2
    assert slopes(d) == {1: F(1, 5), 3: F(1, 5)}
    assert all(b.invariant for b in d.boundary_orbits)
    assert d.positive_word


def test_negative_five_fold_page():
    d = page_descriptor(ds("(5_-,0;(1,5),(1,5),(3,5),[1,2,3])"))
    assert slopes(d) == {1: F(-4, 5), 2: F(-4, 5), 3: F(-3, 5)}
    assert not d.positive_word


def test_negative_hexagonal_page():
    d = page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    assert d.page_genus == 1
    assert d.boundary_count == 1
    assert slopes(d) == {3: F(-1, 6)}
    assert d.monodromy.tokens == (Ext(0, "-"), Rot(3, F(-1, 6)))


def test_fractional_dehn_twist_hyperelliptic():
    m = ds("(2_+,0;(1,2),(1,2),(1,2),(1,2),[1])")
    assert fractional_dehn_twist(m, 1) == F(1, 2)


def test_fdtc_requires_invariant_boundary():
    m = ds("(6_-,0;(1,2),(1,3),(1,6),[2])")
    d = page_descriptor(m)
    orbit = d.boundary_orbits[0]
    assert orbit.orbit_size == 2
    assert not orbit.invariant
    assert orbit.fdtc is None
    assert orbit.per_period_slope == F(-1, 3)
    with pytest.raises(ValueError):
        fractional_dehn_twist(m, 2)
    with pytest.raises(ValueError):
        fractional_dehn_twist(m, 4)  # no such cone


def test_boundary_orbit_derives_invariance_and_per_period_slope():
    shared = BoundaryOrbit(mark=1, orbit_size=2, full_period_slope=F(1, 3))
    assert shared.per_period_slope == F(1, 6)
    assert not shared.invariant and shared.fdtc is None
    single = BoundaryOrbit(mark=2, orbit_size=1, full_period_slope=F(-1, 5))
    assert single.per_period_slope == F(-1, 5)
    assert single.invariant and single.fdtc == F(-1, 5)
    assert [f.name for f in fields(BoundaryOrbit)] == [
        "mark", "orbit_size", "full_period_slope"]


def test_cached_per_period_slope_leaves_equality_hash_and_repr():
    read = BoundaryOrbit(mark=3, orbit_size=6, full_period_slope=F(-1, 1))
    unread = BoundaryOrbit(mark=3, orbit_size=6, full_period_slope=F(-1, 1))
    before = (hash(read), repr(read))
    assert read.per_period_slope is read.per_period_slope == F(-1, 6)
    assert read == unread
    assert (hash(read), repr(read)) == before == (hash(unread), repr(unread))
    with pytest.raises(AttributeError):
        read.per_period_slope = F(0)


def test_positive_word_is_read_from_the_word():
    # the words of the descriptors built by hand in the veering-mixed and
    # single-puncture-disk tests
    orbit = BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=F(-1, 1))
    for word in ((Ext(0),), (Ext(0), Rot(1, F(-1, 1)))):
        d = OpenBookDescriptor(page_genus=0, boundary_orbits=(orbit,),
                               monodromy=word)
        assert d.positive_word
    for word in ((Ext(0, "-"),), (Ext(0), Twist("a", 0))):
        assert not OpenBookDescriptor(page_genus=0, boundary_orbits=(orbit,),
                                      monodromy=word).positive_word
    assert [f.name for f in fields(OpenBookDescriptor)] == [
        "page_genus", "boundary_orbits", "monodromy"]


def test_page_descriptor_rejects_bad_marks():
    for marks, message in [("[]", "marked data set has no marks"),
                           ("[3,3]", "mark indices must be distinct"),
                           ("[1,4]", "mark 4 is outside the cone index range")]:
        with pytest.raises(ValueError, match=message):
            page_descriptor(ds(f"(6_+,0;(1,2),(1,3),(1,6),{marks})"))


def test_page_descriptor_refuses_what_has_no_page():
    with pytest.raises(TypeError, match="needs a marked data set"):
        page_descriptor(ds("(6,0;(1,2),(1,3),(1,6))"))
    with pytest.raises(ValueError, match="cone order 4 at mark 1 does not "
                                         "divide the degree 6"):
        page_descriptor(ds("(6_+,0;(1,4),(1,3),(1,6),[1])"))


def test_boundary_count_sums_orbit_sizes():
    d = page_descriptor(ds("(6_-,0;(1,2),(1,3),(1,6),[1,2,3])"))
    assert sorted(b.orbit_size for b in d.boundary_orbits) == [1, 2, 3]
    assert d.boundary_count == 6


def test_veering_signs():
    assert veering(page_descriptor(ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])"))) \
        is Veering.RIGHT
    assert veering(page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))) \
        is Veering.LEFT


def test_veering_mixed_and_empty():
    mixed = OpenBookDescriptor(
        page_genus=1,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=F(1, 3)),
            BoundaryOrbit(mark=2, orbit_size=1, full_period_slope=F(-1, 3)),
        ),
        monodromy=(Ext(0),),
    )
    assert veering(mixed) is Veering.MIXED
    closed = OpenBookDescriptor(page_genus=1, boundary_orbits=(),
                                monodromy=(Ext(0),))
    with pytest.raises(ValueError):
        veering(closed)


def test_veering_counts_boundary_parallel_twists():
    base = page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    pushed = OpenBookDescriptor(
        page_genus=base.page_genus,
        boundary_orbits=base.boundary_orbits,
        monodromy=base.monodromy.tokens + (Twist("extra", 1, orbit=3),),
    )
    # -1/6 + 1/1 > 0 once a full positive boundary twist is appended
    assert veering(pushed) is Veering.RIGHT


def test_surgery_rational_entries():
    desc = surgery_description(page_descriptor(
        ds("(6_-,0;(1,2),(2,3),(5,6),[3])")))
    (entry,) = desc.entries
    assert entry.kind == "rational"
    assert entry.topological == F(-6, 1)
    assert entry.contact == F(6, 1)
    assert not entry.legendrian_realizable

    desc = surgery_description(page_descriptor(
        ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])")))
    for entry in desc.entries:
        assert entry.kind == "rational"
        assert entry.contact == F(-5, 1)
        assert entry.legendrian_realizable


def test_surgery_degenerate_kinds():
    flat = OpenBookDescriptor(
        page_genus=1,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=F(0)),
            BoundaryOrbit(mark=2, orbit_size=1, full_period_slope=F(3)),
        ),
        monodromy=(Ext(0),),
    )
    kinds = {e.orbit: e.kind for e in surgery_description(flat).entries}
    assert kinds == {1: "none", 2: "integral"}


def _census_slopes():
    # per-period slope of every cone of the genus 2-4 census, both signs
    out = set()
    for g in (2, 3, 4):
        for r in census(CensusQuery(genus=g), workers=1):
            n = r.data_set.degree
            for pair in r.data_set.cone_pairs:
                for sign in "+-":
                    full = boundary_slope(pair.c, pair.order, sign)
                    out.add(full / (n // pair.order))
    return out


def test_no_marked_orbit_turns_by_slope_zero():
    # the lemma at cli._cmd_surgery: a marked cone's residue is a unit, so
    # its orbit always turns and its surgery entry is never of kind "none"
    assert F(0) not in _census_slopes()


def test_surgery_entry_derives_everything_from_its_slope():
    grid = {F(q, p) for q in range(-12, 13) for p in range(1, 13)}
    census_slopes = _census_slopes()
    assert len(census_slopes) > 50
    for slope in sorted(grid | census_slopes):
        q, p = slope.numerator, slope.denominator
        e = SurgeryEntry(7, slope)
        if q == 0:
            want = ("none", None, None, False)
        elif p == 1:
            want = ("integral", None, None, False)
        else:
            want = ("rational", F(p, q), -F(p, q), p > q > 0)
        assert (e.kind, e.topological, e.contact,
                e.legendrian_realizable) == want, slope


def test_integral_resolution_unrolls_negative_orbit():
    base = page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    resolved = integral_resolution(base)
    assert resolved.page_genus == base.page_genus
    (orbit,) = resolved.boundary_orbits
    assert orbit.orbit_size == 6
    assert orbit.full_period_slope == 0
    twists = resolved.monodromy.twists()
    assert len(twists) == 6
    assert all(t.power == -1 and t.orbit == 3 for t in twists)
    assert {t.curve for t in twists} == {f"resolve[3.{i}]" for i in range(1, 7)}
    assert not resolved.positive_word
    assert veering(resolved) is Veering.LEFT


def test_integral_resolution_rejects_other_slopes():
    with pytest.raises(UnsupportedResolution):
        integral_resolution(page_descriptor(
            ds("(5_+,0;(1,5),(3,5),(1,5),[1])")))
    with pytest.raises(UnsupportedResolution):
        integral_resolution(page_descriptor(
            ds("(6_-,0;(1,2),(1,3),(1,6),[2])")))  # permuted orbit


def test_integral_resolution_single_puncture_disk():
    d = OpenBookDescriptor(
        page_genus=0,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=F(-1, 1)),
        ),
        monodromy=(Ext(0), Rot(1, F(-1, 1))),
    )
    resolved = integral_resolution(d)
    (orbit,) = resolved.boundary_orbits
    assert orbit.orbit_size == 1 and orbit.full_period_slope == 0
    assert len(resolved.monodromy.twists()) == 1
    assert veering(resolved) is Veering.LEFT


def test_integral_resolution_keeps_orbits_that_do_not_turn():
    # a hand-built descriptor: no marked data set has an orbit of slope 0
    still = BoundaryOrbit(mark=1, orbit_size=2, full_period_slope=F(0))
    d = OpenBookDescriptor(
        page_genus=0,
        boundary_orbits=(
            still,
            BoundaryOrbit(mark=2, orbit_size=1, full_period_slope=F(-1, 3)),
        ),
        monodromy=(Ext(0, "-"), Rot(1, F(0)), Rot(2, F(-1, 3))),
    )
    resolved = integral_resolution(d)
    assert resolved.boundary_orbits[0] is still
    assert resolved.boundary_orbits[1] == BoundaryOrbit(
        mark=2, orbit_size=3, full_period_slope=F(0))
    assert [t.orbit for t in resolved.monodromy.twists()] == [2, 2, 2]
    assert resolved.monodromy.tokens[:3] == (Ext(0, "-"), Rot(1, F(0)),
                                             Rot(2, F(0)))


def test_integral_resolution_noop_without_rotation():
    d = OpenBookDescriptor(
        page_genus=2,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=3, full_period_slope=F(0)),
        ),
        monodromy=(Ext(0), Twist("a", 2)),
    )
    assert integral_resolution(d) == d


def test_descriptor_json_shapes():
    d = page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    j = descriptor_to_json(d)
    assert j["page_genus"] == 1
    assert j["boundaries"] == [{
        "orbit": 3,
        "orbit_size": 1,
        "slope": [-1, 6],
        "per_period_slope": [-1, 6],
        "invariant": True,
    }]
    assert j["monodromy"][0] == {"op": "ext", "piece": 0, "sign": "-"}
    assert j["positive_word"] is False

    sj = surgery_to_json(surgery_description(d))
    assert sj["entries"][0]["kind"] == "rational"
    assert sj["entries"][0]["contact"] == [6, 1]
