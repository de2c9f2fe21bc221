from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import perisurf.fillability as fillability
import perisurf.openbook as openbook
from perisurf.census import CensusQuery, census
from perisurf.core import MarkedDataSet, classify, parse_data_set
from perisurf.fillability import (
    CERTIFICATES,
    VERDICTS,
    FillabilityVerdict,
    classify_assembly,
    classify_irreducible,
    classify_marked,
    classify_positive_word,
    verdict_to_json,
)
from perisurf.gluing import Assembly, Ext, build_edge
from perisurf.openbook import (
    BoundaryOrbit,
    OpenBookDescriptor,
    UnsupportedResolution,
    Veering,
    integral_resolution,
    page_descriptor,
    veering,
)


def ds(text):
    return parse_data_set(text)


def held(verdict, name):
    return dict(verdict.hypotheses)[name]


def test_positive_irreducible_is_stein():
    v = classify_irreducible(ds("(6_+,0;(1,2),(1,3),(1,6),[3])"))
    assert v.verdict == "SteinFillable"
    assert v.certificate == "positive-irreducible"
    assert v.notes == ()


def test_positive_irreducible_permuted_orbit_notes_extension():
    v = classify_irreducible(ds("(6_+,0;(1,2),(1,3),(1,6),[2])"))
    assert v.verdict == "SteinFillable"
    assert any("permuted" in n for n in v.notes)


def test_negative_irreducible_resolves_to_overtwisted():
    v = classify_irreducible(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    assert v.verdict == "Overtwisted"
    assert v.certificate == "left-veering-resolution"
    assert "left-veering resolution: 6 negative boundary twists" in v.notes


def test_negative_irreducible_without_resolution_is_unknown():
    v = classify_irreducible(ds("(6_-,0;(1,2),(1,3),(1,6),[2])"))
    assert v.verdict == "Unknown"
    assert v.certificate == "none"
    assert not held(v, "integral resolution")


def test_classify_irreducible_rejects_other_classes():
    with pytest.raises(ValueError):
        classify_irreducible(ds("(2_+,0;(1,2),(1,2),(1,2),(1,2),[1])"))


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("marks,message", [
    ("[4]", "mark 4 is outside the cone index range 1..3"),
    ("[2,4]", "mark 4 is outside the cone index range 1..3"),
    ("[3,3]", "mark indices must be distinct"),
    ("[]", "marked data set has no marks"),
])
def test_classify_irreducible_rejects_malformed_marks(sign, marks, message):
    m = ds(f"(6_{sign},0;(1,2),(1,3),(1,6),{marks})")
    with pytest.raises(ValueError, match=message):
        classify_irreducible(m)
    with pytest.raises(ValueError, match=message):
        classify_marked(m)


def test_assembled_positive_pieces_are_stein():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[3])"),
        ds("(6_+,0;(1,3),(5,6),(5,6),[2,3])"),
    )
    v = classify_assembly(
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    assert v.verdict == "SteinFillable"
    assert v.certificate == "positive-assembly"

    pieces = (
        ds("(5_+,0;(3,5),(1,5),(3,5),[1,2,3])"),
        ds("(5_+,0;(1,5),(2,5),(1,5),[1,3])"),
    )
    v = classify_assembly(
        Assembly(pieces, (build_edge(pieces, (0, 1), (1, 2)),)))
    assert v.verdict == "SteinFillable"


def test_assembly_with_negative_piece_is_unknown():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[1])"),
        ds("(6_-,0;(1,2),(2,3),(5,6),[1])"),
    )
    v = classify_assembly(
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    assert v.verdict == "Unknown"
    assert not held(v, "all pieces positive")
    assert held(v, "no self gluings")


def test_assembly_with_permuted_marks_is_unknown():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[2,3])"),
        ds("(6_+,0;(1,3),(5,6),(5,6),[2])"),
    )
    v = classify_assembly(
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    assert v.verdict == "Unknown"
    assert not held(v, "all marked orbits invariant")


def test_assembly_that_consumes_every_mark_is_unknown():
    pieces = (
        ds("(5_+,0;(2,5),(3,5),(1,5),[3])"),
        ds("(5_+,0;(4,5),(3,5),(3,5),[1])"),
    )
    v = classify_assembly(Assembly(
        pieces,
        (build_edge(pieces, (0, 3), (1, 1)),),
        ((0, 1, 2),),
    ))
    assert v.verdict == "Unknown"
    assert not held(v, "no self gluings")
    assert not held(v, "marked boundary remains")
    assert not held(v, "junction keeps a free mark")


def test_positive_word_slopes_in_unit_interval_are_stein():
    v = classify_positive_word(
        page_descriptor(ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])")))
    assert v.verdict == "SteinFillable"
    assert v.certificate == "positive-twist-stein"
    assert v.notes == ()  # two boundary orbits, no strong shortcut

    v = classify_positive_word(
        page_descriptor(ds("(5_+,0;(1,5),(3,5),(1,5),[1])")))
    assert v.certificate == "positive-twist-stein"
    assert any("positive-twist-strong" in n for n in v.notes)


def test_positive_word_requires_positive_word():
    with pytest.raises(ValueError):
        classify_positive_word(
            page_descriptor(ds("(6_-,0;(1,2),(2,3),(5,6),[3])")))


def test_positive_word_integral_slope_is_strong_only():
    d = OpenBookDescriptor(
        page_genus=1,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=Fraction(3)),
        ),
        monodromy=(Ext(0),),
    )
    v = classify_positive_word(d)
    assert v.verdict == "StronglyFillable"
    assert v.certificate == "positive-twist-strong"


def test_positive_word_flat_orbit_is_unknown():
    d = OpenBookDescriptor(
        page_genus=1,
        boundary_orbits=(
            BoundaryOrbit(mark=1, orbit_size=1, full_period_slope=Fraction(0)),
            BoundaryOrbit(mark=2, orbit_size=1,
                          full_period_slope=Fraction(1, 2)),
        ),
        monodromy=(Ext(0),),
    )
    v = classify_positive_word(d)
    assert v.verdict == "Unknown"


def test_classify_marked_merges_rules():
    v = classify_marked(ds("(6_+,0;(1,2),(1,3),(1,6),[3])"))
    assert v.verdict == "SteinFillable"
    assert v.certificate == "positive-irreducible"
    assert any("positive-twist-stein" in n for n in v.notes)

    # rotational class: only the positive-word rule applies
    v = classify_marked(ds("(2_+,0;(1,2),(1,2),(1,2),(1,2),[1])"))
    assert v.verdict == "SteinFillable"
    assert v.certificate == "positive-twist-stein"

    v = classify_marked(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    assert v.verdict == "Overtwisted"

    v = classify_marked(ds("(6_-,0;(1,2),(1,3),(1,6),[2])"))
    assert v.verdict == "Unknown"
    assert v.certificate == "none"


def test_classify_marked_builds_one_page_descriptor(monkeypatch):
    # every rule reads page_descriptor(m), which builds the descriptor once
    # and keeps it on m
    calls = []
    build = openbook._page_descriptor

    def counting(m):
        calls.append(m)
        return build(m)

    monkeypatch.setattr(openbook, "_page_descriptor", counting)
    for text, verdict in [("(6_-,0;(1,2),(2,3),(5,6),[3])", "Overtwisted"),
                          ("(6_-,0;(1,2),(1,3),(1,6),[2])", "Unknown"),
                          ("(6_+,0;(1,2),(1,3),(1,6),[3])", "SteinFillable")]:
        calls.clear()
        assert classify_marked(ds(text)).verdict == verdict
        assert len(calls) == 1, text


def test_classify_marked_rejects_contradictory_verdicts(monkeypatch):
    def overtwisted(m, **_):
        return FillabilityVerdict("left-veering-resolution")

    # a positive irreducible set also fires the positive-word rule
    monkeypatch.setattr(fillability, "classify_irreducible", overtwisted)
    with pytest.raises(ValueError, match="contradictory verdicts"):
        classify_marked(ds("(6_+,0;(1,2),(1,3),(1,6),[3])"))


def _census_markings():
    """Every non-empty mark subset, with both signs, of every record of the
    genus 2-4 census."""
    records = [r for g in (2, 3, 4)
               for r in census(CensusQuery(genus=g), workers=1)]
    for record in records:
        cones = range(1, record.data_set.num_pairs + 1)
        for size in cones:
            for marks in combinations(cones, size):
                for sign in "+-":
                    yield MarkedDataSet(record.data_set, sign, marks)


def test_verdicts_agree_across_the_census():
    # Honda-Kazez-Matic: a tight structure has only right-veering compatible
    # monodromies, so fillable and overtwisted verdicts must never meet
    fillable = {"SteinFillable", "StronglyFillable"}
    count = 0
    for m in _census_markings():
        count += 1
        page = page_descriptor(m)
        fired = []
        if classify(m.base).irreducible:
            fired.append(classify_irreducible(m).verdict)
        if page.positive_word:
            fired.append(classify_positive_word(page).verdict)
        assert not (fillable & set(fired) and "Overtwisted" in fired), m
        v = classify_marked(m)
        if v.verdict in fillable:
            assert veering(page) is Veering.RIGHT, m
        if v.verdict == "Overtwisted":
            assert veering(integral_resolution(page)) is Veering.LEFT, m
    assert count == 5924


def test_classify_marked_reaches_only_the_stein_twist_branch():
    # the lemma in classify_positive_word's docstring, on the census sweep
    positive = [m for m in _census_markings()
                if page_descriptor(m).positive_word]
    assert positive and all(m.sign == "+" for m in positive)
    for m in positive:
        v = classify_positive_word(page_descriptor(m))
        assert (v.verdict, v.certificate) == (
            "SteinFillable", "positive-twist-stein"), m


def test_every_negative_irreducible_resolution_is_left_veering():
    # the lemma in classify_irreducible's docstring, over every marking of
    # the irreducible sets of genus 2-5
    resolved = unsupported = 0
    for g in range(2, 6):
        query = CensusQuery(genus=g, action_class="type1-irreducible")
        for record in census(query):
            for size in (1, 2, 3):
                for marks in combinations((1, 2, 3), size):
                    m = MarkedDataSet(record.data_set, "-", marks)
                    try:
                        page = integral_resolution(page_descriptor(m))
                    except UnsupportedResolution:
                        unsupported += 1
                        continue
                    resolved += 1
                    assert veering(page) is Veering.LEFT, m
                    assert classify_irreducible(m).verdict == "Overtwisted", m
    assert (resolved, unsupported) == (50, 818)


@cache
def _small_census_markings() -> tuple[MarkedDataSet, ...]:
    """Every marking with 1 or 2 marks, with both signs, of every record of
    the genus 2-3 census with at most 5 cones."""
    sets = [r.data_set for g in (2, 3) for r in census(CensusQuery(genus=g))
            if r.data_set.num_pairs <= 5]
    return tuple(MarkedDataSet(d, sign, marks) for d in sets for size in (1, 2)
                 for marks in combinations(range(1, d.num_pairs + 1), size)
                 for sign in "+-")


def _check_cone_order(m, order):
    """Move old cone ``order[k - 1]`` of ``m`` to place ``k``, relabel the
    marks to match, and compare verdict, certificate and page slopes."""
    base = m.base
    moved = MarkedDataSet(
        replace(base, cone_pairs=tuple(base.cone_pairs[i - 1] for i in order)),
        m.sign, tuple(order.index(j) + 1 for j in m.marks))
    v, w = classify_marked(m), classify_marked(moved)
    assert (w.verdict, w.certificate) == (v.verdict, v.certificate), (m, order)
    relabelled = {replace(o, mark=order[o.mark - 1])
                  for o in page_descriptor(moved).boundary_orbits}
    assert relabelled == set(page_descriptor(m).boundary_orbits), (m, order)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_verdicts_do_not_depend_on_cone_order(data):
    # a sample of the 21,538 reorderings other than the identity; to check
    # them all, run _check_cone_order over every permutation of every marking
    markings = _small_census_markings()
    assert (len(markings), sum(factorial(m.base.num_pairs) - 1
                               for m in markings)) == (866, 21538)
    m = data.draw(st.sampled_from(markings))
    _check_cone_order(m, data.draw(st.permutations(
        range(1, m.base.num_pairs + 1))))


def test_verdict_certificate_pairing_enforced():
    # the certificate is stored and names its verdict, so no verdict can be
    # paired with the wrong certificate
    with pytest.raises(ValueError, match="unknown certificate 'lucky'"):
        FillabilityVerdict("lucky")
    for certificate in CERTIFICATES:
        verdict = FillabilityVerdict(certificate).verdict
        assert verdict in VERDICTS
        assert (verdict == "Unknown") == (certificate == "none")


def test_verdict_json():
    v = classify_irreducible(ds("(6_-,0;(1,2),(2,3),(5,6),[3])"))
    j = verdict_to_json(v)
    assert j["verdict"] == "Overtwisted"
    assert ["integral resolution", True] in j["hypotheses"]
