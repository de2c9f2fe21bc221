import dataclasses
import re
from math import gcd

import pytest
from hypothesis import given, strategies as st

from perisurf.census import CensusQuery, census, enumerate_irreducible
from perisurf.core import parse_data_set
from perisurf.realization import (
    PolygonPresentation,
    _equivariant,
    _pairing_checks,
    draw_polygon_svg,
    polygon_realization,
    verify_realization,
)
from reference import _euler_genus_by_union_find


def ds(text):
    return parse_data_set(text)


def test_ten_gon():
    d = ds("(5,0;(1,5),(3,5),(1,5))")
    p = polygon_realization(d)
    assert p.sides == 10
    assert not p.outside_theorem
    report = verify_realization(p, d)
    assert report.involution_ok
    assert report.equivariance_ok
    assert report.euler_genus == report.rh_genus == 2
    assert report.ok


def test_side_count_is_the_length_of_the_pairing():
    p = PolygonPresentation(pairing=(3, 4, 1, 2), rotation_step=2, degree=2)
    assert p.sides == 4
    assert [f.name for f in dataclasses.fields(PolygonPresentation)] == [
        "pairing", "rotation_step", "degree", "outside_theorem"]


def test_hexagon_opposite_sides():
    d = ds("(6,0;(1,2),(1,3),(1,6))")
    p = polygon_realization(d)
    assert p.sides == 6
    # q*j = 2*2 = 4, so side i is glued to side i+3: opposite sides
    assert p.pairing == (4, 5, 6, 1, 2, 3)
    report = verify_realization(p, d)
    assert report.ok
    assert report.euler_genus == 1


def test_doubled_hexagon_for_order_three():
    d = ds("(3,0;(1,3),(1,3),(1,3))")
    p = polygon_realization(d)
    assert p.sides == 6
    assert p.outside_theorem  # genus 1 sits outside the main hypotheses
    report = verify_realization(p, d)
    assert report.ok
    assert report.euler_genus == 1


def test_realization_requires_irreducible_type1():
    for text in [
        "(3,1;(1,3),(2,3))",                   # rotational
        "(2,0;(1,2),(1,2),(1,2),(1,2))",       # rotational
        "(3,1;(1,3),(1,3),(1,3))",             # type 1 but quotient genus 1
        "(6,0;(1,2),(1,2),(1,3),(2,3))",       # type 2
    ]:
        with pytest.raises(ValueError):
            polygon_realization(ds(text))


def test_realization_rejects_invalid_input():
    with pytest.raises(ValueError):
        polygon_realization(ds("(5,0;(1,5),(1,5),(1,5))"))  # residue sum fails


def test_corrupted_pairing_is_reported_not_repaired():
    d = ds("(6,0;(1,2),(1,3),(1,6))")
    p = polygon_realization(d)
    broken = dataclasses.replace(p, pairing=(4, 5, 6, 1, 2, 4))
    report = verify_realization(broken, d)
    assert not report.involution_ok
    assert report.euler_genus is None
    assert not report.ok


_PENTAGON = ds("(5,0;(1,5),(1,5),(3,5))")


@pytest.mark.parametrize("pairing", [
    (1, 3, 2, 5, 4),  # side 1 is its own partner
    (0, 3, 2, 5, 4),  # side 1 has no partner
    (6, 3, 2, 5, 4),
])
def test_involution_failing_only_at_the_first_side(pairing):
    # only side 1 breaks the involution; rotation step 0 keeps equivariance
    report = verify_realization(
        PolygonPresentation(pairing=pairing, rotation_step=0, degree=5),
        _PENTAGON)
    assert not report.involution_ok
    assert report.equivariance_ok
    assert report.euler_genus is None
    assert not report.ok


@pytest.mark.parametrize("pairing", [
    (2, 1, 4, 3, 5),
    (2, 1, 4, 3, 0),
    (2, 1, 4, 3, 6),
])
def test_involution_failing_only_at_the_last_side(pairing):
    report = verify_realization(
        PolygonPresentation(pairing=pairing, rotation_step=0, degree=5),
        _PENTAGON)
    assert not report.involution_ok
    assert report.equivariance_ok
    assert report.euler_genus is None
    assert not report.ok


@pytest.mark.parametrize("pairing, step", [
    # the identity pairing commutes with every step; one changed entry
    # breaks the two indices that read it
    ((2, 2, 3, 4), 1),        # only the first and the last index fail
    ((2, 2, 3, 4, 5, 6), 2),  # only the first and the fifth index fail
    ((1, 2, 3, 4, 5, 5), 2),  # only the fourth and the last index fail
])
def test_equivariance_failing_at_the_first_or_last_index(pairing, step):
    # the failures around one orbit of the rotation come in pairs: their
    # offsets sum to zero mod k, so no pairing fails at one index alone
    k = len(pairing)
    failing = [i for i in range(k) if (pairing[(i + step) % k] - 1) % k
               != (pairing[i] - 1 + step) % k]
    assert len(failing) == 2 and (failing[0] == 0 or failing[-1] == k - 1)
    report = verify_realization(
        PolygonPresentation(pairing=pairing, rotation_step=step, degree=k),
        _PENTAGON)
    assert not report.equivariance_ok
    assert not report.ok


@pytest.mark.parametrize("presentation", [
    # no sides to take a step mod
    PolygonPresentation(pairing=(), rotation_step=0, degree=5),
    # pairing entries not ints
    PolygonPresentation(pairing=("a", "b"), rotation_step=0, degree=5),
    # one out of range, not an int
    PolygonPresentation(pairing=(7.5, 1), rotation_step=0, degree=5),
    # rotation step not an int
    PolygonPresentation(pairing=(2, 1), rotation_step=0.5, degree=5),
    # pairing not a sequence
    PolygonPresentation(pairing=None, rotation_step=0, degree=5),
    PolygonPresentation(pairing=7, rotation_step=0, degree=5),
])
def test_inconsistent_presentation_fails_without_raising(presentation):
    report = verify_realization(presentation, _PENTAGON)
    assert not report.involution_ok
    assert not report.equivariance_ok
    assert report.euler_genus is None
    assert report.rh_genus == 2
    assert not report.ok


def test_data_set_without_a_genus_raises_value_error():
    # the one exception verify_realization raises: genus() of the data set
    with pytest.raises(ValueError, match="not a non-negative integer"):
        verify_realization(PolygonPresentation(pairing=(2, 1),
                                               rotation_step=0, degree=5),
                           parse_data_set("(5,0;(1,5))"))


def test_all_small_irreducible_sets_verify():
    checked = 0
    for n in range(2, 15):
        for d in enumerate_irreducible(n):
            p = polygon_realization(d)
            report = verify_realization(p, d)
            assert report.ok, (str(d), report)
            checked += 1
    assert checked > 20


_involutions = st.integers(min_value=1, max_value=40).flatmap(
    lambda half: st.permutations(range(1, 2 * half + 1)))


def _involution(order):
    # pair consecutive entries of a permutation: a fixed-point-free
    # involution on the sides
    pairing = [0] * len(order)
    for x, y in zip(order[::2], order[1::2]):
        pairing[x - 1], pairing[y - 1] = y, x
    return tuple(pairing)


@given(_involutions)
def test_vertex_cycles_match_union_find(order):
    pairing = _involution(order)
    p = PolygonPresentation(pairing=pairing, rotation_step=0, degree=1)
    report = verify_realization(p, ds("(5,0;(1,5),(1,5),(3,5))"))
    assert report.involution_ok
    assert report.euler_genus == _euler_genus_by_union_find(pairing)


@given(_involutions)
def test_every_involution_glues_to_a_surface_with_a_genus(order):
    # the lemma at _pairing_checks: sides glued in pairs with reversed
    # orientation make a closed orientable surface, so a genus always exists
    pairing = _involution(order)
    involution_ok, g = _pairing_checks(pairing)
    assert involution_ok and type(g) is int and g >= 0
    assert g == _euler_genus_by_union_find(pairing)


def _census_polygons():
    # the polygon of every irreducible census record of genus 2 to 8
    return [polygon_realization(r.data_set) for g in range(2, 9)
            for r in census(CensusQuery(genus=g))
            if r.action_class == "type1-irreducible"]


def test_census_polygon_steps_generate_the_rotations_by_k_over_n():
    # a census polygon's step is (k/n) * c^-1 with c^-1 a unit mod n
    polygons = _census_polygons()
    assert len(polygons) == 408
    for p in polygons:
        assert gcd(p.rotation_step, p.sides) == p.sides // p.degree, p


def test_census_pairings_are_equivariant_by_the_gcd_of_the_step():
    # the lemma at realization._verified, on every census pairing and step
    pairings = {p.pairing for p in _census_polygons()}
    for pairing in pairings:
        k = len(pairing)
        for s in range(k):
            assert _equivariant(pairing, s) == \
                _equivariant(pairing, gcd(s, k)), (pairing, s)


@st.composite
def _maps(draw):
    # a map P: range(k) -> 1..k with P(i + d) = P(i) + d mod k for a drawn
    # divisor d of k, so that P commutes with rotation by d and may or may
    # not commute with the other rotations; d = k gives any map
    k = draw(st.integers(min_value=1, max_value=30))
    d = draw(st.sampled_from([d for d in range(1, k + 1) if k % d == 0]))
    head = draw(st.lists(st.integers(min_value=1, max_value=k),
                         min_size=d, max_size=d))
    return tuple((head[i % d] - 1 + i - i % d) % k + 1 for i in range(k))


@given(_maps().filter(lambda m: not _pairing_checks(m)[0]))
def test_equivariance_of_any_map_depends_on_the_gcd_of_the_step(m):
    k = len(m)
    for s in range(k):
        assert _equivariant(m, s) == _equivariant(m, gcd(s, k)), s


def test_svg_output(tmp_path):
    d = ds("(5,0;(1,5),(3,5),(1,5))")
    p = polygon_realization(d)
    target = tmp_path / "tengon.svg"
    draw_polygon_svg(p, str(target))
    content = target.read_text()
    assert content.startswith("<svg")
    assert content.count("<path") == 5  # one chord per side pair
    # the chords' hues, in pairing order, a fifth of the wheel apart
    assert re.findall(r'stroke="(hsl\([^"]*\))"', content) == [
        "hsl(0,70%,45%)", "hsl(72,70%,45%)", "hsl(144,70%,45%)",
        "hsl(216,70%,45%)", "hsl(288,70%,45%)"]


def test_svg_hues_round_down(tmp_path):
    # seven chords split the wheel at multiples of 360/7, rounded down;
    # a scale of 361 in place of 360 would give 103, 206 and 309
    target = tmp_path / "fourteengon.svg"
    draw_polygon_svg(polygon_realization(ds("(7,0;(1,7),(1,7),(5,7))")),
                     str(target))
    assert re.findall(r'stroke="hsl\((\d+),', target.read_text()) == [
        "0", "51", "102", "154", "205", "257", "308"]
