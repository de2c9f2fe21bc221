import random
import re
from itertools import combinations, combinations_with_replacement

import pytest

from perisurf.census import CensusQuery, census, enumerate_data_sets
from perisurf.core import canonicalize, format_data_set, genus, parse_data_set, validate
from perisurf.gluing import (
    Assembly,
    Ext,
    GluingEdge,
    MonodromyWord,
    Rot,
    Twist,
    assemble,
    assembly_from_json,
    assembly_to_json,
    boundary_slope,
    build_edge,
    compatible_pairs,
    glue,
    self_glue,
)


def ds(text):
    return parse_data_set(text)


HEX1 = "(6,0;(1,2),(1,3),(1,6))"
HEX2 = "(6,0;(1,2),(2,3),(5,6))"


def test_compatible_pairs_hexagons():
    assert compatible_pairs(ds(HEX1), ds(HEX2)) == [(1, 1), (2, 2), (3, 3)]


def test_compatible_pairs_requires_cancelling_residues():
    d = ds("(3,0;(1,3),(1,3),(1,3))")
    assert compatible_pairs(d, d) == []
    assert compatible_pairs(d, ds("(3,0;(2,3),(2,3),(2,3))")) == \
        [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]


def test_compatible_pairs_degree_mismatch_is_empty():
    assert compatible_pairs(ds(HEX1), ds("(3,0;(1,3),(1,3),(1,3))")) == []


def test_gluing_reads_the_base_of_a_marked_set():
    marked = ds("(6_+,0;(1,2),(1,3),(1,6),[3])")
    assert compatible_pairs(marked, ds(HEX2)) == \
        compatible_pairs(ds(HEX1), ds(HEX2))
    with pytest.raises(TypeError, match="d2 must be a data set"):
        compatible_pairs(ds(HEX1), HEX2)


def test_glue_hexagons():
    glued = glue(ds(HEX1), ds(HEX2), 3, 3)
    assert format_data_set(glued) == "(6,0;(1,2),(1,3),(1,2),(2,3))"
    assert format_data_set(canonicalize(glued)[0]) == \
        "(6,0;(1,2),(1,2),(1,3),(2,3))"
    assert validate(glued).valid
    assert genus(glued) == 2


def test_glue_chain_then_self_glue():
    first = glue(ds("(3,0;(1,3),(1,3),(1,3))"),
                 ds("(3,0;(2,3),(2,3),(2,3))"), 1, 1)
    assert format_data_set(first) == "(3,0;(1,3),(1,3),(2,3),(2,3))"
    assert validate(first).valid
    assert genus(first) == 2

    second = self_glue(first, 2, 3)
    assert format_data_set(second) == "(3,1;(1,3),(2,3))"
    assert validate(second).valid
    assert genus(second) == 3  # rises by degree/order = 1


def test_glue_errors():
    with pytest.raises(ValueError):
        glue(ds(HEX1), ds("(3,0;(1,3),(1,3),(1,3))"), 1, 1)  # degrees differ
    with pytest.raises(ValueError):
        glue(ds(HEX1), ds(HEX2), 1, 2)  # orders differ
    with pytest.raises(ValueError):
        glue(ds("(3,0;(1,3),(1,3),(1,3))"),
             ds("(3,0;(1,3),(1,3),(1,3))"), 1, 1)  # residues do not cancel
    with pytest.raises(ValueError):
        glue(ds(HEX1), ds(HEX2), 4, 3)  # index out of range


def test_self_glue_errors():
    with pytest.raises(ValueError):
        self_glue(ds("(3,1;(1,3),(2,3))"), 1, 2)  # fewer than four cones
    four = glue(ds("(3,0;(1,3),(1,3),(1,3))"), ds("(3,0;(2,3),(2,3),(2,3))"), 1, 1)
    with pytest.raises(ValueError):
        self_glue(four, 3, 2)  # needs r < s
    with pytest.raises(ValueError):
        self_glue(four, 1, 2)  # (1,3)+(1,3) does not cancel


FOUR = "(3,0;(1,3),(1,3),(2,3),(2,3))"


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("call,name", [
    (lambda v: glue(ds(HEX1), ds(HEX2), v, 1), "i"),
    (lambda v: glue(ds(HEX1), ds(HEX2), 1, v), "j"),
    (lambda v: self_glue(ds(FOUR), v, 3), "r"),
    (lambda v: self_glue(ds(FOUR), 2, v), "s"),
])
def test_cone_indices_are_integers(call, name, bad):
    # True once glued cone 1 and 1.0 or "1" raised a bare TypeError
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == f"{name} must be an integer, got {bad!r}"


def test_glue_is_symmetric_up_to_canonical_order():
    d1, d2 = ds(HEX1), ds(HEX2)
    for i, j in compatible_pairs(d1, d2):
        a = canonicalize(glue(d1, d2, i, j))[0]
        b = canonicalize(glue(d2, d1, j, i))[0]
        assert a == b


def test_randomized_gluing_preserves_validity():
    pool = []
    for n in range(2, 9):
        for g in range(0, 4):
            pool.extend(enumerate_data_sets(n, g))
    by_degree = {}
    for d in pool:
        by_degree.setdefault(d.degree, []).append(d)
    rng = random.Random(7)
    trials = 0
    while trials < 400:
        degree = rng.choice(sorted(by_degree))
        d1, d2 = rng.choice(by_degree[degree]), rng.choice(by_degree[degree])
        options = compatible_pairs(d1, d2)
        if not options:
            continue
        i, j = rng.choice(options)
        glued = glue(d1, d2, i, j)
        assert validate(glued).valid, (str(d1), str(d2), i, j)
        k = degree // d1.cone_pairs[i - 1].order
        assert genus(glued) == genus(d1) + genus(d2) + k - 1
        trials += 1


def test_gluings_of_the_census_land_in_the_census():
    # gluing shares no code with the census generator but core, and the
    # oracle checks the generator only up to degree 12 and genus 4, while
    # these gluings reach genus 16 at degree 18
    sets = [r.data_set for g in (2, 3, 4) for r in census(CensusQuery(genus=g))]
    by_degree = {}
    for d in sets:
        by_degree.setdefault(d.degree, []).append(d)
    binary = [glue(a, b, i, j) for same in by_degree.values()
              for a, b in combinations_with_replacement(same, 2)
              for i, j in compatible_pairs(a, b)]
    self_glued = [self_glue(d, r, s) for d in sets if d.num_pairs >= 4
                  for r, s in combinations(range(1, d.num_pairs + 1), 2)
                  if (r, s) in compatible_pairs(d, d)]
    assert (len(sets), len(binary), len(self_glued)) == (137, 2837, 187)
    cells = {}
    for glued in binary + self_glued:
        canon = canonicalize(glued)[0]
        assert validate(canon).valid, glued
        cell = (canon.degree, genus(canon))
        if cell not in cells:
            cells[cell] = set(enumerate_data_sets(*cell))
        assert canon in cells[cell], glued
    assert len(cells) == 66
    assert max(g for _, g in cells) == 16 and max(n for n, _ in cells) == 18


# --- assemblies --------------------------------------------------------------


def test_assemble_two_positive_pieces():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[3])"),
        ds("(6_+,0;(1,3),(5,6),(5,6),[2,3])"),
    )
    result = assemble(Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    assert format_data_set(result.data_set) == \
        "(6_+,0;(1,2),(1,3),(1,3),(5,6),[4])"
    assert genus(result.data_set) == 3
    assert result.word.tokens[:2] == (Ext(0), Ext(1))
    twists = result.word.twists()
    assert len(twists) == 1 and twists[0].power == 1
    rots = [t for t in result.word.tokens if isinstance(t, Rot)]
    assert rots == [Rot(4, boundary_slope(5, 6, "+"))]
    assert result.word.positive
    assert not result.ledger.mixed_signs
    assert [e.mark for e in result.ledger.consumed(0)] == [3]
    assert [e.output_index for e in result.ledger.surviving(1)] == [4]


def test_assemble_consumes_marks_without_complaint():
    pieces = (
        ds("(5_+,0;(3,5),(1,5),(3,5),[1,2,3])"),
        ds("(5_+,0;(1,5),(2,5),(1,5),[1,3])"),
    )
    result = assemble(Assembly(pieces, (build_edge(pieces, (0, 1), (1, 2)),)))
    assert format_data_set(result.data_set) == \
        "(5_+,0;(1,5),(3,5),(1,5),(1,5),[1,2,3,4])"
    assert genus(result.data_set) == 4
    assert result.word.positive


def test_assemble_mixed_signs_has_no_core_twist():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[1])"),
        ds("(6_-,0;(1,2),(2,3),(5,6),[1])"),
    )
    result = assemble(Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    assert result.ledger.mixed_signs
    assert result.word.twists() == []
    assert len(result.data_set.marks) == 2


def test_assemble_negative_signs_twist_negatively():
    pieces = (
        ds("(6_-,0;(1,2),(1,3),(1,6),[1])"),
        ds("(6_-,0;(1,2),(2,3),(5,6),[1])"),
    )
    result = assemble(Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    twists = result.word.twists()
    assert len(twists) == 1 and twists[0].power == -1
    assert not result.word.positive


def test_assemble_cycle_edge_raises_quotient_genus():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[1])"),
        ds("(6_+,0;(1,2),(2,3),(5,6),[1])"),
    )
    edges = (build_edge(pieces, (0, 2), (1, 2)),
             build_edge(pieces, (0, 3), (1, 3)))
    result = assemble(Assembly(pieces, edges))
    assert format_data_set(result.data_set) == "(6_+,1;(1,2),(1,2),[1,2])"
    assert validate(result.data_set.base).valid
    # tree edge adds 6/3 - 1, cycle edge adds 6/6
    assert genus(result.data_set) == 1 + 1 + 1 + 1


def test_assemble_self_edge():
    pieces = (
        ds("(5_+,0;(2,5),(3,5),(1,5),[3])"),
        ds("(5_+,0;(4,5),(3,5),(3,5),[1])"),
    )
    result = assemble(Assembly(
        pieces,
        (build_edge(pieces, (0, 3), (1, 1)),),
        ((0, 1, 2),),
    ))
    assert format_data_set(result.data_set.base) == "(5,1;(3,5),(3,5))"
    assert result.data_set.marks == ()
    assert genus(result.data_set) == 5  # 2 + 2 + (1-1) from the edge, +1 self
    assert [t.power for t in result.word.twists()] == [1, 1]


def test_assemble_structural_errors():
    hex1 = ds("(6_+,0;(1,2),(1,3),(1,6),[1])")
    hex2 = ds("(6_+,0;(1,2),(2,3),(5,6),[1])")
    with pytest.raises(ValueError):
        assemble(Assembly(()))
    with pytest.raises(ValueError):
        assemble(Assembly((hex1, hex2)))  # not connected
    with pytest.raises(ValueError):
        build_edge((hex1, hex2), (0, 3), (0, 3))  # same piece
    with pytest.raises(ValueError):
        build_edge((hex1, hex2), (0, 1), (1, 2))  # incompatible cones
    with pytest.raises(ValueError, match="piece id 2 is outside 0..1"):
        build_edge((hex1, hex2), (0, 3), (2, 3))
    with pytest.raises(TypeError, match="piece 1 must be a marked data set"):
        assemble(Assembly((hex1, hex2.base)))
    with pytest.raises(ValueError, match="all pieces must share one degree"):
        assemble(Assembly((hex1, ds("(5_+,0;(1,5),(1,5),(3,5),[1])"))))
    pieces = (hex1, hex2)
    edge = build_edge(pieces, (0, 3), (1, 3))
    with pytest.raises(ValueError):
        assemble(Assembly(pieces, (edge, edge)))  # slot glued twice
    with pytest.raises(ValueError):
        assemble(Assembly((ds("(3_+,1;(1,3),(2,3),[1])"),)))  # not type 1 shape
    for marks, message in [("[]", "piece 0: marked data set has no marks"),
                           ("[1,1]", "piece 0: mark indices must be distinct"),
                           ("[4]", "piece 0: mark 4 is outside the cone index "
                                   "range 1..3")]:
        piece = ds(f"(6_+,0;(1,2),(1,3),(1,6),{marks})")
        with pytest.raises(ValueError, match=message):
            assemble(Assembly((piece,)))
    for self_edge, message in [
            ((1, 1, 2), "piece id 1 is outside 0..0"),
            ((-1, 1, 2), "piece id -1 is outside 0..0"),
            ((0, 2, 1), "need r < s, got r=2, s=1"),
            ((0, 2, 2), "need r < s, got r=2, s=2"),
            ((0, 0, 1), "r=0 is outside the cone index range 1..3"),
            ((0, 1, 4), "s=4 is outside the cone index range 1..3"),
            ((0, 1, 2), r"cones \(1,2\) and \(1,3\) are not compatible")]:
        with pytest.raises(ValueError, match=message):
            assemble(Assembly((hex1,), (), (self_edge,)))


def test_a_bad_edge_raises_when_the_assembly_is_built():
    pieces = (ds("(6_+,0;(1,2),(1,3),(1,6),[1])"),
              ds("(6_+,0;(1,2),(2,3),(5,6),[1])"))
    with pytest.raises(ValueError, match=r"cones \(1,2\) of piece 0 and "
                                         r"\(2,3\) of piece 1 are not"):
        Assembly(pieces, (GluingEdge((0, 1), (1, 2)),))
    # an unchecked edge with list slots is checked and stored as tuples
    built = Assembly(pieces, (GluingEdge([0, 3], [1, 3]),))
    assert built.edges == (build_edge(pieces, (0, 3), (1, 3)),)


@pytest.mark.parametrize("fields, message", [
    ({"edges": [((0, 3), (1, 3))]}, "edge 0 must be a GluingEdge"),
    ({"edges": 5}, "edges must be a tuple or a list, got 5"),
    ({"self_edges": 5}, "self_edges must be a tuple or a list, got 5"),
    ({"pieces": 5}, "pieces must be a tuple or a list, got 5"),
])
def test_assembly_type_errors_name_the_field(fields, message):
    pieces = (ds("(6_+,0;(1,2),(1,3),(1,6),[1])"),
              ds("(6_+,0;(1,2),(2,3),(5,6),[1])"))
    args = {"pieces": pieces, "edges": (GluingEdge((0, 3), (1, 3)),),
            **fields}
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        Assembly(**args)


def test_single_piece_assembly_is_identity_like():
    piece = ds("(6_-,0;(1,2),(2,3),(5,6),[3])")
    result = assemble(Assembly((piece,)))
    assert result.data_set == piece
    assert result.word.tokens == (Ext(0, "-"), Rot(3, boundary_slope(5, 6, "-")))
    assert not result.word.positive


def test_assembly_json_roundtrip():
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[3])"),
        ds("(6_+,0;(1,3),(5,6),(5,6),[2,3])"),
    )
    a = Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),))
    assert assembly_from_json(assembly_to_json(a)) == a


def test_assembly_json_accepts_notation_pieces():
    obj = {
        "pieces": ["(6_+,0;(1,2),(1,3),(1,6),[3])",
                   "(6_+,0;(1,3),(5,6),(5,6),[2,3])"],
        "edges": [{"left": [0, 3], "right": [1, 3]}],
    }
    pieces = (
        ds("(6_+,0;(1,2),(1,3),(1,6),[3])"),
        ds("(6_+,0;(1,3),(5,6),(5,6),[2,3])"),
    )
    assert assembly_from_json(obj) == \
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),))


def test_assembly_json_rejects_malformed_payloads():
    with pytest.raises(ValueError):
        assembly_from_json({"edges": []})  # no pieces at all
    with pytest.raises(ValueError):
        assembly_from_json({"pieces": [None]})
    with pytest.raises(ValueError,
                       match="assembly piece 0 must be a marked data set"):
        assembly_from_json({"pieces": ["(6,0;(1,2),(1,3),(1,6))"]})
    piece = "(6_+,0;(1,2),(1,3),(1,6),[3])"
    for pieces in (3, None, piece, {piece: 1}):  # not a list of pieces
        with pytest.raises(ValueError, match="needs a 'pieces' list"):
            assembly_from_json({"pieces": pieces})
    with pytest.raises(ValueError, match="c must be an integer"):
        assembly_from_json({"pieces": [{"degree": 5, "quotient_genus": 0,
                                        "rotation": 0,
                                        "cone_pairs": [["a", 5]]}]})
    with pytest.raises(ValueError):
        assembly_from_json({"pieces": ["(6_+,0;(1,2),(1,3),(1,6),[3])"] * 2,
                            "edges": [{"left": [0, 3]}]})  # edge missing a side


PENTAGONS = ["(5_+,0;(2,5),(3,5),(1,5),[3])", "(5_+,0;(4,5),(3,5),(3,5),[1])"]


@pytest.mark.parametrize("fields,message", [
    ({"edges": [[0, 3]]}, "assembly edge 0 must be an object with 'left' "
                          "and 'right', got [0, 3]"),
    ({"edges": "ab"}, "assembly 'edges' must be a list, got 'ab'"),
    ({"edges": 5}, "assembly 'edges' must be a list, got 5"),
    ({"self_edges": 5}, "assembly 'self_edges' must be a list, got 5"),
])
def test_assembly_json_errors_name_the_field(fields, message):
    with pytest.raises(ValueError) as info:
        assembly_from_json({"pieces": PENTAGONS, **fields})
    assert str(info.value) == message


@pytest.mark.parametrize("edges,self_edges,message", [
    # coerced or read as ints, each of these is a different, valid assembly
    ([], [[0, 1.9, 2.2]], "self edge must be 3 integers, got [0, 1.9, 2.2]"),
    ([], [["0", "1", "2"]], "self edge must be 3 integers, got ['0', '1', '2']"),
    ([], [[True, 1, 2]], "self edge must be 3 integers, got [True, 1, 2]"),
    ([], ["012"], "self edge must be 3 integers, got '012'"),
    ([{"left": [False, 3], "right": [True, 1]}], [],
     "left must be 2 integers, got [False, 3]"),
    # a float or a slot of the wrong length must not reach an index
    ([{"left": [0, 3.0], "right": [1, 1]}], [],
     "left must be 2 integers, got [0, 3.0]"),
    ([{"left": [0, 3], "right": [1.0, 1]}], [],
     "right must be 2 integers, got [1.0, 1]"),
    ([{"left": [0, 3, 1], "right": [1, 1]}], [],
     "left must be 2 integers, got [0, 3, 1]"),
])
def test_assembly_json_slots_are_integers(edges, self_edges, message):
    obj = {"pieces": PENTAGONS, "edges": edges, "self_edges": self_edges}
    with pytest.raises(ValueError) as info:
        assembly_from_json(obj)
    assert str(info.value) == message
    # the same slots written as integers make a valid assembly
    obj = {"pieces": PENTAGONS, "edges": [{"left": [0, 3], "right": [1, 1]}],
           "self_edges": [[0, 1, 2]]}
    assert assemble(assembly_from_json(obj)).data_set == \
        ds("(5_+,1;(3,5),(3,5),[])")


def test_tokens_and_words_print_their_text_form():
    from fractions import Fraction

    word = MonodromyWord((Ext(0), Ext(1, "-"), Twist("edge0", 1),
                          Twist("selfedge0", -2, orbit=3),
                          Rot(2, Fraction(1, 3)), Rot(4, Fraction(-5, 6)),
                          Rot(5, Fraction(0))))
    assert str(word) == ("ext(0,+) ext(1,-) twist(edge0,+1) "
                         "twist(selfedge0,-2) rot(2,1/3) rot(4,-5/6) rot(5,0)")
    assert str(MonodromyWord(())) == ""
