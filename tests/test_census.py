import gc
import importlib.util
import json
import os
import sys
from collections import Counter
from dataclasses import replace
from enum import IntEnum
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from perisurf.census import (
    CensusQuery,
    CensusRecord,
    _cell,
    _divisors,
    _record_line,
    _residue_tuples,
    _units,
    census,
    cyclic_degree_cap,
    degree_cap,
    enumerate_data_sets,
    enumerate_irreducible,
    enumerate_oracle,
    read_census,
    record_to_json,
    write_census,
)
from perisurf.core import (
    ConePair,
    DataSet,
    _residues_decide,
    _rh_genus,
    classify,
    data_set_from_json,
    format_data_set,
    genus,
    parse_data_set,
    validate,
)
from perisurf.realization import polygon_realization, verify_realization
from reference import _residue_tuples_by_filter, _rh_genus_by_fractions


def names(records):
    return {format_data_set(d) for d in records}


def test_enumerate_degree_two_genus_one():
    assert names(enumerate_data_sets(2, 1)) == {
        "(2,0;(1,2),(1,2),(1,2),(1,2))",
        "(2,1,1;-)",
    }


def test_enumerate_degree_six_genus_one():
    assert names(enumerate_data_sets(6, 1)) == {
        "(6,0;(1,2),(1,3),(1,6))",
        "(6,0;(1,2),(2,3),(5,6))",
        "(6,1,1;-)",
        "(6,1,5;-)",
    }


def test_enumerate_degree_five_genus_two():
    got = names(enumerate_data_sets(5, 2))
    assert "(5,0;(1,5),(1,5),(3,5))" in got
    assert got == {
        "(5,0;(1,5),(1,5),(3,5))",
        "(5,0;(1,5),(2,5),(2,5))",
        "(5,0;(2,5),(4,5),(4,5))",
        "(5,0;(3,5),(3,5),(4,5))",
    }


def test_enumerate_degree_one_is_empty():
    for g in range(0, 4):
        assert enumerate_data_sets(1, g) == []
        assert enumerate_oracle(1, g) == []


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_data_sets(0, 2)
    with pytest.raises(ValueError):
        enumerate_data_sets(3, -1)
    with pytest.raises(ValueError, match="degree must be positive, got 0"):
        enumerate_oracle(0, 2)
    with pytest.raises(ValueError, match="genus must be non-negative, got -1"):
        enumerate_oracle(3, -1)
    # a float or a bool is no integer, though 6.0 == 6 and True == 1
    for enumerate_ in (enumerate_data_sets, enumerate_oracle):
        for n, g, field in ((6.0, 1, "degree"), (True, 0, "degree"),
                            (3, 1.0, "genus"), (3, False, "genus")):
            with pytest.raises(TypeError, match=f"{field} must be an integer"):
                enumerate_(n, g)
    with pytest.raises(TypeError, match="degree must be an integer"):
        enumerate_irreducible(6.0)


def test_enumerator_matches_oracle_on_small_grid():
    for n in range(1, 9):
        for g in range(0, 4):
            fast = enumerate_data_sets(n, g)
            slow = enumerate_oracle(n, g)
            assert fast == slow, (n, g, names(fast) ^ names(slow))


def test_everything_enumerated_is_valid_and_canonical():
    for n in range(2, 9):
        for d in enumerate_data_sets(n, 2):
            assert validate(d).valid
            assert parse_data_set(format_data_set(d)) == d
            assert sorted(d.cone_pairs, key=lambda p: (p.order, p.c)) == \
                list(d.cone_pairs)


def test_genus_two_degree_window():
    assert enumerate_data_sets(10, 2)
    for n in range(11, 21):
        assert enumerate_data_sets(n, 2) == []


def test_degree_cap():
    assert degree_cap(2) == 84
    assert degree_cap(3) == 168
    with pytest.raises(ValueError):
        degree_cap(1)


def test_cyclic_degree_cap():
    assert cyclic_degree_cap(2) == 10
    assert cyclic_degree_cap(10) == 42
    with pytest.raises(ValueError):
        cyclic_degree_cap(1)


def test_oracle_finds_nothing_above_the_wiman_bound():
    for g in (2, 3):
        for n in range(cyclic_degree_cap(g) + 1, degree_cap(g) + 1):
            assert enumerate_oracle(n, g) == [], (n, g)


def test_wiman_bound_is_attained():
    for g in range(2, 11):
        assert enumerate_data_sets(cyclic_degree_cap(g), g), g


def test_census_equals_the_sweep_up_to_the_hurwitz_bound():
    for g in range(2, 7):
        swept = CensusQuery(genus=g, degrees=tuple(range(1, degree_cap(g) + 1)))
        assert census(CensusQuery(genus=g), workers=1) == census(swept, workers=1)


@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=6),
       st.lists(st.integers(min_value=1, max_value=60), max_size=8))
@example(6, 0, [4, 5])
@example(7, 1, [])
def test_integer_rh_genus_matches_fraction_formula(n, g0, orders):
    got = _rh_genus(n, g0, orders)
    want = _rh_genus_by_fractions(n, g0, orders)
    assert got == want
    assert str(got) == str(want)


@given(st.integers(min_value=2, max_value=24).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(_divisors(n)),
                                             min_size=1, max_size=4))))
@example((12, [2, 3, 4, 12]))
@example((8, [2, 2]))  # fails the lcm check
# the last run's final residue is solved: runs of count 2 and 3, and a last
# run whose weight n // order exceeds 1
@example((12, [2, 6, 6]))
@example((8, [4, 4, 4]))
@example((24, [3, 8, 8]))
@example((30, [30, 30]))
def test_residue_tuples_match_filtered_enumeration(cell):
    n, orders = cell
    orders = tuple(sorted(orders))
    assert _residue_tuples(n, orders, {o: _units(o) for o in orders}) == \
        _residue_tuples_by_filter(n, orders)


def test_two_full_order_residues_match_filtered_enumeration():
    for n in range(2, 61):
        assert _residue_tuples(n, (n, n), {n: _units(n)}) == \
            _residue_tuples_by_filter(n, (n, n)), n


def test_genus_zero_cell_of_a_large_degree():
    # (c, n), (n - c, n) for each unit c <= n/2: phi(4000)/2 sets, solved
    # one per unit rather than picked from every pair of units
    sets = enumerate_data_sets(4000, 0)
    assert len(sets) == 800
    assert all(d.cone_pairs[0].c + d.cone_pairs[1].c == 4000 for d in sets)
    # one label serves every set of the multiset: the lemma at _cell
    for _, d, label in _cell(4000, 0):
        assert label == "rotational" == classify(d).label, d


def test_cell_lists_the_units_of_each_cone_order_once(monkeypatch):
    # the residue tuples and the free rotations read each order's units
    # from the cell's cone table, so each order's units are listed once per
    # cell
    calls = Counter()

    def counting(m):
        calls[m] += 1
        return _units(m)

    monkeypatch.setattr(sys.modules["perisurf.census"], "_units", counting)
    assert len(_cell(42, 10)) == 12
    assert calls == {2: 1, 21: 1, 42: 1}
    calls.clear()
    assert len(_cell(8, 2)) == 2
    assert calls == {2: 1, 8: 1}
    # the free rotations read the units of the degree from the same table
    calls.clear()
    _cell(6, 1)
    assert calls == {2: 1, 3: 1, 6: 1}
    # and the cells of one enumerate_irreducible call share one table
    calls.clear()
    enumerate_irreducible(12)
    assert set(calls.values()) == {1}


def test_residues_never_change_the_class_of_a_valid_set():
    # the lemma at census._cell, over every residue choice rather than the
    # generator's: each valid set whose cone orders let the residues decide
    # the class is rotational
    shapes = [(n, (n, n)) for n in range(3, 31)]
    shapes += [(2, (2,) * count) for count in (4, 6, 8)]
    rotational = 0
    for n, orders in shapes:
        assert _residues_decide(n, orders)
        for g0, cs in product(range(3), product(*map(_units, orders))):
            d = DataSet(n, g0, 0, tuple(map(ConePair, cs, orders)))
            if validate(d).valid:
                assert classify(d).label == "rotational", d
                rotational += 1
    assert rotational == 3 * (sum(len(_units(n)) for n in range(3, 31)) + 3)
    # an invalid set of that shape need not be: classify keeps the check
    assert classify(parse_data_set("(5,0;(1,5),(1,5))")).label == "type2"


@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda g: st.tuples(st.integers(min_value=1,
                                    max_value=cyclic_degree_cap(max(g, 2))),
                        st.just(g))))
def test_everything_enumerated_validates_with_its_genus(cell):
    n, g = cell
    for d in enumerate_data_sets(n, g):
        assert validate(d).valid, d
        assert genus(d) == g


def test_divisors_match_naive_list():
    for n in range(0, 3001):
        assert _divisors(n) == [d for d in range(2, n + 1) if n % d == 0], n
    assert len(_divisors(10**9)) == 99
    assert enumerate_data_sets(10**9, 2) == []


def test_enumerate_irreducible():
    got = enumerate_irreducible(6)
    assert names(got) == {
        "(6,0;(1,2),(1,3),(1,6))",
        "(6,0;(1,2),(2,3),(5,6))",
        "(6,0;(1,3),(5,6),(5,6))",
        "(6,0;(2,3),(1,6),(1,6))",
    }
    assert enumerate_irreducible(1) == []
    # agrees with filtering full censuses by class
    from perisurf.core import classify
    for n in (5, 8, 12):
        by_class = set()
        for g in range(0, 8):
            for d in enumerate_data_sets(n, g):
                if classify(d).label == "type1-irreducible":
                    by_class.add(d)
        assert set(enumerate_irreducible(n)) == by_class


def test_census_query_validation():
    with pytest.raises(ValueError):
        CensusQuery()
    with pytest.raises(ValueError):
        CensusQuery(genus=2, max_genus=3)
    for bad in ({"genus": -1}, {"max_genus": -1}):
        with pytest.raises(ValueError, match="non-negative"):
            CensusQuery(**bad)
    for bad, field in (({"genus": True}, "genus"), ({"genus": 2.5}, "genus"),
                       ({"max_genus": True}, "max_genus"),
                       ({"genus": 2, "degrees": (2, True)}, "degree"),
                       ({"genus": 2, "degrees": (2.5,)}, "degree")):
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            CensusQuery(**bad)
    for bad in ("type-1", "Type2", ""):
        with pytest.raises(ValueError, match=f"class must be one of .*, "
                                             f"got {bad!r}"):
            CensusQuery(genus=2, action_class=bad)
    with pytest.raises(ValueError):
        census(CensusQuery(genus=1), workers=1)  # unbounded without degrees
    for bad in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            census(CensusQuery(genus=2, degrees=(5,)), workers=bad)


def test_census_records():
    records = census(CensusQuery(genus=2, degrees=(2, 3, 5, 6)), workers=1)
    assert names(r.data_set for r in records) >= {
        "(5,0;(1,5),(1,5),(3,5))",
        "(2,0;(1,2),(1,2),(1,2),(1,2),(1,2),(1,2))",
    }
    for r in records:
        assert r.genus == 2
        if r.action_class == "type1-irreducible":
            assert r.polygon_verified is True
        else:
            assert r.polygon_verified is None


def test_census_class_filter(monkeypatch):
    # the filter drops rows before their records, and polygons, are built
    built = []
    monkeypatch.setattr(sys.modules["perisurf.realization"], "_polygon_shape",
                        lambda *args: built.append(args))
    records = census(CensusQuery(genus=2, degrees=(2, 3, 4, 5, 6),
                                 action_class="rotational"), workers=1)
    assert records
    assert all(r.action_class == "rotational" for r in records)
    assert built == []


def test_polygon_flags_equal_the_public_verifier():
    # the census checks each polygon shape once; every irreducible record
    # still reads what the public verifier says of its own polygon
    for g in range(2, 13):
        irreducible = [r for r in census(CensusQuery(genus=g))
                       if r.action_class == "type1-irreducible"]
        assert irreducible
        for r in irreducible:
            report = verify_realization(polygon_realization(r.data_set),
                                        r.data_set)
            assert r.polygon_verified is report.ok, r.data_set


def test_polygon_checks_are_shared_only_within_one_rotation_subgroup(
        monkeypatch):
    # two records of one cell get one pairing, and the second a rotation
    # step that generates another rotation subgroup, under which that
    # pairing is not equivariant: only the second may fail
    realization_module = sys.modules["perisurf.realization"]
    shape = realization_module._polygon_shape
    # the genus-3 cell of degree 8 has six irreducible sets, and the first
    # one's pairing commutes only with rotations by an even step
    query = CensusQuery(genus=3, degrees=(8,))
    first, second = [r.data_set for r in census(query)
                     if r.action_class == "type1-irreducible"][:2]
    n, k, z_offset, step = shape(first)
    shared = polygon_realization(first)
    bad = next(s for s in range(k)
               if not verify_realization(replace(shared, rotation_step=s),
                                         second).equivariance_ok)
    assert gcd(bad, k) != gcd(step, k)

    def patched(d):
        return (n, k, z_offset, bad) if d == second else shape(d)

    monkeypatch.setattr(realization_module, "_polygon_shape", patched)
    flags = {r.data_set: r.polygon_verified for r in census(query)
             if r.action_class == "type1-irreducible"}
    assert flags.pop(first) is True
    assert flags.pop(second) is False
    assert flags and all(v is True for v in flags.values())


def test_census_checks_each_polygon_shape_once(monkeypatch):
    # the 738 irreducible records of genera 4 to 10 have 143 polygon
    # shapes; the pairing checks and the equivariance run once per shape
    # and census call, not once per record
    realization_module = sys.modules["perisurf.realization"]
    calls = Counter()

    def counted(name):
        original = getattr(realization_module, name)

        def counting(*args):
            calls[name] += 1
            return original(*args)
        return counting

    for name in ("_pairing_checks", "_equivariant"):
        monkeypatch.setattr(realization_module, name, counted(name))
    irreducible = sum(r.action_class == "type1-irreducible"
                      for g in range(4, 11)
                      for r in census(CensusQuery(genus=g)))
    assert irreducible == 738
    assert calls == {"_pairing_checks": 143, "_equivariant": 143}


def test_census_and_cli_read_the_report_verdict(monkeypatch, capsys):
    # RealizationReport.ok is the one rule for a verified polygon: a census
    # record and `polygon --json` both read it, so a stricter rule there
    # reaches both
    from perisurf import cli
    from perisurf.realization import RealizationReport

    monkeypatch.setattr(RealizationReport, "ok", property(lambda self: False))
    records = census(CensusQuery(genus=2, degrees=(2, 3, 4, 5, 6)))
    flags = [r.polygon_verified for r in records
             if r.action_class == "type1-irreducible"]
    assert len(flags) == 6 and not any(flags)
    assert cli.main(["polygon", "(6,0;(1,2),(1,3),(1,6))", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["verification"]["ok"] is False


def test_census_parallel_matches_serial():
    query = CensusQuery(genus=2, degrees=tuple(range(1, 11)))
    serial = census(query, workers=1)
    parallel = census(query, workers=2)
    assert serial == parallel


def test_census_starts_no_process(monkeypatch):
    # every cell runs in the calling process, whatever workers= says; eight
    # cores are reported so that a pool capped by the core count would
    # start on a one-core host too
    import multiprocessing.process

    started = []
    start = multiprocessing.process.BaseProcess.start

    def counting(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    query = CensusQuery(genus=2, degrees=(5, 6, 8, 10))
    assert census(query, workers=8) == census(query, workers=1)
    assert started == []


def test_census_jsonl_roundtrip(tmp_path):
    records = census(CensusQuery(genus=2, degrees=(5, 6, 8)), workers=1)
    path = tmp_path / "census.jsonl"
    assert write_census(records, path) == len(records)
    assert read_census(path) == records


def test_census_write_and_read_leave_no_cyclic_garbage(tmp_path):
    # everything a census, its JSONL write and its read-back allocate is
    # freed by reference counting; garbage left to the cycle collector
    # would make its full passes, and their cost, land inside census calls
    path = tmp_path / "census.jsonl"
    query = CensusQuery(genus=6)
    census(query, workers=1)  # load every module the census uses
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        write_census(census(query, workers=1), path)
        read_census(path)
        gc.collect()
        left = Counter(type(o).__name__ for o in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not left, left


def test_read_census_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"degree": 5, "quotient_genus": 0, "rotation": 0, '
                    '"cone_pairs": [[1,5],[1,5],[3,5]], "genus": 2, '
                    '"class": "type1-irreducible", "polygon_verified": true}\n'
                    "not json\n")
    with pytest.raises(ValueError, match="line 2"):
        read_census(path)


@pytest.mark.parametrize("line", ["[1,2]", '"x"'])
def test_read_census_rejects_json_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match="line 1: a census record is a JSON"):
        read_census(path)
    with pytest.raises(ValueError, match="a data set is a JSON object"):
        data_set_from_json(json.loads(line))


# --- the record path: class per multiset, order, line formats ---------------


def _file_line(r):
    return json.dumps(record_to_json(r), sort_keys=True)


def _cli_line(r):
    return json.dumps(record_to_json(r), separators=(",", ":"))


def _census_records(genera):
    return [r for g in genera for r in census(CensusQuery(genus=g), workers=1)]


def _oracle_grid_records():
    # the grid of acceptance criterion 4: degree <= 12, genus <= 4
    return census(CensusQuery(max_genus=4, degrees=tuple(range(1, 13))),
                  workers=1, oracle=True)


def test_record_lines_equal_json_dumps():
    records = _census_records(range(2, 15)) + _oracle_grid_records()
    assert len(records) > 5000
    for r in records:
        for verified in (None, True, False):
            v = replace(r, polygon_verified=verified)
            assert _record_line(v) == _file_line(v)
            assert _record_line(v, compact=True) == _cli_line(v)


class _Small(IntEnum):
    TWO = 2


@pytest.mark.parametrize("record", [
    # fields of types a census never gives take the json.dumps path; the
    # free rotation, with no cone pairs, takes the direct one
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), "1", "type2", None),
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), 1, "other", None),
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), 1, 'q"uote', 1),
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), 1, "type2", 0),
    CensusRecord(DataSet(_Small.TWO, 0, 0, (ConePair(1, 2),)), 1, "type2", None),
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, _Small.TWO),)), 1, "type2", None),
    CensusRecord(DataSet(3, 1, 1), 4, "rotational", None),
    # a flag or genus equal to a census value but not of its type
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), 1, "type2", 1),
    CensusRecord(DataSet(2, 0, 0, (ConePair(1, 2),) * 4), True, "type2", None),
])
def test_record_lines_of_unusual_records_equal_json_dumps(record):
    assert _record_line(record) == _file_line(record)
    assert _record_line(record, compact=True) == _cli_line(record)


def test_class_per_multiset_equals_classify():
    records = _census_records(range(2, 21))
    free = full = 0
    for r in records:
        assert r.action_class == classify(r.data_set).label, r
        d = r.data_set
        free += d.rotation != 0
        full += bool(d.cone_pairs) and all(p.order == d.degree
                                           for p in d.cone_pairs)
    # both cases the class rule singles out occur
    assert free and full
    # and so do the records whose residues decide their class, such as
    # (5,1;(1,5),(4,5)) and (2,1;(1,2)x4)
    for n, g in ((5, 5), (2, 3)):
        assert any(_residues_decide(n, [p.order for p in d.cone_pairs])
                   for _, d, _ in _cell(n, g))


@st.composite
def _cells(draw):
    # (degree, genus) of any cell, or of one that holds free rotations
    if draw(st.booleans()):
        g = draw(st.integers(min_value=0, max_value=14))
        n = draw(st.integers(min_value=1, max_value=cyclic_degree_cap(max(g, 2))))
        return n, g
    n = draw(st.integers(min_value=1, max_value=12))
    return n, 1 + n * draw(st.integers(min_value=0, max_value=3))


@given(_cells())
@example((2, 1))    # (1,2)x4 is all full order, and rotational
@example((2, 3))    # free rotations beside (1,2)x8 and (1,2)x4
@example((5, 2))    # only all-full-order multisets
@example((12, 13))  # free rotations beside cone sets of g0 = 0 and 1
@example((5, 5))    # (1,5),(4,5) over g0 = 1: two full-order cones
@example((10, 2))
@settings(deadline=None)  # the cell (12, 37) alone can take 0.4 s
def test_cells_are_sorted_by_text_without_duplicates(cell):
    n, g = cell
    entries = _cell(n, g)
    sets = [d for _, d, _ in entries]
    assert [text for text, _, _ in entries] == [format_data_set(d) for d in sets]
    assert sets == sorted(sets, key=format_data_set)
    assert len(set(sets)) == len(sets)
    for _, d, label in entries:
        assert label == classify(d).label, d


_GOOD = {"degree": 5, "quotient_genus": 0, "rotation": 0,
         "cone_pairs": [[1, 5], [1, 5], [3, 5]], "genus": 2,
         "class": "type1-irreducible", "polygon_verified": True}


def _with(field, value, slot=None):
    obj = json.loads(json.dumps(_GOOD))
    if slot is None:
        obj[field] = value
    else:
        obj["cone_pairs"][1][slot] = value
    return obj


@pytest.mark.parametrize("value", [True, 1.0, "1"])
@pytest.mark.parametrize("field, slot", [
    ("cone_pairs", 0), ("cone_pairs", 1), ("degree", None),
    ("quotient_genus", None),
])
def test_read_census_rejects_non_integers(tmp_path, field, slot, value):
    path = tmp_path / "bad.jsonl"
    # the good line first: its pairs are in the reader's table when the
    # bad line arrives, and (True, 5) would find the (1, 5) there
    bad = _with(field, value, slot)
    path.write_text(json.dumps(_GOOD) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=r"line 2: .* must be an integer"):
        read_census(path)


@pytest.mark.parametrize("fields, message", [
    ({"genus": "x", "class": [1], "polygon_verified": "maybe"}, ""),
    ({"genus": "x"}, "genus must be an integer, got 'x'"),
    ({"genus": True}, "genus must be an integer, got True"),
    ({"genus": 2.0}, "genus must be an integer, got 2.0"),
    ({"genus": None}, "genus must be an integer, got None"),
    ({"class": [1]}, r"class must be one of .*, got \[1\]"),
    ({"class": "type3"}, "class must be one of .*, got 'type3'"),
    ({"class": None}, "class must be one of .*, got None"),
    ({"polygon_verified": "maybe"},
     "polygon_verified must be true, false or null, got 'maybe'"),
    ({"polygon_verified": 1},
     "polygon_verified must be true, false or null, got 1"),
    ({"polygon_verified": 0.0},
     "polygon_verified must be true, false or null, got 0.0"),
    ({"sign": "+", "marks": [3]}, "census records hold plain data sets"),
])
def test_read_census_rejects_bad_record_fields(tmp_path, fields, message):
    path = tmp_path / "bad.jsonl"
    bad = dict(_GOOD, **fields)
    path.write_text(json.dumps(_GOOD) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ValueError, match=f"line 2: {message}"):
        read_census(path)


@pytest.mark.parametrize("verified", [None, True, False])
def test_read_census_accepts_every_polygon_flag(tmp_path, verified):
    path = tmp_path / "good.jsonl"
    # blank lines are skipped
    path.write_text("\n" + json.dumps(dict(_GOOD, polygon_verified=verified))
                    + "\n  \n")
    (record,) = read_census(path)
    assert record.polygon_verified is verified
    assert (record.genus, record.action_class) == (2, "type1-irreducible")


def test_read_census_shares_cone_pairs_within_a_file(tmp_path):
    records = census(CensusQuery(genus=3, degrees=(7, 8, 12)), workers=1)
    path = tmp_path / "c.jsonl"
    write_census(records, path)
    back = read_census(path)
    assert back == records
    by_value = {}
    for r in back:
        for p in r.data_set.cone_pairs:
            assert by_value.setdefault((p.c, p.order), p) is p


def test_run_census_script_summarizes_genus_two(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_census.py"
    spec = importlib.util.spec_from_file_location("run_census", path)
    script = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "run_census", script)
    spec.loader.exec_module(script)
    assert script.main(["--genus", "2", "--workers", "1"]) == 0
    assert capsys.readouterr().out.startswith("17 data sets in ")
