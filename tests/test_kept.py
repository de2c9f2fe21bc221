"""Values derived once per object and kept on it.

``validate``, ``genus`` and ``classify`` keep their value on the (base) data
set, ``page_descriptor`` on the marked data set, ``surgery_description`` on
the descriptor and ``assemble`` on the assembly (``core._kept``).  These
tests pin that each is derived once, that nothing is kept when a derivation
raises, that a kept value changes no identity or output of its object, and
that the census keeps nothing.
"""

from collections import Counter
from dataclasses import fields, replace

import pytest

import perisurf.core as core
import perisurf.openbook as openbook
from perisurf.census import CensusQuery, census
from perisurf.core import (
    ConePair,
    DataSet,
    MarkedDataSet,
    canonicalize,
    classify,
    data_set_to_json,
    genus,
    parse_data_set,
    validate,
)
from perisurf.fillability import classify_marked
from perisurf.gluing import Assembly, assemble, build_edge
from perisurf.openbook import (
    UnsupportedResolution,
    integral_resolution,
    page_descriptor,
    surgery_description,
    veering,
)
from perisurf.realization import polygon_realization, verify_realization
from test_fillability import _census_markings

FIELDS = {
    DataSet: {"degree", "quotient_genus", "rotation", "cone_pairs"},
    MarkedDataSet: {"base", "sign", "marks"},
}


def _assembly() -> Assembly:
    a = parse_data_set("(3_+,0;(1,3),(1,3),(1,3),[1])")
    b = parse_data_set("(3_+,0;(2,3),(2,3),(2,3),[1])")
    return Assembly((a, b), (build_edge((a, b), (0, 1), (1, 3)),))


def test_a_second_call_returns_the_kept_object():
    # genus 1000 is not one of the ints the interpreter shares, so a genus
    # computed twice would be two objects
    d = DataSet(2, 0, 0, (ConePair(1, 2),) * 2002)
    assert genus(d) == 1000 and genus(d) is genus(d)
    m = parse_data_set("(6_-,0;(1,2),(2,3),(5,6),[3])")
    for f in (validate, genus, classify):
        assert f(m) is f(m) is f(m.base), f
    page = page_descriptor(m)
    assert page_descriptor(m) is page
    assert surgery_description(page) is surgery_description(page)
    a = _assembly()
    assert assemble(a) is assemble(a)


def test_marked_validation_adds_the_mark_violations_after_the_base_report():
    m = parse_data_set("(6_+,0;(1,2),(1,3),(5,6),[3,3,5])")
    base = validate(m.base)
    report = validate(m)
    assert report.ids() == ("v", "marks", "marks")
    assert report.violations[:-2] == base.violations
    assert validate(m.base) is base


def test_a_derivation_that_raises_keeps_nothing():
    d = DataSet(2, 0, 0, (ConePair(1, 2),))
    for _ in range(2):
        with pytest.raises(ValueError, match="genus -1/2"):
            genus(d)
        assert vars(d).keys() == FIELDS[DataSet]
    m = parse_data_set("(6_+,0;(1,2),(1,3),(1,6),[5])")
    for _ in range(2):
        with pytest.raises(ValueError, match="mark 5 is outside"):
            page_descriptor(m)
        assert vars(m).keys() == FIELDS[MarkedDataSet]


def test_kept_values_change_no_identity_or_output():
    text = "(6_-,0;(1,2),(2,3),(5,6),[3])"
    m = parse_data_set(text)
    d = m.base

    def observed():
        return [(x == parse_data_set(format(x)), hash(x), repr(x),
                 [f.name for f in fields(x)], data_set_to_json(x))
                for x in (d, m)]

    before = observed()
    for f in (validate, genus, classify):
        f(m)
    surgery_description(page_descriptor(m))
    assert len(vars(d)) > len(FIELDS[DataSet])
    assert len(vars(m)) > len(FIELDS[MarkedDataSet])
    assert observed() == before
    assert m == parse_data_set(text) and hash(m) == hash(parse_data_set(text))
    assert vars(replace(d)).keys() == FIELDS[DataSet]
    assert vars(replace(m)).keys() == FIELDS[MarkedDataSet]


def test_canonicalize_returns_a_canonical_set_itself():
    pairs = (ConePair(1, 2), ConePair(1, 3), ConePair(1, 6))
    for order in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
                  (2, 1, 0)):
        d = DataSet(6, 0, 0, tuple(pairs[i] for i in order))
        canon, perm = canonicalize(d)
        assert canon.cone_pairs == pairs
        assert perm == tuple(order.index(k) + 1 for k in range(3))
        assert (canon is d) == (order == (0, 1, 2)), order
    # equal pairs are in canonical order whatever their positions
    d = parse_data_set("(3,0;(1,3),(1,3),(1,3))")
    assert canonicalize(d) == (d, (1, 2, 3)) and canonicalize(d)[0] is d
    free = DataSet(5, 1, 2)
    assert canonicalize(free)[0] is free


def _chain(m: MarkedDataSet) -> list:
    """The query path of one marking, every stage on ``m`` itself."""
    out = [validate(m), genus(m), classify(m)]
    if classify(m).label == "type1-irreducible":
        pres = polygon_realization(m.base)
        out += [pres, verify_realization(pres, m.base)]
    page = page_descriptor(m)
    out += [page, veering(page), surgery_description(page)]
    try:
        out.append(integral_resolution(page))
    except UnsupportedResolution as exc:
        out.append(str(exc))
    out.append(classify_marked(m))
    return out


def _fresh_stages(m: MarkedDataSet) -> list:
    """The stages of :func:`_chain`, each on its own fresh copy of ``m``."""

    def fresh() -> MarkedDataSet:
        return MarkedDataSet(replace(m.base), m.sign, m.marks)

    out = [validate(fresh()), genus(fresh()), classify(fresh())]
    if classify(fresh()).label == "type1-irreducible":
        pres = polygon_realization(fresh().base)
        out += [pres, verify_realization(pres, fresh().base)]
    out += [page_descriptor(fresh()), veering(page_descriptor(fresh())),
            surgery_description(page_descriptor(fresh()))]
    try:
        out.append(integral_resolution(page_descriptor(fresh())))
    except UnsupportedResolution as exc:
        out.append(str(exc))
    out.append(classify_marked(fresh()))
    return out


def test_the_query_path_derives_each_value_once_per_object(monkeypatch):
    # the markings of one census record share its data set, so the three
    # core rules run once per record and the open-book rules once per
    # marking
    markings = list(_census_markings())
    bases = {id(m.base) for m in markings}
    calls = Counter()

    def counted(module, name):
        rule = getattr(module, name)

        def counting(obj):
            calls[name] += 1
            return rule(obj)
        monkeypatch.setattr(module, name, counting)

    for name in ("_validate", "_genus", "_classify"):
        counted(core, name)
    for name in ("_page_descriptor", "_surgery_description"):
        counted(openbook, name)
    for m in markings:
        _chain(m)
    assert (len(markings), len(bases)) == (5924, 134)
    assert calls == {"_validate": 134, "_genus": 134, "_classify": 134,
                     "_page_descriptor": 5924, "_surgery_description": 5924}


def test_sharing_does_not_change_the_values():
    count = 0
    for m in _census_markings():
        assert _chain(m) == _fresh_stages(m), m
        count += 1
    assert count == 5924


def test_census_records_keep_nothing():
    records = census(CensusQuery(genus=6))
    assert records
    assert all(vars(r.data_set).keys() == FIELDS[DataSet] for r in records)
