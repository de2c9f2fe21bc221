"""Exhaustive censuses of data sets by degree and surface genus.

Two enumeration strategies live here on purpose.  ``enumerate_data_sets``
generates candidates directly in canonical order with arithmetic pruning;
``enumerate_oracle`` is a deliberately plain nested-loop sweep (quotient
genus, cone count, divisor multisets, residue tuples) that leans entirely
on :func:`perisurf.core.validate`.  Tests hold the two equal — the oracle is
the arbiter.

Degree-1 actions are outside the formalism (no rotation number fits a free
action and no cone order at least 2 divides 1), so every census at degree 1
is empty.  For surface genus at least 2 the degree is bounded.  Any finite
group action obeys the Hurwitz bound 84*(genus-1) (:func:`degree_cap`), but
a data set describes a cyclic action, whose order is at most 4*genus+2
(Wiman 1895; Harvey, "Cyclic groups of automorphisms of a compact Riemann
surface", Quart. J. Math. 17, 1966).  A census therefore sweeps degrees
1..4*genus+2 (:func:`cyclic_degree_cap`); tests hold the oracle empty above
that bound.  Genus 0 and 1 admit infinite families (free rotations of every
degree act on the torus), hence a census there demands an explicit degree
filter.

The generator works in integers: deficiencies are scaled by the degree, and
order multisets that fail the lcm condition ``iv`` are dropped before any
residue tuple is built for them.  Residue tuples are built over every run of
equal orders but the last, and the last residue is solved for: with
``w = n // order`` for the last run, a completion exists only when ``w``
divides what the other residues leave of the weighted sum mod ``n``, and
then it is the one residue mod ``order`` that brings the sum to 0; it is
kept when it is a unit no smaller than the run's previous residue.  So
condition ``v`` holds by construction, and a cell with two full-order cones
costs one step per unit rather than one per pair of units.  Conditions
``i``, ``ii``, ``iv`` and the genus depend only on the order multiset and
``iii`` holds by the choice of units, so :func:`perisurf.core.validate`
runs once per order multiset, on its first emitted data set, rather than
once per data set; a free rotation cell is checked the same way, on its
first unit.  Tests hold every emitted data set valid over random cells, and
the oracle equal to the generator on a grid.

The census keeps nothing on the data sets it makes.  :func:`validate`,
:func:`genus` and :func:`classify` keep their value on a data set
(``core._kept``), which pays off on an object that is asked again; the
generator and the oracle ask once and discard most candidates, so they
call the rules behind those functions (``core._validate``, ``_genus`` and
``_classify``) directly, and no record's data set holds a kept value.

Each irreducible record's ``polygon_verified`` is what
:func:`perisurf.realization.verify_realization` says of its polygon.  One
census call checks each distinct polygon shape once, and
:mod:`perisurf.realization` gives the lemma that makes that exact.  The
cone tables, one ``ConePair`` and one ``"(c,order)"`` text per unit ``c``
of each cone order, are likewise built once per call and shared by its
cells.

A cell's records are read from the integers the generator holds.  Each data
set's text rendering is joined from per-cone strings, and the cell is sorted
on it, so the output order is that of :func:`perisurf.core.format_data_set`
without formatting any data set.  The action class is decided once per order
multiset, by :func:`perisurf.core.classify` on its first data set: the
residues of a valid data set never change its class (the lemma is at
``_cell``).  The class rule and the tuple of the four class labels
(``core._CLASS_LABELS``, which a query's class filter and the record reader
and writer check against) live in :mod:`perisurf.core` alone.  Both JSON line formats, the file's
(``sort_keys=True``) and the CLI's (compact separators), are rendered from a
record's integers by one function, byte for byte equal to ``json.dumps`` of
:func:`record_to_json`; :func:`read_census` builds one ``ConePair`` per
``(c, order)`` of a file.  No step keeps a recursive closure, so a census
and its read-back leave no garbage for the cycle collector, whose full
passes would otherwise land inside census calls.

:func:`enumerate_irreducible` filters the generator's output by class
rather than enumerating irreducible sets on its own.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product, repeat
from math import gcd, isqrt
from operator import getitem, itemgetter
from pathlib import Path

from .core import (
    ConePair,
    DataSet,
    _CLASS_LABELS,
    _check_int,
    _classify,
    _data_set_from_json,
    _genus,
    _lcm_violations,
    _validate,
    canonicalize,
    data_set_to_json,
    format_data_set,
)
from .realization import _verified


def _divisors(n: int) -> list[int]:
    # divisors >= 2 in increasing order, by trial division up to sqrt(n)
    if n < 2:
        return []
    low: list[int] = []
    high: list[int] = []
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            low.append(d)
            if d * d != n:
                high.append(n // d)
    return low + high[::-1] + [n]


def _units(m: int) -> list[int]:
    return [c for c in range(1, m) if gcd(c, m) == 1]


def degree_cap(g: int) -> int:
    """Hurwitz bound: the largest order of any group acting on a surface of
    genus ``g >= 2``.  :func:`cyclic_degree_cap` is the bound for data sets."""
    if g < 2:
        raise ValueError("degree is unbounded below genus 2")
    return 84 * (g - 1)


def cyclic_degree_cap(g: int) -> int:
    """Largest degree a data set of surface genus ``g >= 2`` can have.

    A data set describes a cyclic action, and a cyclic group acting on a
    closed surface of genus ``g >= 2`` has order at most ``4g + 2`` (Wiman
    1895; Harvey, Quart. J. Math. 17, 1966).  The bound is attained for
    every such genus, e.g. by ``(4g+2,0;(1,2),(1,2g+1),(2g-1,4g+2))``.
    """
    if g < 2:
        raise ValueError("degree is unbounded below genus 2")
    return 4 * g + 2


def _list_units(tables, o: int) -> None:
    # add order o to a cell's cone tables (see _cell): each unit c of o, in
    # increasing order, with its ConePair and its text "(c,o)"
    cones, texts = tables
    units = _units(o)
    cones[o] = {c: ConePair(c, o) for c in units}
    texts[o] = {c: f"({c},{o})" for c in units}


def _free_rotations(n: int, g: int, tables) -> list[DataSet]:
    # a free rotation of degree n by any unit r acts on genus 1 + n(g0 - 1);
    # the units of n are read from the cell's cone tables
    if (g - 1) % n != 0:
        return []
    if n not in tables[0]:
        _list_units(tables, n)
    out = [DataSet(n, (g - 1) // n + 1, r) for r in tables[0][n]]
    if out:
        assert _validate(out[0]).valid and _genus(out[0]) == g, out[0]
    return out


def _order_multisets(n: int, target: int) -> list[tuple[int, ...]]:
    # non-decreasing divisor tuples whose deficiency sum hits target exactly;
    # deficiencies are scaled by n, so divisor d weighs n - n/d
    divs = _divisors(n)
    weights = [n - n // d for d in divs]
    out: list[tuple[int, ...]] = []
    _extend_multisets(out, divs, weights, 0, target, [])
    return out


def _extend_multisets(out: list[tuple[int, ...]], divs: list[int],
                      weights: list[int], start: int, remaining: int,
                      acc: list[int]) -> None:
    # the depth-first step of _order_multisets; a module-level function, so
    # that no closure refers to itself and every call is freed by reference
    # counting rather than left to the cycle collector
    if remaining == 0:
        if acc:
            out.append(tuple(acc))
        return
    for i in range(start, len(divs)):
        w = weights[i]
        if w > remaining:
            break
        acc.append(divs[i])
        _extend_multisets(out, divs, weights, i, remaining - w, acc)
        acc.pop()


def _residue_tuples(n: int, orders: tuple[int, ...],
                    cones: Mapping[int, Iterable[int]]
                    ) -> list[tuple[int, ...]]:
    # canonical residue choices: non-decreasing within each run of equal
    # orders, weighted sum divisible by the degree.  Iterating cones[o]
    # yields the units mod o in increasing order, as _units(o) lists them:
    # a cell passes its cone table, keyed by those units
    runs: list[tuple[int, int]] = []
    for o in orders:
        if runs and runs[-1][0] == o:
            runs[-1] = (o, runs[-1][1] + 1)
        else:
            runs.append((o, 1))
    *head_runs, (order, count) = runs

    # prefixes over the runs before the last, with their weighted sums mod
    # n, in enumeration order.  Built run by run, with no recursive closure,
    # so nothing here is left to the cycle collector.
    prefixes: list[tuple[tuple[int, ...], int]] = [((), 0)]
    for o, m in head_runs:
        weight = n // o
        run = [(combo, weight * sum(combo)) for combo in
               combinations_with_replacement(cones[o], m)]
        prefixes = [(acc + combo, (weighted + s) % n)
                    for acc, weighted in prefixes for combo, s in run]

    # the last run's final residue c is solved for, not searched: with
    # weight w = n // order, a prefix leaves t = -(its sum) mod n, and
    # w * c = t mod n has a solution only when w divides t, namely
    # c = t / w - (the run's other residues) mod order.  It is kept when it
    # is a unit no smaller than the run's previous residue, and c = 0 never
    # is one, since gcd(0, order) is order.
    weight = n // order
    if count == 1:
        # no other residues in the run, and no floor below the least unit
        heads = [((), 0, 1)]
    else:
        heads = [(head, sum(head), head[-1]) for head in
                 combinations_with_replacement(cones[order], count - 1)]
    out: list[tuple[int, ...]] = []
    for acc, weighted in prefixes:
        t = -weighted % n
        if t % weight:
            continue
        r = t // weight
        for head, s, low in heads:
            c = (r - s) % order
            if c >= low and gcd(c, order) == 1:
                out.append(acc + head + (c,))
    return out


def _cell(n: int, g: int, tables: tuple[dict[int, dict[int, ConePair]],
                                        dict[int, dict[int, str]]] | None = None
          ) -> list[tuple[str, DataSet, str]]:
    # every valid data set of degree n and genus g as (text, data set,
    # class label), in text order; text is format_data_set of the set, built
    # from the integers for sets with cones.  tables holds, per cone order,
    # each unit c's ConePair and its text "(c,order)", and gains the orders
    # this cell uses; pairs are immutable, so one instance per (c, order)
    # serves every cell that is passed the same tables.  Without them the
    # cell builds its own.  The free rotations read the units of n there.
    _check_int(n, "degree")
    _check_int(g, "genus")
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    if tables is None:
        tables = ({}, {})
    cones, texts = tables
    cell = [(format_data_set(d), d, _classify(d).label)
            for d in _free_rotations(n, g, tables)]

    g0 = 0
    while True:
        # 2 - 2*g0 + (2g - 2)/n, scaled by n
        target = n * (2 - 2 * g0) + 2 * g - 2
        if target <= 0:
            break
        head = f"({n},{g0};"
        for orders in _order_multisets(n, target):
            if _lcm_violations(n, g0, orders):
                continue
            # the table lists each order's units once per cell, in
            # increasing order, and the residue tuples read them from it
            for o in orders:
                if o not in cones:
                    _list_units(tables, o)
            residues = _residue_tuples(n, orders, cones)
            if not residues:
                continue
            cone_of = [cones[o] for o in orders]
            text_of = [texts[o] for o in orders]
            sets = [DataSet(n, g0, 0, tuple(map(getitem, cone_of, cs)))
                    for cs in residues]
            first = sets[0]
            assert _validate(first).valid and _genus(first) == g, first
            # one data set decides the class of the whole multiset.  Where
            # core._residues_decide holds, every valid set is rotational:
            # condition v makes the residues a unit c and n - c when n > 2,
            # and 1 each when n = 2, which is classify's rotational rule.
            cell.extend(zip([head + ",".join(map(getitem, text_of, cs)) + ")"
                             for cs in residues], sets,
                            repeat(_classify(first).label)))
        g0 += 1
    cell.sort(key=itemgetter(0))
    return cell


def enumerate_data_sets(degree: int, g: int) -> list[DataSet]:
    """All valid data sets of this degree acting on a genus-``g`` surface.

    Output is canonical, duplicate-free and sorted by text rendering.
    """
    return [d for _, d, _ in _cell(degree, g)]


def enumerate_oracle(degree: int, g: int) -> list[DataSet]:
    """Brute-force reference enumeration; slow, simple, trusted."""
    _check_int(degree, "degree")
    _check_int(g, "genus")
    if degree < 1:
        raise ValueError(f"degree must be positive, got {degree}")
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    n = degree
    found: set[DataSet] = set()

    for g0 in range(0, g + 2):
        for r in range(0, n):
            d = DataSet(n, g0, r)
            if _validate(d).valid and _genus(d) == g:
                found.add(d)

    divs = _divisors(n)
    g0 = 0
    while 2 - 2 * g0 + Fraction(2 * g - 2, n) > 0:
        target = 2 - 2 * g0 + Fraction(2 * g - 2, n)
        for count in range(1, int(2 * target) + 1):
            for orders in combinations_with_replacement(divs, count):
                if sum(1 - Fraction(1, o) for o in orders) != target:
                    continue
                for cs in product(*(_units(o) for o in orders)):
                    d = DataSet(n, g0, 0,
                                tuple(ConePair(c, o) for c, o in zip(cs, orders)))
                    if _validate(d).valid and _genus(d) == g:
                        found.add(canonicalize(d)[0])
        g0 += 1
    return sorted(found, key=format_data_set)


def enumerate_irreducible(degree: int) -> list[DataSet]:
    """All valid irreducible type 1 data sets of this degree (any genus).

    This filters the generator's cells by class label.  An irreducible set
    ``(n,0;(c1,a),(c2,b),(c3,n))`` has genus ``(n+1-n/a-n/b)/2`` by
    Riemann-Hurwitz, at most ``(n-1)/2`` because ``n/a`` and ``n/b`` are at
    least 1, so the cells of genus up to ``(n-1)//2`` hold every one.
    The cells share one set of cone tables, so each order's units are
    listed once per call.
    """
    _check_int(degree, "degree")
    tables: tuple[dict, dict] = ({}, {})
    found = [row for g in range((degree - 1) // 2 + 1)
             for row in _cell(degree, g, tables)
             if row[2] == "type1-irreducible"]
    found.sort(key=itemgetter(0))
    return [d for _, d, _ in found]


@dataclass(frozen=True)
class CensusQuery:
    """What to enumerate: one exact genus or a genus bound, with optional
    degree list and action-class filters."""

    genus: int | None = None
    max_genus: int | None = None
    degrees: tuple[int, ...] | None = None
    action_class: str | None = None

    def __post_init__(self) -> None:
        if (self.genus is None) == (self.max_genus is None):
            raise ValueError("set exactly one of genus / max_genus")
        for name in ("genus", "max_genus"):
            value = getattr(self, name)
            if value is not None:
                _check_int(value, name)
                if value < 0:
                    raise ValueError(f"{name} must be non-negative, got {value}")
        if self.degrees is not None:
            degrees = tuple(self.degrees)
            for n in degrees:
                _check_int(n, "degree")
            object.__setattr__(self, "degrees", degrees)
        if self.action_class is not None:
            _check_class(self.action_class)

    def genus_range(self) -> list[int]:
        if self.genus is not None:
            return [self.genus]
        return list(range(0, self.max_genus + 1))


@dataclass(frozen=True)
class CensusRecord:
    data_set: DataSet
    genus: int
    action_class: str
    polygon_verified: bool | None


def _build_record(d: DataSet, g: int, label: str,
                  checked: dict[tuple[int, int, int, int],
                                tuple[bool, int | None, bool]]
                  ) -> CensusRecord:
    # d comes canonical and valid from the enumerators, with genus g;
    # checked is realization's per-call table of polygon checks
    return CensusRecord(d, g, label, _verified(d, g, checked)
                        if label == "type1-irreducible" else None)


def census(query: CensusQuery, *, workers: int | None = None,
           oracle: bool = False) -> list[CensusRecord]:
    """Run a census; deterministic output order (genus, then degree).

    Every degree/genus cell runs in order in the calling process.  The
    class filter drops rows before their records, and polygons, are built.
    ``workers`` is accepted for compatibility and no longer changes how the
    census runs; it raises ``ValueError`` when below 1.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    wanted = query.action_class
    records: list[CensusRecord] = []
    # per-call memos: the polygon checks per polygon shape, and the cone
    # tables of _cell; nothing is kept from one call to the next
    checked: dict[tuple[int, int, int, int], tuple[bool, int | None, bool]] = {}
    tables: tuple[dict, dict] = ({}, {})
    for g in query.genus_range():
        if query.degrees is not None:
            degs = query.degrees
        elif g >= 2:
            degs = range(1, cyclic_degree_cap(g) + 1)
        else:
            raise ValueError(
                "a census below genus 2 has infinitely many data sets; "
                "restrict it with a degree filter")
        for n in degs:
            if oracle:
                rows = ((d, _classify(d).label) for d in enumerate_oracle(n, g))
            else:
                rows = ((d, label) for _, d, label in _cell(n, g, tables))
            records.extend([_build_record(d, g, label, checked)
                            for d, label in rows
                            if wanted is None or label == wanted])
    return records


def record_to_json(r: CensusRecord) -> dict:
    obj = data_set_to_json(r.data_set)
    obj["genus"] = r.genus
    obj["class"] = r.action_class
    obj["polygon_verified"] = r.polygon_verified
    return obj


def _record_line(r: CensusRecord, compact: bool = False) -> str:
    # json.dumps(record_to_json(r), ...) with sort_keys=True (the file
    # format) or, when compact, with separators=(",", ":") (the CLI format).
    # A record whose fields have the exact types a census gives them is
    # written straight from its integers; any other takes json.dumps.
    d, g, label, verified = r.data_set, r.genus, r.action_class, r.polygon_verified
    sep = "," if compact else ", "
    pairs = []
    plain = (type(d) is DataSet and type(g) is int
             and type(label) is str and label in _CLASS_LABELS
             and (verified is None or verified is True or verified is False)
             and type(d.degree) is type(d.quotient_genus) is type(d.rotation) is int)
    if plain:
        for p in d.cone_pairs:
            c, order = p.c, p.order
            if type(c) is not int or type(order) is not int:
                plain = False
                break
            pairs.append(f"[{c}{sep}{order}]")
    if not plain:
        if compact:
            return json.dumps(record_to_json(r), separators=(",", ":"))
        return json.dumps(record_to_json(r), sort_keys=True)
    flag = "null" if verified is None else "true" if verified else "false"
    body = sep.join(pairs)
    if compact:
        return (f'{{"degree":{d.degree},"quotient_genus":{d.quotient_genus},'
                f'"rotation":{d.rotation},"cone_pairs":[{body}],"genus":{g},'
                f'"class":"{label}","polygon_verified":{flag}}}')
    return (f'{{"class": "{label}", "cone_pairs": [{body}], '
            f'"degree": {d.degree}, "genus": {g}, "polygon_verified": {flag}, '
            f'"quotient_genus": {d.quotient_genus}, "rotation": {d.rotation}}}')


def _check_class(label) -> None:
    if label not in _CLASS_LABELS:
        raise ValueError(f"class must be one of {', '.join(_CLASS_LABELS)}, "
                         f"got {label!r}")


def _record_from_json(obj: dict, cones: dict) -> CensusRecord:
    # cones: the ConePair table of _data_set_from_json
    if not isinstance(obj, dict):
        raise ValueError("a census record is a JSON object, "
                         f"got {type(obj).__name__}")
    # the data set reader reads none of the record's own keys
    d = _data_set_from_json(obj, cones)
    if not isinstance(d, DataSet):
        raise ValueError("census records hold plain data sets")
    g, label, verified = obj["genus"], obj["class"], obj["polygon_verified"]
    if type(g) is not int:
        raise ValueError(f"genus must be an integer, got {g!r}")
    _check_class(label)
    # by identity: 1 == True and 0.0 == False
    if verified is not None and verified is not True and verified is not False:
        raise ValueError("polygon_verified must be true, false or null, "
                         f"got {verified!r}")
    return CensusRecord(d, g, label, verified)


def write_census(records, path: str | Path) -> int:
    """Write records as JSON Lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(_record_line(r) + "\n")
            count += 1
    return count


def read_census(path: str | Path) -> list[CensusRecord]:
    """Read a JSON Lines census; errors carry the offending line number."""
    out = []
    # one ConePair per (c, order) for the whole file
    cones: dict[tuple[int, int], ConePair] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(_record_from_json(json.loads(line), cones))
            except (ValueError, KeyError, TypeError) as e:
                raise ValueError(f"{path}: line {lineno}: {e}") from None
    return out
