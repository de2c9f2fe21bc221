"""Data sets for periodic homeomorphisms of closed orientable surfaces.

A data set ``(n, g0, r; (c1,n1), ..., (cl,nl))`` records an order-``n``
cyclic action: ``g0`` is the genus of the quotient surface, ``r`` the
rotation number of a free action (nonzero exactly when there are no cone
pairs), and each cone pair ``(c_i, n_i)`` the local rotation data of a
branch orbit of the quotient map.  A *marked* data set carries a sign and a
non-empty list of marked cone indices on top: the marked orbits are the
boundary left after drilling them out of the surface.

Constructors check only structural sanity (integer fields, basic ranges) so
that parsed text can always be represented; all semantic requirements live
in :func:`validate`, which reports every violated condition instead of
stopping at the first.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def _check_int(value: object, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ConePair:
    """One branch orbit: local rotation ``c`` of local order ``order``."""

    c: int
    order: int

    def __post_init__(self) -> None:
        # an exact int always passes _check_int; other values take its test
        if type(self.c) is not int:
            _check_int(self.c, "c")
        if type(self.order) is not int:
            _check_int(self.order, "order")
        if self.order < 1:
            raise ValueError(f"cone order must be positive, got {self.order}")
        if self.c < 0:
            raise ValueError(f"cone rotation must be non-negative, got {self.c}")


@dataclass(frozen=True)
class DataSet:
    """A data set ``(degree, quotient_genus, rotation; cone_pairs)``."""

    degree: int
    quotient_genus: int
    rotation: int
    cone_pairs: tuple[ConePair, ...] = ()

    def __post_init__(self) -> None:
        if type(self.degree) is not int:
            _check_int(self.degree, "degree")
        if type(self.quotient_genus) is not int:
            _check_int(self.quotient_genus, "quotient_genus")
        if type(self.rotation) is not int:
            _check_int(self.rotation, "rotation")
        if self.degree < 1:
            raise ValueError(f"degree must be positive, got {self.degree}")
        if self.quotient_genus < 0:
            raise ValueError("quotient genus must be non-negative")
        if self.rotation < 0:
            raise ValueError("rotation must be non-negative")
        pairs = self.cone_pairs
        if type(pairs) is not tuple:
            pairs = tuple(pairs)
            object.__setattr__(self, "cone_pairs", pairs)
        for p in pairs:
            if not isinstance(p, ConePair):
                raise TypeError("cone_pairs must contain ConePair values")

    @property
    def num_pairs(self) -> int:
        return len(self.cone_pairs)

    def __str__(self) -> str:
        return format_data_set(self)


@dataclass(frozen=True)
class MarkedDataSet:
    """A data set with a sign and marked cone indices (the boundary orbits).

    ``marks`` may be structurally empty (gluing can consume every marked
    orbit); :func:`validate` flags that, and open-book operations refuse an
    empty boundary.
    """

    base: DataSet
    sign: str
    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.base, DataSet):
            raise TypeError("base must be a DataSet")
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")
        marks = tuple(self.marks)
        for m in marks:
            _check_int(m, "mark")
            if m < 1:
                raise ValueError(f"mark indices are 1-based, got {m}")
        object.__setattr__(self, "marks", marks)

    @property
    def degree(self) -> int:
        return self.base.degree

    def __str__(self) -> str:
        return format_data_set(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: the violated conditions; valid if none."""

    violations: tuple[tuple[str, str], ...] = ()

    @property
    def valid(self) -> bool:
        return not self.violations

    def ids(self) -> tuple[str, ...]:
        return tuple(cond for cond, _ in self.violations)


# every label :attr:`ActionClass.label` gives, in the order the CLI lists them
_CLASS_LABELS = ("rotational", "type1", "type1-irreducible", "type2")


@dataclass(frozen=True)
class ActionClass:
    """Classification of a data set's action.

    ``kind`` is one of ``"rotational"``, ``"type1"``, ``"type2"``;
    ``irreducible`` is meaningful for type 1 only.
    """

    kind: str
    irreducible: bool = False

    @property
    def label(self) -> str:
        if self.kind == "type1" and self.irreducible:
            return "type1-irreducible"
        return self.kind


def mod_inverse(c: int, m: int) -> int:
    """Inverse of ``c`` modulo ``m``, normalized to ``[1, m-1]``.

    Raises ``ValueError`` unless ``m >= 2`` and ``gcd(c, m) == 1``.
    """
    _check_int(c, "c")
    _check_int(m, "m")
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    try:
        return pow(c, -1, m)
    except ValueError:
        raise ValueError(f"{c} is not invertible modulo {m}") from None


def _rh_genus(degree: int, quotient_genus: int,
              orders: list[int]) -> int | Fraction:
    # Riemann-Hurwitz, 1 - n/2 * (2 - 2*g0 - sum(1 - 1/o)), over the common
    # denominator L = lcm(orders): the deficiency is sum((o-1) * L/o) / L.
    # An integral genus comes back as an int, which compares and prints as
    # the Fraction would and costs no Fraction construction.
    common = lcm(*orders) if orders else 1
    deficiency = sum((o - 1) * (common // o) for o in orders)
    euler = (2 - 2 * quotient_genus) * common - deficiency
    num, den = 2 * common - degree * euler, 2 * common
    return num // den if num % den == 0 else Fraction(num, den)


def _lcm_violations(degree: int, quotient_genus: int,
                    orders: Sequence[int]) -> list[tuple[str, str]]:
    """Condition ``iv``: the lcm of the cone orders survives dropping any one
    of them, and equals the degree when the quotient is a sphere.

    Prefix and suffix lcms give every leave-one-out lcm in O(len(orders)).
    """
    l = len(orders)
    prefix = [1] * (l + 1)
    for idx, o in enumerate(orders):
        prefix[idx + 1] = lcm(prefix[idx], o)
    suffix = [1] * (l + 1)
    for idx in range(l - 1, -1, -1):
        suffix[idx] = lcm(suffix[idx + 1], orders[idx])
    full = prefix[l]
    out: list[tuple[str, str]] = []
    for idx in range(l):
        partial = lcm(prefix[idx], suffix[idx + 1])
        if partial != full:
            out.append(("iv", f"dropping cone {idx + 1} changes the lcm of the "
                              f"cone orders from {full} to {partial}"))
    if quotient_genus == 0 and full != degree:
        out.append(("iv", f"with quotient genus 0 the lcm of the cone orders "
                          f"must equal the degree, got {full}"))
    return out


def _kept(obj, name: str, derive):
    """``derive(obj)``, computed on the first request and kept in
    ``obj.__dict__[name]`` for every later one.

    This is safe on the frozen data classes of the package: an object
    never changes, so neither does a value derived from it, and their
    ``==``, ``hash``, ``repr``, ``dataclasses.fields`` and JSON forms read
    the fields alone, never ``__dict__``.  A ``dataclasses.replace`` copy is
    a new object and keeps nothing.  A ``derive`` that raises stores
    nothing, so every request raises again.  ``derive`` never returns
    ``None``, which marks a value not yet derived.  Two threads that ask
    at once may both derive the value; they store equal values, so no lock
    is taken.
    """
    kept = obj.__dict__
    value = kept.get(name)
    if value is None:
        value = kept[name] = derive(obj)
    return value


def _genus(d: DataSet) -> int:
    # the rule behind genus(), on a plain data set
    g = _rh_genus(d.degree, d.quotient_genus, [p.order for p in d.cone_pairs])
    if g.denominator != 1 or g < 0:
        raise ValueError(f"degree/cone data give surface genus {g}, "
                         "which is not a non-negative integer")
    return int(g)


def genus(d: DataSet | MarkedDataSet) -> int:
    """Genus of the total surface the data set acts on.

    Computed from the degree, quotient genus and cone orders alone; raises
    ``ValueError`` when the result is not a non-negative integer.  The genus
    is kept on the (base) data set after its first computation, which is
    safe because a data set is frozen (see ``_kept``); a data set whose
    genus raises keeps nothing.
    """
    base = d.base if isinstance(d, MarkedDataSet) else d
    return _kept(base, "_genus", _genus)


def _mark_violations(m: MarkedDataSet) -> list[tuple[str, str]]:
    """Condition ``marks``: at least one mark, no mark twice, and every mark
    a cone index of the base."""
    l = m.base.num_pairs
    out: list[tuple[str, str]] = []
    if not m.marks:
        out.append(("marks", "marked data set has no marks"))
    if len(set(m.marks)) != len(m.marks):
        out.append(("marks", "mark indices must be distinct"))
    for j in m.marks:
        if not 1 <= j <= l:
            out.append(("marks", f"mark {j} is outside the cone index range 1..{l}"))
    return out


def _check_marks(m: MarkedDataSet, context: str = "") -> None:
    """Raise ``ValueError`` with the first mark violation of ``m``, if any."""
    violations = _mark_violations(m)
    if violations:
        raise ValueError(context + violations[0][1])


def validate(d: DataSet | MarkedDataSet) -> ValidationReport:
    """Check every defining condition and report all violations.

    Condition ids: ``i`` (rotation vs. cone pairs), ``ii`` (cone orders
    divide the degree), ``iii`` (reduced residues), ``iv`` (lcm stability /
    sphere-quotient lcm), ``v`` (weighted residue sum), and
    ``genus-integrality``.  Marked data sets add a ``marks`` id, after the
    base's violations.

    The report of a data set is kept on it after its first computation,
    which is safe because a data set is frozen (see ``_kept``).  A marked
    data set reads its base's report: with well-formed marks the report is
    that one, else a new report that adds the mark violations.
    """
    if isinstance(d, MarkedDataSet):
        report = _kept(d.base, "_validate", _validate)
        marks = _mark_violations(d)
        if marks:
            return ValidationReport(report.violations + tuple(marks))
        return report
    return _kept(d, "_validate", _validate)


def _validate(d: DataSet) -> ValidationReport:
    # the rule behind validate(), on a plain data set
    n, g0, r, pairs = d.degree, d.quotient_genus, d.rotation, d.cone_pairs
    l = len(pairs)
    out: list[tuple[str, str]] = []

    if l == 0:
        if not (1 <= r < n) or gcd(r, n) != 1:
            out.append(("i", f"a free action needs a rotation in [1,{n - 1}] "
                             f"coprime to {n}, got {r}"))
    elif r != 0:
        out.append(("i", f"rotation must be 0 when cone pairs are present, got {r}"))

    for idx, p in enumerate(pairs, 1):
        if n % p.order != 0:
            out.append(("ii", f"cone order {p.order} at index {idx} "
                              f"does not divide the degree {n}"))

    for idx, p in enumerate(pairs, 1):
        if not 1 <= p.c < p.order:
            out.append(("iii", f"cone rotation {p.c} at index {idx} "
                               f"is not in [1,{p.order - 1}]"))
        elif gcd(p.c, p.order) != 1:
            out.append(("iii", f"cone rotation {p.c} at index {idx} "
                               f"is not coprime to its order {p.order}"))

    orders = [p.order for p in pairs]
    out.extend(_lcm_violations(n, g0, orders))

    if l:
        weighted = sum((n // p.order) * p.c for p in pairs if n % p.order == 0)
        if weighted % n != 0:
            out.append(("v", f"weighted residue sum is {weighted % n} (mod {n}), "
                             "expected 0"))

    g = _rh_genus(n, g0, orders)
    if g.denominator != 1 or g < 0:
        out.append(("genus-integrality",
                    f"degree/cone data give surface genus {g}"))

    return ValidationReport(violations=tuple(out))


def _residues_decide(degree: int, orders: Sequence[int]) -> bool:
    """Whether the residues can change the class of a data set with these
    cone orders: an even number of cones, all of full order, and two cones
    exactly when the degree exceeds 2.  They can only for an invalid set,
    such as ``(5,0;(1,5),(1,5))`` (see ``census._cell``)."""
    l = len(orders)
    return (l > 0 and l % 2 == 0 and (l == 2) == (degree > 2)
            and all(o == degree for o in orders))


def classify(d: DataSet | MarkedDataSet) -> ActionClass:
    """Classify the action: rotational, type 1 (maybe irreducible), or type 2.

    The class is kept on the (base) data set after its first computation,
    which is safe because a data set is frozen (see ``_kept``).
    """
    base = d.base if isinstance(d, MarkedDataSet) else d
    return _kept(base, "_classify", _classify)


def _classify(d: DataSet) -> ActionClass:
    # the rule behind classify(), on a plain data set
    if d.rotation != 0:
        return ActionClass("rotational")
    n, pairs = d.degree, d.cone_pairs
    l = len(pairs)
    if _residues_decide(n, [p.order for p in pairs]):
        # rotational when the residues are a unit s and n - s, k times each
        cs = sorted(p.c for p in pairs)
        s, k = cs[0], l // 2
        if 1 <= s < n and gcd(s, n) == 1 and cs == [s] * k + [n - s] * k:
            return ActionClass("rotational")
    if l == 3 and any(p.order == n for p in pairs):
        return ActionClass("type1", irreducible=d.quotient_genus == 0)
    return ActionClass("type2")


def canonicalize(d: DataSet) -> tuple[DataSet, tuple[int, ...]]:
    """Sort cone pairs by (order, rotation); returns the applied permutation.

    ``perm[k-1]`` is the old (1-based) index of the new ``k``-th pair, so
    marks can be transported through the inverse.  A data set whose pairs
    are in that order already is returned itself, with the values it keeps
    (see :func:`validate`); it equals the set a copy would be, so a value
    derived from either holds for both.
    """
    pairs = d.cone_pairs
    order = sorted(range(len(pairs)), key=lambda i: (pairs[i].order, pairs[i].c))
    perm = tuple(i + 1 for i in order)
    if order == list(range(len(pairs))):
        return d, perm
    canon = DataSet(d.degree, d.quotient_genus, d.rotation,
                    tuple(pairs[i] for i in order))
    return canon, perm


def canonicalize_marked(m: MarkedDataSet) -> tuple[MarkedDataSet, tuple[int, ...]]:
    """Canonicalize the base and transport the marks along.

    Raises ``ValueError`` on a repeated or out-of-range mark.  Empty marks
    pass, because gluing can consume every marked orbit.
    """
    if m.marks:
        _check_marks(m)
    base, perm = canonicalize(m.base)
    inverse = {old: new for new, old in enumerate(perm, 1)}
    marks = tuple(sorted(inverse[j] for j in m.marks))
    return MarkedDataSet(base, m.sign, marks), perm


# --- text form -------------------------------------------------------------
#
# dataset := "(" degree sign? "," g0 ("," r)? ";" (pairs | "-") ("," marks)? ")"
# pair    := "(" c "," n ")" ("×" count)?
# sign    := "_+" | "_-"
# marks   := "[" (idx ("," idx)*)? "]"
#
# Tolerated variants: arbitrary whitespace, U+2212 for the empty-pairs dash,
# "," in place of ";" when the next token unambiguously starts the pair
# list, subscript signs "₊"/"₋" without the underscore, and a "×k"/"xk"
# repetition suffix on a cone pair (several sources print the tuple in each
# of these ways).
#
# A data set holds at most 10^6 cone pairs, repeats included.  A pair that
# would pass that total is a parse error, at the position of k when it
# carries a "×k", raised before the pair is repeated.
#
# The text is read in one pass as a list of tokens: a run of decimal digits
# (str.isdecimal, any script) or one character that is not whitespace
# (str.isspace).  The grammar walks that list by index.  An error's
# position is a character position in the text, found from the token spans
# only when the error is raised, and is the same as a character-by-character
# reading gives.


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\d+|\S")
_DASHES = ("-", "−")
_MAX_CONE_PAIRS = 10**6


def _error(text: str, message: str, i: int, end: bool = False) -> ParseError:
    """The error at token ``i`` of ``text``: at its start, or its end with
    ``end``; past the last token, at ``len(text)``."""
    for k, m in enumerate(_TOKEN.finditer(text)):
        if k == i:
            return ParseError(message, m.end() if end else m.start())
    return ParseError(message, len(text))


def _expected(text: str, toks: list[str], i: int, what: str) -> ParseError:
    # a token is one character or a run of digits; name its first character
    got = toks[i][:1] or "end of input"
    return _error(text, f"expected {what}, found {got!r}", i)


def _number(text: str, toks: list[str], i: int) -> int:
    tok = toks[i]
    if not tok.isdecimal():
        raise _expected(text, toks, i, "a number")
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts from text
        raise _error(text, f"a number of {len(tok)} digits is too long",
                     i) from None


def _build(text: str, cls, *args):
    """Construct ``cls(*args)``; its structural errors become parse errors
    at the end of the text."""
    try:
        return cls(*args)
    except (ValueError, TypeError) as e:
        raise ParseError(str(e), len(text)) from None


def parse_data_set(text: str) -> DataSet | MarkedDataSet:
    """Parse the tuple notation; raises :class:`ParseError` with a position.

    Only the grammar is enforced here — semantic conditions are left to
    :func:`validate`.  The constructors' structural checks (a zero degree,
    cone order or mark index) surface as :class:`ParseError` as well.

    The text's tokens are read in one pass (see the grammar comment above);
    each error has the message and position that a character-by-character
    reading gives.
    """
    toks = _TOKEN.findall(text) + [""]
    if toks[0] != "(":
        raise _expected(text, toks, 0, "'('")
    degree = _number(text, toks, 1)
    i = 2
    sign = None
    tok = toks[i]
    if tok == "_":
        tok = toks[i + 1]
        if tok == "+":
            sign = "+"
        elif tok in _DASHES:
            sign = "-"
        else:
            raise _error(text, "expected '+' or '-' after '_'", i + 1)
        i += 2
    elif tok == "₊":
        sign = "+"
        i += 1
    elif tok == "₋":
        sign = "-"
        i += 1
    if toks[i] != ",":
        raise _expected(text, toks, i, "','")
    g0 = _number(text, toks, i + 1)
    i += 2

    rotation = 0
    tok = toks[i]
    if tok == ";":
        i += 1
    elif tok == ",":
        i += 1
        if toks[i].isdecimal():
            rotation = _number(text, toks, i)
            i += 1
            if toks[i] not in (";", ","):
                raise _error(text, "expected ';' before the cone pairs", i)
            i += 1
        # otherwise the comma already separated the preamble from the body
    else:
        raise _error(text, "expected ';' after the preamble", i)

    pairs: list[ConePair] = []
    marks: tuple[int, ...] | None = None
    if toks[i] in _DASHES:
        i += 1
        if toks[i] == ",":
            i += 1
            if toks[i] != "[":
                raise _error(text, "expected a marks list after ','", i)
    else:
        while toks[i] != "[":
            if toks[i] != "(":
                raise _expected(text, toks, i, "'('")
            c = _number(text, toks, i + 1)
            if toks[i + 2] != ",":
                raise _expected(text, toks, i + 2, "','")
            order = _number(text, toks, i + 3)
            if toks[i + 4] != ")":
                raise _expected(text, toks, i + 4, "')'")
            i += 5
            count, repeated = 1, toks[i] in ("×", "x")
            if repeated:
                count = _number(text, toks, i + 1)
                i += 2
                if count < 1:
                    raise _error(text, "repeat count must be positive",
                                 i - 1, end=True)
            if len(pairs) + count > _MAX_CONE_PAIRS:
                # at k of a "×k", else just past the ")"
                raise _error(text, f"more than {_MAX_CONE_PAIRS} cone pairs",
                             i - 1, end=not repeated)
            try:
                pair = ConePair(c, order)
            except (ValueError, TypeError) as e:
                # just past a "×k", else at the next token
                raise (_error(text, str(e), i - 1, end=True) if repeated
                       else _error(text, str(e), i)) from None
            pairs.extend([pair] * count)
            if toks[i] != ",":
                break
            i += 1
    if toks[i] == "[":
        i += 1
        idxs: list[int] = []
        if toks[i] != "]":
            idxs.append(_number(text, toks, i))
            i += 1
            while toks[i] == ",":
                idxs.append(_number(text, toks, i + 1))
                i += 2
        if toks[i] != "]":
            raise _expected(text, toks, i, "']'")
        i += 1
        marks = tuple(idxs)
    if toks[i] != ")":
        raise _expected(text, toks, i, "')'")
    if toks[i + 1]:
        raise _error(text, "unexpected trailing text", i + 1)

    base = _build(text, DataSet, degree, g0, rotation, tuple(pairs))
    if sign is None and marks is None:
        return base
    if sign is None:
        raise ParseError("a marks list requires a sign on the degree", 0)
    if marks is None:
        raise ParseError("a sign on the degree requires a marks list", 0)
    return _build(text, MarkedDataSet, base, sign, marks)


def format_data_set(d: DataSet | MarkedDataSet) -> str:
    """Canonical text rendering (inverse of :func:`parse_data_set`)."""
    marked = isinstance(d, MarkedDataSet)
    base = d.base if marked else d
    head = str(base.degree)
    if marked:
        head += f"_{d.sign}"
    head += f",{base.quotient_genus}"
    if base.rotation:
        head += f",{base.rotation}"
    body = ",".join(f"({p.c},{p.order})" for p in base.cone_pairs) or "-"
    tail = f",[{','.join(str(m) for m in d.marks)}]" if marked else ""
    return f"({head};{body}{tail})"


# --- JSON form -------------------------------------------------------------


def _fraction_to_json(x: Fraction | None) -> list[int] | None:
    """A fraction as ``[numerator, denominator]``; ``None`` stays ``None``."""
    return None if x is None else [x.numerator, x.denominator]


def data_set_to_json(d: DataSet | MarkedDataSet) -> dict:
    marked = isinstance(d, MarkedDataSet)
    base = d.base if marked else d
    obj = {
        "degree": base.degree,
        "quotient_genus": base.quotient_genus,
        "rotation": base.rotation,
        "cone_pairs": [[p.c, p.order] for p in base.cone_pairs],
    }
    if marked:
        obj["sign"] = d.sign
        obj["marks"] = list(d.marks)
    return obj


_CONE_PAIRS = "cone_pairs must be a list of [c, order] pairs"


def data_set_from_json(obj: dict) -> DataSet | MarkedDataSet:
    """Rebuild a data set from its JSON object; any malformed value, of
    whatever JSON type, raises ``ValueError``."""
    return _data_set_from_json(obj, {})


def _data_set_from_json(obj: dict, cones: dict) -> DataSet | MarkedDataSet:
    # ``cones`` maps (c, order) to a ConePair already built from those
    # values; only exact ints are looked up, since True == 1 would find the
    # pair of 1 and skip the check that refuses a bool
    if not isinstance(obj, dict):
        raise ValueError(f"a data set is a JSON object, got {type(obj).__name__}")
    try:
        degree, g0, rotation = obj["degree"], obj["quotient_genus"], obj["rotation"]
        entries = obj["cone_pairs"]
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"{_CONE_PAIRS}, got {type(entries).__name__}")
        pairs = []
        try:
            for c, n in entries:
                if type(c) is int and type(n) is int:
                    cone = cones.get((c, n))
                    if cone is None:
                        cone = cones[c, n] = ConePair(c, n)
                else:
                    cone = ConePair(c, n)
                pairs.append(cone)
        except (TypeError, ValueError) as e:
            # the entry after the pairs built failed: its shape, when it is
            # not an [c, order] pair, else its values
            entry, why = entries[len(pairs)], str(e)
            if not isinstance(entry, (list, tuple)):
                why = f"{_CONE_PAIRS}, got an entry of type {type(entry).__name__}"
            elif len(entry) != 2:
                why = f"{_CONE_PAIRS}, got an entry of length {len(entry)}"
            raise ValueError(why) from None
        base = DataSet(degree, g0, rotation, tuple(pairs))
        if "sign" in obj or "marks" in obj:
            if not ("sign" in obj and "marks" in obj):
                raise ValueError("marked data sets need both 'sign' and 'marks'")
            sign, marks = obj["sign"], obj["marks"]
            if not isinstance(marks, (list, tuple)):
                raise ValueError("marks must be a list of integers, "
                                 f"got {type(marks).__name__}")
            return MarkedDataSet(base, sign, marks)
        return base
    except KeyError as e:
        raise ValueError(f"missing data set field {e.args[0]!r}") from None
    except TypeError as e:
        # a degree, residue or mark that is not an integer
        raise ValueError(str(e)) from None


def validation_report_to_json(r: ValidationReport) -> dict:
    return {"valid": r.valid,
            "violations": [{"condition": c, "detail": t} for c, t in r.violations]}
