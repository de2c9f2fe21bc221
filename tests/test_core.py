from dataclasses import fields

import pytest
from hypothesis import example, given, settings, strategies as st

from perisurf.core import (
    ConePair,
    DataSet,
    MarkedDataSet,
    ParseError,
    ValidationReport,
    _lcm_violations,
    canonicalize,
    canonicalize_marked,
    classify,
    data_set_from_json,
    data_set_to_json,
    format_data_set,
    genus,
    mod_inverse,
    parse_data_set,
    validate,
)
from reference import _lcm_violations_leave_one_out, _reference_parse_data_set


def ds(text):
    return parse_data_set(text)


# --- mod_inverse -----------------------------------------------------------

def test_mod_inverse_values():
    assert mod_inverse(5, 6) == 5
    assert mod_inverse(3, 5) == 2
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(2, 5) == 3


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(ValueError):
        mod_inverse(2, 4)


def test_mod_inverse_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        mod_inverse(1, 1)


@given(st.integers(min_value=2, max_value=500), st.integers(min_value=1, max_value=499))
def test_mod_inverse_is_an_inverse(m, c):
    from math import gcd
    if gcd(c, m) != 1:
        with pytest.raises(ValueError):
            mod_inverse(c, m)
    else:
        inv = mod_inverse(c, m)
        assert 1 <= inv <= m - 1
        assert (c * inv) % m == 1


# --- genus -----------------------------------------------------------------

def test_genus_regressions():
    assert genus(ds("(2,0;(1,2),(1,2),(1,2),(1,2))")) == 1
    assert genus(ds("(5,0;(1,5),(3,5),(1,5))")) == 2
    assert genus(ds("(6,0;(1,2),(1,3),(1,6))")) == 1
    assert genus(ds("(6,0;(1,2),(2,3),(5,6))")) == 1
    assert genus(ds("(2,1,1;-)")) == 1
    assert genus(ds("(3,0;(1,3),(1,3),(1,3))")) == 1
    assert genus(ds("(3,1;(1,3),(2,3))")) == 3


def test_genus_of_free_rotation():
    assert genus(DataSet(4, 3, 1)) == 4 * 2 + 1
    assert genus(DataSet(7, 1, 2)) == 1


def test_genus_three_full_cones_of_odd_order():
    # (n,0;(c1,n),(c2,n),(c3,n)) acts on a surface of genus (n-1)/2
    for n, c in [(3, (1, 1, 1)), (5, (1, 3, 1)), (7, (1, 2, 4))]:
        d = DataSet(n, 0, 0, tuple(ConePair(ci, n) for ci in c))
        assert genus(d) == (n - 1) // 2


def test_genus_rejects_impossible_data():
    with pytest.raises(ValueError):
        genus(ds("(2,0,1;-)"))  # would need genus -1
    with pytest.raises(ValueError):
        genus(ds("(4,0;(1,4))"))  # fractional


def test_genus_ignores_residue_conditions():
    # genus depends only on degree, quotient genus and cone orders
    d = ds("(5,0;(3,5),(3,5),(1,5),(2,5))")
    assert not validate(d).valid
    assert genus(d) == 4


# --- validate ---------------------------------------------------------------

def test_validation_report_is_valid_without_violations():
    assert ValidationReport().valid
    assert not ValidationReport(violations=(("v", "detail"),)).valid
    assert [f.name for f in fields(ValidationReport)] == ["violations"]


def test_validate_accepts_known_good_sets():
    for text in [
        "(2,0;(1,2),(1,2),(1,2),(1,2))",
        "(5,0;(1,5),(3,5),(1,5))",
        "(6,0;(1,2),(1,3),(1,6))",
        "(6,0;(1,2),(2,3),(5,6))",
        "(2,1,1;-)",
        "(3,0;(1,3),(1,3),(1,3))",
        "(3,0;(2,3),(2,3),(2,3))",
        "(3,1;(1,3),(2,3))",
        "(4,1;(1,2),(1,2))",
    ]:
        report = validate(ds(text))
        assert report.valid, (text, report.violations)


def test_validate_lcm_condition():
    report = validate(ds("(6,0;(1,2),(1,2),(1,6))"))
    assert not report.valid
    assert "iv" in report.ids()


@given(st.integers(min_value=1, max_value=120),
       st.integers(min_value=0, max_value=2),
       st.lists(st.integers(min_value=1, max_value=40), max_size=8))
def test_lcm_violations_match_leave_one_out(n, g0, orders):
    assert _lcm_violations(n, g0, orders) == \
        _lcm_violations_leave_one_out(n, g0, orders)


def test_validate_residue_sum_condition():
    report = validate(ds("(5,0;(1,5),(1,5),(1,5))"))
    assert not report.valid
    assert report.ids() == ("v",)


def test_validate_rotation_interplay():
    assert "i" in validate(ds("(4,1,2;-)")).ids()      # gcd(2,4) != 1
    assert "i" in validate(ds("(2,1;-)")).ids()        # free action needs r > 0
    assert "i" in validate(ds("(6,0,1;(1,2),(1,3),(1,6))")).ids()
    assert "i" in validate(DataSet(3, 1, 5)).ids()     # r out of range


def test_validate_reports_every_violation():
    report = validate(ds("(6,0,1;(1,4),(3,4))"))
    ids = set(report.ids())
    assert {"i", "ii"} <= ids  # 4 does not divide 6, rotation nonzero


def test_validate_degree_one_has_no_valid_sets():
    assert not validate(DataSet(1, 0, 0)).valid
    assert not validate(DataSet(1, 3, 0)).valid


def test_validate_residue_range():
    report = validate(ds("(4,1;(3,2),(1,2))"))
    assert "iii" in report.ids()
    report = validate(DataSet(4, 1, 0, (ConePair(0, 2), ConePair(1, 2))))
    assert "iii" in report.ids()
    # the message `perisurf validate` prints for this set
    report = validate(ds("(4,0;(2,4),(1,4),(1,4))"))
    assert ("iii", "cone rotation 2 at index 1 is not coprime to its "
                   "order 4") in report.violations


@pytest.mark.parametrize("cls, args, error, message", [
    (ConePair, (-1, 5), ValueError, "cone rotation must be non-negative, got -1"),
    (DataSet, (5, 0, 1.0), TypeError, "rotation must be an integer, got 1.0"),
    (DataSet, (5, -1, 0), ValueError, "quotient genus must be non-negative"),
    (DataSet, (5, 0, -1), ValueError, "rotation must be non-negative"),
    (DataSet, (5, 0, 0, ((1, 5),)), TypeError,
     "cone_pairs must contain ConePair values"),
    (MarkedDataSet, ("(5,1,1;-)", "+", (1,)), TypeError,
     "base must be a DataSet"),
    (MarkedDataSet, (DataSet(5, 1, 1), "*", (1,)), ValueError,
     "sign must be '+' or '-', got '*'"),
])
def test_constructors_refuse_malformed_fields(cls, args, error, message):
    with pytest.raises(error) as info:
        cls(*args)
    assert str(info.value) == message


def test_data_set_stores_its_cone_pairs_as_a_tuple():
    pairs = [ConePair(1, 5), ConePair(1, 5), ConePair(3, 5)]
    d = DataSet(5, 0, 0, pairs)
    assert d.cone_pairs == tuple(pairs)
    assert d == ds("(5,0;(1,5),(1,5),(3,5))")


def test_validate_marked_sets():
    good = ds("(6_-,0;(1,2),(2,3),(5,6),[3])")
    assert validate(good).valid
    dup = MarkedDataSet(good.base, "-", (1, 1))
    assert "marks" in validate(dup).ids()
    out_of_range = MarkedDataSet(good.base, "-", (7,))
    assert "marks" in validate(out_of_range).ids()
    empty = MarkedDataSet(good.base, "-", ())
    assert "marks" in validate(empty).ids()


# --- classify ---------------------------------------------------------------

def test_classify_free_rotations_are_rotational():
    assert classify(ds("(4,2,1;-)")).label == "rotational"


def test_classify_rotational_pattern():
    assert classify(ds("(3,1;(1,3),(2,3))")).label == "rotational"
    assert classify(ds("(5,0;(2,5),(3,5))")).label == "rotational"
    # at degree 2 only repeated blocks qualify ...
    assert classify(ds("(2,0;(1,2),(1,2),(1,2),(1,2))")).label == "rotational"
    # ... and above degree 2 only a single block does
    assert classify(ds("(5,0;(2,5),(3,5),(2,5),(3,5))")).label == "type2"


def test_classify_small_sphere_rotation_is_not_rotational():
    # the k = 1 block pattern is reserved for degrees above 2
    assert classify(ds("(2,0;(1,2),(1,2))")).label == "type2"


def test_classify_type1():
    assert classify(ds("(6,0;(1,2),(1,3),(1,6))")).label == "type1-irreducible"
    assert classify(ds("(5,0;(1,5),(3,5),(1,5))")).label == "type1-irreducible"
    assert classify(ds("(3,1;(1,3),(1,3),(1,3))")).label == "type1"


def test_classify_type2():
    assert classify(ds("(6,0;(1,2),(1,2),(1,3),(2,3))")).label == "type2"


def test_classify_is_invariant_under_canonicalize():
    d = ds("(6,0;(1,6),(1,2),(1,3))")
    canon, _ = canonicalize(d)
    assert classify(d) == classify(canon)


# --- canonicalize -----------------------------------------------------------

def test_canonicalize_sorts_and_reports_permutation():
    d = ds("(6,0;(1,6),(1,2),(1,3))")
    canon, perm = canonicalize(d)
    assert format_data_set(canon) == "(6,0;(1,2),(1,3),(1,6))"
    assert perm == (2, 3, 1)


def test_canonicalize_is_idempotent():
    d = ds("(5,0;(3,5),(1,5),(1,5))")
    canon, _ = canonicalize(d)
    again, perm = canonicalize(canon)
    assert again == canon
    assert perm == (1, 2, 3)


def test_canonicalize_marked_transports_marks():
    m = ds("(6_+,0;(1,6),(1,2),(1,3),[1,3])")
    canon, _ = canonicalize_marked(m)
    assert format_data_set(canon) == "(6_+,0;(1,2),(1,3),(1,6),[2,3])"


def test_canonicalize_marked_checks_marks():
    with pytest.raises(ValueError, match="distinct"):
        canonicalize_marked(ds("(6_+,0;(1,2),(1,3),(1,6),[3,3])"))
    with pytest.raises(ValueError, match="range 1..3"):
        canonicalize_marked(ds("(6_+,0;(1,2),(1,3),(1,6),[4])"))
    # gluing can consume every marked orbit, so no marks is allowed here
    m = ds("(6_+,0;(1,6),(1,2),(1,3),[1])")
    empty = MarkedDataSet(m.base, "+", ())
    canon, perm = canonicalize_marked(empty)
    assert canon.marks == ()
    assert format_data_set(canon) == "(6_+,0;(1,2),(1,3),(1,6),[])"
    assert perm == (2, 3, 1)


# --- text round trips -------------------------------------------------------

def test_parse_examples():
    d = ds("(6,0;(1,2),(1,3),(1,6))")
    assert d == DataSet(6, 0, 0, (ConePair(1, 2), ConePair(1, 3), ConePair(1, 6)))
    free = ds("(2,1,1;-)")
    assert free == DataSet(2, 1, 1)
    marked = ds("(5_+,0;(1,5),(3,5),(1,5),[1,3])")
    assert isinstance(marked, MarkedDataSet)
    assert marked.sign == "+"
    assert marked.marks == (1, 3)


def test_parse_tolerates_whitespace_and_unicode_dash():
    assert ds(" ( 2 , 1 , 1 ; - ) ") == DataSet(2, 1, 1)
    assert ds("(2,1,1;−)") == DataSet(2, 1, 1)
    assert ds("(6_−,0;(1,2),(1,3),(1,6),[3])") == \
        ds("(6_-,0;(1,2),(1,3),(1,6),[3])")


def test_parse_tolerates_comma_preamble():
    # some sources separate the preamble with a comma instead of a semicolon
    assert ds("(6,0,(1,2),(1,3),(1,6))") == ds("(6,0;(1,2),(1,3),(1,6))")
    assert ds("(6_+,0,(1,2),(1,3),(1,6),[3])") == ds("(6_+,0;(1,2),(1,3),(1,6),[3])")


def test_parse_tolerates_subscript_signs():
    assert ds("(6₊,0,(1,2),(1,3),(1,6),[3])") == \
        ds("(6_+,0;(1,2),(1,3),(1,6),[3])")
    assert ds("(5₋,0;(1,5),(1,5),(3,5),[1,2,3])") == \
        ds("(5_-,0;(1,5),(1,5),(3,5),[1,2,3])")


def test_parse_expands_repetition_shorthand():
    assert ds("(2,0;(1,2)×4)") == ds("(2,0;(1,2),(1,2),(1,2),(1,2))")
    assert ds("(2,0;(1,2)x3,(1,2))") == ds("(2,0;(1,2)×4)")
    with pytest.raises(ParseError):
        ds("(2,0;(1,2)×0)")


def test_parse_errors_carry_positions():
    for bad in ["(bogus", "(5,0;(1,5)", "(5,0;(1,5)))", "5,0;(1,5)", "(5;0)",
                "(5,0;(1,5),)", "(5,0,;(1,5))",
                "(6,0;(1,0))", "(0,0;(1,2))", "(6_+,0;(1,2),(1,3),(1,6),[0])"]:
        with pytest.raises(ParseError):
            ds(bad)


@pytest.mark.parametrize("text, message", [
    ("(5_*,0;-)", "expected '+' or '-' after '_' (at position 3)"),
    ("(5,0,1(1,5))", "expected ';' before the cone pairs (at position 6)"),
    ("(5,0:(1,5))", "expected ';' after the preamble (at position 4)"),
    ("(5,1,1;-,3)", "expected a marks list after ',' (at position 9)"),
    ("(6,0;(1,2),(1,3),(1,6),[1])",
     "a marks list requires a sign on the degree (at position 0)"),
    ("(6_+,0;(1,2),(1,3),(1,6))",
     "a sign on the degree requires a marks list (at position 0)"),
])
def test_parse_errors_name_what_was_expected(text, message):
    with pytest.raises(ParseError) as info:
        ds(text)
    assert str(info.value) == message


def test_parse_rejects_half_marked_sets():
    with pytest.raises(ParseError):
        ds("(5_+,0;(1,5),(3,5),(1,5))")  # sign without marks
    with pytest.raises(ParseError):
        ds("(5,0;(1,5),(3,5),(1,5),[1])")  # marks without sign


def test_format_is_canonical_text():
    assert format_data_set(ds(" (6 , 0 ; (1,2) , (1,3), (1,6)) ")) == \
        "(6,0;(1,2),(1,3),(1,6))"
    assert format_data_set(ds("(2,1,1;−)")) == "(2,1,1;-)"


cone_pairs = st.builds(
    ConePair,
    c=st.integers(min_value=0, max_value=12),
    order=st.integers(min_value=1, max_value=12),
)
data_sets = st.builds(
    DataSet,
    degree=st.integers(min_value=1, max_value=30),
    quotient_genus=st.integers(min_value=0, max_value=5),
    rotation=st.integers(min_value=0, max_value=12),
    cone_pairs=st.tuples() | st.lists(cone_pairs, max_size=5).map(tuple),
)
marked_sets = st.builds(
    MarkedDataSet,
    base=data_sets,
    sign=st.sampled_from(["+", "-"]),
    marks=st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                   max_size=4, unique=True).map(tuple),
)


# every character the tuple notation gives a meaning to, and whitespace
_GRAMMAR = "()[],;_+-−₊₋×x0123456789 \t"


def _spliced(text, at, cut, insert):
    # a well-formed text with a few characters replaced
    at = min(at, len(text))
    return text[:at] + insert + text[at + cut:]


# any text fails, if it fails, with a ParseError; codepoints of every
# category, surrogates included
@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=_GRAMMAR, max_size=40)
       | st.text(st.characters(exclude_categories=()), max_size=40)
       | st.builds(_spliced, (data_sets | marked_sets).map(format_data_set),
                   st.integers(min_value=0, max_value=40),
                   st.integers(min_value=0, max_value=3),
                   st.text(alphabet=_GRAMMAR, max_size=3)))
@example("(" + "1" * 5000 + ",0;-)")  # past int()'s limit on digits
@example("(5,0;(1,5)×" + "9" * 5000 + ")")
@example("(٣,0;-)")  # a decimal digit outside ASCII
@example("(5\u2028,0;-)")  # whitespace outside ASCII
def test_parse_raises_only_parse_errors(text):
    try:
        parse_data_set(text)
    except ParseError:
        pass


def _parsed(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return str(e), e.position


# the token parser gives every value, message and position that the
# character cursor of tests/reference.py gives
@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=_GRAMMAR, max_size=40)
       | st.text(st.characters(exclude_categories=()), max_size=40)
       | st.builds(_spliced, (data_sets | marked_sets).map(format_data_set),
                   st.integers(min_value=0, max_value=40),
                   st.integers(min_value=0, max_value=3),
                   st.text(alphabet=_GRAMMAR, max_size=3)))
@example("(2,0;(1,2)×1000000)")  # the cap on cone pairs
@example("(2,0;(1,2)×1000000,(1,2))")  # one pair past it
@example("(2,0;(1,2)×999999,(1,2)×2)")
@example("(" + "1" * 5000 + ",0;-)")
@example("(5,0;(1,5)×" + "9" * 5000 + ")")
@example("(٣,0;-)")
@example("(5\u2028,0;-)")
@example("(5\x1c,0;-)")
def test_parse_matches_reference_parser(text):
    assert _parsed(parse_data_set, text) == \
        _parsed(_reference_parse_data_set, text)


@given(data_sets | marked_sets)
def test_parse_format_roundtrip(d):
    assert parse_data_set(format_data_set(d)) == d


@given(data_sets | marked_sets)
def test_json_roundtrip(d):
    assert data_set_from_json(data_set_to_json(d)) == d


# any JSON value: null, booleans, numbers, strings, arrays and objects
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12)

_FIELDS = ("degree", "quotient_genus", "rotation", "cone_pairs", "sign",
           "marks")
_PENTAGON_JSON = {"degree": 5, "quotient_genus": 0, "rotation": 0,
                  "cone_pairs": [[1, 5], [1, 5], [3, 5]]}


def _with_field(obj, key, value):
    # a data set's JSON object with one field replaced or added
    return dict(obj, **{key: value})


# any JSON fails, if it fails, with a ValueError
@settings(deadline=None)
@given(_json_values
       | st.builds(_with_field, (data_sets | marked_sets).map(data_set_to_json),
                   st.sampled_from(_FIELDS),
                   _json_values | st.lists(st.lists(_json_values, max_size=3),
                                           max_size=3)))
@example(dict(_PENTAGON_JSON, cone_pairs=3))
@example(dict(_PENTAGON_JSON, cone_pairs=None))
@example(dict(_PENTAGON_JSON, cone_pairs=[["a", 5]]))
@example(dict(_PENTAGON_JSON, degree="5"))
@example(dict(_PENTAGON_JSON, sign="+", marks=3))
def test_data_set_from_json_raises_only_value_errors(obj):
    try:
        d = data_set_from_json(obj)
    except ValueError:
        return
    assert data_set_from_json(data_set_to_json(d)) == d


@pytest.mark.parametrize("field, value, message", [
    ("cone_pairs", 3,
     "cone_pairs must be a list of [c, order] pairs, got int"),
    ("cone_pairs", None,
     "cone_pairs must be a list of [c, order] pairs, got NoneType"),
    ("cone_pairs", "ab",
     "cone_pairs must be a list of [c, order] pairs, got str"),
    ("cone_pairs", [5],
     "cone_pairs must be a list of [c, order] pairs, got an entry of type int"),
    ("cone_pairs", [[1]],
     "cone_pairs must be a list of [c, order] pairs, got an entry of length 1"),
    ("cone_pairs", [[1, 5], [1, 5, 3]],
     "cone_pairs must be a list of [c, order] pairs, got an entry of length 3"),
    # an entry of the right shape before the malformed one fails first
    ("cone_pairs", [["a", 5], [1]], "c must be an integer, got 'a'"),
    ("marks", 3, "marks must be a list of integers, got int"),
    ("marks", None, "marks must be a list of integers, got NoneType"),
    # iterables that are not lists: once read as no cones or no marks
    ("cone_pairs", "", "cone_pairs must be a list of [c, order] pairs, got str"),
    ("cone_pairs", {}, "cone_pairs must be a list of [c, order] pairs, got dict"),
    ("marks", "", "marks must be a list of integers, got str"),
    ("marks", {}, "marks must be a list of integers, got dict"),
    ("marks", "3", "marks must be a list of integers, got str"),
    ("sign", "+", "marked data sets need both 'sign' and 'marks'"),
])
def test_data_set_from_json_names_the_malformed_field(field, value, message):
    obj = dict(_PENTAGON_JSON, **{field: value})
    if field == "marks":
        obj["sign"] = "+"
    with pytest.raises(ValueError) as info:
        data_set_from_json(obj)
    assert str(info.value) == message


def test_data_set_from_json_names_a_missing_field():
    with pytest.raises(ValueError) as info:
        data_set_from_json({"degree": 5, "rotation": 0, "cone_pairs": []})
    assert str(info.value) == "missing data set field 'quotient_genus'"


@given(data_sets)
def test_canonicalize_permutation_is_a_permutation(d):
    canon, perm = canonicalize(d)
    assert sorted(perm) == list(range(1, d.num_pairs + 1))
    assert sorted(canon.cone_pairs, key=lambda p: (p.order, p.c)) == \
        list(canon.cone_pairs)
    # the permutation really does map new positions to old pairs
    for new_pos, old_pos in enumerate(perm, 1):
        assert canon.cone_pairs[new_pos - 1] == d.cone_pairs[old_pos - 1]
