import contextlib
import doctest
import io
import math
import re
import sys
from pathlib import Path

import pytest

from perisurf import (CensusQuery, ParseError, build_profile, census,
                      enumerate_data_sets, genus, parse_data_set,
                      search_profiles, verify_profile)
from perisurf.cli import _build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_give_their_output():
    # doctest on the whole file would read each closing fence as output
    text = README.read_text(encoding="utf-8")
    blocks = [(text.count("\n", 0, m.start(1)), m.group(1)) for m in
              re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S)]
    assert blocks
    runner = doctest.DocTestRunner()
    for lineno, block in blocks:
        test = doctest.DocTestParser().get_doctest(block, {}, README.name,
                                                   str(README), lineno)
        runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted >= 8 and failed == 0


# --- the Limits table ----------------------------------------------------------
#
# Each row of the README's "Limits" table runs here at its bound and one step
# past it, through the library and through the command line.  The bound,
# the error and the exit code are read from the row.


def _limit_rows() -> dict[str, dict[str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Limits\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    head, _, *body = [[cell.strip() for cell in line.strip("|").split("|")]
                      for line in lines]
    return {cells[0]: dict(zip(head, cells)) for cells in body}


def _number(cell: str) -> int:
    return int(re.sub(r"\D", "", cell))


def _errors(row) -> tuple[type, ...]:
    return tuple({"`ParseError`": ParseError, "`ValueError`": ValueError}[name]
                 for name in re.findall(r"`\w+`", row["Error"]))


def cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _usage_error(row, argv: list[str]) -> None:
    assert "usage error" in row["Error"]
    code, out, err = cli(argv)
    assert (code, out) == (_number(row["Exit"]), ""), argv
    assert err.startswith("usage: perisurf"), argv


def _domain_error(row, argv: list[str], message: str) -> None:
    code, out, err = cli(argv)
    assert (code, out) == (_number(row["Exit"]), ""), argv
    assert err == f"error: {message}\n"


def _profile_exit(**kwargs) -> int:
    """The exit code ``profile`` owes a build with these arguments."""
    try:
        return 0 if verify_profile(build_profile(**kwargs)).ok else 1
    except ValueError:
        return 1


def _cone_pairs(row):
    bound = _number(row["Bound"])
    at, past = (f"(2,0;(1,2)×{n})" for n in (bound, bound + 1))
    assert parse_data_set(at).num_pairs == bound
    with pytest.raises(_errors(row), match=f"more than {bound} cone pairs"):
        parse_data_set(past)
    assert cli(["genus", at])[0] == 0
    code, out, err = cli(["genus", past])
    assert (code, out) == (_number(row["Exit"]), "")
    assert err.startswith("parse error: ")


def _digits(row):
    bound = _number(row["Bound"])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int string limit")
    assert bound == limit
    at, past = "9" * bound, "9" * (bound + 1)
    assert genus(parse_data_set(f"(1,{at};-)")) == int(at)
    with pytest.raises(_errors(row), match=f"{bound + 1} digits"):
        parse_data_set(f"(1,{past};-)")
    assert cli(["genus", f"(1,{at};-)"]) == (0, at + "\n", "")
    code, out, err = cli(["genus", f"(1,{past};-)"])
    assert (code, out) == (_number(row["Exit"]), "")
    assert err.startswith("parse error: ")
    # every integer argument: a plain one, and one with a bound of its own
    assert _build_parser().parse_args(["enumerate", "6", at]).genus == int(at)
    _usage_error(row, ["enumerate", "6", past])
    _usage_error(row, ["profile", "5", "1", "--K", past])
    # the numbers of --at and --edge, read by the CLI
    hexagon = "(6,0;(1,2),(1,3),(1,6))"
    piece = "(6_+,0;(1,2),(1,3),(1,6),[3])"
    for argv, slot in ((["glue", hexagon, hexagon, "--at"], "{}:1"),
                       (["assemble", piece, piece, "--edge"], "(1:1)~({}:2)")):
        code, out, err = cli(argv + [slot.format(at)])
        assert (code, out) == (1, ""), argv
        assert not err.startswith("parse error: ")
        code, out, err = cli(argv + [slot.format(past)])
        assert (code, out) == (_number(row["Exit"]), ""), argv
        assert err.startswith(f"parse error: a number of {bound + 1} digits")


def _profile_argv(p: int, q: int, K: int | None = None) -> list[str]:
    return ["profile", str(p), str(q)] + ([] if K is None else ["--K", str(K)])


def _profile_integers(row):
    bound = _number(row["Bound"])
    for at in (bound, -bound):
        past = at + (1 if at > 0 else -1)
        for slot in ("p", "q", "K"):
            kwargs = {"p": 99999, "q": 1, slot: at}
            assert cli(_profile_argv(**kwargs))[0] == \
                _profile_exit(**kwargs), kwargs
            _usage_error(row, _profile_argv(**{**kwargs, slot: past}))
    # the library takes a slope past the bound
    assert verify_profile(build_profile(bound + 1, 1)).ok


def _samples_at_most(row):
    bound = _number(row["Bound"])
    assert verify_profile(build_profile(2, 1, samples=bound)).ok
    assert cli(["profile", "2", "1", "--samples", str(bound)])[0] == 0
    assert len(build_profile(2, 1, samples=bound + 1).grid) == bound + 1
    _usage_error(row, ["profile", "2", "1", "--samples", str(bound + 1)])


def _samples_to_verify(row):
    bound = _number(row["Bound"])
    message = f"verification needs at least {bound} samples"
    assert verify_profile(build_profile(2, 1, samples=bound)).ok
    assert search_profiles(5, 1, samples=bound) is not None
    with pytest.raises(_errors(row), match=message):
        verify_profile(build_profile(2, 1, samples=bound - 1))
    with pytest.raises(_errors(row), match=message):
        search_profiles(5, 1, samples=bound - 1)
    for extra in ([], ["--search"]):
        argv = ["profile", "2", "1", *extra, "--samples"]
        assert cli(argv + [str(bound)])[0] == 0
        _domain_error(row, argv + [str(bound - 1)], message)


def _samples_to_build(row):
    bound = _number(row["Bound"])
    assert len(build_profile(2, 1, samples=bound).grid) == bound
    with pytest.raises(_errors(row), match="need at least two samples"):
        build_profile(2, 1, samples=bound - 1)
    # the command verifies what it builds, which needs more samples
    argv = ["profile", "2", "1", "--samples"]
    _domain_error(row, argv + [str(bound)],
                  "verification needs at least 64 samples")
    _domain_error(row, argv + [str(bound - 1)], "need at least two samples")


def _finite(row):
    assert row["Bound"] == "finite"
    largest = sys.float_info.max
    for option in ("H", "peak"):
        for at in (largest, -largest):
            assert cli(["profile", "5", "1", f"--{option}={at!r}"])[0] == \
                _profile_exit(p=5, q=1, **{option: at})
            past = math.copysign(math.inf, at)
            assert math.nextafter(at, past) == past
            build_profile(5, 1, **{option: past})  # the library takes it
            _usage_error(row, ["profile", "5", "1", f"--{option}={past!r}"])
        _usage_error(row, ["profile", "5", "1", f"--{option}=nan"])


def _counts(row):
    bound = _number(row["Bound"])
    errors = _errors(row)
    assert search_profiles(5, 1, candidates=bound) is not None
    with pytest.raises(errors, match="candidates must be at least 1"):
        search_profiles(5, 1, candidates=bound - 1)
    query = CensusQuery(genus=2, degrees=(5,))
    assert census(query, workers=bound)
    with pytest.raises(errors, match="workers must be at least 1"):
        census(query, workers=bound - 1)
    for argv in (["profile", "5", "1", "--search", "--candidates"],
                 ["census", "--genus", "2", "--degrees", "5", "--workers"]):
        assert cli(argv + [str(bound)])[0] == 0
        _usage_error(row, argv + [str(bound - 1)])


def _degree_list(row):
    assert row["Bound"] == "comma-separated integers"
    assert CensusQuery(genus=2, degrees=(5, 6)).degrees == (5, 6)
    argv = ["census", "--genus", "2", "--degrees"]
    assert cli(argv + ["5,6"])[0] == 0
    _usage_error(row, argv + ["5,6,"])


def _degree(row):
    bound = _number(row["Bound"])
    message = f"degree must be positive, got {bound - 1}"
    assert enumerate_data_sets(bound, 2) == []
    assert census(CensusQuery(genus=2, degrees=(bound,))) == []
    with pytest.raises(_errors(row), match=message):
        enumerate_data_sets(bound - 1, 2)
    with pytest.raises(_errors(row), match=message):
        census(CensusQuery(genus=2, degrees=(bound - 1,)))
    for argv in (["enumerate", "{}", "2"],
                 ["census", "--genus", "2", "--degrees", "{}"]):
        assert cli([a.format(bound) for a in argv])[0] == 0
        _domain_error(row, [a.format(bound - 1) for a in argv], message)


def _genus(row):
    bound = _number(row["Bound"])
    assert enumerate_data_sets(6, bound)
    assert census(CensusQuery(genus=bound, degrees=(6,)))
    with pytest.raises(_errors(row), match="genus must be non-negative"):
        enumerate_data_sets(6, bound - 1)
    for name in ("genus", "max_genus"):
        with pytest.raises(_errors(row), match=f"{name} must be non-negative"):
            CensusQuery(**{name: bound - 1}, degrees=(6,))
    for argv, name in ((["enumerate", "6", "{}"], "genus"),
                       (["census", "--genus", "{}", "--degrees", "6"], "genus"),
                       (["census", "--max-genus", "{}", "--degrees", "6"],
                        "max_genus")):
        assert cli([a.format(bound) for a in argv])[0] == 0
        _domain_error(row, [a.format(bound - 1) for a in argv],
                      f"{name} must be non-negative, got {bound - 1}")


def _census_degrees(row):
    assert row["Bound"] == "needs degrees"
    message = ("a census below genus 2 has infinitely many data sets; "
               "restrict it with a degree filter")
    assert census(CensusQuery(genus=2))
    assert census(CensusQuery(genus=1, degrees=(6,)))
    for query in (CensusQuery(genus=1), CensusQuery(max_genus=2)):
        with pytest.raises(_errors(row), match="restrict it"):
            census(query)
    assert cli(["census", "--genus", "2"])[0] == 0
    assert cli(["census", "--genus", "1", "--degrees", "6"])[0] == 0
    _domain_error(row, ["census", "--genus", "1"], message)
    _domain_error(row, ["census", "--max-genus", "2"], message)


def _no_upper_bound(row):
    assert set(row.values()) == {row["Input"], "none"}
    # nothing refuses a value past every bound above; running it would
    # take as long as it asks
    huge = "9" * 4300
    parser = _build_parser()
    args = parser.parse_args(["enumerate", huge, huge])
    assert args.degree == args.genus == int(huge)
    for option in ("--genus", "--max-genus"):
        args = parser.parse_args(["census", option, huge])
        query = CensusQuery(genus=args.genus, max_genus=args.max_genus)
        assert int(huge) in (query.genus, query.max_genus)


LIMIT_CHECKS = {
    "cone pairs of a data set, repeats included": _cone_pairs,
    "a number in a data set, `--at` or `--edge`, or an integer argument":
        _digits,
    "`profile P Q` and `--K`": _profile_integers,
    "`profile --samples`": _samples_at_most,
    "samples to verify": _samples_to_verify,
    "samples to build": _samples_to_build,
    "`profile --H` and `--peak`": _finite,
    "`--candidates` and `--workers`": _counts,
    "`census --degrees`": _degree_list,
    "a degree": _degree,
    "a genus": _genus,
    "a census below genus 2": _census_degrees,
    "the largest degree or genus": _no_upper_bound,
}


def test_every_limit_row_has_a_check():
    assert list(_limit_rows()) == list(LIMIT_CHECKS)


@pytest.mark.parametrize("name", LIMIT_CHECKS, ids=[
    check.__name__.strip("_") for check in LIMIT_CHECKS.values()])
def test_limit_row_at_its_bound_and_one_step_past(name, monkeypatch):
    monkeypatch.delenv("PERISURF_FORMAT", raising=False)
    LIMIT_CHECKS[name](_limit_rows()[name])
