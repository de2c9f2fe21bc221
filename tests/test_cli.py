import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perisurf.census import cyclic_degree_cap
from perisurf.cli import _LIMITS, main
from perisurf.core import ParseError, parse_data_set
from perisurf.gluing import Assembly, assembly_to_json, build_edge


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv("PERISURF_FORMAT", raising=False)


def run(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


HEX_PLUS = "(6_+,0;(1,2),(1,3),(1,6),[3])"
HEX_MINUS = "(6_-,0;(1,2),(2,3),(5,6),[3])"
PIECE_B = "(6_+,0;(1,3),(5,6),(5,6),[2,3])"


def test_genus_and_exit_codes(capsys):
    code, out, _ = run(["genus", "(6,0;(1,2),(1,3),(1,6))"], capsys)
    assert (code, out.strip()) == (0, "1")

    code, _, err = run(["genus", "(bogus"], capsys)
    assert code == 2
    assert "parse error" in err

    code, _, err = run(["genus", "(2,0;(1,2))"], capsys)
    assert code == 1
    assert err.startswith("error:")


def test_structurally_bad_notation_is_a_parse_error(capsys):
    for text in ["(6,0;(1,0))", "(6_+,0;(1,2),(1,3),(1,6),[0])"]:
        code, _, err = run(["genus", text], capsys)
        assert code == 2, text
        assert "parse error" in err


# one non-decimal digit in each number slot: degree, g0, rotation, cone
# residue, cone order, repeat count and mark
@pytest.mark.parametrize("digit", ["²", "①"])
@pytest.mark.parametrize("template", [
    "(D,0;(1,2))", "(6,D;(1,2))", "(6,0,D;-)", "(6,0;(D,2))", "(6,0;(1,D))",
    "(2,0;(1,2)×D)", "(6_+,0;(1,2),(1,3),(1,6),[D])",
])
def test_non_decimal_digits_are_parse_errors(template, digit, capsys):
    # str.isdigit accepts these characters and int() does not
    text = template.replace("D", digit)
    with pytest.raises(ParseError) as info:
        parse_data_set(text)
    assert info.value.position == text.index(digit)
    code, _, err = run(["genus", text], capsys)
    assert code == 2
    assert "parse error" in err


def test_cone_pair_limit_is_reached_exactly():
    d = parse_data_set("(2,0;(1,2)×1000000)")
    assert d.num_pairs == 10**6
    d = parse_data_set("(2,0;(1,2)×999999,(1,2))")
    assert d.num_pairs == 10**6


@pytest.mark.parametrize("text, position", [
    ("(2,0;(1,2)×1000001)", 11),
    ("(2,0;(1,2)x 1000001)", 12),
    ("(2,0;(1,2)×999999,(1,2)×2)", 24),
    ("(2,0;(1,2)×1000000000)", 11),
    # a plain pair past the limit: the position after it
    ("(2,0;(1,2)×1000000,(1,2))", 24),
])
def test_cone_pair_limit_plus_one_is_a_parse_error(text, position, capsys):
    with pytest.raises(ParseError, match="more than 1000000 cone pairs") as info:
        parse_data_set(text)
    assert info.value.position == position
    code, out, err = run(["genus", text], capsys)
    assert (code, out) == (2, "")
    assert "parse error: more than 1000000 cone pairs" in err


def test_validate_reports_and_exit(capsys):
    code, out, _ = run(["validate", "(6,0;(1,2),(1,3),(1,6))"], capsys)
    assert code == 0 and out.strip() == "valid"

    code, out, _ = run(["validate", "(5,0;(1,5),(1,5),(1,5))"], capsys)
    assert code == 1
    assert "(v)" in out

    code, out, _ = run(["validate", "--json", "(5,0;(1,5),(1,5),(1,5))"],
                       capsys)
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any(v["condition"] == "v" for v in payload["violations"])


def test_classify(capsys):
    code, out, _ = run(["classify", "(6,0;(1,2),(1,3),(1,6))"], capsys)
    assert (code, out.strip()) == (0, "type1-irreducible")


def test_polygon_with_svg(tmp_path, capsys):
    target = tmp_path / "ten.svg"
    code, out, _ = run(["polygon", "(5,0;(1,5),(3,5),(1,5))",
                        "--svg", str(target)], capsys)
    assert code == 0
    assert "sides: 10" in out
    assert "verified: yes" in out
    assert target.read_text().startswith("<svg")

    code, out, _ = run(["polygon", "--json", "(5,0;(1,5),(3,5),(1,5))"],
                       capsys)
    payload = json.loads(out)
    assert payload["sides"] == 10
    assert payload["verification"]["euler_genus"] == 2
    assert payload["verification"]["ok"] is True

    code, _, err = run(["polygon", "(2,1,1;-)"], capsys)
    assert code == 1 and "error:" in err


def test_glue_lists_pairs_and_glues(capsys):
    a, b = "(6,0;(1,2),(1,3),(1,6))", "(6,0;(1,2),(2,3),(5,6))"
    code, out, _ = run(["glue", a, b], capsys)
    assert (code, out.strip()) == (0, "1:1 2:2 3:3")

    code, out, _ = run(["glue", a, b, "--at", "3:3"], capsys)
    assert (code, out.strip()) == (0, "(6,0;(1,2),(1,2),(1,3),(2,3))")

    code, _, err = run(["glue", a, b, "--at", "1:2"], capsys)
    assert code == 1 and "error:" in err

    code, _, err = run(["glue", a, b, "--at", "x"], capsys)
    assert code == 2

    code, out, _ = run(["glue", a, "(3,0;(1,3),(1,3),(1,3))"], capsys)
    assert (code, out.strip()) == (0, "no compatible cone pairs")


def test_self_glue(capsys):
    code, out, _ = run(
        ["self-glue", "(3,0;(1,3),(1,3),(2,3),(2,3))", "--at", "2:3"], capsys)
    assert (code, out.strip()) == (0, "(3,1;(1,3),(2,3))")


def test_assemble_text_output(capsys):
    code, out, _ = run(
        ["assemble", HEX_PLUS, PIECE_B, "--edge", "(3:1)~(3:2)"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "(6_+,0;(1,2),(1,3),(1,3),(5,6),[4])"
    assert lines[1] == "genus: 3"
    assert lines[2] == "word: ext(0,+) ext(1,+) twist(edge0,+1) rot(4,5/6)"
    assert "piece 1 mark 3: glued" in lines
    assert "piece 2 mark 2: kept as output 4" in lines


def test_assemble_notes_mixed_signs(capsys):
    code, out, _ = run(
        ["assemble", "(6_+,0;(1,2),(1,3),(1,6),[1])",
         "(6_-,0;(1,2),(2,3),(5,6),[1])", "--edge", "(3:1)~(3:2)"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "note: pieces carry mixed signs"


def test_assemble_self_edges(capsys):
    pieces = ["(5_+,0;(2,5),(3,5),(1,5),[3])", "(5_+,0;(4,5),(3,5),(3,5),[1])"]
    argv = ["assemble", *pieces, "--edge", "(3:1)~(1:2)"]
    # the cones of a self edge may come in either order
    code, out, _ = run(argv + ["--self-edge", "(2:1)~(1:1)"], capsys)
    assert code == 0
    assert out.splitlines()[:3] == [
        "(5_+,1;(3,5),(3,5),[])", "genus: 5",
        "word: ext(0,+) ext(1,+) twist(edge0,+1) twist(selfedge0,+1)"]
    for self_edge, message in [("(1:1)~(2:2)", "must stay on one piece"),
                               ("(1:1)~(1:1)", "repeats a cone")]:
        code, out, err = run(argv + ["--self-edge", self_edge], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: self edge {self_edge!r} {message}\n"


def test_assemble_edge_syntax(capsys):
    for edge, message in [
            ("3:1~3:2", "expected (cone:piece)~(cone:piece), got '3:1~3:2'"),
            ("(3:0)~(3:2)", "pieces are numbered from 1 in '(3:0)~(3:2)'")]:
        code, out, err = run(["assemble", HEX_PLUS, PIECE_B, "--edge", edge],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"parse error: {message} (at position 0)\n"


@pytest.mark.parametrize("argv, position", [
    (["glue", "(6,0;(1,2),(1,3),(1,6))", "(6,0;(1,2),(2,3),(5,6))",
      "--at", "{past}:3"], 0),
    (["self-glue", "(3,0;(1,3),(1,3),(2,3),(2,3))", "--at", "2:{past}"], 2),
    (["assemble", HEX_PLUS, PIECE_B, "--edge", "(3:1)~({past}:2)"], 7),
    (["fill", HEX_PLUS, "--self-edge", "(1:{past})~(2:1)"], 3),
], ids=["glue-at", "self-glue-at", "assemble-edge", "fill-self-edge"])
def test_numbers_past_the_digit_limit_are_parse_errors(argv, position,
                                                       capsys):
    # as in a data set: exit 2 with the parser's message, not int()'s
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python has no int string limit")
    argv = [*argv[:-1], argv[-1].format(past="9" * (limit + 1))]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == (f"parse error: a number of {limit + 1} digits is too "
                   f"long (at position {position})\n")


def test_assemble_rejects_unmarked_pieces(capsys):
    code, _, err = run(
        ["assemble", "(6,0;(1,2),(1,3),(1,6))", PIECE_B,
         "--edge", "(3:1)~(3:2)"], capsys)
    assert code == 1
    assert "sign or marks" in err


def test_assemble_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    pieces = (parse_data_set(HEX_PLUS), parse_data_set(PIECE_B))
    payload = assembly_to_json(
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))
    path = tmp_path / "assembly.json"
    path.write_text(json.dumps(payload))

    code, out, _ = run(["assemble", "--file", str(path), "--json"], capsys)
    assert code == 0
    assert json.loads(out)["genus"] == 3

    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(json.dumps(payload).encode())))
    code, out, _ = run(["assemble", "--file", "-"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "(6_+,0;(1,2),(1,3),(1,3),(5,6),[4])"


@pytest.mark.parametrize("from_stdin", [False, True])
def test_file_is_read_as_utf8_whatever_the_locale(tmp_path, from_stdin):
    # the pieces carry subscript signs, which are not ASCII
    data = json.dumps({
        "pieces": [HEX_PLUS.replace("_+", "\u208a"),
                   PIECE_B.replace("_+", "\u208a")],
        "edges": [{"left": [0, 3], "right": [1, 3]}],
        "self_edges": []}, ensure_ascii=False).encode("utf-8")
    assert not data.isascii()
    path = tmp_path / "assembly.json"
    path.write_bytes(data)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "PYTHON")) and k != "LANG"}
    env.update(LC_ALL="POSIX", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "perisurf.cli", "fill", "--file",
         "-" if from_stdin else str(path)],
        input=data if from_stdin else None, env=env, capture_output=True,
        timeout=60, check=False)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines()[0] == \
        "SteinFillable (positive-assembly)"


@pytest.mark.parametrize("command", ["assemble", "fill"])
@pytest.mark.parametrize("extra", [
    [HEX_MINUS, "--edge", "(1:1)~(2:2)"],
    ["X"],
    ["--self-edge", "(1:1)~(2:1)"],
])
def test_file_takes_no_pieces_or_edges(tmp_path, capsys, command, extra):
    # the file alone is a valid assembly, so the usage error comes from what
    # is given beside it
    pieces = (parse_data_set(HEX_PLUS), parse_data_set(PIECE_B))
    path = tmp_path / "assembly.json"
    path.write_text(json.dumps(assembly_to_json(
        Assembly(pieces, (build_edge(pieces, (0, 3), (1, 3)),)))))
    assert run([command, "--file", str(path)], capsys)[0] == 0
    code, out, err = run([command, *extra, "--file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "argument --file: not allowed with pieces or edges" in err


@pytest.mark.parametrize("command", ["assemble", "fill"])
def test_file_assembly_slots_are_integers(tmp_path, capsys, command):
    # truncated, the float cone indices make the valid self edge (0, 1, 2)
    path = tmp_path / "assembly.json"
    path.write_text(json.dumps({
        "pieces": ["(5_+,0;(2,5),(3,5),(1,5),[3])",
                   "(5_+,0;(4,5),(3,5),(3,5),[1])"],
        "edges": [{"left": [0, 3], "right": [1, 1]}],
        "self_edges": [[0, 1.9, 2.2]]}))
    code, out, err = run([command, "--file", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: self edge must be 3 integers, got [0, 1.9, 2.2]\n"


def test_page_veering_surgery_resolve(capsys):
    code, out, _ = run(["page", HEX_MINUS], capsys)
    assert code == 0
    assert "page genus: 1" in out
    assert "orbit 3: 1 circle, slope -1/6 (invariant)" in out

    code, out, _ = run(["veering", HEX_MINUS], capsys)
    assert (code, out.strip()) == (0, "left-veering")

    code, out, _ = run(["surgery", HEX_MINUS], capsys)
    assert "orbit 3: rational surgery, topological -6, contact 6" in out

    code, out, _ = run(["resolve", HEX_MINUS], capsys)
    assert code == 0
    assert "orbit 3: 6 circles, slope 0" in out
    assert out.count("twist(resolve[3.") == 6

    code, _, err = run(["resolve", "(5_+,0;(1,5),(3,5),(1,5),[1])"], capsys)
    assert code == 1 and "error:" in err


def test_fill_marked_and_assembly(capsys):
    code, out, _ = run(["fill", HEX_MINUS], capsys)
    assert code == 0
    assert out.splitlines()[0] == \
        "Overtwisted (left-veering resolution: 6 negative boundary twists)"

    code, out, _ = run(
        ["fill", HEX_PLUS, PIECE_B, "--edge", "(3:1)~(3:2)"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "SteinFillable (positive-assembly)"

    code, out, _ = run(["fill", "--json", "(6_-,0;(1,2),(1,3),(1,6),[2])"],
                       capsys)
    payload = json.loads(out)
    assert payload["verdict"] == "Unknown"
    assert payload["certificate"] == "none"

    code, _, err = run(["fill"], capsys)
    assert code == 1


def test_fill_rejects_malformed_marks(capsys):
    for marks, message in [
            ("[4]", "mark 4 is outside the cone index range 1..3"),
            ("[3,3]", "mark indices must be distinct"),
            ("[]", "marked data set has no marks")]:
        for sign in "+-":
            text = f"(6_{sign},0;(1,2),(1,3),(1,6),{marks})"
            for extra in ([], ["--json"]):
                code, out, err = run(["fill", text] + extra, capsys)
                assert code == 1, text
                assert out == ""
                assert err == f"error: {message}\n"  # no traceback


def test_profile_build_and_failures(tmp_path, capsys):
    csv_path = tmp_path / "p.csv"
    code, out, _ = run(["profile", "2", "1", "--csv", str(csv_path)], capsys)
    assert code == 0
    assert "verified" in out.splitlines()[-1]
    assert csv_path.read_text().startswith("r,f0,g0")

    code, _, err = run(["profile", "1", "-1"], capsys)
    assert code == 1 and "pass K explicitly" in err

    code, out, _ = run(["profile", "--json", "2", "1"], capsys)
    payload = json.loads(out)
    assert payload["ok"] is True and payload["K"] == 2

    code, out, _ = run(["profile", "1", "2"], capsys)
    assert code == 1
    assert out.splitlines()[-2:] == [
        "first violation: symplectic at r=0 (value 0.000977517)",
        "not verified"]

    # a tolerance wider than every value leaves each one undecided
    code, out, _ = run(["profile", "2", "1", "--tolerance", "1e9"], capsys)
    assert code == 0
    assert out.splitlines()[-2:] == ["inconclusive samples: 2047", "verified"]


def test_profile_search(capsys):
    code, out, _ = run(["profile", "5", "-1", "--search"], capsys)
    assert code == 0
    assert "verified" in out

    code, out, _ = run(["profile", "-1", "-2", "--search"], capsys)
    assert code == 1
    assert "no verified profile found" in out


def test_profile_samples_apply_to_both_paths(capsys):
    def samples(argv):
        code, out, _ = run(["profile", "--json", *argv], capsys)
        assert code == 0
        return json.loads(out)["samples"]

    assert samples(["2", "1"]) == 1024
    assert samples(["2", "1", "--search"]) == 256
    assert samples(["2", "1", "--samples", "128"]) == 128
    assert samples(["2", "1", "--search", "--samples", "1024"]) == 1024

    code, _, err = run(["profile", "2", "1", "--search", "--samples", "32"],
                       capsys)
    assert code == 1 and "at least 64 samples" in err


def test_profile_samples_have_an_upper_bound(capsys):
    # the bound itself is accepted
    assert run(["profile", "2", "1", "--samples", "100000"], capsys)[0] == 0
    for argv in (["--samples", "100001"], ["--search", "--samples", "10**6"],
                 ["--samples", "1e3"]):
        code, out, err = run(["profile", "2", "1", *argv], capsys)
        assert code == 2 and out == "", argv
    assert "at most 100000 samples, got '100001'" in run(
        ["profile", "2", "1", "--samples", "100001"], capsys)[2]


def test_profile_integers_have_a_bound(capsys):
    # the bound itself is accepted, on either side of zero
    for argv in (["100000", "1"], ["5", "1", "--K", "100000"],
                 # the search picks its own K, so the given one is only parsed
                 ["5", "1", "--search", "--K", "-100000"],
                 # an infinite tolerance leaves every value undecided, and
                 # the corner holds
                 ["99999", "-100000", "--K", "0", "--tolerance", "inf"]):
        assert run(["profile", *argv], capsys)[0] == 0, argv


@pytest.mark.parametrize("name,argv", [
    ("p", ["100001", "1"]),
    ("p", ["-100001", "1"]),
    ("q", ["1", "100001"]),
    ("q", ["1", "-100001"]),
    ("--K", ["5", "1", "--K", "100001"]),
    ("--K", ["5", "1", "--K", "-100001"]),
    # once an OverflowError traceback, raised converting K to a float
    ("--K", ["5", "1", "--K", "1" + "0" * 400]),
    ("p", ["1" + "0" * 400, "1", "--K", "1"]),
])
def test_profile_refuses_huge_integers(capsys, name, argv):
    code, out, err = run(["profile", *argv], capsys)
    assert code == 2 and out == ""
    assert f"argument {name}: at most 100000 in absolute value, got " in err
    assert "Traceback" not in err


def test_profile_integers_must_be_integers(capsys):
    # more digits than int() converts is not an integer either
    for argv in (["5", "x"], ["1e3", "1"], ["5", "1", "--K", "9" * 5000]):
        code, out, err = run(["profile", *argv], capsys)
        assert code == 2 and out == "", argv
        assert "expected an integer, got " in err


@pytest.mark.parametrize("option", ["--H", "--peak"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "x"])
def test_profile_shape_must_be_finite(capsys, option, value):
    code, out, err = run(["profile", "5", "1", f"{option}={value}"], capsys)
    assert code == 2 and out == ""
    assert f"argument {option}: expected a finite number, got '{value}'" in err


def test_profile_takes_finite_shape_values(capsys):
    code, out, _ = run(["profile", "--json", "5", "1", "--H", "9",
                        "--peak", "1.5"], capsys)
    assert code == 0 and json.loads(out)["H"] == 9.0


def test_profile_tolerance_nan_makes_every_check_definite(capsys):
    code, out, _ = run(["profile", "--json", "2", "1", "--tolerance", "nan"],
                       capsys)
    assert code == 0
    assert json.loads(out)["inconclusive"] == 0


def test_enumerate_matches_oracle(capsys):
    code, out, _ = run(["enumerate", "6", "1"], capsys)
    assert code == 0
    plain = out.splitlines()
    assert plain == [
        "(6,0;(1,2),(1,3),(1,6))",
        "(6,0;(1,2),(2,3),(5,6))",
        "(6,1,1;-)",
        "(6,1,5;-)",
    ]
    code, out, _ = run(["enumerate", "6", "1", "--oracle"], capsys)
    assert out.splitlines() == plain

    code, out, _ = run(["enumerate", "--json", "6", "1"], capsys)
    assert json.loads(out)["count"] == 4


def test_census_stream_and_file(tmp_path, capsys):
    code, out, _ = run(["census", "--genus", "2", "--workers", "1"], capsys)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert all(r["genus"] == 2 for r in records)
    assert {r["degree"] for r in records} == {2, 3, 4, 5, 6, 8, 10}

    target = tmp_path / "census.jsonl"
    code, out, _ = run(["census", "--genus", "2", "--degrees", "5,6",
                        "--workers", "1", "--class", "type1-irreducible",
                        "--output", str(target)], capsys)
    assert code == 0
    stored = [json.loads(line) for line in target.read_text().splitlines()]
    assert stored and all(r["class"] == "type1-irreducible" for r in stored)
    assert all(r["polygon_verified"] is True for r in stored)
    assert out == f"{len(stored)} records written to {target}\n"
    # with --json the report of the file written is JSON as well
    again = tmp_path / "again.jsonl"
    code, out, _ = run(["census", "--genus", "2", "--degrees", "5,6",
                        "--workers", "1", "--class", "type1-irreducible",
                        "--output", str(again), "--json"], capsys)
    assert code == 0
    assert json.loads(out) == {"records": len(stored), "output": str(again)}
    assert again.read_text() == target.read_text()

    code, _, _ = run(["census", "--genus", "1", "--max-genus", "2"], capsys)
    assert code == 2  # mutually exclusive

    code, _, err = run(["census", "--genus", "1", "--workers", "1"], capsys)
    assert code == 1  # unbounded without degrees

    code, _, err = run(["census", "--genus", "2", "--degrees", "x"], capsys)
    assert code == 2 and "comma-separated degrees" in err

    code, out, err = run(["census", "--max-genus", "-1"], capsys)
    assert (code, out) == (1, "")
    assert "max_genus must be non-negative" in err


def test_census_refusal_creates_no_output_file(tmp_path, capsys):
    # the census refuses the query before its first cell, so before the
    # file is opened
    target = tmp_path / "census.jsonl"
    for argv in (["--genus", "1"], ["--genus", "2", "--degrees", "5,0"]):
        code, out, err = run(["census", *argv, "--output", str(target)],
                             capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert not target.exists()


def test_census_prints_its_first_line_before_the_last_cell(monkeypatch):
    # each cell's records are written as the cell is made: the first line
    # reaches stdout while cells are still to come
    census_module = sys.modules["perisurf.census"]
    cell = census_module._cell
    cells = []
    cells_at_first_write = []

    def counting(*args):
        cells.append(args[:2])
        return cell(*args)

    class Watched(io.StringIO):
        def write(self, text):
            if not cells_at_first_write:
                cells_at_first_write.append(len(cells))
            return super().write(text)

    monkeypatch.setattr(census_module, "_cell", counting)
    monkeypatch.setattr("sys.stdout", Watched())
    assert main(["census", "--genus", "4"]) == 0
    assert len(cells) == cyclic_degree_cap(4)
    assert cells_at_first_write == [2]  # degree 1 is empty, degree 2 is not


def test_count_options_must_be_positive(capsys):
    for argv in (["census", "--genus", "2", "--degrees", "5", "--workers", "0"],
                 ["census", "--genus", "2", "--degrees", "5", "--workers", "-3"],
                 ["profile", "5", "1", "--search", "--candidates", "-1"],
                 ["profile", "5", "1", "--search", "--candidates", "0"],
                 ["census", "--genus", "2", "--degrees", "5", "--workers", "x"],
                 ["profile", "5", "1", "--search", "--candidates", "1.5"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, ""), argv
        assert "expected a positive integer" in err


SUBCOMMANDS = ["validate", "genus", "classify", "polygon", "glue", "self-glue",
               "assemble", "fill", "page", "veering", "surgery", "resolve",
               "profile", "enumerate", "census"]


@pytest.mark.parametrize("command", [[], *([c] for c in SUBCOMMANDS)],
                         ids=["perisurf", *SUBCOMMANDS])
def test_help_is_printed(capsys, command):
    # a stray "%" in a help string fails only when the help is printed
    code, out, err = run([*command, "--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: perisurf")
    if command == ["profile"]:
        text = " ".join(out.split())
        *_, most, _ = _LIMITS["profile"]
        for name in ("slope denominator", "slope numerator", "collar offset"):
            assert f"{name}, at most {most} in absolute value" in text
        assert f"grid size, at most {_LIMITS['samples'][3]} " in text


def test_census_prints_json_lines_in_both_modes(capsys):
    argv = ["census", "--genus", "2", "--degrees", "5,6", "--workers", "1"]
    code, plain, _ = run(argv, capsys)
    assert code == 0 and plain
    assert run(argv + ["--json"], capsys) == (0, plain, "")
    # --workers changes nothing in the output
    assert run(argv[:-1] + ["2"], capsys) == (0, plain, "")


def test_format_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("PERISURF_FORMAT", "json")
    code, out, _ = run(["genus", "(6,0;(1,2),(1,3),(1,6))"], capsys)
    assert code == 0
    assert json.loads(out) == {"genus": 1}

    monkeypatch.setenv("PERISURF_FORMAT", "text")
    code, out, _ = run(["genus", "(6,0;(1,2),(1,3),(1,6))"], capsys)
    assert out.strip() == "1"


def test_closed_stdout_is_an_error_exit(capsys, monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    for argv in (["genus", "(6,0;(1,2),(1,3),(1,6))"],
                 ["census", "--genus", "2"]):
        code = main(argv)
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
