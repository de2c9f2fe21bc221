"""Command line front end.

Every subcommand accepts ``--json`` for machine-readable output; setting
``PERISURF_FORMAT=json`` makes that the default.  Exit codes: 0 on success,
1 when the input is outside a command's domain (incompatible gluing,
non-integral genus, failed verification, ...), 2 for usage and syntax
errors.

Each ``_cmd_*`` handler returns ``(exit code, payload, lines)`` and prints
nothing itself.  :func:`main` prints the payload as indented JSON when JSON
is wanted and the payload is not ``None``, and the text lines otherwise.
``census`` prints JSON lines in both modes, so it has a payload only with
``--output``: the record count and the path of the file it wrote.  It
writes each degree/genus cell's records as the cell is made: its lines are
an iterator that :func:`main` prints as they come, and with ``--output``
they go to the file one by one, while the library's ``census()`` still
returns a list.

Only :mod:`perisurf.core` is imported with this module.  Each handler
imports what it uses from the other modules, so a command loads only those:
``genus``, ``validate`` and ``classify`` load none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .core import (
    MarkedDataSet,
    ParseError,
    _CLASS_LABELS,
    canonicalize,
    classify,
    data_set_to_json,
    format_data_set,
    genus,
    parse_data_set,
    validate,
    validation_report_to_json,
)


def _wants_json(args) -> bool:
    return args.json or \
        os.environ.get("PERISURF_FORMAT", "").strip().lower() == "json"


_AT = re.compile(r"^\s*(\d+)\s*:\s*(\d+)\s*$")
_EDGE = re.compile(r"^\s*\(\s*(\d+)\s*:\s*(\d+)\s*\)\s*~\s*"
                   r"\(\s*(\d+)\s*:\s*(\d+)\s*\)\s*$")


def _numbers(m: re.Match) -> list[int]:
    # the digit groups of a match of _AT or _EDGE; as in a data set, a
    # number past Python's int string limit is a parse error
    numbers = []
    for k, digits in enumerate(m.groups(), 1):
        try:
            numbers.append(int(digits))
        except ValueError:
            raise ParseError(f"a number of {len(digits)} digits is too long",
                             m.start(k)) from None
    return numbers


def _parse_at(text: str) -> tuple[int, int]:
    m = _AT.match(text)
    if not m:
        raise ParseError(f"expected i:j, got {text!r}", 0)
    i, j = _numbers(m)
    return i, j


# The bounded arguments.  Each row gives the converter, what the text must
# be, the least and greatest value allowed (None where a side has no
# bound) and the message for a value outside them; the README's "Limits"
# table states every bound.
_LIMITS = {
    # build_profile plus verify_profile took 0.12 s and peaked at 54 MB at
    # 10^5 samples, against 1.2 s and 390 MB at 10^6 (Python 3.11, 2 vCPUs)
    "samples": (int, "an integer", None, 100_000, "at most {hi} samples"),
    # The default collar offset has a closed form, so the bound is not there
    # for time: within it every profile value is a float far from overflow.
    "profile": (int, "an integer", -100_000, 100_000,
                "at most {hi} in absolute value"),
    "count": (int, "a positive integer", 1, None,
              "expected a positive integer"),
    "finite": (float, "a finite number", -sys.float_info.max,
               sys.float_info.max, "expected a finite number"),
    "degrees": (lambda text: tuple(int(x) for x in text.split(",")),
                "comma-separated degrees", None, None, None),
}


def _limited(name: str):
    """The argparse type of the row ``name`` of ``_LIMITS``."""
    convert, expects, lo, hi, past = _LIMITS[name]

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {expects}, got {text!r}") from None
        # NaN compares false to both bounds, so it is outside them
        if not ((lo is None or lo <= value) and (hi is None or value <= hi)):
            raise argparse.ArgumentTypeError(
                f"{past.format(hi=hi)}, got {text!r}")
        return value

    return parse


def _parse_edge(text: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Parse ``(a:i)~(b:j)``: cone ``a`` of piece ``i`` meets cone ``b`` of
    piece ``j``; pieces are numbered from 1 on the command line."""
    m = _EDGE.match(text)
    if not m:
        raise ParseError(f"expected (cone:piece)~(cone:piece), got {text!r}", 0)
    ca, pa, cb, pb = _numbers(m)
    if pa < 1 or pb < 1:
        raise ParseError(f"pieces are numbered from 1 in {text!r}", 0)
    return (pa - 1, ca), (pb - 1, cb)


def _parse_marked(text: str) -> MarkedDataSet:
    d = parse_data_set(text)
    if not isinstance(d, MarkedDataSet):
        raise ValueError(
            f"{format_data_set(d)} has no sign or marks; write it like "
            '"(6_+,0;(1,2),(1,3),(1,6),[3])"')
    return d


def _build_assembly(args):
    from .gluing import Assembly, GluingEdge, assembly_from_json

    if args.file:
        if args.file == "-":
            # JSON is UTF-8 whatever the locale
            payload = json.load(sys.stdin.buffer)
        else:
            with open(args.file, encoding="utf-8") as fh:
                payload = json.load(fh)
        return assembly_from_json(payload)
    pieces = tuple(_parse_marked(p) for p in args.pieces)
    edges = [GluingEdge(*_parse_edge(text)) for text in args.edge or ()]
    self_edges = []
    for text in args.self_edge or ():
        (pa, ca), (pb, cb) = _parse_edge(text)
        if pa != pb:
            raise ValueError(f"self edge {text!r} must stay on one piece")
        if ca == cb:
            raise ValueError(f"self edge {text!r} repeats a cone")
        self_edges.append((pa, min(ca, cb), max(ca, cb)))
    # the assembly checks its pieces and edges when it is built
    return Assembly(pieces, edges, self_edges)


# --- subcommand handlers ------------------------------------------------------


def _cmd_validate(args):
    report = validate(parse_data_set(args.data_set))
    lines = ["valid"] if report.valid else \
        [f"({ident}) {detail}" for ident, detail in report.violations]
    return (0 if report.valid else 1), validation_report_to_json(report), lines


def _cmd_genus(args):
    g = genus(parse_data_set(args.data_set))
    return 0, {"genus": g}, [str(g)]


def _cmd_classify(args):
    ac = classify(parse_data_set(args.data_set))
    return 0, {"label": ac.label, "kind": ac.kind,
               "irreducible": ac.irreducible}, [ac.label]


def _cmd_polygon(args):
    from dataclasses import asdict

    from .realization import (draw_polygon_svg, polygon_realization,
                              realization_report_to_json, verify_realization)

    d = parse_data_set(args.data_set)
    pres = polygon_realization(d)
    report = verify_realization(pres, d)
    if args.svg:
        draw_polygon_svg(pres, args.svg)
    payload = {"sides": pres.sides, **asdict(pres),
               "outside_theorem": report.outside_theorem,
               "verification": realization_report_to_json(report)}
    pairs = sorted({tuple(sorted((i + 1, j)))
                    for i, j in enumerate(pres.pairing)})
    lines = [f"sides: {pres.sides}",
             "pairing: " + " ".join(f"{i}~{j}" for i, j in pairs),
             f"rotation step: {pres.rotation_step}",
             f"genus: {report.euler_genus} (expected {report.rh_genus})"]
    if report.outside_theorem:
        lines.append("note: genus below 2, outside the guaranteed range")
    lines.append(f"verified: {'yes' if report.ok else 'NO'}")
    if args.svg:
        payload["svg"] = args.svg
        lines.append(f"svg written to {args.svg}")
    return (0 if report.ok else 1), payload, lines


def _cmd_glue(args):
    from .gluing import compatible_pairs, glue

    d1 = parse_data_set(args.first)
    d2 = parse_data_set(args.second)
    if args.at is None:
        pairs = compatible_pairs(d1, d2)
        return 0, {"compatible": [list(p) for p in pairs]}, [
            " ".join(f"{i}:{j}" for i, j in pairs) if pairs
            else "no compatible cone pairs"]
    i, j = _parse_at(args.at)
    glued = canonicalize(glue(d1, d2, i, j))[0]
    return 0, data_set_to_json(glued), [format_data_set(glued)]


def _cmd_self_glue(args):
    from .gluing import self_glue

    r, s = _parse_at(args.at)
    glued = canonicalize(self_glue(parse_data_set(args.data_set), r, s))[0]
    return 0, data_set_to_json(glued), [format_data_set(glued)]


def _cmd_assemble(args):
    from .gluing import assemble, word_to_json

    result = assemble(_build_assembly(args))
    g = genus(result.data_set)
    entries = result.ledger.entries
    payload = {
        "data_set": data_set_to_json(result.data_set),
        "genus": g,
        "word": word_to_json(result.word),
        "boundary": [{"piece": e.piece, "mark": e.mark,
                      "consumed": e.consumed, "output_index": e.output_index}
                     for e in entries],
        "mixed_signs": result.ledger.mixed_signs,
    }
    lines = [format_data_set(result.data_set),
             f"genus: {g}",
             f"word: {result.word}"]
    lines += [f"piece {e.piece + 1} mark {e.mark}: "
              + ("glued" if e.consumed else f"kept as output {e.output_index}")
              for e in entries]
    if result.ledger.mixed_signs:
        lines.append("note: pieces carry mixed signs")
    return 0, payload, lines


def _descriptor(args):
    from .openbook import page_descriptor

    return page_descriptor(_parse_marked(args.data_set))


def _descriptor_lines(d) -> list[str]:
    lines = [f"page genus: {d.page_genus}"]
    for o in d.boundary_orbits:
        circles = "1 circle" if o.orbit_size == 1 else f"{o.orbit_size} circles"
        tail = "invariant" if o.invariant else \
            f"per period {o.per_period_slope}"
        lines.append(f"orbit {o.mark}: {circles}, "
                     f"slope {o.full_period_slope} ({tail})")
    return lines + [f"word: {d.monodromy}",
                    f"positive word: {'yes' if d.positive_word else 'no'}"]


def _cmd_page(args):
    from .openbook import descriptor_to_json

    d = _descriptor(args)
    return 0, descriptor_to_json(d), _descriptor_lines(d)


def _cmd_veering(args):
    from .openbook import veering

    v = veering(_descriptor(args))
    return 0, {"veering": v.value}, [v.value]


def _cmd_surgery(args):
    from .openbook import surgery_description, surgery_to_json

    # a marked cone's residue is a unit, so its orbit turns: no entry is "none"
    desc = surgery_description(_descriptor(args))
    lines = []
    for e in desc.entries:
        line = (f"orbit {e.orbit}: {e.kind} surgery, "
                f"topological {e.topological}, "
                f"contact {e.contact}")
        if e.legendrian_realizable:
            line += " (legendrian)"
        lines.append(line)
    return 0, surgery_to_json(desc), lines


def _cmd_resolve(args):
    from .openbook import descriptor_to_json, integral_resolution

    resolved = integral_resolution(_descriptor(args))
    return 0, descriptor_to_json(resolved), _descriptor_lines(resolved)


def _cmd_fill(args):
    from .fillability import classify_assembly, classify_marked, verdict_to_json

    assembly_mode = bool(args.file or args.edge or args.self_edge
                         or len(args.pieces) > 1)
    if assembly_mode:
        v = classify_assembly(_build_assembly(args))
    else:
        if not args.pieces:
            raise ValueError("fill needs a marked data set or an assembly")
        v = classify_marked(_parse_marked(args.pieces[0]))
    if v.verdict == "Unknown":
        headline = "Unknown"
    elif v.certificate == "left-veering-resolution" and v.notes:
        headline = f"{v.verdict} ({v.notes[0]})"
    else:
        headline = f"{v.verdict} ({v.certificate})"
    lines = [headline]
    lines += [f"  - {name}: {'yes' if held else 'no'}"
              for name, held in v.hypotheses]
    lines += [f"  note: {note}" for note in v.notes if note not in headline]
    return 0, verdict_to_json(v), lines


def _cmd_profile(args):
    from .profiles import (build_profile, search_profiles, verify_profile,
                           write_profile_csv)

    # without --samples each path keeps its own default grid
    samples = {} if args.samples is None else {"samples": args.samples}
    if args.search:
        pp = search_profiles(args.p, args.q, candidates=args.candidates,
                             tolerance=args.tolerance, **samples)
        if pp is None:
            return 1, {"found": False}, ["no verified profile found"]
    else:
        pp = build_profile(args.p, args.q, args.K, args.H,
                           peak=args.peak, **samples)
    # the search keeps only pass or fail and records no inconclusive
    # samples, so this pass builds the report for both paths
    report = verify_profile(pp, args.tolerance)
    if args.csv:
        write_profile_csv(pp, args.csv)
    payload = {
        "p": pp.p, "q": pp.q, "K": pp.K, "H": pp.H,
        "samples": len(pp.grid),
        "contact_ok": report.contact_ok,
        "symplectic_ok": report.symplectic_ok,
        "ok": report.ok,
        "first_violation": list(report.first_violation)
        if report.first_violation else None,
        "inconclusive": len(report.inconclusive),
    }
    if args.search:
        payload["found"] = True
    lines = [f"profile p={pp.p} q={pp.q} K={pp.K} H={pp.H} "
             f"samples={len(pp.grid)}"]
    lines += [f"{name}: {'ok' if ok else 'FAILED'}"
              for name, ok in (("contact", report.contact_ok),
                               ("symplectic", report.symplectic_ok))]
    if report.first_violation:
        r, cond, value = report.first_violation
        lines.append(f"first violation: {cond} at r={r:.6g} "
                     f"(value {value:.6g})")
    if report.inconclusive:
        lines.append(f"inconclusive samples: {len(report.inconclusive)}")
    if args.csv:
        payload["csv"] = args.csv
        lines.append(f"csv written to {args.csv}")
    lines.append("verified" if report.ok else "not verified")
    return (0 if report.ok else 1), payload, lines


def _cmd_enumerate(args):
    from .census import enumerate_data_sets, enumerate_oracle

    fn = enumerate_oracle if args.oracle else enumerate_data_sets
    names = [format_data_set(d) for d in fn(args.degree, args.genus)]
    return 0, {"degree": args.degree, "genus": args.genus,
               "count": len(names), "data_sets": names}, names


def _cmd_census(args):
    from .census import CensusQuery, _census_cells, _record_line

    # records go out as JSON lines in either output mode, each cell's as it
    # is made; only the report of a file written is a payload.  A query the
    # census refuses raises before the first cell, so before any output.
    query = CensusQuery(genus=args.genus, max_genus=args.max_genus,
                        degrees=args.degrees, action_class=args.action_class)
    cells = _census_cells(query, args.oracle)
    lines = (_record_line(r, compact=True) for cell in cells for r in cell)
    if not args.output:
        return 0, None, lines
    count = 0
    with open(args.output, "w") as fh:
        for line in lines:
            fh.write(line + "\n")
            count += 1
    return (0, {"records": count, "output": args.output},
            [f"{count} records written to {args.output}"])


# --- parser -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perisurf",
        description="combinatorics of periodic surface maps via data sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *positionals):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit JSON (also via PERISURF_FORMAT=json)")
        for dest in positionals:
            p.add_argument(dest)
        p.set_defaults(func=handler)
        return p

    add("validate", _cmd_validate,
        "check the admissibility conditions (exit 1 when invalid)", "data_set")
    add("genus", _cmd_genus, "genus of the surface the data set lives on",
        "data_set")
    add("classify", _cmd_classify,
        "action class: rotational, type1[-irreducible] or type2", "data_set")

    p = add("polygon", _cmd_polygon,
            "polygon side pairing realizing an irreducible data set",
            "data_set")
    p.add_argument("--svg", metavar="PATH", help="draw the pairing to a file")

    p = add("glue", _cmd_glue,
            "glue two data sets (omit --at to list compatible cone pairs)",
            "first", "second")
    p.add_argument("--at", metavar="I:J",
                   help="cone of the first set : cone of the second")

    p = add("self-glue", _cmd_self_glue,
            "glue two compatible cones of one data set", "data_set")
    p.add_argument("--at", metavar="R:S", required=True)

    for name, handler, help_text in (
            ("assemble", _cmd_assemble,
             "glue marked pieces along edges into one marked data set"),
            ("fill", _cmd_fill,
             "fillability verdict for a marked data set or an assembly")):
        p = add(name, handler, help_text)
        p.add_argument("pieces", nargs="*",
                       help='marked pieces like "(6_+,0;(1,2),(1,3),(1,6),[3])"')
        p.add_argument("--edge", action="append", metavar="(A:I)~(B:J)",
                       help="cone A of piece I meets cone B of piece J "
                            "(pieces numbered from 1)")
        p.add_argument("--self-edge", action="append", dest="self_edge",
                       metavar="(A:I)~(B:I)", help="edge within one piece")
        p.add_argument("--file", metavar="PATH",
                       help="read the assembly as JSON ('-' for stdin)")

    for name, handler, help_text in (
            ("page", _cmd_page, "open book page carried by a marked data set"),
            ("veering", _cmd_veering, "veering direction of the monodromy"),
            ("surgery", _cmd_surgery, "surgery description of the binding"),
            ("resolve", _cmd_resolve,
             "resolve -1/p boundary rotations into integral twists")):
        add(name, handler, help_text, "data_set")

    p = add("profile", _cmd_profile,
            "build and verify a filling profile for slope q/p "
            "(exit 1 when verification fails)")
    *_, most, past = _LIMITS["profile"]
    bound = past.format(hi=most)
    p.add_argument("p", type=_limited("profile"),
                   help=f"slope denominator, {bound}")
    p.add_argument("q", type=_limited("profile"),
                   help=f"slope numerator, {bound}")
    p.add_argument("--K", type=_limited("profile"), default=None,
                   help=f"collar offset, {bound} "
                        "(default: smallest workable)")
    p.add_argument("--H", type=_limited("finite"), default=None,
                   help="binding height (default: clears the collar)")
    p.add_argument("--peak", type=_limited("finite"), default=1.0,
                   help="crest scale of the middle arc")
    p.add_argument("--samples", type=_limited("samples"), default=None,
                   help=f"grid size, at most {_LIMITS['samples'][3]} "
                        "(default: 1024, or 256 with --search)")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.add_argument("--csv", metavar="PATH", help="dump r,f0,g0 samples")
    p.add_argument("--search", action="store_true",
                   help="search for a verifying shape instead of building "
                        "one")
    p.add_argument("--candidates", type=_limited("count"), default=1000,
                   help="search budget with --search")

    p = add("enumerate", _cmd_enumerate,
            "all valid data sets of one degree and genus")
    p.add_argument("degree", type=int)
    p.add_argument("genus", type=int)
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force enumerator")

    p = add("census", _cmd_census,
            "census of data sets as JSON lines")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--genus", type=int)
    group.add_argument("--max-genus", type=int, dest="max_genus")
    p.add_argument("--degrees", metavar="N,N,...", type=_limited("degrees"),
                   help="restrict to these degrees")
    p.add_argument("--class", dest="action_class", choices=_CLASS_LABELS,
                   help="keep one action class")
    p.add_argument("--workers", type=_limited("count"), default=None,
                   help="accepted for compatibility; the census always "
                        "runs in one process, whatever the value")
    p.add_argument("--oracle", action="store_true",
                   help="use the brute-force enumerator")
    p.add_argument("--output", metavar="PATH",
                   help="write JSON lines to a file instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if vars(args).get("file") and (args.pieces or args.edge or args.self_edge):
        parser.error("argument --file: not allowed with pieces or edges")
    try:
        code, payload, lines = args.func(args)
        # printing stays inside the try: a closed pipe is an OSError too
        if payload is not None and _wants_json(args):
            print(json.dumps(payload, indent=2))
        else:
            for line in lines:
                print(line)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
