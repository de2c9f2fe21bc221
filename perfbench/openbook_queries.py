"""openbook_queries: a stream of small requests in text form.

Item = one query.  A marked data set goes through parse, validate, genus,
classify, polygon build and verify, page, veering, surgery, integral
resolution and ``classify_marked``; an arithmetically invalid one stops
after classify; an assembly goes through ``compatible_pairs``,
``build_edge``, ``assemble`` and ``classify_assembly``.  Each outcome is
reduced to a digest and compared with the one pinned in
``reference/openbook.json``.
"""

from __future__ import annotations

import gen
from common import bootstrap, digest, item_clock, load_reference, repeat
from spans import NullRecorder, paired

ps = bootstrap()
# not re-exported at the top level; edges are built with it rather than
# positionally because the orbit fields of GluingEdge are due to go
from perisurf.gluing import build_edge  # noqa: E402

TAIL_PCT = 99
# distinct queries of the timed loop, in blocks with the kind quota of
# gen.QUERY_BLOCK: one pass takes about a second, so each query is timed
# some 25 times in a 25 s run
BLOCKS = 100
TRACED_BLOCKS = 300


def _frac(x):
    return None if x is None else [x.numerator, x.denominator]


def _token(t) -> list:
    if isinstance(t, ps.Ext):
        return ["ext", t.piece, t.sign]
    if isinstance(t, ps.Twist):
        return ["twist", t.curve, t.power, t.orbit]
    return ["rot", t.orbit, _frac(t.slope)]


def page_json(d) -> dict:
    """The descriptor from its public fields (the program's own encoder is
    not a stable entry point)."""
    return {
        "page_genus": d.page_genus,
        "orbits": [[o.mark, o.orbit_size, _frac(o.full_period_slope),
                    _frac(o.per_period_slope), o.invariant]
                   for o in d.boundary_orbits],
        "word": [_token(t) for t in d.monodromy.tokens],
        "positive": d.positive_word,
    }


def _verdict(rec, v) -> list:
    rec.count("fillability.classify.unknown", v.verdict == "Unknown")
    return [v.verdict, v.certificate]


def run_query(rec, text: str) -> dict:
    d = rec.call("core.parse", ps.parse_data_set, text)
    report = rec.call("core.validate", ps.validate, d)
    rec.count("core.validate.invalid", not report.valid)
    out = {
        "violations": list(report.ids()),
        "genus": rec.call("core.genus", ps.genus, d),
        "label": rec.call("core.classify", ps.classify, d).label,
    }
    if not report.valid:
        return out
    pres = rec.call("realization.build", ps.polygon_realization, d.base)
    check = rec.call("realization.verify", ps.verify_realization, pres, d.base)
    rec.count("realization.verify.ok", check.ok)
    out["polygon"] = [pres.sides, check.euler_genus, check.ok]
    page = rec.call("openbook.page", ps.page_descriptor, d)
    out["page"] = page_json(page)
    out["veering"] = rec.call("openbook.veering", ps.veering, page).value
    surgery = rec.call("openbook.surgery", ps.surgery_description, page)
    out["surgery"] = [[e.orbit, e.kind, _frac(e.contact),
                       e.legendrian_realizable] for e in surgery.entries]
    try:
        out["resolved"] = page_json(
            rec.call("openbook.resolve", ps.integral_resolution, page))
    except ps.UnsupportedResolution:
        rec.count("openbook.resolve.unsupported")
        out["resolved"] = "UnsupportedResolution"
    out["verdict"] = _verdict(
        rec, rec.call("fillability.classify", ps.classify_marked, d))
    return out


def run_assembly(rec, entry) -> dict:
    first, second, i, j = entry
    a = rec.call("core.parse", ps.parse_data_set, first)
    b = rec.call("core.parse", ps.parse_data_set, second)
    pairs = rec.call("gluing.compatible", ps.compatible_pairs, a.base, b.base)
    edge = rec.call("gluing.build_edge", build_edge, (a, b), (0, i), (1, j))
    assembly = ps.Assembly((a, b), (edge,))
    result = rec.call("gluing.assemble", ps.assemble, assembly)
    return {
        "compatible": [list(p) for p in pairs],
        "data_set": ps.format_data_set(result.data_set),
        "genus": rec.call("core.genus", ps.genus, result.data_set),
        "word": [_token(t) for t in result.word.tokens],
        "verdict": _verdict(rec, rec.call("fillability.classify",
                                          ps.classify_assembly, assembly)),
    }


def key(kind: str, entry) -> str:
    return "|".join(map(str, entry)) if kind == "assembly" else entry


def run_item(rec, kind: str, entry) -> dict:
    if kind == "assembly":
        return run_assembly(rec, entry)
    return run_query(rec, entry)


def check(kind: str, entry, outcome, ref: dict) -> list[str]:
    want = ref.get(key(kind, entry))
    if want is None:
        return [f"{kind} {key(kind, entry)}: no reference"]
    if outcome is None or digest(outcome) != want:
        return [f"{kind} {key(kind, entry)}: outcome differs from the reference"]
    return []


def _attempt(rec, kind, entry):
    """The outcome, or None when the pipeline raised (a failed item)."""
    try:
        return run_item(rec, kind, entry)
    except (ValueError, TypeError, KeyError, IndexError, ZeroDivisionError):
        return None


# one fixed input of each kind: the warm-up, and so ``setup_s``, leaves out
# building the corpus and loading the reference
WARM_UP = (
    ("query", "(3_-,0;(1,3),(1,3),(1,3),[1,3])"),
    ("invalid", "(3_+,0;(1,3),(1,3),(2,3),[2])"),
    ("assembly", ("(3_+,0;(1,3),(1,3),(1,3),[1])",
                  "(3_+,0;(2,3),(2,3),(2,3),[1])", 1, 3)),
)


def warm_up() -> None:
    for kind, entry in WARM_UP:
        run_item(NullRecorder(), kind, entry)


def timed(seed: int, seconds: float, tally, between) -> dict:
    rec = NullRecorder()
    ref = load_reference("openbook")

    def run_one(item):
        kind, entry = item
        t0 = item_clock()
        outcome = _attempt(rec, kind, entry)
        dt = item_clock() - t0
        tally.check(check(kind, entry, outcome, ref))
        return dt, dt

    stream = gen.query_stream(seed, gen.query_corpus(), BLOCKS)
    return repeat(stream, run_one, seconds, between)


def traced(seed: int, tally, rec) -> dict:
    """A fixed stream; each item runs untraced and traced, in alternating
    order."""
    null = NullRecorder()
    ref = load_reference("openbook")
    untraced_ns = traced_ns = 0
    stream = gen.query_stream(seed, gen.query_corpus(), TRACED_BLOCKS)
    for k, (kind, entry) in enumerate(stream):

        def run_traced():
            with rec.span(f"item.{kind}", item=k):
                return _attempt(rec, kind, entry)

        _, outcome, u_ns, t_ns = paired(
            k, lambda: _attempt(null, kind, entry), run_traced)
        untraced_ns += u_ns
        traced_ns += t_ns
        tally.check(check(kind, entry, outcome, ref))
    return {"untraced_s": untraced_ns / 1e9, "traced_s": traced_ns / 1e9}
