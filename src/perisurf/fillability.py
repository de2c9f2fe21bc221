"""Fillability classification of the contact structures of open books.

The open books carried by marked data sets come with a short list of
sufficient criteria: positive extensions over irreducible pieces and over
positively glued assemblies support Stein fillable structures, positive
twist words with small enough slopes do as well, and negative extensions
whose integral resolution is left-veering are overtwisted.  When no
criterion applies the verdict is ``Unknown`` — the criteria are one-sided.
The numeric filling profiles live in :mod:`perisurf.profiles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MarkedDataSet, _check_marks, classify
from .gluing import Assembly, assemble
from .openbook import (
    OpenBookDescriptor,
    UnsupportedResolution,
    integral_resolution,
    page_descriptor,
    surgery_description,
)

# strongest first: classify_marked keeps the earliest definite verdict
VERDICTS = ("SteinFillable", "StronglyFillable", "Overtwisted", "Unknown")

CERTIFICATES = (
    "positive-irreducible",
    "positive-assembly",
    "positive-twist-stein",
    "positive-twist-strong",
    "left-veering-resolution",
    "none",
)


@dataclass(frozen=True)
class FillabilityVerdict:
    """Outcome of one classification rule (or a merge of several).

    ``certificate`` names the rule that produced a definite verdict and is
    ``"none"`` exactly when the verdict is ``Unknown``.  ``hypotheses``
    records each condition checked together with whether it held.
    """

    verdict: str
    certificate: str
    hypotheses: tuple[tuple[str, bool], ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.certificate not in CERTIFICATES:
            raise ValueError(f"unknown certificate {self.certificate!r}")
        if (self.verdict == "Unknown") != (self.certificate == "none"):
            raise ValueError("Unknown verdicts carry no certificate and "
                             "definite ones need one")
        object.__setattr__(self, "hypotheses", tuple(self.hypotheses))
        object.__setattr__(self, "notes", tuple(self.notes))


def verdict_to_json(v: FillabilityVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "certificate": v.certificate,
        "hypotheses": [[name, held] for name, held in v.hypotheses],
        "notes": list(v.notes),
    }


def classify_irreducible(m: MarkedDataSet) -> FillabilityVerdict:
    """Classify the contact structure of a marked irreducible data set.

    A positive extension is Stein fillable outright.  A negative extension
    is resolved integrally when every marked orbit rotates by ``-1/order``;
    the resolved word is a product of negative boundary twists, hence
    left-veering, and the structure is overtwisted (Honda, Kazez and Matic,
    "Right-veering diffeomorphisms of compact surfaces with boundary",
    Invent. Math. 169, 2007).  Raises ``ValueError`` unless the base is
    irreducible type 1 and the marks are well formed.

    Lemma: every successful resolution here is left-veering.  A ``-``
    marked orbit turns by ``u/order - 1`` with ``u`` in ``[1, order-1]``,
    never 0, so a successful resolution turns each orbit into ``p``
    circles of slope 0 with ``p`` parallel twists of power -1: an
    effective coefficient of -1, which :func:`perisurf.openbook.veering`
    reads as left.
    """
    label = classify(m.base).label
    if label != "type1-irreducible":
        raise ValueError(f"expected an irreducible type 1 data set, got {label}")
    _check_marks(m)

    if m.sign == "+":
        notes = []
        if any(m.base.cone_pairs[j - 1].order < m.base.degree for j in m.marks):
            notes.append("permuted marked orbits: the positive extension "
                         "still fills, rotating the orbit as one binding")
        return FillabilityVerdict(
            "SteinFillable", "positive-irreducible",
            (("positive extension", True),
             ("irreducible type 1 base", True)),
            tuple(notes),
        )

    try:
        resolved = integral_resolution(page_descriptor(m))
    except UnsupportedResolution as exc:
        return FillabilityVerdict(
            "Unknown", "none",
            (("negative extension", True),
             ("integral resolution", False)),
            (str(exc),),
        )
    # a page word has no twists, so each twist here is a resolution twist
    twist_count = len(resolved.monodromy.twists())
    return FillabilityVerdict(
        "Overtwisted", "left-veering-resolution",
        (("negative extension", True),
         ("integral resolution", True),
         ("left-veering monodromy", True)),
        (f"left-veering resolution: {twist_count} negative boundary twists",),
    )


def classify_assembly(a: Assembly) -> FillabilityVerdict:
    """Classify the contact structure supported by a glued assembly.

    The positive gluing criterion asks for positive pieces whose marked
    orbits are all invariant, gluings that never exhaust both sides of a
    junction, no self-gluings, and a marked orbit still left on the result;
    the monodromy is then a positive word and the structure Stein fillable.
    """
    result = assemble(a)
    all_positive = all(p.sign == "+" for p in a.pieces)
    invariant = all(p.base.cone_pairs[j - 1].order == p.base.degree
                    for p in a.pieces for j in p.marks)
    junction_free = all(
        result.ledger.surviving(e.left[0]) or result.ledger.surviving(e.right[0])
        for e in a.edges)
    no_self = not a.self_edges
    marks_remain = bool(result.data_set.marks)

    hypotheses = (
        ("all pieces positive", all_positive),
        ("all marked orbits invariant", invariant),
        ("junction keeps a free mark", junction_free),
        ("no self gluings", no_self),
        ("marked boundary remains", marks_remain),
    )
    if all(held for _, held in hypotheses):
        return FillabilityVerdict(
            "SteinFillable", "positive-assembly", hypotheses,
            ("junction curves are compressible to positive twists",),
        )
    return FillabilityVerdict("Unknown", "none", hypotheses)


def classify_positive_word(d: OpenBookDescriptor) -> FillabilityVerdict:
    """Classify an open book whose monodromy is a positive twist word.

    Slopes strictly between zero and one on every binding orbit allow
    legendrian surgery presentations and give a Stein filling; a connected
    binding rotating positively still gives a strong filling.

    Lemma: called from :func:`classify_marked`, only the
    ``positive-twist-stein`` branch fires.  That caller asks only when the
    page word is positive, which for :func:`page_descriptor` means a ``+``
    marking.  A ``+`` marked cone ``(c, order)`` turns its orbit of
    ``degree/order`` circles by ``u/degree`` per period, where
    ``u = c^{-1} mod order`` lies in ``[1, order-1]`` (``mod_inverse``
    refuses anything else).  So every slope lies in (0, 1) with a
    denominator above 1 and is legendrian realizable.  The
    ``positive-twist-strong`` and ``Unknown`` branches stay reachable
    through descriptors built by hand.
    """
    if not d.positive_word:
        raise ValueError("the monodromy word is not positive")

    entries = surgery_description(d).entries
    stein_slopes = all(e.kind == "rational" and e.legendrian_realizable
                       for e in entries)
    connected = d.boundary_count == 1
    positive_rotation = all(o.per_period_slope > 0 for o in d.boundary_orbits)

    if stein_slopes:
        notes = []
        if connected:
            notes.append("connected binding: also certified by "
                         "positive-twist-strong")
        return FillabilityVerdict(
            "SteinFillable", "positive-twist-stein",
            (("positive monodromy word", True),
             ("slopes admit legendrian surgery", True)),
            tuple(notes),
        )
    if connected and positive_rotation:
        return FillabilityVerdict(
            "StronglyFillable", "positive-twist-strong",
            (("positive monodromy word", True),
             ("slopes admit legendrian surgery", False),
             ("connected positively rotating binding", True)),
        )
    return FillabilityVerdict(
        "Unknown", "none",
        (("positive monodromy word", True),
         ("slopes admit legendrian surgery", stein_slopes),
         ("connected positively rotating binding",
          connected and positive_rotation)),
    )


def classify_marked(m: MarkedDataSet) -> FillabilityVerdict:
    """Run every applicable rule on a marked data set and keep the strongest.

    Rules that do not apply (wrong action class, non-positive word) are
    skipped rather than treated as failures; when nothing fires the verdict
    is ``Unknown``.  Raises ``ValueError`` when one rule certifies a
    fillable structure and another an overtwisted one: fillable structures
    are tight, so one of the rules would be wrong.
    """
    descriptor = page_descriptor(m)
    fired: list[FillabilityVerdict] = []
    try:
        fired.append(classify_irreducible(m))
    except ValueError:
        pass
    if descriptor.positive_word:
        fired.append(classify_positive_word(descriptor))

    definite = [v for v in fired if v.verdict != "Unknown"]
    if not definite:
        hypotheses = tuple(h for v in fired for h in v.hypotheses)
        notes = tuple(n for v in fired for n in v.notes)
        return FillabilityVerdict("Unknown", "none", hypotheses, notes)

    verdicts = {v.verdict for v in definite}
    if "Overtwisted" in verdicts and len(verdicts) > 1:
        raise ValueError(f"contradictory verdicts for {m}: " + ", ".join(
            f"{v.verdict} ({v.certificate})" for v in definite))
    best = min(definite, key=lambda v: VERDICTS.index(v.verdict))
    others = [v.certificate for v in definite if v is not best]
    notes = best.notes
    if others:
        notes = notes + tuple(f"also certified by {c}" for c in others)
    return FillabilityVerdict(best.verdict, best.certificate,
                              best.hypotheses, notes)
