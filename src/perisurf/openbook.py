"""Open books carried by marked data sets.

Drilling the marked orbits out of the surface leaves a page with boundary;
the periodic map restricts to it and rotates each boundary orbit.  The
rotation slope of a marked cone ``(c, order)`` is ``c^{-1}/order`` full
turns for a positive marking and one turn less for a negative one; an orbit
of ``degree/order`` circles shares that rotation around its full period, so
each circle sees the per-period fraction.  Fractional Dehn twist
coefficients only make sense on invariant boundaries (single circles) and
are exposed exactly there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from fractions import Fraction

from .core import MarkedDataSet, _check_marks, _fraction_to_json, _kept, genus
from .gluing import Ext, MonodromyWord, Rot, Token, Twist, boundary_slope, word_to_json


class Veering(Enum):
    RIGHT = "right-veering"
    LEFT = "left-veering"
    MIXED = "mixed"


@dataclass(frozen=True)
class BoundaryOrbit:
    """One marked orbit of the binding.

    ``mark`` is the cone index in the data set, ``orbit_size`` the number of
    boundary circles in the orbit; ``invariant`` means a single circle, and
    the circles share the full-period slope as ``per_period_slope``.
    """

    mark: int
    orbit_size: int
    full_period_slope: Fraction

    @property
    def invariant(self) -> bool:
        return self.orbit_size == 1

    @cached_property
    def per_period_slope(self) -> Fraction:
        if self.orbit_size == 1:
            return self.full_period_slope
        return self.full_period_slope / self.orbit_size

    @property
    def fdtc(self) -> Fraction | None:
        """Fractional Dehn twist coefficient; only invariant circles have one."""
        return self.full_period_slope if self.invariant else None


@dataclass(frozen=True)
class OpenBookDescriptor:
    """An open book; ``positive_word`` is whether its word is positive."""

    page_genus: int
    boundary_orbits: tuple[BoundaryOrbit, ...]
    monodromy: MonodromyWord

    def __post_init__(self) -> None:
        object.__setattr__(self, "boundary_orbits", tuple(self.boundary_orbits))
        if not isinstance(self.monodromy, MonodromyWord):
            object.__setattr__(
                self, "monodromy", MonodromyWord(tuple(self.monodromy)))

    @property
    def positive_word(self) -> bool:
        return self.monodromy.positive

    @property
    def boundary_count(self) -> int:
        return sum(o.orbit_size for o in self.boundary_orbits)


def page_descriptor(m: MarkedDataSet) -> OpenBookDescriptor:
    """Open book of a marked data set: page, boundary orbits, monodromy word.

    The word is the extension of the periodic map followed by the boundary
    rotations; it contains no twists, so it is trivially positive.

    The descriptor is kept on ``m`` after its first computation, which is
    safe because both are frozen (see ``core._kept``); a marked data set
    whose marks or cones raise here keeps nothing.
    """
    if not isinstance(m, MarkedDataSet):
        raise TypeError("page_descriptor needs a marked data set")
    return _kept(m, "_page_descriptor", _page_descriptor)


def _page_descriptor(m: MarkedDataSet) -> OpenBookDescriptor:
    # the rule behind page_descriptor()
    _check_marks(m)
    base = m.base

    orbits = []
    for j in sorted(m.marks):
        pair = base.cone_pairs[j - 1]
        if base.degree % pair.order != 0:
            raise ValueError(f"cone order {pair.order} at mark {j} "
                             f"does not divide the degree {base.degree}")
        orbits.append(BoundaryOrbit(
            mark=j,
            orbit_size=base.degree // pair.order,
            full_period_slope=boundary_slope(pair.c, pair.order, m.sign),
        ))

    tokens: tuple[Token, ...] = (Ext(0, m.sign),) + tuple(
        Rot(o.mark, o.full_period_slope) for o in orbits)
    return OpenBookDescriptor(
        page_genus=genus(base),
        boundary_orbits=tuple(orbits),
        monodromy=MonodromyWord(tokens),
    )


def fractional_dehn_twist(m: MarkedDataSet, mark: int) -> Fraction:
    """FDTC of one marked boundary; raises unless that boundary is invariant."""
    for o in page_descriptor(m).boundary_orbits:
        if o.mark == mark:
            if o.fdtc is None:
                raise ValueError(f"orbit at mark {mark} has {o.orbit_size} "
                                 "circles; no single-circle twist coefficient")
            return o.fdtc
    raise ValueError(f"no mark {mark} in {m}")


def veering(d: OpenBookDescriptor) -> Veering:
    """Right-veering iff every boundary's effective coefficient is >= 0,
    left-veering iff every one is < 0, mixed otherwise.

    The effective coefficient of an orbit is its per-period slope plus any
    boundary-parallel twisting the word applies to it, spread over the
    orbit's circles.
    """
    if not d.boundary_orbits:
        raise ValueError("veering is undefined for an empty boundary")
    parallel: dict[int, int] = {}
    for t in d.monodromy.twists():
        if t.orbit is not None:
            parallel[t.orbit] = parallel.get(t.orbit, 0) + t.power
    # only an orbit the word twists adds a term; page descriptors twist none
    effective = [
        o.per_period_slope + Fraction(parallel[o.mark], o.orbit_size)
        if o.mark in parallel else o.per_period_slope
        for o in d.boundary_orbits
    ]
    if all(e >= 0 for e in effective):
        return Veering.RIGHT
    if all(e < 0 for e in effective):
        return Veering.LEFT
    return Veering.MIXED


@dataclass(frozen=True)
class SurgeryEntry:
    """Surgery translation for one boundary orbit (per circle) of slope q/p.

    ``kind`` is "rational" (p > 1: topological p/q, contact -p/q),
    "integral" (p = 1: the open book is already integral there), or "none"
    (slope 0: honest boundary, nothing to do).  Every other field follows
    from ``slope``.
    """

    orbit: int
    slope: Fraction

    @property
    def kind(self) -> str:
        if self.slope == 0:
            return "none"
        return "integral" if self.slope.denominator == 1 else "rational"

    @property
    def topological(self) -> Fraction | None:
        return 1 / self.slope if self.kind == "rational" else None

    @property
    def contact(self) -> Fraction | None:
        return -1 / self.slope if self.kind == "rational" else None

    @property
    def legendrian_realizable(self) -> bool:
        # 0 < q < p in lowest terms; p > 1 makes the kind rational
        return self.slope.denominator > self.slope.numerator > 0


@dataclass(frozen=True)
class SurgeryDescription:
    entries: tuple[SurgeryEntry, ...]


def surgery_description(d: OpenBookDescriptor) -> SurgeryDescription:
    """How to trade each rotating boundary for surgery on an integral binding.

    The description is kept on ``d`` after its first computation, which is
    safe because both are frozen (see ``core._kept``).
    """
    return _kept(d, "_surgery_description", _surgery_description)


def _surgery_description(d: OpenBookDescriptor) -> SurgeryDescription:
    # the rule behind surgery_description()
    return SurgeryDescription(tuple(SurgeryEntry(o.mark, o.per_period_slope)
                                    for o in d.boundary_orbits))


class UnsupportedResolution(ValueError):
    pass


def integral_resolution(d: OpenBookDescriptor) -> OpenBookDescriptor:
    """Trade every rotating boundary of slope -1/p for p honest boundaries.

    Each such boundary absorbs a p-punctured disk: the page genus is
    untouched, the orbit becomes p circles of slope 0, and the word gains
    one negative boundary-parallel twist per new circle.  Supported exactly
    when every rotating orbit is a single circle of slope -1/p; anything
    else raises :class:`UnsupportedResolution`.
    """
    rotating = [o for o in d.boundary_orbits if o.per_period_slope != 0]
    for o in rotating:
        if not o.invariant:
            raise UnsupportedResolution(
                f"orbit at mark {o.mark} has {o.orbit_size} circles; "
                "only invariant boundaries can be resolved")
        if o.full_period_slope.numerator != -1:
            raise UnsupportedResolution(
                f"orbit at mark {o.mark} has slope {o.full_period_slope}; "
                "resolution needs -1/p")
    if not rotating:
        return d

    new_orbits = []
    for o in d.boundary_orbits:
        if o.per_period_slope == 0:
            new_orbits.append(o)
            continue
        new_orbits.append(BoundaryOrbit(
            mark=o.mark,
            orbit_size=o.full_period_slope.denominator,
            full_period_slope=Fraction(0),
        ))

    rotating_marks = {o.mark for o in rotating}
    tokens: list[Token] = []
    for t in d.monodromy.tokens:
        if isinstance(t, Rot) and t.orbit in rotating_marks:
            tokens.append(replace(t, slope=Fraction(0)))
        else:
            tokens.append(t)
    for o in rotating:
        p = o.full_period_slope.denominator
        tokens.extend(Twist(f"resolve[{o.mark}.{copy}]", -1, orbit=o.mark)
                      for copy in range(1, p + 1))
    return OpenBookDescriptor(
        page_genus=d.page_genus,
        boundary_orbits=tuple(new_orbits),
        monodromy=MonodromyWord(tuple(tokens)),
    )


# --- JSON --------------------------------------------------------------------


def descriptor_to_json(d: OpenBookDescriptor) -> dict:
    return {
        "page_genus": d.page_genus,
        "boundaries": [
            {
                "orbit": o.mark,
                "orbit_size": o.orbit_size,
                "slope": _fraction_to_json(o.full_period_slope),
                "per_period_slope": _fraction_to_json(o.per_period_slope),
                "invariant": o.invariant,
            }
            for o in d.boundary_orbits
        ],
        "monodromy": word_to_json(d.monodromy),
        "positive_word": d.positive_word,
    }


def surgery_to_json(s: SurgeryDescription) -> dict:
    return {"entries": [
        {
            "orbit": e.orbit,
            "slope": _fraction_to_json(e.slope),
            "kind": e.kind,
            "topological": _fraction_to_json(e.topological),
            "contact": _fraction_to_json(e.contact),
            "legendrian_realizable": e.legendrian_realizable,
        }
        for e in s.entries
    ]}
