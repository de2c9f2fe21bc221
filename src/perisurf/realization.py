"""Polygon models for irreducible type 1 data sets.

An irreducible type 1 data set ``(n,0;(c1,n1),(c2,n2),(c3,n))`` acts on a
surface assembled from a single rotation-symmetric polygon: ``2n`` sides in
general, ``n`` sides when one of the first two cone orders is 2.  The side
pairing is generated by an explicit index formula; we never trust it blindly
— :func:`verify_realization` recomputes the surface genus from an Euler
characteristic count over the identified polygon corners and checks that the
pairing is a fixed-point-free involution commuting with the rotation.  The
corners glued to one vertex form one cycle of the corner permutation
``c -> pairing[c] % sides``, so the vertex count is a cycle count.

The verifier's checks live in two private helpers.  ``_pairing_checks``
reads the pairing alone: whether it is an involution and, if so, the Euler
genus from the vertex cycles.  ``_equivariant`` checks that the pairing
commutes with a rotation step.  :class:`RealizationReport` holds their
results, and its ``ok`` is the one rule for a verified polygon: the census's
``polygon_verified`` and the ``polygon`` command both read it.

Within one :func:`perisurf.census.census` call both checks run once per
polygon shape, not once per record.  A polygon's pairing is fixed by its
degree, side count and ``z_offset`` (``_polygon_shape``), and whether a map
on the sides commutes with rotation by ``s`` depends only on ``gcd(s, k)``
for ``k`` sides (the lemma is at ``_verified``).  The 738 irreducible
records of genera 4 to 10 have 143 shapes.  Each record still builds its
own report, with its own genus, and reads ``ok``; so its flag is what
:func:`verify_realization` says of its polygon.  Nothing is kept from one
call to the next.

The module holds the polygon model, its verifier and an SVG drawing, and
needs nothing but :mod:`perisurf.core`.  Within the package, the census
and the ``polygon`` command are its only users.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import gcd

from .core import (DataSet, _all_ints, canonicalize, classify, genus,
                   mod_inverse, validate)


@dataclass(frozen=True)
class PolygonPresentation:
    """A polygon with paired sides and a rotation acting on it.

    ``pairing[i-1]`` is the 1-based partner of side ``i``; every side is
    glued to its partner with reversed orientation, and ``sides`` is the
    pairing's length.  ``rotation_step`` is the index shift realizing the
    rotation.  Whether the data set lies outside the theorem is a statement
    about its genus, so :class:`RealizationReport` holds it.
    """

    pairing: tuple[int, ...]
    rotation_step: int
    degree: int

    @property
    def sides(self) -> int:
        return len(self.pairing)


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of verifying a polygon presentation against its data set.

    ``ok`` is the one rule for a verified polygon.  ``outside_theorem``
    flags a data set of genus below 2, where the polygon model is emitted
    on a best-effort basis.
    """

    euler_genus: int | None
    rh_genus: int
    involution_ok: bool
    equivariance_ok: bool

    @property
    def ok(self) -> bool:
        return (self.involution_ok and self.equivariance_ok
                and self.euler_genus == self.rh_genus)

    @property
    def outside_theorem(self) -> bool:
        return self.rh_genus < 2


def realization_report_to_json(r: RealizationReport) -> dict:
    """The report's fields and its verdict ``ok``; ``outside_theorem`` is
    written beside the presentation by the ``polygon`` command."""
    return {**asdict(r), "ok": r.ok}


def polygon_realization(d: DataSet) -> PolygonPresentation:
    """Side-paired polygon realizing an irreducible type 1 data set.

    The data set is canonicalized first, so the full-order cone pair sits
    last and serves as the rotation center.  A data set that is canonical
    already is its own canonical form, so the class and report read here
    are the ones it keeps.  Raises ``ValueError`` unless the input is a
    valid irreducible type 1 data set.  A pairing that fails
    its own involution check is still returned — :func:`verify_realization`
    reports the failure rather than this function repairing it.
    """
    canon, _ = canonicalize(d)
    cls = classify(canon)
    if cls.label != "type1-irreducible":
        raise ValueError(f"polygon model needs an irreducible type 1 data set, "
                         f"got {cls.label}: {canon}")
    report = validate(canon)
    if not report.valid:
        raise ValueError(f"cannot realize an invalid data set: "
                         f"{'; '.join(t for _, t in report.violations)}")
    n, k, z_offset, rotation_step = _polygon_shape(canon)
    return PolygonPresentation(
        pairing=_pairing(n, k, z_offset),
        rotation_step=rotation_step,
        degree=n,
    )


def _polygon_shape(canon: DataSet) -> tuple[int, int, int, int]:
    # (degree n, side count k, z_offset, rotation step) of the polygon of a
    # canonical irreducible type 1 data set; the pairing depends on the
    # first three alone
    n = canon.degree
    p1, p2, p3 = canon.cone_pairs
    inverse = mod_inverse(p3.c, n)
    q = (n // p2.order) * inverse % n
    z_offset = q * (p2.order - p2.c) % n
    k = n if p1.order == 2 or p2.order == 2 else 2 * n
    return n, k, z_offset, (k // n) * inverse % k


def _pairing(n: int, k: int, z_offset: int) -> tuple[int, ...]:
    # the side pairing of a polygon of degree n with k = 2n or k = n sides
    pairing = [0] * k
    if k != n:
        # odd side 2m+1 is glued, reversed, onto even side 2z
        for m in range(n):
            z = (m + z_offset) % n or n
            x, y = 2 * m + 1, 2 * z
            pairing[x - 1] = y
            pairing[y - 1] = x
    else:
        # side m+1 is glued, reversed, onto side z; this map need not be an
        # involution for arbitrary parameters, so it is recorded raw
        for m in range(n):
            z = (m + z_offset) % n or n
            pairing[m] = z
    return tuple(pairing)


def verify_realization(p: PolygonPresentation, d: DataSet) -> RealizationReport:
    """Check a presentation against its data set.

    Raises ``ValueError`` only when the data set has no surface genus, that
    is when :func:`perisurf.core.genus` of it is not a non-negative integer;
    no presentation makes it raise.  A presentation whose pairing is not a
    non-empty tuple or list of ``int``, or whose rotation step is not an
    ``int``, fails both checks and has no Euler genus; a ``bool`` counts as
    no ``int`` here.

    The genus of the identified polygon is recomputed from scratch: the
    vertices are counted as the cycles of a permutation of the corners, and
    the Euler characteristic ``V - E + F`` is compared with the genus the
    degree/cone data demand.  Corner ``c`` starts side ``c+1``.  Once the
    pairing is an involution, every gluing relation reads ``c ~ pairing[c]
    % sides``, and that map is a permutation, so its cycles are the vertex
    classes.
    """
    pairing = p.pairing
    if not (isinstance(pairing, (tuple, list)) and pairing
            and _all_ints(pairing) and _all_ints((p.rotation_step,))):
        # no polygon to glue: a pairing must name one partner per side
        return RealizationReport(None, genus(d), False, False)
    involution_ok, euler_genus = _pairing_checks(pairing)
    return RealizationReport(euler_genus, genus(d), involution_ok,
                             _equivariant(pairing, p.rotation_step))


def _verified(canon: DataSet, g: int,
              checked: dict[tuple[int, int, int, int],
                            tuple[bool, int | None, bool]]) -> bool:
    # whether verify_realization passes the polygon of a canonical, valid,
    # irreducible type 1 data set of genus g.  checked holds, per polygon
    # shape seen so far, the pairing-only checks and the equivariance, and
    # gains this polygon's.  The pairing is fixed by (n, k, z_offset), and
    # by the lemma below the equivariance by gcd(step, k), so every record
    # reads what its own report would say.
    #
    # Lemma: a map P on Z/k commutes with rotation by s if and only if it
    # commutes with rotation by d = gcd(s, k).  Rotation by s is (rotation
    # by d)^(s/d); and d = a*s + b*k for some integers a, b, so rotation by
    # d is (rotation by s)^a.  A census polygon has gcd(step, k) = k/n,
    # since its step is (k/n)*c^-1 with c^-1 a unit mod n, so in practice
    # the checks run once per (n, k, z_offset).
    n, k, z_offset, step = _polygon_shape(canon)
    key = (n, k, z_offset, gcd(step, k))
    shared = checked.get(key)
    if shared is None:
        pairing = _pairing(n, k, z_offset)
        shared = checked[key] = (*_pairing_checks(pairing),
                                 _equivariant(pairing, key[3]))
    involution_ok, euler_genus, equivariance_ok = shared
    return RealizationReport(euler_genus, g, involution_ok,
                             equivariance_ok).ok


def _pairing_checks(pairing) -> tuple[bool, int | None]:
    # the checks that read the pairing alone, of a nonempty pairing of ints
    # with one entry per side: whether it is a fixed-point-free involution
    # and, when it is, the genus of the glued polygon.  Gluing the sides in
    # pairs with reversed orientation makes a closed orientable surface, so
    # its Euler characteristic V - k/2 + 1 is even and at most 2.
    k = len(pairing)
    for i in range(k):
        j = pairing[i]
        if not (1 <= j <= k and j != i + 1 and pairing[j - 1] == i + 1):
            return False, None
    # side x runs corner x-1 -> corner x (mod k); gluing x reversed onto y
    # identifies start(x) with end(y) = y % k, and end(x) with start(y),
    # which is the same relation read from side y
    seen = bytearray(k)
    vertices = 0
    for start in range(k):
        if seen[start]:
            continue
        vertices += 1
        c = start
        while not seen[c]:
            seen[c] = 1
            c = pairing[c] % k
    chi = vertices - k // 2 + 1
    return True, (2 - chi) // 2


def _equivariant(pairing, rotation_step: int) -> bool:
    # whether the pairing commutes with the rotation by rotation_step sides:
    # side i+s is paired with side pairing[i]+s, all mod the side count
    k = len(pairing)
    s = rotation_step % k
    for i in range(k):
        if (pairing[(i + s) % k] - 1) % k != (pairing[i] - 1 + s) % k:
            return False
    return True


def draw_polygon_svg(p: PolygonPresentation, path: str) -> None:
    """Write a picture of the polygon: outline, pairing chords, side labels."""
    import math

    k = p.sides
    size, r = 640, 280
    cx = cy = size / 2

    def corner(i: int) -> tuple[float, float]:
        a = math.tau * i / k - math.pi / 2
        return cx + r * math.cos(a), cy + r * math.sin(a)

    def midpoint(side: int) -> tuple[float, float]:
        x1, y1 = corner(side - 1)
        x2, y2 = corner(side % k)
        return (x1 + x2) / 2, (y1 + y2) / 2

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    outline = " ".join(f"{x:.1f},{y:.1f}" for x, y in (corner(i) for i in range(k)))
    lines.append(f'<polygon points="{outline}" fill="none" stroke="black"/>')

    seen = set()
    pair_index = 0
    for x in range(1, k + 1):
        y = p.pairing[x - 1]
        key = frozenset((x, y))
        if key in seen:
            continue
        seen.add(key)
        hue = (360 * pair_index * 2 // k) % 360
        (x1, y1), (x2, y2) = midpoint(x), midpoint(y)
        lines.append(f'<path d="M {x1:.1f} {y1:.1f} Q {cx:.1f} {cy:.1f} '
                     f'{x2:.1f} {y2:.1f}" fill="none" '
                     f'stroke="hsl({hue},70%,45%)" stroke-width="1.5"/>')
        pair_index += 1

    for i in range(1, k + 1):
        mx, my = midpoint(i)
        lx = cx + (mx - cx) * 1.12
        ly = cy + (my - cy) * 1.12
        lines.append(f'<text x="{lx:.1f}" y="{ly:.1f}" font-size="13" '
                     f'text-anchor="middle">{i}</text>')
    lines.append("</svg>")

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
