"""Gluing data sets along compatible cone orbits.

Two data sets of the same degree can be glued along cone pairs of equal
order whose rotations cancel modulo that order: the paired orbits are
removed, the quotient surfaces are joined, and the degrees stay put.
Gluing two orbits of one connected surface instead raises the quotient
genus by one (self-gluing).

An :class:`Assembly` packages several marked pieces with gluing edges.
Every structural check of an assembly runs once, in its constructor, which
raises ``ValueError`` (``TypeError`` for a piece that is not a marked data
set) on a fault; a union-find over the pieces checks that it is connected.
:func:`assemble` then only flattens it to a single marked data set plus a
monodromy word (extensions of the piece rotations, one core twist per
same-sign glued annulus, boundary rotations for the surviving marked orbits)
and a ledger saying which marked orbit went where.

The monodromy tokens have both of their renderings here: ``str()`` gives
the text form the CLI prints, such as ``ext(0,+) twist(edge0,+1)
rot(2,1/3)``, and :func:`token_to_json` and :func:`word_to_json` the JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    ConePair,
    DataSet,
    MarkedDataSet,
    _check_marks,
    _fraction_to_json,
    _kept,
    classify,
    data_set_from_json,
    data_set_to_json,
    mod_inverse,
    parse_data_set,
)


def _require_plain(d, name: str) -> DataSet:
    if isinstance(d, MarkedDataSet):
        return d.base
    if isinstance(d, DataSet):
        return d
    raise TypeError(f"{name} must be a data set")


def _compatible(p: ConePair, q: ConePair) -> bool:
    """Cones glue when their orders agree and their rotations cancel."""
    return p.order == q.order and (p.c + q.c) % p.order == 0


def _require_compatible(p: ConePair, q: ConePair,
                        p_where: str = "", q_where: str = "") -> None:
    if not _compatible(p, q):
        raise ValueError(f"cones ({p.c},{p.order}){p_where} and "
                         f"({q.c},{q.order}){q_where} are not compatible")


def compatible_pairs(d1: DataSet, d2: DataSet) -> list[tuple[int, int]]:
    """All (i, j) cone index pairs along which d1 and d2 can be glued.

    Empty when the degrees differ (nothing is compatible across degrees).
    """
    a = _require_plain(d1, "d1")
    b = _require_plain(d2, "d2")
    if a.degree != b.degree:
        return []
    return [(i, j) for i, p in enumerate(a.cone_pairs, 1)
            for j, q in enumerate(b.cone_pairs, 1) if _compatible(p, q)]


def _is_index(v) -> bool:
    # a bool is an int to Python but names no cone or piece
    return isinstance(v, int) and not isinstance(v, bool)


def _check_cone_index(d: DataSet, idx: int, name: str) -> ConePair:
    if not _is_index(idx):
        raise ValueError(f"{name} must be an integer, got {idx!r}")
    if not 1 <= idx <= d.num_pairs:
        raise ValueError(f"{name}={idx} is outside the cone index range "
                         f"1..{d.num_pairs}")
    return d.cone_pairs[idx - 1]


def _check_self_pair(d: DataSet, r: int, s: int) -> None:
    """Raise unless ``r < s`` index two compatible cones of ``d``."""
    p, q = _check_cone_index(d, r, "r"), _check_cone_index(d, s, "s")
    if not r < s:
        raise ValueError(f"need r < s, got r={r}, s={s}")
    _require_compatible(p, q)


def glue(d1: DataSet, d2: DataSet, i: int, j: int) -> DataSet:
    """Glue two data sets along cones ``i`` of ``d1`` and ``j`` of ``d2``.

    The result keeps concatenation order: the remaining cones of ``d1``
    followed by those of ``d2``.  Raises ``ValueError`` on degree mismatch,
    an index that is not an integer in range, or incompatible cones.
    """
    a = _require_plain(d1, "d1")
    b = _require_plain(d2, "d2")
    if a.degree != b.degree:
        raise ValueError(f"cannot glue degrees {a.degree} and {b.degree}")
    _require_compatible(_check_cone_index(a, i, "i"),
                        _check_cone_index(b, j, "j"))
    pairs = (a.cone_pairs[:i - 1] + a.cone_pairs[i:]
             + b.cone_pairs[:j - 1] + b.cone_pairs[j:])
    return DataSet(a.degree, a.quotient_genus + b.quotient_genus, 0, pairs)


def self_glue(d: DataSet, r: int, s: int) -> DataSet:
    """Glue cones ``r`` and ``s`` of one data set; quotient genus rises by 1.

    Needs at least four cones and ``1 <= r < s``.
    """
    a = _require_plain(d, "d")
    if a.num_pairs < 4:
        raise ValueError("self-gluing needs at least four cone pairs")
    _check_self_pair(a, r, s)
    pairs = tuple(pair for idx, pair in enumerate(a.cone_pairs, 1)
                  if idx not in (r, s))
    return DataSet(a.degree, a.quotient_genus + 1, 0, pairs)


# --- monodromy words ---------------------------------------------------------


@dataclass(frozen=True)
class Ext:
    """Extension of a piece's periodic map over the assembled page.

    ``sign`` records whether the block it abbreviates is a product of
    positive or negative twists.
    """

    piece: int
    sign: str = "+"

    def __str__(self) -> str:
        return f"ext({self.piece},{self.sign})"


@dataclass(frozen=True)
class Twist:
    """A Dehn twist along a named curve; ``orbit`` is set when the curve is
    parallel to that boundary orbit of the result."""

    curve: str
    power: int
    orbit: int | None = None

    def __str__(self) -> str:
        return f"twist({self.curve},{self.power:+d})"


@dataclass(frozen=True)
class Rot:
    """Rotation of the named boundary orbit by ``slope`` full turns."""

    orbit: int
    slope: Fraction

    def __str__(self) -> str:
        return f"rot({self.orbit},{self.slope})"


Token = Ext | Twist | Rot


@dataclass(frozen=True)
class MonodromyWord:
    """A product of tokens; ``str()`` joins their text forms with spaces."""

    tokens: tuple[Token, ...]

    def __str__(self) -> str:
        return " ".join(map(str, self.tokens))

    @property
    def positive(self) -> bool:
        """True when every factor of the word is a positive twist."""
        for t in self.tokens:
            if isinstance(t, Twist) and t.power <= 0:
                return False
            if isinstance(t, Ext) and t.sign != "+":
                return False
        return True

    def twists(self) -> list[Twist]:
        return [t for t in self.tokens if isinstance(t, Twist)]


def token_to_json(t: Token) -> dict:
    if isinstance(t, Ext):
        return {"op": "ext", "piece": t.piece, "sign": t.sign}
    if isinstance(t, Rot):
        return {"op": "rot", "orbit": t.orbit,
                "slope": _fraction_to_json(t.slope)}
    obj = {"op": "twist", "curve": t.curve, "power": t.power}
    if t.orbit is not None:
        obj["orbit"] = t.orbit
    return obj


def word_to_json(w: MonodromyWord) -> list[dict]:
    return [token_to_json(t) for t in w.tokens]


def boundary_slope(c: int, order: int, sign: str) -> Fraction:
    """Rotation slope of a drilled cone orbit per full period.

    Positive markings rotate by ``c^{-1}/order`` turns, negative ones by the
    representative one turn down.
    """
    u = mod_inverse(c, order)
    # one turn down is (u - order)/order, in lowest terms as u/order is
    return Fraction(u if sign == "+" else u - order, order)


# --- assemblies --------------------------------------------------------------


@dataclass(frozen=True)
class GluingEdge:
    """One gluing: ``left``/``right`` are (piece id, cone index) slots.

    An edge is not checked on its own: the :class:`Assembly` that holds it
    checks, through :func:`build_edge`, that its cones glue."""

    left: tuple[int, int]
    right: tuple[int, int]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        """Merge the classes of ``a`` and ``b``."""
        self.parent[self.find(a)] = self.find(b)


@dataclass(frozen=True)
class Assembly:
    """Marked pieces joined by edges and by self edges ``(p, r, s)``, which
    glue cones ``r < s`` of piece ``p``.

    The constructor checks the structure, in this order: at least one piece,
    each an irreducible type 1 shape with well-formed marks; all pieces of
    one degree; every edge compatible (through :func:`build_edge`); every
    self edge compatible; no slot glued twice; the piece graph connected.
    ``pieces``, ``edges`` and ``self_edges`` must be tuples or lists, each
    piece a :class:`MarkedDataSet` and each edge a :class:`GluingEdge`; a
    value of another type raises ``TypeError`` naming the field, and any
    other fault ``ValueError``.  Semantic validity of the pieces is *not*
    demanded: gluing is order-and-residue arithmetic.  The stored edges and
    slots are tuples.
    """

    pieces: tuple[MarkedDataSet, ...]
    edges: tuple[GluingEdge, ...] = ()
    self_edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        pieces = _entries(self.pieces, "pieces")
        if not pieces:
            raise ValueError("an assembly needs at least one piece")
        for k, piece in enumerate(pieces):
            if not isinstance(piece, MarkedDataSet):
                raise TypeError(f"piece {k} must be a marked data set")
            cls = classify(piece.base)
            if cls.label != "type1-irreducible":
                raise ValueError(f"piece {k} is not an irreducible type 1 "
                                 f"shape ({cls.label}): {piece}")
            _check_marks(piece, f"piece {k}: ")
        if any(p.degree != pieces[0].degree for p in pieces):
            raise ValueError("all pieces must share one degree")

        glued: set[tuple[int, int]] = set()

        def claim(slot: tuple[int, int]) -> None:
            if slot in glued:
                raise ValueError(f"cone {slot[1]} of piece {slot[0]} "
                                 "is glued more than once")
            glued.add(slot)

        forest = _UnionFind(len(pieces))
        edges = []
        for k, e in enumerate(_entries(self.edges, "edges")):
            if not isinstance(e, GluingEdge):
                raise TypeError(f"edge {k} must be a GluingEdge")
            edge = build_edge(pieces, e.left, e.right)
            claim(edge.left)
            claim(edge.right)
            forest.union(edge.left[0], edge.right[0])
            edges.append(edge)
        self_edges = []
        for e in _entries(self.self_edges, "self_edges"):
            _check_self_pair(_slot(pieces, e, "self edge", 3), e[1], e[2])
            p, r, s = e
            claim((p, r))
            claim((p, s))
            self_edges.append((p, r, s))
        if len({forest.find(i) for i in range(len(pieces))}) != 1:
            raise ValueError("the assembly is not connected")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "self_edges", tuple(self_edges))


def _entries(value, field: str) -> tuple:
    if not isinstance(value, (tuple, list)):
        raise TypeError(f"{field} must be a tuple or a list, got {value!r}")
    return tuple(value)


def _slot(pieces: tuple, slot, field: str, width: int = 2) -> DataSet:
    # the base of the piece that a slot names.  A slot is width integers,
    # a piece id and then cone indices.  Cone indices are range-checked
    # where they are read.
    if not (isinstance(slot, (tuple, list)) and len(slot) == width
            and all(map(_is_index, slot))):
        raise ValueError(f"{field} must be {width} integers, got {slot!r}")
    p = slot[0]
    if not 0 <= p < len(pieces):
        raise ValueError(f"piece id {p} is outside 0..{len(pieces) - 1}")
    return pieces[p].base


def build_edge(pieces, left: tuple[int, int],
               right: tuple[int, int]) -> GluingEdge:
    """Make a compatibility-checked edge between two piece slots.

    :class:`Assembly` runs this on each of its edges, so an edge built
    without it is checked all the same."""
    pieces = tuple(pieces)
    a = _slot(pieces, left, "left")
    b = _slot(pieces, right, "right")
    (pa, ia), (pb, ib) = left, right
    if pa == pb:
        raise ValueError("an edge joins two distinct pieces; "
                         "use a self edge within one piece")
    _require_compatible(_check_cone_index(a, ia, "left cone"),
                        _check_cone_index(b, ib, "right cone"),
                        f" of piece {pa}", f" of piece {pb}")
    return GluingEdge((pa, ia), (pb, ib))


@dataclass(frozen=True)
class PieceBoundary:
    """Where one marked orbit of one piece ended up in the assembled set."""

    piece: int
    mark: int
    output_index: int | None
    slope: Fraction

    @property
    def consumed(self) -> bool:
        return self.output_index is None


@dataclass(frozen=True)
class BoundaryLedger:
    entries: tuple[PieceBoundary, ...]
    mixed_signs: bool

    def surviving(self, piece: int | None = None) -> list[PieceBoundary]:
        return [e for e in self.entries
                if not e.consumed and (piece is None or e.piece == piece)]

    def consumed(self, piece: int | None = None) -> list[PieceBoundary]:
        return [e for e in self.entries
                if e.consumed and (piece is None or e.piece == piece)]


@dataclass(frozen=True)
class AssemblyResult:
    data_set: MarkedDataSet
    word: MonodromyWord
    ledger: BoundaryLedger


def assemble(a: Assembly) -> AssemblyResult:
    """Flatten an assembly to one marked data set, word and ledger.

    Checks nothing: the :class:`Assembly` constructor has checked the
    structure already.  The result is kept on ``a`` after its first
    computation, which is safe because both are frozen (see
    ``core._kept``).
    """
    return _kept(a, "_assemble", _assemble)


def _assemble(a: Assembly) -> AssemblyResult:
    # the rule behind assemble()
    pieces = a.pieces
    degree = pieces[0].degree
    glued = {slot for e in a.edges for slot in (e.left, e.right)}
    glued.update(slot for p, r, s in a.self_edges for slot in ((p, r), (p, s)))
    # a connected graph of P pieces and E edges closes E - P + 1 cycles;
    # each cycle, like each self edge, raises the quotient genus by one
    extra_quotient_genus = len(a.edges) - len(pieces) + 1 + len(a.self_edges)

    # the surviving cones keep (piece, cone) order and are numbered from 1
    cone_pairs = []
    position: dict[tuple[int, int], int] = {}
    for piece_id, piece in enumerate(pieces):
        for local, pair in enumerate(piece.base.cone_pairs, 1):
            if (piece_id, local) not in glued:
                cone_pairs.append(pair)
                position[piece_id, local] = len(cone_pairs)
    quotient_genus = sum(p.base.quotient_genus for p in pieces) \
        + extra_quotient_genus

    signs = {p.sign for p in pieces}
    mixed = len(signs) > 1
    out_sign = pieces[0].sign

    entries = []
    out_marks = []
    for piece_id, piece in enumerate(pieces):
        for mark in piece.marks:
            pair = piece.base.cone_pairs[mark - 1]
            out_index = position.get((piece_id, mark))
            if out_index is not None:
                out_marks.append(out_index)
            entries.append(PieceBoundary(
                piece=piece_id,
                mark=mark,
                output_index=out_index,
                slope=boundary_slope(pair.c, pair.order, piece.sign),
            ))
    result = MarkedDataSet(
        DataSet(degree, quotient_genus, 0, tuple(cone_pairs)),
        out_sign,
        tuple(sorted(out_marks)),
    )

    tokens: list[Token] = [Ext(k, p.sign) for k, p in enumerate(pieces)]
    for idx, e in enumerate(a.edges):
        sa = pieces[e.left[0]].sign
        sb = pieces[e.right[0]].sign
        if sa == sb:
            tokens.append(Twist(f"edge{idx}", 1 if sa == "+" else -1))
        # opposite signs extend over the annulus with no twist
    for idx, (p, _, _) in enumerate(a.self_edges):
        tokens.append(Twist(f"selfedge{idx}", 1 if pieces[p].sign == "+" else -1))
    by_output = sorted((e for e in entries if e.output_index is not None),
                       key=lambda e: e.output_index)
    tokens.extend(Rot(e.output_index, e.slope) for e in by_output)

    return AssemblyResult(result, MonodromyWord(tuple(tokens)),
                          BoundaryLedger(tuple(entries), mixed))


# --- JSON --------------------------------------------------------------------


def edge_to_json(e: GluingEdge) -> dict:
    return {"left": list(e.left), "right": list(e.right)}


def assembly_to_json(a: Assembly) -> dict:
    return {
        "pieces": [data_set_to_json(p) for p in a.pieces],
        "edges": [edge_to_json(e) for e in a.edges],
        "self_edges": [list(e) for e in a.self_edges],
    }


def _json_list(obj: dict, field: str) -> list:
    value = obj.get(field, [])
    if not isinstance(value, list):
        raise ValueError(f"assembly '{field}' must be a list, got {value!r}")
    return value


def assembly_from_json(obj: dict) -> Assembly:
    """Rebuild an assembly; pieces may be JSON objects or tuple notation.

    Only the shape of the JSON is read here; :class:`Assembly` checks the
    rest.  Every fault is a ``ValueError``.
    """
    if not isinstance(obj, dict) or not isinstance(obj.get("pieces"), list):
        raise ValueError("assembly JSON needs a 'pieces' list")
    # both piece readers raise only ValueError
    pieces = tuple(parse_data_set(p) if isinstance(p, str)
                   else data_set_from_json(p) for p in obj["pieces"])
    for k, p in enumerate(pieces):
        if not isinstance(p, MarkedDataSet):
            raise ValueError(f"assembly piece {k} must be a marked data set")
    edges = _json_list(obj, "edges")
    for k, e in enumerate(edges):
        if not (isinstance(e, dict) and "left" in e and "right" in e):
            raise ValueError(f"assembly edge {k} must be an object with "
                             f"'left' and 'right', got {e!r}")
    return Assembly(pieces, [GluingEdge(e["left"], e["right"]) for e in edges],
                    _json_list(obj, "self_edges"))
