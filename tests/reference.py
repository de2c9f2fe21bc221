"""Reference implementations that tests hold the program equal to.

Each is a plain form of something the program computes in a faster or
leaner way, and the tests run it live against the program's own result.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm

from perisurf.census import _units
from perisurf.core import (
    _DASHES,
    _MAX_CONE_PAIRS,
    ConePair,
    DataSet,
    MarkedDataSet,
    ParseError,
)
from perisurf.profiles import (
    _BINDING_END,
    _COLLAR_START,
    ConditionReport,
    ProfilePair,
)
from perisurf.gluing import _UnionFind


# --- census ------------------------------------------------------------------
# The genus pinned here is computed in integers over the lcm of the cone
# orders by core._rh_genus.


def _rh_genus_by_fractions(n, g0, orders):
    # reference: Riemann-Hurwitz summed term by term in Fractions
    deficiency = sum((1 - Fraction(1, o) for o in orders), Fraction(0))
    return 1 - Fraction(n, 2) * (2 - 2 * g0 - deficiency)


# census._residue_tuples solves for the last residue instead of filtering.


def _residue_tuples_by_filter(n, orders):
    # reference: every canonical residue tuple, filtered at the leaves
    runs = []
    for o in orders:
        if runs and runs[-1][0] == o:
            runs[-1] = (o, runs[-1][1] + 1)
        else:
            runs.append((o, 1))
    out = []

    def rec(run_idx, weighted, acc):
        if run_idx == len(runs):
            if weighted % n == 0:
                out.append(acc)
            return
        order, count = runs[run_idx]
        for combo in combinations_with_replacement(_units(order), count):
            rec(run_idx + 1, weighted + n // order * sum(combo), acc + combo)

    rec(0, 0, ())
    return out


# --- core --------------------------------------------------------------------
# core._lcm_violations takes every leave-one-out lcm from prefix and
# suffix lcms.


def _lcm_violations_leave_one_out(n, g0, orders):
    # condition iv recomputing the lcm once per dropped order
    full = lcm(*orders) if orders else 1
    out = []
    for idx in range(len(orders)):
        rest = orders[:idx] + orders[idx + 1:]
        partial = lcm(*rest) if rest else 1
        if partial != full:
            out.append(("iv", f"dropping cone {idx + 1} changes the lcm of the "
                              f"cone orders from {full} to {partial}"))
    if g0 == 0 and full != n:
        out.append(("iv", f"with quotient genus 0 the lcm of the cone orders "
                          f"must equal the degree, got {full}"))
    return out


# core.parse_data_set walks a list of tokens and finds an error's position
# from the token spans only when it raises; this is the character cursor it
# replaced.


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            got = self.peek() or "end of input"
            raise ParseError(f"expected {ch!r}, found {got!r}", self.pos)

    def number(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            got = self.peek() or "end of input"
            raise ParseError(f"expected a number, found {got!r}", self.pos)
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # more digits than int() converts from text
            raise ParseError(f"a number of {self.pos - start} digits is too "
                             "long", start) from None

    def build(self, cls, *args):
        """Construct ``cls(*args)``; its structural errors become parse
        errors at the current position."""
        try:
            return cls(*args)
        except (ValueError, TypeError) as e:
            raise ParseError(str(e), self.pos) from None


def _reference_parse_data_set(text: str) -> DataSet | MarkedDataSet:
    """Parse the tuple notation; raises :class:`ParseError` with a position.

    Only the grammar is enforced here — semantic conditions are left to
    :func:`validate`.  The constructors' structural checks (a zero degree,
    cone order or mark index) surface as :class:`ParseError` as well.
    """
    cur = _Cursor(text)
    cur.expect("(")
    degree = cur.number()
    sign = None
    if cur.take("_"):
        if cur.take("+"):
            sign = "+"
        elif cur.peek() in _DASHES:
            cur.pos += 1
            sign = "-"
        else:
            raise ParseError("expected '+' or '-' after '_'", cur.pos)
    elif cur.take("₊"):
        sign = "+"
    elif cur.take("₋"):
        sign = "-"
    cur.expect(",")
    g0 = cur.number()

    rotation = 0
    if cur.take(";"):
        pass
    elif cur.take(","):
        if cur.peek().isdecimal():
            rotation = cur.number()
            if not (cur.take(";") or cur.take(",")):
                raise ParseError("expected ';' before the cone pairs", cur.pos)
        # otherwise the comma already separated the preamble from the body
    else:
        raise ParseError("expected ';' after the preamble", cur.pos)

    pairs: list[ConePair] = []
    marks: tuple[int, ...] | None = None
    if cur.peek() in _DASHES:
        cur.pos += 1
        if cur.take(",") and cur.peek() != "[":
            raise ParseError("expected a marks list after ','", cur.pos)
    else:
        while True:
            if cur.peek() == "[":
                break
            cur.expect("(")
            c = cur.number()
            cur.expect(",")
            order = cur.number()
            cur.expect(")")
            count, at = 1, cur.pos
            if cur.peek() in ("×", "x"):
                cur.pos += 1
                cur.skip_ws()
                at = cur.pos
                count = cur.number()
                if count < 1:
                    raise ParseError("repeat count must be positive", cur.pos)
            if len(pairs) + count > _MAX_CONE_PAIRS:
                raise ParseError(f"more than {_MAX_CONE_PAIRS} cone pairs", at)
            pairs.extend([cur.build(ConePair, c, order)] * count)
            if not cur.take(","):
                break
    if cur.peek() == "[":
        cur.expect("[")
        idxs: list[int] = []
        if cur.peek() != "]":
            idxs.append(cur.number())
            while cur.take(","):
                idxs.append(cur.number())
        cur.expect("]")
        marks = tuple(idxs)
    cur.expect(")")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise ParseError("unexpected trailing text", cur.pos)

    base = cur.build(DataSet, degree, g0, rotation, tuple(pairs))
    if sign is None and marks is None:
        return base
    if sign is None:
        raise ParseError("a marks list requires a sign on the degree", 0)
    if marks is None:
        raise ParseError("a sign on the degree requires a marks list", 0)
    return cur.build(MarkedDataSet, base, sign, marks)


# --- realization -------------------------------------------------------------
# realization._pairing_checks counts the vertices as the cycles of the
# corner permutation.


def _euler_genus_by_union_find(pairing):
    # reference: merge both ends of every side gluing, count the classes
    k = len(pairing)
    uf = _UnionFind(k)
    for x in range(1, k + 1):
        y = pairing[x - 1]
        uf.union(x - 1, y % k)
        uf.union(x % k, y - 1)
    vertices = sum(1 for c in range(k) if uf.find(c) == c)
    chi = vertices - k // 2 + 1
    if chi <= 2 and (2 - chi) % 2 == 0:
        return (2 - chi) // 2
    return None


# --- profiles ----------------------------------------------------------------
# The profile numerics as they were before search and verification shared one
# lazy condition stream: whole arrays, a derivative pass, then the checks.


def _hermite(t, va, da, vb, db, width):
    h00 = 2 * t ** 3 - 3 * t ** 2 + 1
    h10 = t ** 3 - 2 * t ** 2 + t
    h01 = -2 * t ** 3 + 3 * t ** 2
    h11 = t ** 3 - t ** 2
    return h00 * va + h10 * width * da + h01 * vb + h11 * width * db


def _reference_assemble(p, q, K, H, peak=1.0, samples=1024):
    a, b = _BINDING_END, _COLLAR_START
    fa, dfa = 2 * H - a * a, -2 * a
    ga, dga = a * a, 2 * a
    fb, dfb = -b * p - q * K, float(-p)
    gb, dgb = -b * q + p * K, float(-q)
    bump_scale = (peak - 1.0) * max(1.0, abs(gb))

    grid, f0, g0 = [], [], []
    for i in range(samples):
        r = i / (samples - 1)
        grid.append(r)
        if r <= a:
            f0.append(2 * H - r * r)
            g0.append(r * r)
        elif r >= b:
            f0.append(-r * p - q * K)
            g0.append(-r * q + p * K)
        else:
            t = (r - a) / (b - a)
            f0.append(_hermite(t, fa, dfa, fb, dfb, b - a))
            g = _hermite(t, ga, dga, gb, dgb, b - a)
            g0.append(g + bump_scale * 16 * t * t * (1 - t) * (1 - t))
    return ProfilePair(tuple(grid), tuple(f0), tuple(g0), p, q, K, H)


# profiles._profile_points converts p, q, q * K and p * K to floats once; the
# loops here multiply by the ints themselves, on the same sample plan.


def _profile_points_of_mixed_products(p, q, K, H, peak, plan):
    # reference: the three arcs (r, f0, g0) with int operands in the loops
    a, b = _BINDING_END, _COLLAR_START
    two_h = 2 * H
    yield plan.binding, [two_h - s for s in plan.squares], plan.squares

    fa, dfa = two_h - a * a, -2 * a
    ga, dga = a * a, 2 * a
    fb, dfb = -b * p - q * K, float(-p)
    gb, dgb = -b * q + p * K, float(-q)
    bump = (peak - 1.0) * max(1.0, abs(gb)) * 16
    basis = plan.basis
    yield (plan.hermite,
           [h00 * fa + h10w * dfa + h01 * fb + h11w * dfb
            for h00, h10w, h01, h11w in zip(*basis[:4])],
           [h00 * ga + h10w * dga + h01 * gb + h11w * dgb
            + bump * t * t * u * u
            for h00, h10w, h01, h11w, t, u in zip(*basis)])

    qK, pK = q * K, p * K
    rs = plan.collar
    yield rs, [-r * p - qK for r in rs], [-r * q + pK for r in rs]


def _reference_derivatives(grid, values):
    n = len(grid)
    out = [0.0] * n
    out[0] = (values[1] - values[0]) / (grid[1] - grid[0])
    out[-1] = (values[-1] - values[-2]) / (grid[-1] - grid[-2])
    for i in range(1, n - 1):
        out[i] = (values[i + 1] - values[i - 1]) / (grid[i + 1] - grid[i - 1])
    return out


def _reference_verify(pp, tolerance=1e-9):
    if len(pp.grid) < 64:
        raise ValueError("verification needs at least 64 samples")
    df = _reference_derivatives(pp.grid, pp.f0)
    dg = _reference_derivatives(pp.grid, pp.g0)

    contact_ok, symplectic_ok = True, True
    first_violation = None
    inconclusive = []
    for i, r in enumerate(pp.grid):
        checks = []
        if i >= 1:
            checks.append(("contact", pp.f0[i] * dg[i] - df[i] * pp.g0[i], 1))
        checks.append(("symplectic", pp.p * df[i] + pp.q * dg[i], -1))
        for name, value, wanted_sign in checks:
            if abs(value) <= tolerance:
                inconclusive.append((r, name, value))
            elif (value > 0) != (wanted_sign > 0):
                if name == "contact":
                    contact_ok = False
                else:
                    symplectic_ok = False
                if first_violation is None:
                    first_violation = (r, name, value)

    corner_f, corner_g = -pp.p - pp.q * pp.K, -pp.q + pp.p * pp.K
    if not corner_f < 0 < corner_g:
        symplectic_ok = False
        if first_violation is None:
            bad = corner_f if corner_f >= 0 else corner_g
            first_violation = (1.0, "corner", float(bad))
    return ConditionReport(contact_ok, symplectic_ok, first_violation,
                           tuple(inconclusive))


def _reference_binding_deviation(pp):
    df = _reference_derivatives(pp.grid, pp.f0)
    dg = _reference_derivatives(pp.grid, pp.g0)
    worst = 0.0
    for i in range(1, len(pp.grid) - 1):
        r = pp.grid[i]
        if pp.grid[i + 1] >= _BINDING_END:
            break
        numeric = pp.p * df[i] + pp.q * dg[i]
        worst = max(worst, abs(numeric - 2 * r * (pp.q - pp.p)))
    return worst


def _reference_search(p, q, *, candidates=1000, samples=256, tolerance=1e-9):
    """The search loop as it was, also returning how many candidates it had
    counted against the budget when it stopped."""
    peaks = (1.0, 0.5, 0.75, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
    tried = 0
    for K, H, peak in product(range(1, 11), range(1, 11), peaks):
        if tried >= candidates:
            break
        tried += 1
        if not -p - q * K < 0 < -q + p * K:
            continue
        pp = _reference_assemble(p, q, K, float(H), peak=peak,
                                 samples=samples)
        if _reference_verify(pp, tolerance).ok:
            return pp, tried
    return None, tried


# profiles._default_twist_count finds the least corner offset in closed form.


def _default_twist_count_by_scan(p, q):
    # reference: the offsets 1, 2, ... tried in turn, up to a bound past
    # which none puts the collar endpoint (-p - qk, -q + pk) in the corner
    # f < 0 < g; the corner test is written out, not profiles._in_corner
    limit = 4 * (abs(p) + abs(q)) + 4
    for k in range(1, limit + 1):
        if -p - q * k < 0 < -q + p * k:
            margin = k + 1
            return margin if -p - q * margin < 0 < -q + p * margin else k
    raise ValueError(
        f"no positive collar offset K satisfies -p - qK < 0 < -q + pK "
        f"for (p, q) = ({p}, {q}); pass K explicitly")
