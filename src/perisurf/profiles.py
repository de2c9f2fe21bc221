"""Convex annulus profiles: the numeric model of a filling near a binding.

This module builds and checks the plane curves ``r -> (f(r), g(r))`` used to
model a filling near a binding orbit of slope ``q/p``: ``f dg - g df > 0``
away from the core and ``p f' + q g' < 0`` everywhere.  Verification is
numerical on a sample grid with an explicit tolerance; values inside the
tolerance band are reported as inconclusive rather than silently passed or
failed.  A profile is built in one pass, binding arc, Hermite arc and
collar in turn, from a plan of the sample count, which holds the grid and
the Hermite basis and is kept for the last few counts up to the CLI's
sample bound (a larger plan is built for its caller alone).  It is checked
in one pass too: the condition values of every sample are computed
together, and one scan yields the inconclusive values and definite
violations in grid order, walking the samples only when some value is not
clearly of the wanted sign.  Verification reads all of it.  The search
builds one shape, the first in the corner, and keeps only whether its scan
found a definite violation; its docstring states why that shape decides.
The per-sample loops multiply floats only: the integers ``p``, ``q``,
``q K`` and ``p K`` are converted once, by the conversion an int operand
gets anyway, so every sample and every report is the one the mixed int and
float products give.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache

_BINDING_END = 0.25
_COLLAR_START = 0.75


@dataclass(frozen=True)
class ProfilePair:
    """Sampled curve ``r -> (f0(r), g0(r))`` modelling a filling profile.

    The binding arc near ``r = 0`` caps off the orbit, the collar near
    ``r = 1`` runs along direction ``(-p, -q)`` displaced ``K`` steps
    perpendicular to it (a usable profile ends in the corner ``f < 0 < g``,
    which the verifier checks), and a Hermite arc joins the two.
    """

    grid: tuple[float, ...]
    f0: tuple[float, ...]
    g0: tuple[float, ...]
    p: int
    q: int
    K: int
    H: float


@dataclass(frozen=True)
class ConditionReport:
    """Numerical check of the contact and symplectic inequalities.

    ``first_violation`` is ``(r, condition, value)`` for the earliest
    definite failure; samples whose margin is inside the tolerance land in
    ``inconclusive`` instead of deciding either way.
    """

    contact_ok: bool
    symplectic_ok: bool
    first_violation: tuple[float, str, float] | None
    inconclusive: tuple[tuple[float, str, float], ...]

    @property
    def ok(self) -> bool:
        return self.contact_ok and self.symplectic_ok


@dataclass(frozen=True)
class _SamplePlan:
    """The part of a profile that depends on the sample count alone.

    ``grid`` holds every sample ``r = i / (samples - 1)``; ``binding``,
    ``hermite`` and ``collar`` are its three arcs, ``squares`` the values
    ``r * r`` of the binding arc, and ``basis`` the columns ``h00``,
    ``h10 * width``, ``h01``, ``h11 * width``, ``t`` and ``u = 1 - t`` of
    the Hermite arc, one entry per sample.
    """

    grid: tuple[float, ...]
    binding: tuple[float, ...]
    squares: tuple[float, ...]
    hermite: tuple[float, ...]
    basis: tuple[tuple[float, ...], ...]
    collar: tuple[float, ...]


# the CLI's --samples bound; a plan holds about 145 bytes per sample, so the
# memo keeps at most four plans of up to 100,000 samples each
_KEPT_SAMPLES = 100_000


def _plan(samples: int) -> _SamplePlan:
    # the plan of a sample count: from the memo up to _KEPT_SAMPLES, and
    # above that built for this caller alone
    if samples > _KEPT_SAMPLES:
        return _sample_plan.__wrapped__(samples)
    return _sample_plan(samples)


# typed: a float count such as 1024.0 gets its own entry, and range refuses it
@lru_cache(maxsize=4, typed=True)
def _sample_plan(samples: int) -> _SamplePlan:
    if samples < 2:
        raise ValueError("need at least two samples")
    a, b = _BINDING_END, _COLLAR_START
    last = samples - 1
    width = b - a
    # r = i / last rises with i: the binding arc is r <= a, the Hermite arc
    # starts at sample `hermite`, and the collar, r >= b, at sample `collar`
    hermite = bisect_right(range(samples), a, key=lambda i: i / last)
    collar = bisect_left(range(samples), b, hermite, key=lambda i: i / last)
    grid = tuple(i / last for i in range(samples))
    binding, middle = grid[:hermite], grid[hermite:collar]
    rows = []
    for r in middle:
        t = (r - a) / width
        t2, t3 = t ** 2, t ** 3
        rows.append((2 * t3 - 3 * t2 + 1, (t3 - 2 * t2 + t) * width,
                     -2 * t3 + 3 * t2, (t3 - t2) * width, t, 1 - t))
    # one column per basis value; no columns when the arc has no sample
    return _SamplePlan(grid, binding, tuple(r * r for r in binding), middle,
                       tuple(zip(*rows)), grid[collar:])


def _assemble_profile(p: int, q: int, K: int, H: float, peak: float = 1.0,
                      samples: int = 1024) -> ProfilePair:
    """Build the profile of shape ``(K, H, peak)`` for the slope ``q/p`` in
    one pass: the binding arc, then the Hermite arc, then the collar.

    Construction never fails on shape grounds: a collar offset that misses
    the corner still produces a curve, and the verifier rejects it.  There
    is no sign restriction on ``p`` here.  Everything that depends on the
    sample count alone (the arcs' samples, the squares of the binding arc
    and the Hermite basis) comes from the plan, which :func:`_plan` keeps
    for the last few counts up to the CLI's bound, so a profile costs only
    its shape arithmetic; each float is the one a per-profile computation
    gives.
    """
    plan = _plan(samples)
    a, b = _BINDING_END, _COLLAR_START
    two_h = 2 * H
    f0 = [two_h - s for s in plan.squares]
    g0 = list(plan.squares)

    # an int operand of a float operation is converted by the same correctly
    # rounded PyLong_AsDouble that float() uses, so each product below is the
    # double of the int form; the conversion is exact below 2**53
    pf, qf = float(p), float(q)
    qK, pK = float(q * K), float(p * K)
    fa, dfa = two_h - a * a, -2 * a
    ga, dga = a * a, 2 * a
    fb, dfb = -b * pf - qK, -pf
    gb, dgb = -b * qf + pK, -qf
    bump = (peak - 1.0) * max(1.0, abs(gb)) * 16
    basis = plan.basis
    f0 += [h00 * fa + h10w * dfa + h01 * fb + h11w * dfb
           for h00, h10w, h01, h11w in zip(*basis[:4])]
    if bump == 0.0:
        # the bump term is then a zero, and x + 0.0 is x unless x is -0.0
        # or NaN.  No partial sum is NaN, every term being finite, and none
        # is -0.0: a sum is -0.0 only when both its terms are, and the first
        # term h00 * ga is not, for ga is 2**-4 and h00, a sum ending in
        # + 1, is not -0.0
        g0 += [h00 * ga + h10w * dga + h01 * gb + h11w * dgb
               for h00, h10w, h01, h11w in zip(*basis[:4])]
    else:
        g0 += [h00 * ga + h10w * dga + h01 * gb + h11w * dgb
               + bump * t * t * u * u
               for h00, h10w, h01, h11w, t, u in zip(*basis)]

    rs = plan.collar
    f0 += [-r * pf - qK for r in rs]
    g0 += [-r * qf + pK for r in rs]
    # one grid tuple per kept sample count, shared by every profile built on it
    return ProfilePair(plan.grid, tuple(f0), tuple(g0), p, q, K, H)


def _in_corner(p: int, q: int, K: int) -> bool:
    """Whether the collar endpoint ``(-p - qK, -q + pK)`` lies in the corner
    ``f < 0 < g``, where the symplectic filling closes up."""
    return -p - q * K < 0 < -q + p * K


def _default_twist_count(p: int, q: int) -> int:
    # smallest positive K putting the collar endpoint in the corner, with
    # one unit of margin when the margin keeps it there.  For p > 0 the
    # least K >= 1 with pK > q is max(1, q // p + 1).  There -p - qK < 0
    # holds or it holds at no larger K: it can fail only when q < 0, and
    # then it grows harder to meet as K grows.
    k = max(1, q // p + 1)
    if _in_corner(p, q, k):
        return k + 1 if _in_corner(p, q, k + 1) else k
    raise ValueError(
        f"no positive collar offset K satisfies -p - qK < 0 < -q + pK "
        f"for (p, q) = ({p}, {q}); pass K explicitly")


def build_profile(p: int, q: int, K: int | None = None,
                  H: float | None = None, *, peak: float = 1.0,
                  samples: int = 1024) -> ProfilePair:
    """Build the standard profile for a binding orbit of slope ``q/p``.

    ``p`` must be positive and coprime to ``q``.  ``K`` defaults to the
    smallest workable collar offset (with a unit of margin when possible)
    and ``H`` to a binding height clearing the collar values.
    """
    if p <= 0:
        raise ValueError("p must be positive; the slope is taken as q/p")
    _require_lowest_terms(p, q)
    if K is None:
        K = _default_twist_count(p, q)
    if H is None:
        H = 1.0 + max(1.0, abs(-p - q * K))
    return _assemble_profile(p, q, K, H, peak=peak, samples=samples)


def _require_lowest_terms(p: int, q: int) -> None:
    if math.gcd(abs(p), abs(q)) != 1:
        raise ValueError(f"slope {q}/{p} is not in lowest terms")


def _require_verifiable(samples: int) -> None:
    if samples < 64:
        raise ValueError("verification needs at least 64 samples")


def _condition_values(grid, f0, g0, p: int, q: int):
    """Return the contact values ``f g' - f' g`` at samples 1 onward and the
    symplectic values ``p f' + q g'`` at every sample of the sequences
    ``grid``, ``f0`` and ``g0``, in one pass.

    The binding core ``r = 0``, sample 0, is a coordinate degeneracy and has
    no contact value.  Derivatives are central differences, one-sided at
    the two ends of the sequences.
    """
    p, q = float(p), float(q)  # the same products (see _assemble_profile)
    contact, symplectic = [], []
    for r_lo, r_hi, f_lo, f_hi, g_lo, g_hi, f, g in zip(
            grid[:1] + grid[:-1], grid[1:] + grid[-1:],
            f0[:1] + f0[:-1], f0[1:] + f0[-1:],
            g0[:1] + g0[:-1], g0[1:] + g0[-1:], f0, g0):
        dr = r_hi - r_lo
        df = (f_hi - f_lo) / dr
        dg = (g_hi - g_lo) / dr
        contact.append(f * dg - df * g)
        symplectic.append(p * df + q * dg)
    del contact[0]  # the core
    return contact, symplectic


def _clear(contact, symplectic, tolerance: float) -> bool:
    """Whether every contact value is positive and every symplectic value
    negative, each beyond ``tolerance``: then no value is inconclusive or a
    violation.  ``False`` only means that a closer look is needed."""
    # a NaN or negative tolerance has no band, but the sign still counts
    cut = tolerance if tolerance > 0 else 0
    return (min(contact, default=math.inf) > cut
            and max(symplectic, default=-math.inf) < -cut
            # min and max pass over NaN; a sum does not
            and not math.isnan(sum(contact) + sum(symplectic)))


def _findings(grid, f0, g0, p: int, q: int, tolerance: float):
    """Yield ``(r, condition, value, definite)`` for each condition value of
    the samples that is not clearly of the wanted sign, in grid order, the
    contact value first; one pass of :func:`_condition_values` computes the
    values of every sample.

    ``definite`` is false for a value with ``abs(value) <= tolerance`` and
    true for any other that is not positive (contact) or is positive
    (symplectic), so a NaN contact value is a violation and a NaN tolerance
    has no band.  Values that :func:`_clear` passes are not scanned.
    """
    contact, symplectic = _condition_values(grid, f0, g0, p, q)
    if _clear(contact, symplectic, tolerance):
        return
    # the core, sample 0, has a symplectic value only
    s = symplectic[0]
    if abs(s) <= tolerance or s > 0:
        yield grid[0], "symplectic", s, not abs(s) <= tolerance
    for r, c, s in zip(grid[1:], contact, symplectic[1:]):
        if abs(c) <= tolerance or not c > 0:
            yield r, "contact", c, not abs(c) <= tolerance
        if abs(s) <= tolerance or s > 0:
            yield r, "symplectic", s, not abs(s) <= tolerance


def verify_profile(pp: ProfilePair, tolerance: float = 1e-9) -> ConditionReport:
    """Check the contact and symplectic inequalities on the sample grid.

    The contact form condition ``f g' - f' g > 0`` is checked away from the
    first grid cell (the binding core is a coordinate degeneracy); the
    symplectic condition ``p f' + q g' < 0`` is checked everywhere.  The
    collar endpoint must also land strictly inside the corner
    ``f(1) < 0 < g(1)`` for the symplectic filling to close up; being exact
    integer arithmetic this is checked without tolerance and reported under
    the condition id ``"corner"``.

    The condition values are computed in floats only, equal bit for bit to
    the mixed int and float products.
    """
    samples = len(pp.grid)
    _require_verifiable(samples)
    if not len(pp.f0) == len(pp.g0) == samples:
        raise ValueError("grid, f0 and g0 differ in length")
    findings = list(_findings(pp.grid, pp.f0, pp.g0, pp.p, pp.q, tolerance))
    # (r, condition, value) of each definite violation, in grid order
    violations = [f[:3] for f in findings if f[3]]
    if not _in_corner(pp.p, pp.q, pp.K):
        corner_f = -pp.p - pp.q * pp.K
        bad = corner_f if corner_f >= 0 else -pp.q + pp.p * pp.K
        violations.append((1.0, "corner", float(bad)))
    # a corner violation fails the symplectic condition
    return ConditionReport(all(name != "contact" for _, name, _ in violations),
                           all(name == "contact" for _, name, _ in violations),
                           violations[0] if violations else None,
                           tuple(f[:3] for f in findings if not f[3]))


def binding_symplectic_deviation(pp: ProfilePair) -> float:
    """Largest gap between the numeric symplectic form and its closed form
    ``2r(q - p)`` on the interior of the binding arc."""
    grid = pp.grid
    # samples 1 to end - 1, whose stencils end below the binding end; the
    # pass runs on samples 0 to end, the last one those stencils read
    end = next((i for i in range(2, len(grid)) if grid[i] >= _BINDING_END),
               len(grid)) - 1
    if end < 2:
        return 0.0  # no sample inside the binding arc
    _, symplectic = _condition_values(grid[:end + 1], pp.f0[:end + 1],
                                      pp.g0[:end + 1], pp.p, pp.q)
    return max([0.0, *(abs(numeric - 2 * r * (pp.q - pp.p))
                       for r, numeric in zip(grid[1:end], symplectic[1:end]))])


def search_profiles(p: int, q: int, *, candidates: int = 1000,
                    samples: int = 256,
                    tolerance: float = 1e-9) -> ProfilePair | None:
    """Decide whether the slope ``q/p`` has a verifying profile, from the
    first shape in the corner.

    Unlike :func:`build_profile` this accepts negative ``p``, so that both
    orientations of a slope can be probed.  ``K`` is the least offset in
    1..10 that puts the collar end in the corner.  The search builds the
    shape ``(K, H, peak) = (K, 1.0, 1.0)`` and returns it when its scan at
    ``tolerance`` finds no definite violation of the conditions of
    :func:`verify_profile`; otherwise, or when there is no such ``K``, it
    returns ``None``.  ``candidates`` counts shapes in the order of the
    grid of ``K`` and ``H`` in 1..10 with ten peaks each, 100 per ``K``, so
    this shape is candidate ``100 (K - 1) + 1`` and a smaller budget
    returns ``None``.  It must be at least 1.

    Lemma: the shape fails only where every later shape of that grid fails
    too.  In exact arithmetic, with the Hermite arc on
    ``[a, b] = [1/4, 3/4]`` and ``t`` its parameter:

    1. The binding arc, ``f = 2H - r^2`` and ``g = r^2``, has contact value
       ``f g' - f' g = 4Hr > 0`` and symplectic value
       ``p f' + q g' = 2r(q - p)``, which reads neither ``H``, ``K`` nor
       the peak.
    2. The corner ``-p - qK < 0 < -q + pK`` reads ``K`` alone; no ``K >= 1``
       meets it when ``p < 0``.
    3. The collar's values are exact: contact ``K(p^2 + q^2) > 0`` and
       symplectic ``-(p^2 + q^2) < 0``.
    4. The Hermite arc's symplectic values peak at the arc's ends, where
       they are the binding arc's and the collar's: for the bump-free shape
       ``p f + q g`` is a cubic in ``t`` with ``t^3`` coefficient
       ``4pH + p^2 + q^2 + 3(q - p)/8 > 0`` when ``p >= 1``, so its slope
       is a convex quadratic.
    5. For the bump-free shape, the Hermite arc's contact numerator
       ``f dg/dt - df/dt g`` is a quartic in ``t`` (the ``t^5`` terms
       cancel) and is positive on ``[0, 1]``.  ``tests/test_profiles.py``
       checks this exactly, by a Sturm sequence over ``Fraction``, at the
       first corner ``K`` and ``H = 1`` of each slope with ``p`` in 1..9
       and ``-3p <= q < 2p`` and of far slopes; elsewhere it rests on scans
       against the grid search that ``tests/reference.py`` keeps.

    So the shape fails only on the binding arc, where ``q > p``, and there
    every later shape fails as well.  At ``q = p`` the exact value is 0,
    and a tolerance with no band leaves the verdict to the rounding of the
    binding arc, which reads ``H``; ``tests/search_golden.json`` pins the
    search to the grid's outcomes there.  Every sample is built in floats
    only and is the one :func:`build_profile`'s shape arithmetic gives.
    """
    if candidates < 1:
        raise ValueError(f"candidates must be at least 1, got {candidates}")
    if p == 0:
        raise ValueError("p must be nonzero")
    _require_lowest_terms(p, q)
    _require_verifiable(samples)
    K = next((K for K in range(1, 11) if _in_corner(p, q, K)), None)
    if K is None or candidates <= 100 * (K - 1):
        return None
    pp = _assemble_profile(p, q, K, 1.0, samples=samples)
    if any(definite for *_, definite in _findings(
            pp.grid, pp.f0, pp.g0, p, q, tolerance)):
        return None
    return pp


def write_profile_csv(pp: ProfilePair, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "f0", "g0"])
        for r, f, g in zip(pp.grid, pp.f0, pp.g0):
            writer.writerow([repr(r), repr(f), repr(g)])
