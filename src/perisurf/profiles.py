"""Convex annulus profiles: the numeric model of a filling near a binding.

This module builds and checks the plane curves ``r -> (f(r), g(r))`` used to
model a filling near a binding orbit of slope ``q/p``: ``f dg - g df > 0``
away from the core and ``p f' + q g' < 0`` everywhere.  Verification is
numerical on a sample grid with an explicit tolerance; values inside the
tolerance band are reported as inconclusive rather than silently passed or
failed.  A profile is built as three arcs (binding arc, Hermite arc, collar)
from a plan of the sample count, which holds the grid and the Hermite basis
and is kept for the last few counts up to the CLI's sample bound (a larger
plan is built for its caller alone), and the condition values are computed
over a window of samples in one pass.  One scan yields a window's
inconclusive values and definite violations in grid order, and walks the
samples only when some value is not clearly of the wanted sign.
Verification reads all of it; the search reads it arc by arc, drops a shape
at its first definite violation, and decides the corner once per ``K`` and
the binding arc once per ``H``.  The per-sample loops multiply floats only:
the integers ``p``, ``q``, ``q K`` and ``p K`` are converted once, by the
conversion an int operand gets anyway, so every sample and every report is
the one the mixed int and float products give.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product

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


def _profile_points(p: int, q: int, K: int, H: float, peak: float,
                    plan: _SamplePlan):
    """Yield the binding arc, the Hermite arc and the collar of the profile,
    in order, each as three sequences ``(r, f0, g0)`` of its samples.

    Construction never fails on shape grounds: a collar offset that misses
    the corner still produces a curve, and the verifier rejects it.  There
    is no sign restriction on ``p`` here.  Everything that depends on the
    sample count alone (the arcs' samples, the squares of the binding arc
    and the Hermite basis) comes from ``plan``, which :func:`_plan` keeps
    for the last few counts up to the CLI's bound, so a profile costs only
    its shape arithmetic; each float is the one a per-profile computation
    gives.
    """
    a, b = _BINDING_END, _COLLAR_START
    two_h = 2 * H
    yield plan.binding, [two_h - s for s in plan.squares], plan.squares

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
    fs = [h00 * fa + h10w * dfa + h01 * fb + h11w * dfb
          for h00, h10w, h01, h11w in zip(*basis[:4])]
    if bump == 0.0:
        # the bump term is then a zero, and x + 0.0 is x unless x is -0.0
        # or NaN.  No partial sum is NaN, every term being finite, and none
        # is -0.0: a sum is -0.0 only when both its terms are, and the first
        # term h00 * ga is not, for ga is 2**-4 and h00, a sum ending in
        # + 1, is not -0.0
        gs = [h00 * ga + h10w * dga + h01 * gb + h11w * dgb
              for h00, h10w, h01, h11w in zip(*basis[:4])]
    else:
        gs = [h00 * ga + h10w * dga + h01 * gb + h11w * dgb
              + bump * t * t * u * u
              for h00, h10w, h01, h11w, t, u in zip(*basis)]
    yield plan.hermite, fs, gs

    rs = plan.collar
    yield rs, [-r * pf - qK for r in rs], [-r * qf + pK for r in rs]


def _assemble_profile(p: int, q: int, K: int, H: float, peak: float = 1.0,
                      samples: int = 1024) -> ProfilePair:
    plan = _plan(samples)
    _, f0, g0 = zip(*_profile_points(p, q, K, H, peak, plan))
    # one grid tuple per kept sample count, shared by every profile built on it
    return ProfilePair(plan.grid, tuple(chain(*f0)), tuple(chain(*g0)),
                       p, q, K, H)


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


def _condition_values(grid, f0, g0, p: int, q: int, lo: int, hi: int):
    """Return the contact values ``f g' - f' g`` at samples ``max(lo, 1)``
    to ``hi - 1`` and the symplectic values ``p f' + q g'`` at samples
    ``lo`` to ``hi - 1`` of the sequences ``grid``, ``f0`` and ``g0``.

    The binding core ``r = 0``, sample 0, is a coordinate degeneracy and has
    no contact value.  Derivatives are central differences, one-sided at
    the two ends of the sequences, so a window that stops short of the end
    reads one sample past ``hi - 1`` and no further.
    """
    if lo >= hi:
        return [], []
    last = len(grid) - 1
    p, q = float(p), float(q)  # the same products (see _profile_points)

    def stencil(values):
        # the samples below and above each sample of the window
        below = values[lo - 1:hi - 1] if lo else values[:1] + values[:hi - 1]
        above = values[lo + 1:hi + 1]
        return below, (above + values[last:] if hi > last else above)

    contact, symplectic = [], []
    for r_lo, r_hi, f_lo, f_hi, g_lo, g_hi, f, g in zip(
            *stencil(grid), *stencil(f0), *stencil(g0), f0[lo:hi], g0[lo:hi]):
        dr = r_hi - r_lo
        df = (f_hi - f_lo) / dr
        dg = (g_hi - g_lo) / dr
        contact.append(f * dg - df * g)
        symplectic.append(p * df + q * dg)
    if not lo:
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


def _findings(grid, f0, g0, p: int, q: int, lo: int, hi: int,
              tolerance: float):
    """Yield ``(r, condition, value, definite)`` for each condition value of
    samples ``lo`` to ``hi - 1`` (see :func:`_condition_values`) that is not
    clearly of the wanted sign, in grid order, the contact value first.

    ``definite`` is false for a value with ``abs(value) <= tolerance`` and
    true for any other that is not positive (contact) or is positive
    (symplectic), so a NaN contact value is a violation and a NaN tolerance
    has no band.  A window that :func:`_clear` passes is not scanned.
    """
    contact, symplectic = _condition_values(grid, f0, g0, p, q, lo, hi)
    if _clear(contact, symplectic, tolerance):
        return
    start = max(lo, 1)
    if not lo:  # the core, sample 0, has a symplectic value only
        s = symplectic[0]
        if abs(s) <= tolerance or s > 0:
            yield grid[0], "symplectic", s, not abs(s) <= tolerance
    for r, c, s in zip(grid[start:], contact, symplectic[start - lo:]):
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
    findings = list(_findings(pp.grid, pp.f0, pp.g0, pp.p, pp.q, 0, samples,
                              tolerance))
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
    # samples 1 to end - 1, whose stencils end below the binding end
    end = next((i for i in range(2, len(grid)) if grid[i] >= _BINDING_END),
               len(grid)) - 1
    _, symplectic = _condition_values(grid, pp.f0, pp.g0, pp.p, pp.q, 1, end)
    return max([0.0, *(abs(numeric - 2 * r * (pp.q - pp.p))
                       for r, numeric in zip(grid[1:end], symplectic))])


def search_profiles(p: int, q: int, *, candidates: int = 1000,
                    samples: int = 256,
                    tolerance: float = 1e-9) -> ProfilePair | None:
    """Scan a grid of ``(K, H, peak)`` shapes for a verifying profile.

    Unlike :func:`build_profile` this accepts negative ``p`` so that both
    orientations of a slope can be probed; it returns the first profile
    passing :func:`verify_profile`, or ``None`` when every candidate fails.
    Each shape is built and checked one arc at a time and dropped at the
    first arc with a definite violation, so an infeasible shape costs the
    arcs up to that one rather than the whole grid.  The corner is decided
    once per ``K``, and a violation on the binding arc, which reads ``H``
    alone, once per ``H``.  The outcome is the one
    ``verify_profile(...).ok`` gives, from the same floats at the same
    tolerance.  ``candidates`` caps the shapes tried, skipped ones
    included, and must be at least 1.

    Every sample is built in floats only and is the one
    :func:`build_profile`'s shape arithmetic gives.
    """
    if candidates < 1:
        raise ValueError(f"candidates must be at least 1, got {candidates}")
    if p == 0:
        raise ValueError("p must be nonzero")
    _require_lowest_terms(p, q)
    _require_verifiable(samples)
    plan = _plan(samples)
    peaks = (1.0, 0.5, 0.75, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
    # the corner depends on K alone, so it is decided once per K
    corner_ks = {K for K in range(1, 11) if _in_corner(p, q, K)}
    # the binding arc depends on H alone: an H whose shape failed there
    # fails there again, from the same floats, whatever K and peak are
    doomed_hs = set()
    for n, (K, H) in enumerate(product(range(1, 11), range(1, 11))):
        # the budget counts the shapes in order, skipped ones included
        budget = candidates - n * len(peaks)
        if budget <= 0:
            break
        if K not in corner_ks or H in doomed_hs:
            continue  # verification cannot pass
        for peak in peaks[:budget]:
            grid, f0, g0 = [], [], []
            arcs = _profile_points(p, q, K, float(H), peak, plan)
            for arc, (rs, fs, gs) in enumerate(arcs):
                lo = max(len(grid) - 1, 0)
                grid += rs
                f0 += fs
                g0 += gs
                # the stencils that lie on the arcs so far
                end = len(grid) if len(grid) == samples else len(grid) - 1
                if any(definite for *_, definite in _findings(
                        grid, f0, g0, p, q, lo, end, tolerance)):
                    break
            else:
                return ProfilePair(tuple(grid), tuple(f0), tuple(g0),
                                   p, q, K, float(H))
            # ``arc <= 1`` would give the same results: arc is 0 whenever
            # this line ran in the scans that CHANGES.md records.  A (K, H)
            # tries peak 1.0 first, which adds no bump, and a bump-free
            # shape that passed the binding arc always passed the rest.
            # The collar's values are exact, K(p^2 + q^2) > 0 and
            # -(p^2 + q^2) < 0.  The Hermite arc's symplectic values peak,
            # in exact arithmetic, at an end of the arc, where they are the
            # binding arc's or the collar's.  Its contact values have no
            # such bound, and rest on the scans.
            if arc == 0:  # the other peaks of this H fail there as well
                doomed_hs.add(H)
                break
    return None


def write_profile_csv(pp: ProfilePair, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "f0", "g0"])
        for r, f, g in zip(pp.grid, pp.f0, pp.g0):
            writer.writerow([repr(r), repr(f), repr(g)])
