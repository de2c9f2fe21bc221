"""profile_search: filling-profile search over stratified slopes.

Item = one slope q/p.  ``search_profiles`` runs with its default budget,
the one callers and the CLI use; every profile it returns is verified
again by the benchmark.  Slopes with q != 0 and |q| < p also get
``build_profile`` plus ``verify_profile`` at 1024 samples.  Only slopes with 0 < q < p have their
outcome pinned (``reference/profile.json``): for q < 0 the acceptance gate
and the search disagree (criterion 5), so those only feed
``fillability.search.found_frac``.
"""

from __future__ import annotations

import random

import gen
from common import bootstrap, item_clock, load_reference, repeat
from spans import NullRecorder, paired

ps = bootstrap()

TAIL_PCT = 90
# distinct slopes of the timed loop, in rounds with the stratum quota of
# gen.SLOPE_ROUND: one pass takes about 2.5 s, most of it in the four
# stratum-B slopes, so each slope is timed some 10 times in a 25 s run.  The
# p50 lies among the A and C slopes, the p90 among the B slopes.
ROUNDS = 4
BUILD_SAMPLES = 1024
TRACED_ROUNDS = 12


def run_slope(rec, stratum: str, p: int, q: int) -> dict:
    found = rec.call("fillability.search", ps.search_profiles, p, q)
    out = {"found": found is not None}
    if found is None:
        rec.count("fillability.search.miss_ms", rec.last_ns() / 1e6)
    else:
        rec.count("fillability.search.found")
        rec.count("fillability.verify.samples", len(found.grid))
        out["reverified"] = rec.call("fillability.verify", ps.verify_profile,
                                     found).ok
    if stratum in "AC":
        built = rec.call("fillability.build", ps.build_profile, p, q,
                         samples=BUILD_SAMPLES)
        rec.count("fillability.verify.samples", len(built.grid))
        out["built_ok"] = rec.call("fillability.verify", ps.verify_profile,
                                   built).ok
    return out


def check(stratum: str, p: int, q: int, outcome, ref: dict) -> list[str]:
    if outcome is None:
        return [f"slope {q}/{p}: raised"]
    problems = []
    if outcome.get("reverified") is False:
        problems.append(f"slope {q}/{p}: returned profile fails verification")
    if stratum == "A":
        want = ref.get(f"{p}/{q}")
        if want is None:
            problems.append(f"slope {q}/{p}: no reference")
        elif [outcome["found"], outcome["built_ok"]] != want:
            problems.append(f"slope {q}/{p}: found/built outcome differs "
                            "from the reference")
    return problems


def _attempt(rec, stratum, p, q):
    try:
        return run_slope(rec, stratum, p, q)
    except ValueError:
        return None


def warm_up() -> None:
    run_slope(NullRecorder(), "A", 5, 1)


def timed(seed: int, seconds: float, tally, between) -> dict:
    rec = NullRecorder()
    ref = load_reference("profile")

    def run_one(slope):
        stratum, p, q = slope
        t0 = item_clock()
        outcome = _attempt(rec, stratum, p, q)
        dt = item_clock() - t0
        tally.check(check(stratum, p, q, outcome, ref))
        return dt, dt

    # the slopes are a fixed draw and the seed orders them: a stratum-B
    # slope costs 0.45-0.78 s, so a seeded draw of four would move
    # items_per_s by some 10 % from seed to seed
    slopes = gen.slope_stream(gen.CORPUS_SEED, ROUNDS)
    random.Random(seed).shuffle(slopes)
    return repeat(slopes, run_one, seconds, between)


def traced(seed: int, tally, rec) -> dict:
    """A fixed stream; each slope runs untraced and traced, in alternating
    order."""
    null = NullRecorder()
    ref = load_reference("profile")
    untraced_ns = traced_ns = 0
    for k, (stratum, p, q) in enumerate(gen.slope_stream(seed, TRACED_ROUNDS)):

        def run_traced():
            with rec.span(f"item.slope.{stratum}", item=k):
                return _attempt(rec, stratum, p, q)

        _, outcome, u_ns, t_ns = paired(
            k, lambda: _attempt(null, stratum, p, q), run_traced)
        untraced_ns += u_ns
        traced_ns += t_ns
        tally.check(check(stratum, p, q, outcome, ref))
    return {"untraced_s": untraced_ns / 1e9, "traced_s": traced_ns / 1e9}
