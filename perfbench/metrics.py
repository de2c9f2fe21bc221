"""Every metric the benchmark reports, and what each per-layer metric is
expected to move.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/metrics.py > BENCHMARK.json``); a self-test holds the
two equal.  The last field of each ``PER_LAYER`` entry is the record later
changes cite: the end-to-end metrics, as ``metric@workload``, that a change
to that layer metric should show up in.  ``UNCHANGED`` lists where a layer
is predicted not to move; a layer a workload does not exercise reports 0
there.
"""

from __future__ import annotations

import json

WORKLOADS = (
    ("census_sweep",
     "item = one record, latency = one serial census() call; the census "
     "hot path, where nearly all time is enumeration and most swept degree "
     "cells are empty"),
    ("openbook_queries",
     "item = one text query (marked set, invalid set or 2-piece assembly); "
     "sub-millisecond per-object core, polygon, open-book and gluing work, "
     "no census"),
    ("profile_search",
     "item = one slope q/p searched for a filling profile at the default "
     "budget; the only floating-point loop, most time in the infeasible "
     "slopes that spend the whole budget"),
    ("cli_session",
     "item = one CLI subprocess; interpreter start, import of perisurf.cli, "
     "argparse dispatch, JSON output and the census process pool"),
)

# name, unit, better, bound (share of the parent's median).  Timings get
# the largest bound allowed: on the shared 2-vCPU host the benchmark was
# built on, a fixed pure-Python loop runs at 0.6-1.0x speed in phases of
# seconds to a minute.  Each item timing is the top of its repeats spread
# over the run (common.slow_level), which holds ten runs of the same code
# within about a tenth; a host whose slow level shifts between sets of runs
# still moves it.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("items_per_s", "1/s", "higher", 0.25),
    ("item_p50_ms", "ms", "lower", 0.25),
    ("item_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_CENSUS_LOOP = ("items_per_s@census_sweep", "item_p50_ms@census_sweep")
_QUERY_P50 = ("item_p50_ms@openbook_queries",)
_CLI = ("item_p50_ms@cli_session", "items_per_s@cli_session")

# name, unit, better, moves
PER_LAYER = (
    ("census.enumerate.calls", "count", "lower", _CENSUS_LOOP),
    ("census.enumerate.busy_ms", "ms", "lower", _CENSUS_LOOP),
    ("census.enumerate.empty_frac", "frac", "lower", _CENSUS_LOOP),
    ("census.enumerate.empty_busy_frac", "frac", "lower", _CENSUS_LOOP),
    ("census.records", "count", "higher", _CENSUS_LOOP),
    ("census.write.busy_ms", "ms", "lower", ("items_per_s@census_sweep",)),
    ("census.write.bytes", "B", "lower", ("items_per_s@census_sweep",)),
    ("census.read.busy_ms", "ms", "lower", ("items_per_s@census_sweep",)),
    ("census.pool.speedup", "ratio", "higher", ("items_per_s@cli_session",)),
    ("core.parse.calls", "count", "lower",
     ("item_p50_ms@openbook_queries", "item_p50_ms@cli_session")),
    ("core.parse.busy_ms", "ms", "lower",
     ("item_p50_ms@openbook_queries", "item_p50_ms@cli_session")),
    ("core.validate.calls", "count", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("core.validate.busy_ms", "ms", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("core.validate.invalid_frac", "frac", "lower", _QUERY_P50),
    ("core.genus.busy_ms", "ms", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("core.classify.calls", "count", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("core.classify.busy_ms", "ms", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("realization.build.calls", "count", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("realization.build.busy_ms", "ms", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("realization.verify.busy_ms", "ms", "lower",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("realization.verify.ok_frac", "frac", "higher",
     _QUERY_P50 + ("items_per_s@census_sweep",)),
    ("gluing.compatible.busy_ms", "ms", "lower",
     ("item_tail_ms@openbook_queries",)),
    ("gluing.build_edge.busy_ms", "ms", "lower",
     ("item_tail_ms@openbook_queries",)),
    ("gluing.assemble.calls", "count", "lower",
     ("item_tail_ms@openbook_queries",)),
    ("gluing.assemble.busy_ms", "ms", "lower",
     ("item_tail_ms@openbook_queries",)),
    ("openbook.page.calls", "count", "lower", _QUERY_P50),
    ("openbook.page.busy_ms", "ms", "lower", _QUERY_P50),
    ("openbook.veering.busy_ms", "ms", "lower", _QUERY_P50),
    ("openbook.surgery.busy_ms", "ms", "lower", _QUERY_P50),
    ("openbook.resolve.busy_ms", "ms", "lower", _QUERY_P50),
    ("openbook.resolve.unsupported_frac", "frac", "lower", _QUERY_P50),
    ("fillability.classify.busy_ms", "ms", "lower", _QUERY_P50),
    ("fillability.classify.unknown_frac", "frac", "lower", _QUERY_P50),
    ("fillability.search.calls", "count", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.search.busy_ms", "ms", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.search.found_frac", "frac", "higher",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.search.miss_busy_frac", "frac", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.build.busy_ms", "ms", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.verify.busy_ms", "ms", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("fillability.verify.samples", "count", "lower",
     ("items_per_s@profile_search", "item_tail_ms@profile_search")),
    ("cli.interpreter_ms", "ms", "lower", _CLI),
    ("cli.import_ms", "ms", "lower",
     _CLI + ("setup_s@census_sweep", "setup_s@openbook_queries",
             "setup_s@profile_search")),
    ("cli.small_command_ms", "ms", "lower", _CLI),
    ("cli.census_serial_s", "s", "lower", _CLI),
    ("cli.census_pool_s", "s", "lower", _CLI),
    ("trace.overhead_frac", "frac", "lower", ()),
    ("trace.coverage_frac", "frac", "higher", ()),
)

# predicted unchanged (the layer is not exercised there)
UNCHANGED = {
    "census.enumerate": ("openbook_queries", "profile_search"),
    "core.parse": ("census_sweep",),
    "fillability.search": ("census_sweep", "openbook_queries", "cli_session"),
}


def layer_value(name: str, layers: dict, counters: dict, extra: dict):
    """One per-layer metric of a traced run.

    ``X.calls`` and ``X.busy_ms`` are the call count and summed self time
    of spans named ``X``; ``X.<c>_busy_frac`` is counter ``X.<c>_ms`` over
    ``X.busy_ms``; ``X.<c>_frac`` is counter ``X.<c>`` over ``X.calls``;
    any other name is a counter or a value the workload computed.
    """
    if name in extra:
        return extra[name]
    span, _, field = name.rpartition(".")
    stats = layers.get(span, {"calls": 0, "busy_ms": 0.0})
    if field in stats:
        return stats[field]
    if field.endswith("_busy_frac"):
        part = counters.get(f"{span}.{field[:-len('_busy_frac')]}_ms", 0.0)
        return part / stats["busy_ms"] if stats["busy_ms"] else 0.0
    if field.endswith("_frac"):
        part = counters.get(f"{span}.{field[:-len('_frac')]}", 0)
        return part / stats["calls"] if stats["calls"] else 0.0
    return counters.get(name, 0)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
