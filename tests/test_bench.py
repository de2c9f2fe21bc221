"""The verdicts that ``scripts/bench.py`` gives a metric, from synthetic runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = {m["name"]: m for part in ("end_to_end", "per_layer")
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())[part]}


@pytest.fixture(scope="module")
def bench():
    path = ROOT / "scripts" / "bench.py"
    spec = importlib.util.spec_from_file_location("bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(name: str, parent: list[float], change: list[float]) -> list[dict]:
    """One run per value, pair k of each side holding its k-th value."""
    return [{"side": side, "pair": k,
             "result": {"metrics": {name: {"value": value}}}}
            for side, values in (("parent", parent), ("change", change))
            for k, value in enumerate(values)]


# median 104.5 and quartile spread 4.5
STEADY = [100.0 + k for k in range(10)]
# median 100 and quartile spreads of 27 and 22.5, either side of a 0.25 bound
WIDE = [73.0 + 6 * k for k in range(10)]
NARROW = [77.5 + 5 * k for k in range(10)]
# median 100, quartile spread 39 and highest run 116
SKEWED = [50.0, 60.0, 70.0, 80.0, 95.0, 105.0, 110.0, 112.0, 114.0, 116.0]


@pytest.mark.parametrize("name,parent,change,want", [
    # won 10/10, medians 30 apart against a parent spread of 4.5
    ("items_per_s", STEADY, [v + 30 for v in STEADY], "gain"),
    # won 9/10 is enough
    ("items_per_s", STEADY, [v + 30 for v in STEADY[:9]] + [99.0], "gain"),
    # won 8/10 is not, and the gap is within the bound
    ("items_per_s", STEADY, [v + 30 for v in STEADY[:8]] + [99.0, 100.0],
     "none"),
    # won 10/10, but the medians are 1 apart against a spread of 4.5
    ("items_per_s", STEADY, [v + 1 for v in STEADY], "none"),
    # 30 % fewer items per second, past the 0.25 bound
    ("items_per_s", STEADY, [v * 0.7 for v in STEADY], "worse"),
    # 20 % fewer: within the bound
    ("items_per_s", STEADY, [v * 0.8 for v in STEADY], "none"),
    # the parent's spread is wider than the bound, and then narrower
    ("items_per_s", WIDE, [v + 1 for v in WIDE], "unresolved"),
    ("items_per_s", NARROW, [v + 1 for v in NARROW], "none"),
    # a wide parent spread with a long low tail: every change run reads
    # better than every parent run, by less than the spread, and then not
    ("items_per_s", SKEWED, [120.0] * 10, "none"),
    ("items_per_s", SKEWED, [115.0] * 10, "unresolved"),
    ("item_p50_ms", [200.0 - v for v in SKEWED], [80.0] * 10, "none"),
    ("item_p50_ms", [200.0 - v for v in SKEWED], [85.0] * 10, "unresolved"),
    # a lower-is-better metric, both ways
    ("item_p50_ms", STEADY, [v - 30 for v in STEADY], "gain"),
    ("item_p50_ms", STEADY, [v * 1.3 for v in STEADY], "worse"),
    # the memory bound is 0.1
    ("peak_rss_mb", STEADY, [v * 1.15 for v in STEADY], "worse"),
])
def test_summary_gives_each_verdict(bench, name, parent, change, want):
    row = bench.summary(runs(name, parent, change), SPEC)[name]
    assert row["verdict"] == want
    assert row["pairs"] == 10


def test_fewer_than_ten_pairs_give_no_gain(bench):
    # one pair won, as in a smoke run, and nine pairs all won
    for k in (1, 9):
        row = bench.summary(runs("items_per_s", STEADY[:k],
                                 [v + 30 for v in STEADY[:k]]),
                            SPEC)["items_per_s"]
        assert (row["won"], row["pairs"], row["verdict"]) == (k, k, "none")


def test_per_layer_metrics_and_lone_sides_get_no_verdict(bench):
    name = "fillability.search.busy_ms"
    row = bench.summary(runs(name, STEADY, STEADY), SPEC)[name]
    assert (row["won"], row["pairs"]) == (0, 10)
    assert "verdict" not in row
    # a metric only one side reported has no pairs to judge
    lone = [run for run in runs("items_per_s", STEADY, STEADY)
            if run["side"] == "parent"]
    row = bench.summary(lone, SPEC)["items_per_s"]
    assert "change" not in row and "verdict" not in row
