"""Self-tests of the benchmark (not part of the repository's Tier-1 suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import census_sweep
import cli_session
import common
import gen
import metrics
import openbook_queries
import profile_search
import run
from common import load_reference
from spans import NullRecorder, Recorder

ps = common.bootstrap()


# --- generators ------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda s: gen.query_stream(s, gen.query_corpus(), 5),
    lambda s: gen.slope_stream(s, 5),
    lambda s: gen.census_rounds(s, 3),
    lambda s: gen.oracle_cells(s, gen.CENSUS_GENERA, 3),
    lambda s: gen.cli_stream(s, gen.cli_corpus(), 2),
])
def test_generators_are_deterministic_and_seed_sized(make):
    assert make(7) == make(7)
    assert make(7) != make(8)
    assert len(make(7)) == len(make(8))


def test_streams_keep_their_quotas_for_every_seed():
    corpus = gen.query_corpus()
    for seed in (1, 2):
        kinds = [k for k, _ in gen.query_stream(seed, corpus, 10)]
        assert {k: kinds.count(k) for k in set(kinds)} == {
            kind: 10 * count for kind, count in gen.QUERY_BLOCK}
        strata = [s for s, _, _ in gen.slope_stream(seed, 10)]
        assert sorted(strata) == sorted("AABCD" * 10)
        for order in gen.census_rounds(seed, 3):
            assert sorted(order) == list(gen.CENSUS_GENERA)


def test_generated_triples_match_the_program():
    for n in gen.QUERY_DEGREES:
        ours = {gen.data_set_text(n, t) for t in gen.irreducible_triples(n)}
        assert ours == {ps.format_data_set(d)
                        for d in ps.enumerate_irreducible(n)}


def test_invalid_corpus_entries_parse_and_fail_validation():
    for text in gen.query_corpus()["invalid"]:
        d = ps.parse_data_set(text)
        assert not ps.validate(d).valid
        ps.genus(d)  # integral: only residues were changed


def test_every_corpus_entry_has_a_reference():
    corpus = gen.query_corpus()
    openbook, cli = load_reference("openbook"), load_reference("cli")
    for kind, entries in corpus.items():
        for entry in entries:
            assert openbook_queries.key(kind, entry) in openbook
    for args in gen.cli_corpus():
        assert cli_session.key(args) in cli
    for p, q in gen.slope_strata()["A"]:
        assert f"{p}/{q}" in load_reference("profile")
    census = load_reference("census")
    assert sorted(map(int, census)) == list(gen.CENSUS_GENERA)


# --- checkers reject corrupted outputs --------------------------------------------


def _census_output(g, path):
    records = ps.census(ps.CensusQuery(genus=g), workers=1)
    ps.write_census(records, path)
    return records, path.read_bytes(), ps.read_census(path)


def test_census_checker_rejects_a_flipped_record(tmp_path):
    records, data, back = _census_output(4, tmp_path / "c.jsonl")
    tally = common.Tally()
    assert tally.check(census_sweep.check_genus(4, records, data, back,
                                                load_reference("census")))
    k = next(i for i, r in enumerate(records)
             if r.action_class == "type1-irreducible")
    flipped = list(records)
    flipped[k] = ps.CensusRecord(records[k].data_set, 4,
                                 records[k].action_class, False)
    ps.write_census(flipped, tmp_path / "f.jsonl")
    assert not tally.check(census_sweep.check_genus(
        4, flipped, (tmp_path / "f.jsonl").read_bytes(), back,
        load_reference("census")))
    assert (tally.attempted, tally.failed, tally.failed_frac) == (2, 1, 0.5)


def test_census_oracle_check_rejects_a_missing_data_set():
    records = ps.census(ps.CensusQuery(genus=4, degrees=(6,)), workers=1)
    assert census_sweep.check_oracle(6, 4, records) == []
    assert census_sweep.check_oracle(6, 4, records[1:]) != []


def test_openbook_checker_rejects_a_flipped_verdict():
    tally = common.Tally()
    for kind in ("query", "assembly"):
        entry = gen.query_corpus()[kind][0]
        outcome = openbook_queries.run_item(NullRecorder(), kind, entry)
        assert tally.check(openbook_queries.check(kind, entry, outcome,
                                                  load_reference("openbook")))
        other = "Unknown" if outcome["verdict"][0] != "Unknown" \
            else "SteinFillable"
        outcome["verdict"][0] = other
        assert not tally.check(openbook_queries.check(
            kind, entry, outcome, load_reference("openbook")))
    assert tally.failed_frac == 0.5


def test_profile_checker_rejects_a_flipped_outcome():
    p, q = gen.slope_strata()["A"][0]
    ref = load_reference("profile")
    outcome = profile_search.run_slope(NullRecorder(), "A", p, q)
    assert profile_search.check("A", p, q, outcome, ref) == []
    assert profile_search.check("A", p, q, dict(outcome, found=False), ref)
    assert profile_search.check("B", p, q, dict(outcome, reverified=False),
                                ref)


def test_cli_checker_rejects_a_wrong_exit_code():
    args = list(gen.CLI_TRIVIAL)
    code, out, _ = common.run_cli(args)
    ref = {cli_session.key(args): cli_session.outcome(0, b"1\n")}
    tally = common.Tally()
    assert tally.check(cli_session.check(args, code, out, ref))
    assert not tally.check(cli_session.check(args, 1, out, ref))
    assert tally.failed_frac == 0.5


# --- traced replay and spans --------------------------------------------------------


@pytest.mark.parametrize("g", [2, 5])
def test_traced_census_replay_equals_census(g):
    rec, cells = Recorder(), []
    replayed = census_sweep.replay(g, rec, cells)
    assert replayed == ps.census(ps.CensusQuery(genus=g), workers=1)
    assert len(cells) == ps.degree_cap(g)
    assert rec.by_name()["census.enumerate"]["calls"] == ps.degree_cap(g)


def test_self_time_excludes_child_spans():
    rec = Recorder()
    with rec.span("item.x", item=1):
        rec.call("a", sum, range(1000))
    own = rec.self_times()
    (_, s0, e0, _, _), (_, s1, e1, parent, item) = rec.spans
    assert parent == 0 and item == 1
    assert own == [(e0 - s0) - (e1 - s1), e1 - s1]
    assert 0 < rec.coverage(lambda name: not name.startswith("item.")) <= 1


# --- output and BENCHMARK.json ---------------------------------------------------


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


def _bench():
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_repeat_times_every_item_once_per_pass():
    calls = []

    def run_one(item):
        calls.append(item)
        return 0.1, 0.25

    # a pass costs 0.75 s: 1.6 s rounds to two passes, the minimum is three
    run = common.repeat("abc", run_one, 1.6, lambda busy: None)
    assert calls == list("abc") * 3
    assert run["latency"] == [[0.1] * 3] * 3
    assert run["passes"] == pytest.approx([0.75] * 3)
    run = common.repeat("abc", run_one, 5.0, lambda busy: None)
    assert len(run["passes"]) == 7


def test_slow_level_is_the_nearest_rank_p95():
    # bursts in all but one repeat still leave the steady level
    assert common.slow_level([0.6] * 9 + [1.0]) == 1.0
    # from 20 repeats on, one outlier is left out
    assert common.slow_level([0.6] * 10 + [1.0] * 10 + [3.0]) == 1.0


def test_end_to_end_output_lists_every_metric_with_its_unit(capsys):
    result = _result(capsys, "--workload", "openbook_queries", "--seed", "1",
                     "--seconds", "0.5", "--trace", "0")
    want = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_output_lists_every_layer_metric_with_its_unit(capsys):
    result = _result(capsys, "--workload", "openbook_queries", "--seed", "1",
                     "--seconds", "0.5", "--trace", "1")
    want = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["core.parse.calls"]["value"] > 0


def test_benchmark_json_is_generated_from_the_registry():
    assert _bench() == metrics.benchmark_json()


def test_benchmark_json_keeps_the_contract_limits():
    bench = _bench()
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    assert all(unit.match(m["unit"])
               for key in ("end_to_end", "per_layer") for m in bench[key])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    for _, _, _, moves in metrics.PER_LAYER:
        for target in moves:
            metric, workload = target.split("@")
            assert metric in e2e and workload in workloads
    spans = {n.rpartition(".")[0] for n, *_ in metrics.PER_LAYER}
    for span, where in metrics.UNCHANGED.items():
        assert span in spans and set(where) <= workloads


def test_a_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
