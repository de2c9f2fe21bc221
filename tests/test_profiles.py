import csv
import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import perisurf.profiles as profiles
from perisurf.profiles import (
    _assemble_profile,
    binding_symplectic_deviation,
    build_profile,
    search_profiles,
    verify_profile,
    write_profile_csv,
)
from reference import (
    _reference_assemble,
    _reference_binding_deviation,
    _reference_search,
    _reference_verify,
)


def test_build_profile_defaults():
    pp = build_profile(2, 1)
    assert (pp.K, pp.H) == (2, 5.0)
    assert len(pp.grid) == 1024
    assert pp.f0[0] == 2 * pp.H and pp.g0[0] == 0.0
    assert pp.f0[-1] == -2 - 1 * pp.K
    assert pp.g0[-1] == -1 + 2 * pp.K


def test_positive_slope_profile_verifies():
    report = verify_profile(build_profile(2, 1))
    assert report.ok
    assert report.first_violation is None
    assert report.inconclusive == ()


def test_mixed_sign_slope_profile_verifies():
    pp = build_profile(5, -1)
    assert pp.K == 2
    assert verify_profile(pp).ok


def test_build_profile_argument_errors():
    with pytest.raises(ValueError):
        build_profile(-2, 1)
    with pytest.raises(ValueError):
        build_profile(4, 2)
    with pytest.raises(ValueError, match="pass K explicitly"):
        build_profile(1, -1)


def test_bad_collar_offset_builds_but_fails_verify():
    # building never rejects a shape; the endpoint corner is the verifier's
    # job, and it is exact (no tolerance window)
    pp = build_profile(5, -1, K=10)
    report = verify_profile(pp)
    assert report.contact_ok and not report.symplectic_ok
    assert report.first_violation == (1.0, "corner", 5.0)

    pp = build_profile(1, -1, K=1)  # endpoint exactly on the corner edge
    assert verify_profile(pp).first_violation == (1.0, "corner", 0.0)


def test_binding_arc_matches_closed_form():
    assert binding_symplectic_deviation(build_profile(2, 1)) < 1e-6
    assert binding_symplectic_deviation(build_profile(5, -1)) < 1e-6


def test_verify_needs_enough_samples():
    with pytest.raises(ValueError):
        verify_profile(_assemble_profile(2, 1, 2, 5.0, samples=32))


def test_corrupted_profile_fails_with_located_violation():
    pp = build_profile(2, 1)
    bad = replace(pp, g0=tuple(-g for g in pp.g0))
    report = verify_profile(bad)
    assert not report.ok
    r, condition, value = report.first_violation
    assert condition in ("contact", "symplectic")
    assert value != 0


def test_search_finds_profile_for_positive_p_negative_q():
    pp = search_profiles(5, -1)
    assert pp is not None
    # the shape that passed the coarse search still passes on a fine grid
    fine = _assemble_profile(pp.p, pp.q, pp.K, pp.H, samples=1024)
    assert verify_profile(fine).ok


def test_search_exhausts_for_negative_p():
    assert search_profiles(-1, -2) is None
    assert search_profiles(-2, -1, candidates=300) is None


def test_search_argument_errors():
    with pytest.raises(ValueError):
        search_profiles(0, 1)
    with pytest.raises(ValueError):
        search_profiles(2, 4)
    # too coarse a grid is refused up front, even for slopes whose every
    # candidate misses the corner and so never reaches verification
    for p, q in ((2, 1), (-3, 8), (1, -5)):
        with pytest.raises(ValueError, match="at least 64 samples"):
            search_profiles(p, q, samples=32)
    for budget in (0, -1):
        with pytest.raises(ValueError, match="candidates must be at least 1"):
            search_profiles(5, 1, candidates=budget)


def test_profile_needs_two_samples_to_build_and_matching_lengths_to_verify():
    with pytest.raises(ValueError, match="need at least two samples"):
        build_profile(2, 1, samples=1)
    pp = build_profile(2, 1, samples=128)
    with pytest.raises(ValueError, match="grid, f0 and g0 differ in length"):
        verify_profile(replace(pp, f0=pp.f0[:-1]))


def test_sample_plans_interleave_with_reference_floats():
    # the plan of one sample count never leaks into a profile of another
    def built(samples):
        return build_profile(5, 1, samples=samples)

    def want(samples):
        return _reference_assemble(5, 1, 2, 8.0, samples=samples)

    assert repr(built(1024)) == repr(want(1024))
    pp, _ = _reference_search(5, 1, samples=256)
    assert repr(search_profiles(5, 1, samples=256)) == repr(pp)
    for samples in (1000, 64, 1024):
        assert repr(built(samples)) == repr(want(samples))


def test_profiles_of_one_sample_count_share_one_grid():
    assert build_profile(5, 1).grid is build_profile(2, 1, peak=2.0).grid
    assert build_profile(5, 1).grid is not build_profile(5, 1,
                                                         samples=1000).grid


def test_sample_plan_memo_is_bounded():
    info = profiles._sample_plan.cache_info
    assert info().maxsize is not None
    for samples in range(64, 64 + 2 * info().maxsize):
        build_profile(2, 1, samples=samples)
        assert info().currsize <= info().maxsize


def test_float_sample_count_is_refused_after_a_build_at_that_count():
    build_profile(5, 1, samples=1024)
    with pytest.raises(TypeError):
        build_profile(5, 1, samples=1024.0)


def test_binding_deviation_of_a_grid_with_no_binding_interior():
    # two samples, r = 0 and r = 1: no sample lies inside the binding arc
    assert binding_symplectic_deviation(build_profile(2, 1, samples=2)) == 0.0


def test_profile_csv_roundtrip(tmp_path):
    pp = build_profile(2, 1, samples=128)
    path = tmp_path / "profile.csv"
    write_profile_csv(pp, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "f0", "g0"]
    assert len(rows) == 129
    assert float(rows[1][0]) == pp.grid[0]
    assert float(rows[-1][2]) == pp.g0[-1]


@given(st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-9, max_value=9),
       st.integers(min_value=-3, max_value=12),
       st.floats(min_value=0, max_value=11),
       st.sampled_from([0.0, 0.5, 1.0, 2.0, 6.0]),
       st.sampled_from([64, 65, 256, 257, 1024, 1025]),
       st.booleans(),
       st.sampled_from([1e-9, 0.25, 0.0, -1.0, math.nan, math.inf]))
@example(2, 1, 2, 5.0, 1.0, 1024, False, 1e-9)
@example(5, -1, 10, 3.0, 1.0, 256, False, 1e-9)
@example(2, 3, 2, 1.0, 1.0, 256, True, 1e-9)
def test_condition_stream_matches_reference_verifier(p, q, K, H, peak,
                                                     samples, flip, tolerance):
    pp = _assemble_profile(p, q, K, H, peak=peak, samples=samples)
    want_pp = _reference_assemble(p, q, K, H, peak=peak, samples=samples)
    assert repr(pp) == repr(want_pp)
    if flip:
        pp = replace(pp, g0=tuple(-g for g in pp.g0))
    # repr tells every distinct float apart, -0.0 from 0.0 included
    assert (repr(verify_profile(pp, tolerance))
            == repr(_reference_verify(pp, tolerance)))
    assert (repr(binding_symplectic_deviation(pp))
            == repr(_reference_binding_deviation(pp)))


def test_search_matches_reference_search():
    # the coarsest grid verification accepts keeps the reference affordable;
    # every candidate decision is the one of the reference verifier, whose
    # equivalence on all three grid sizes is the test above
    budgets = (1, 37, 300, 1000)
    slopes = [(p, q) for p in (*range(1, 10), *range(-9, 0))
              for q in range(-27, 19) if math.gcd(abs(p), abs(q)) == 1]
    for p, q in slopes:
        want, accepted_at = _reference_search(p, q, candidates=max(budgets),
                                              samples=64)
        for budget in budgets:
            got = search_profiles(p, q, candidates=budget, samples=64)
            expected = want if accepted_at <= budget else None
            assert repr(got) == repr(expected), (p, q, budget)


def test_search_decides_each_binding_arc_once(monkeypatch):
    # for p < q < 2p every shape fails on the binding arc, which depends on
    # H alone: one profile per H value instead of one per shape (900)
    built = []
    profile_points = profiles._profile_points

    def counting(*args):
        built.append(args)
        return profile_points(*args)

    monkeypatch.setattr(profiles, "_profile_points", counting)
    assert search_profiles(7, 12) is None
    assert 1 <= len(built) <= 10


@pytest.mark.parametrize("tolerance", [0.25, math.nan])
def test_binding_arc_pruning_matches_reference_search(tolerance):
    # slopes p < q < 2p, whose shapes all fail on the binding arc; a wide
    # tolerance moves the first definite violation deeper into the arc and
    # NaN makes every check definite
    for p, q in ((2, 3), (7, 12), (9, 17)):
        want, _ = _reference_search(p, q, samples=256, tolerance=tolerance)
        got = search_profiles(p, q, samples=256, tolerance=tolerance)
        assert repr(got) == repr(want), (p, q)


def test_profile_sweep_script_maps_the_feasible_region(capsys, monkeypatch):
    path = Path(__file__).resolve().parents[1] / "scripts" / "profile_sweep.py"
    spec = importlib.util.spec_from_file_location("profile_sweep", path)
    script = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, "profile_sweep", script)
    spec.loader.exec_module(script)
    assert script.main(["--window", "6"]) == 0
    out = capsys.readouterr().out
    assert "24 feasible slopes of 94 tested" in out
    assert "unexpected misses" not in out
