import json
import logging
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    oracle_min_cost_bijection,
    reference_best_fit,
    reference_solve_matching,
)

from locksched.arrivals import MatchingInstance
from locksched.matching import (
    CountMismatchError,
    MatchingSolution,
    Stream,
    best_fit,
    StreamSet,
    anchored_streams,
    assignment_cost,
    matching_points,
    solve_matching,
    stream_set_to_json,
)
from locksched.schedule import Direction


def _inst(minutes, T=None):
    minutes = tuple(minutes)
    return MatchingInstance(arrival_minutes=minutes, T=T or minutes[-1], n=len(minutes))


def _set(*specs, T):
    return StreamSet(streams=tuple(Stream(Fraction(mu), Fraction(lam), c) for mu, lam, c in specs), T=T)


def test_matching_points_progression():
    points = matching_points(_set((3, 4, 3), T=12))
    assert [t for t, _ in points] == [3, 7, 11]


def test_matching_points_two_streams_interleave():
    points = matching_points(_set((1, 4, 3), (2, 4, 3), T=12))
    assert [t for t, _ in points] == [1, 2, 5, 6, 9, 10]


def test_matching_points_multiset_keeps_coincidences():
    points = matching_points(_set((2, 4, 3), (2, 4, 3), T=12))
    assert [t for t, _ in points] == [2, 2, 6, 6, 10, 10]


def test_assignment_cost_exact_periodic_input():
    sol = assignment_cost(_inst([3, 7, 11], T=12), _set((3, 4, 3), T=12))
    assert sol.cost == 0


def test_assignment_cost_offset_by_one():
    # points [1, 5, 9] against arrivals [2, 5, 9]
    sol = assignment_cost(_inst([2, 5, 9], T=12), _set((1, 4, 3), T=12))
    assert sol.cost == 1


def test_assignment_cost_direct_sum():
    # points [2, 6, 10] against arrivals [2, 5, 9]: 0 + 1 + 1
    sol = assignment_cost(_inst([2, 5, 9], T=12), _set((2, 4, 3), T=12))
    assert sol.cost == 2


def test_assignment_count_mismatch():
    with pytest.raises(CountMismatchError):
        assignment_cost(_inst([2, 5], T=12), _set((1, 4, 3), T=12))


def test_assignment_indices_preserve_occurrence_order():
    sol = assignment_cost(_inst([1, 2, 5, 6, 9, 10], T=12), _set((1, 4, 3), (2, 4, 3), T=12))
    assert sol.assignment == ((0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2))


def test_anchoring_places_point_on_anchor():
    inst = _inst([2, 5, 9], T=12)
    ss = anchored_streams(inst, [3], [1])  # anchor at arrival t=5
    s = ss.streams[0]
    assert s.lam == 4 and s.mu == 1
    assert [t for t, _ in matching_points(ss)] == [1, 5, 9]


def test_anchoring_small_anchor():
    inst = _inst([3], T=12)
    ss = anchored_streams(inst, [1], [0])
    assert ss.streams[0].mu == 3 and ss.streams[0].lam == 12


def test_anchoring_strict_inequality_at_boundary():
    """An anchor equal to a multiple of lambda keeps mu = lambda, not 0."""
    inst = _inst([1, 4], T=4)
    ss = anchored_streams(inst, [2], [1])
    s = ss.streams[0]
    assert s.lam == 2 and s.mu == 2


def test_anchoring_count_mismatch():
    with pytest.raises(CountMismatchError):
        anchored_streams(_inst([2, 5, 9], T=12), [2], [0])


def test_solve_matching_perfect_two_stream_fit():
    sol = solve_matching(_inst([1, 2, 5, 6, 9, 10], T=12), 2)
    assert sol.cost == 0
    assert sorted((s.mu, s.lam) for s in sol.streams.streams) == [(1, 4), (2, 4)]


def test_solve_matching_single_stream():
    sol = solve_matching(_inst([2, 5, 9], T=12), 1)
    assert sol.cost == 1
    assert sol.streams.streams[0].mu == 1 and sol.streams.streams[0].lam == 4


def test_solve_matching_k_bounds():
    inst = _inst([2, 5, 9], T=12)
    with pytest.raises(ValueError):
        solve_matching(inst, 0)
    with pytest.raises(ValueError):
        solve_matching(inst, 4)


def test_pruned_equals_unpruned():
    """The fast fitter equals the reference in both pruning modes: field for
    field against the pruned search, in cost against the unpruned one."""
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 8)
        T = rng.randint(n, 30)
        minutes = sorted(rng.sample(range(1, T + 1), n - 1)) + [T]
        minutes = sorted(minutes)
        inst = _inst(tuple(minutes), T=T)
        for k in range(1, min(3, n) + 1):
            fast = solve_matching(inst, k)
            assert fast == reference_solve_matching(inst, k, prune=True)
            assert fast.cost == reference_solve_matching(inst, k, prune=False).cost


def test_best_fit_monotone_in_k():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(3, 8)
        T = rng.randint(n, 30)
        minutes = sorted(rng.sample(range(1, T + 1), n))
        inst = _inst(tuple(minutes), T=max(minutes))
        costs = [best_fit(inst, k).cost for k in range(1, 4)]
        assert costs[1] <= costs[0] and costs[2] <= costs[1]


def test_exactly_k_is_not_monotone_but_best_fit_is():
    """Perfectly periodic arrivals fit one stream at cost 0, yet every
    two-stream decomposition of three points pays something; the reported
    fit uses the at-most-k envelope."""
    inst = _inst([1, 2, 3], T=3)
    assert solve_matching(inst, 1).cost == 0
    assert solve_matching(inst, 2).cost == Fraction(1, 2)
    assert best_fit(inst, 2).cost == 0


@st.composite
def _small_instances(draw):
    """Instances with n <= 9 and T <= 200: random minutes, minutes drawn from
    a pool of at most three (many repeats), or unions of integer-step
    progressions, which fit several stream sets at equal cost."""
    n = draw(st.integers(1, 9))
    layout = draw(st.sampled_from(["random", "repeats", "progressions"]))
    if layout == "random":
        minutes = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
    elif layout == "repeats":
        pool = draw(st.lists(st.integers(1, 200), min_size=1, max_size=3))
        minutes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        minutes = []
        while len(minutes) < n:
            start, step = draw(st.integers(1, 20)), draw(st.integers(1, 20))
            length = draw(st.integers(1, n - len(minutes)))
            minutes += [start + i * step for i in range(length)]
    minutes.sort()
    T = draw(st.sampled_from([minutes[-1], 200]))
    return _inst(minutes, T=T)


@settings(max_examples=150, deadline=None)
@given(_small_instances(), st.integers(1, 3))
def test_fast_fitter_equals_reference_property(inst, k):
    k = min(k, inst.n)
    fast = solve_matching(inst, k)
    assert fast == reference_solve_matching(inst, k)
    assert best_fit(inst, k) == reference_best_fit(inst, k)
    # The factorial oracle enumerates n! bijections: about 1 s at n = 8.
    if inst.n <= 7:
        assert fast.cost == oracle_min_cost_bijection(inst, fast.streams, mode="factorial")


@st.composite
def _shared_mu_instances(draw):
    """Instances where many anchors give the same row: with T = c * L, every
    arrival is b + m * L for a base b drawn from a pool of at most three, so
    the c-stream anchored at any two arrivals with the same base shares mu."""
    c, step = draw(st.integers(1, 4)), draw(st.integers(1, 40))
    pool = draw(st.lists(st.integers(1, step), min_size=1, max_size=3))
    n = draw(st.integers(1, 9))
    minutes = sorted(
        draw(st.sampled_from(pool)) + draw(st.integers(0, c - 1)) * step for _ in range(n)
    )
    return _inst(minutes, T=c * step)


@settings(max_examples=100, deadline=None)
@given(_shared_mu_instances(), st.integers(1, 3))
def test_fast_fitter_equals_reference_on_shared_mu(inst, k):
    k = min(k, inst.n)
    assert solve_matching(inst, k) == reference_solve_matching(inst, k)
    assert best_fit(inst, k) == reference_best_fit(inst, k)


PINNED_FITS = json.loads((Path(__file__).parent / "pinned_fits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PINNED_FITS, ids=lambda c: f"{c['fit']}-k{c['k']}-{c['source']}")
def test_pinned_fits(case):
    """Fits too large for the Fraction reference, recorded with the exhaustive
    integer fitter (no bound) on ``synth_dataset(0, 2, {D: [(63, 126),
    (126, 126), (40, 90)], U: [(21, 126), (126, 126)]}, 5.0)``: the
    benchmark's seed-0 pipeline fits and, on its first day in direction D,
    the larger (k, n) cells.  The assignment is pinned as the stream index
    of each arrival; occurrences count up per stream."""
    inst = _inst(case["minutes"], T=case["T"])
    streams = _set(*((Fraction(mu), Fraction(lam), c) for mu, lam, c in case["streams"]), T=case["T"])
    seen = [0] * len(streams.streams)
    assignment = []
    for i in map(int, case["assignment"]):
        assignment.append((i, seen[i]))
        seen[i] += 1
    expected = MatchingSolution(streams, tuple(assignment), Fraction(case["cost"]))
    fit = best_fit if case["fit"] == "best_fit" else solve_matching
    assert fit(inst, case["k"]) == expected


def test_search_counters_logged(caplog):
    """One DEBUG record per search, with its counters as record attributes."""
    inst = _inst([1, 2, 3], T=3)
    caplog.set_level(logging.DEBUG, logger="locksched.matching")
    assert solve_matching(inst, 2).cost == Fraction(1, 2)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "locksched.matching"
    # One composition, (1, 2), scored at scale 2 against arrivals 2, 4, 6.
    # The 1-stream row anchored at 1 (point 2) is tried with all three
    # 2-stream rows (points 2,5 / 1,4 / 3,6; each 1 from the nearest
    # arrival), and the last costs 1.  The 1-stream rows at 2 and 3 are
    # pruned, since the 2-stream row's bound of 1 already reaches it.
    assert (record.compositions_pruned, record.prefixes_pruned, record.candidates_scored) == (0, 2, 3)
    assert "2 anchor prefixes pruned, 3 candidates scored" in record.getMessage()
    caplog.clear()
    # best_fit searches each budget once; the 2-stream search cannot beat
    # the 1-stream fit at cost 0, so its only composition is pruned.
    assert best_fit(inst, 2).cost == 0
    assert [r.compositions_pruned for r in caplog.records] == [0, 1]


def test_oracle_identity_and_example():
    ss = _set((1, 4, 3), T=12)
    assert oracle_min_cost_bijection(_inst([2, 5, 9], T=12), ss) == 1
    assert oracle_min_cost_bijection(_inst([1, 5, 9], T=12), ss) == 0


def test_oracle_equals_sorted_assignment():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(2, 7)
        T = rng.randint(n, 24)
        minutes = sorted(rng.sample(range(1, T + 1), n))
        inst = _inst(tuple(minutes), T=max(minutes))
        counts = [n] if n % 2 else [n // 2, n // 2]
        anchors = [rng.randrange(n) for _ in counts]
        ss = anchored_streams(inst, counts, anchors)
        sorted_cost = assignment_cost(inst, ss).cost
        assert oracle_min_cost_bijection(inst, ss, mode="factorial") == sorted_cost


def test_oracle_modes_agree():
    inst = _inst([2, 5, 9, 14, 20, 21], T=24)
    ss = anchored_streams(inst, [3, 3], [0, 3])
    fact = oracle_min_cost_bijection(inst, ss, mode="factorial")
    hung = oracle_min_cost_bijection(inst, ss, mode="hungarian")
    assert fact == hung


def test_stream_set_json_round_trip():
    ss = _set((1, 4, 3), (2, 4, 3), T=12)
    assert json.loads(stream_set_to_json(ss, [Direction.DOWN, Direction.UP])) == {
        "T": 12,
        "streams": [
            {"mu": {"num": 1, "den": 1}, "lambda": {"num": 4, "den": 1}, "count": 3, "direction": "D"},
            {"mu": {"num": 2, "den": 1}, "lambda": {"num": 4, "den": 1}, "count": 3, "direction": "U"},
        ],
    }


def test_stream_set_json_fractional_lambda():
    ss = StreamSet(streams=(Stream(Fraction(5, 3), Fraction(10, 3), 3),), T=10)
    assert json.loads(stream_set_to_json(ss, [Direction.UP])) == {
        "T": 10,
        "streams": [{"mu": {"num": 5, "den": 3}, "lambda": {"num": 10, "den": 3}, "count": 3, "direction": "U"}],
    }


def test_stream_validation():
    with pytest.raises(ValueError):
        Stream(Fraction(0), Fraction(4), 3)  # mu must exceed 0
    with pytest.raises(ValueError):
        Stream(Fraction(5), Fraction(4), 3)  # mu must not exceed lambda
    with pytest.raises(ValueError):
        StreamSet(streams=(Stream(Fraction(1), Fraction(4), 2),), T=12)  # 2*4 != 12
