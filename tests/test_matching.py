import json
import logging
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    fraction_anchored_streams,
    fraction_assignment_cost,
    fraction_solve_matching,
    matching_points,
    oracle_min_cost_bijection,
    reference_anchor_rows,
    reference_best_fit,
    reference_solve_matching,
)

from locksched.arrivals import MatchingInstance
from locksched.matching import (
    _anchor_rows,
    CountMismatchError,
    MatchingSolution,
    Stream,
    best_fit,
    StreamSet,
    anchored_streams,
    assignment_cost,
    solve_matching,
    stream_set_to_json,
)
from locksched.schedule import Direction


def _inst(minutes, T=None):
    minutes = tuple(minutes)
    return MatchingInstance(arrival_minutes=minutes, T=T or minutes[-1])


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


@st.composite
def _stream_set_cases(draw):
    """An instance and a stream set of as many points.  T is an int and each
    stream's lam is T/c; its mu is an arbitrary rational in (0, lam] or, for
    a later stream, one of an earlier stream's points folded into (0, lam],
    so that points coincide across streams.  A whole mu or lam is sometimes
    passed as an ``int``."""
    T = draw(st.integers(1, 60))
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    streams = []
    for c in counts:
        lam = Fraction(T, c)
        if streams and draw(st.booleans()):
            earlier = draw(st.sampled_from(streams))
            point = earlier.mu + draw(st.integers(0, earlier.count - 1)) * earlier.lam
            mu = point - (math.ceil(point / lam) - 1) * lam
        else:
            q = draw(st.integers(1, 12))
            mu = lam * Fraction(draw(st.integers(1, q)), q)
        mu, lam = (int(x) if x.denominator == 1 and draw(st.booleans()) else x for x in (mu, lam))
        streams.append(Stream(mu, lam, c))
    minutes = sorted(draw(st.lists(st.integers(1, T), min_size=sum(counts), max_size=sum(counts))))
    return _inst(minutes, T=T), StreamSet(streams=tuple(streams), T=T)


@settings(max_examples=300, deadline=None)
@given(_stream_set_cases())
def test_assignment_cost_equals_fraction_reference(case):
    """The integer assignment equals the ``Fraction`` one field for field,
    coinciding points going to the lower stream index first."""
    inst, streams = case
    solution = assignment_cost(inst, streams)
    assert solution == fraction_assignment_cost(inst, streams)
    assert type(solution.cost) is Fraction


@st.composite
def _anchor_cases(draw):
    """An instance, counts summing to its size and one anchor per count.
    Some minutes are multiples of T / gcd(T, c) for a drawn count c, so that
    t*c is a multiple of T and that stream's mu is lam."""
    T = draw(st.integers(1, 120))
    counts = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    minutes = []
    for _ in range(sum(counts)):
        unit = T // math.gcd(T, draw(st.sampled_from(counts)))
        minutes.append(draw(st.one_of(st.integers(1, T), st.integers(1, T // unit).map(unit.__mul__))))
    anchors = draw(st.lists(st.integers(0, len(minutes) - 1), min_size=len(counts), max_size=len(counts)))
    return _inst(sorted(minutes), T=T), counts, anchors


@settings(max_examples=300, deadline=None)
@given(_anchor_cases())
@example((_inst([1, 4], T=4), [2], [1]))
@example((_inst([3, 6, 6, 9], T=9), [3, 1], [1, 3]))
def test_anchored_streams_equals_fraction_reference(case):
    inst, counts, anchors = case
    assert anchored_streams(inst, counts, anchors) == fraction_anchored_streams(inst, counts, anchors)


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


def test_best_fit_k_bounds():
    """k < 1 is rejected; a budget beyond n fits like a budget of n."""
    inst = _inst([2, 5, 9, 11], T=12)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            best_fit(inst, k)
    assert best_fit(inst, 6) == best_fit(inst, 5) == best_fit(inst, 4)


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


def _cross_check_instances():
    """Fixed instances with many tied fits (progressions, repeats, shared
    mu), then seeded random ones of each layout."""
    instances = [
        _inst([1, 2, 3], T=3),
        _inst([1, 1, 1], T=1),
        _inst([2, 5, 9, 11], T=12),
        _inst([5, 15, 25, 35], T=40),
        _inst([1, 2, 5, 6, 9, 10], T=12),
        _inst([3, 3, 7, 7, 7], T=20),
        _inst([4, 8, 12, 14, 16, 18], T=18),
    ]
    rng = random.Random(13)
    for layout in ("random", "repeats", "progressions") * 6:
        n = rng.randint(2, 7)
        if layout == "random":
            minutes = [rng.randint(1, 60) for _ in range(n)]
        elif layout == "repeats":
            pool = [rng.randint(1, 60) for _ in range(rng.randint(1, 3))]
            minutes = [rng.choice(pool) for _ in range(n)]
        else:
            minutes = []
            while len(minutes) < n:
                start, step = rng.randint(1, 10), rng.randint(1, 10)
                minutes += [start + i * step for i in range(rng.randint(1, n - len(minutes)))]
        minutes.sort()
        instances.append(_inst(minutes, T=rng.choice([minutes[-1], max(minutes[-1], 60)])))
    return instances


def test_integer_reference_equals_fraction_reference():
    """The integer-scored reference picks the same fit, field for field, as
    the one that builds and scores every candidate with ``Fraction``s."""
    for inst in _cross_check_instances():
        for k in range(1, min(4 if inst.n <= 5 else 3, inst.n) + 1):
            assert reference_solve_matching(inst, k) == fraction_solve_matching(inst, k)
        k = min(2, inst.n)
        assert reference_solve_matching(inst, k, prune=False) == fraction_solve_matching(inst, k, prune=False)


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
def _small_instances(draw, max_n=9):
    """Instances with n <= max_n and T <= 200 (or the last arrival, when
    later): random minutes, minutes drawn from a pool of at most three (many
    repeats), or unions of integer-step progressions, which fit several
    stream sets at equal cost."""
    n = draw(st.integers(1, max_n))
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
    T = draw(st.sampled_from([minutes[-1], max(minutes[-1], 200)]))
    return _inst(minutes, T=T)


def _budget(k, n):
    """``k`` capped at n; k = 4 only for n <= 6, where the reference takes
    about 0.2 s.  Equal-count runs such as (1, 1, 2, 2) meet the largest-first
    visit order there."""
    return min(k, n, 4 if n <= 6 else 3)


@settings(max_examples=100, deadline=None)
@given(_small_instances(max_n=30))
def test_sweep_bounds_equal_bisect_reference(inst):
    """The swept row bounds equal one bisect per point, for every count."""
    for count in range(1, inst.n + 1):
        assert _anchor_rows(inst.T, count, inst.arrival_minutes) == reference_anchor_rows(
            inst.T, count, inst.arrival_minutes
        )


@settings(max_examples=150, deadline=None)
@given(_small_instances(), st.integers(1, 4))
def test_fast_fitter_equals_reference_property(inst, k):
    k = _budget(k, inst.n)
    fast = solve_matching(inst, k)
    assert fast == reference_solve_matching(inst, k)
    assert best_fit(inst, k) == reference_best_fit(inst, k)
    # The factorial oracle enumerates n! bijections: about 0.02 s at n = 8
    # and 0.2 s at n = 9.
    if inst.n <= 8:
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
@given(_shared_mu_instances(), st.integers(1, 4))
def test_fast_fitter_equals_reference_on_shared_mu(inst, k):
    k = _budget(k, inst.n)
    assert solve_matching(inst, k) == reference_solve_matching(inst, k)
    assert best_fit(inst, k) == reference_best_fit(inst, k)


PINNED_FITS = json.loads((Path(__file__).parent / "pinned_fits.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", PINNED_FITS, ids=lambda c: f"{c['fit']}-k{c['k']}-{c['source']}")
def test_pinned_fits(case):
    """Fits too large for the Fraction reference, recorded with the exhaustive
    integer fitter (no bound) on ``synth_dataset(0, 2, {D: [(63, 126),
    (126, 126), (40, 90)], U: [(21, 126), (126, 126)]}, 5.0)``: the
    benchmark's seed-0 pipeline fits and, on its first day in direction D,
    the larger (k, n) cells.  The ``dense`` pin is k = 4, n = 30 on the
    first day of ``synth_dataset(0, 1, {D: [(63, 126), (126, 126), (40, 90),
    (7, 35)], U: [(21, 126), (126, 126), (11, 45)]}, 5.0)``, direction D,
    recorded with the branch-and-bound fitter in stream order, before the
    largest-first search.  The assignment is pinned as the stream index of
    each arrival; occurrences count up per stream."""
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
    """One DEBUG record per fit, with its counters as record attributes."""
    inst = _inst([1, 2, 3], T=3)
    caplog.set_level(logging.DEBUG, logger="locksched.matching")
    assert solve_matching(inst, 2).cost == Fraction(1, 2)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "locksched.matching"
    # One composition, (1, 2), scored at scale 2 against arrivals 2, 4, 6.
    # The 2-stream is placed first; its rows (points 2,5 / 1,4 / 3,6) are
    # each 1 from the nearest arrival.  Under 2,5 the 1-stream rows at 2, 4
    # and 6 cost 3, 1 and 1.  Under 1,4 the row at 2 costs 5, which proves
    # that the row at 4, within (5 - 2) / 1 of it, costs at least 2: it is
    # pruned.  The row at 6 costs 1.  Under 3,6 the three cost 1, 1 and 3.
    # Ties are scored, not pruned, and the least canonical key wins: the
    # 1-stream anchored at the first arrival, the 2-stream at the third.
    assert (record.compositions_pruned, record.prefixes_pruned, record.candidates_scored) == (0, 1, 8)
    assert "1 anchor prefixes pruned, 8 candidates scored" in record.getMessage()
    caplog.clear()
    # best_fit searches both budgets in one pass and logs once.  The
    # 1-stream composition scores its one distinct row at cost 0; the
    # 2-stream composition cannot beat that, so it is pruned.
    assert best_fit(inst, 2).cost == 0
    (record,) = caplog.records
    assert (record.compositions_pruned, record.prefixes_pruned, record.candidates_scored) == (1, 0, 1)
    caplog.clear()
    # The last stream is walked in first-point order, and a failed row jumps
    # the walk over the rows just past it.  Arrivals 5, 9, 10, 11, T = 11:
    # composition (1, 3) finds cost 3, the limit 6 at scale 2 for (2, 2).
    # There the 2-stream rows of anchors 0-3 have first points 10, 7, 9 and
    # 11 (scaled by 2: 20, 14, 18, 22), walked as 7, 9, 10, 11.  Under the
    # first stream at anchor 2, anchors 0-2 may follow: the row at 7 costs
    # 16, so every row with its first point up to 7 + (16 - 6) // 2 = 12 is
    # jumped over, and the rows at 9 and 10 go unscored.  A walk in anchor
    # order that marks rows on both sides would score the row at 10 first
    # (cost 10), which reaches only 9 and 11, then the row at 7, and count
    # (0, 5, 21).
    assert solve_matching(_inst([5, 9, 10, 11], T=11), 2).cost == 3
    (record,) = caplog.records
    assert (record.compositions_pruned, record.prefixes_pruned, record.candidates_scored) == (0, 6, 20)
    caplog.clear()
    # The last two streams both have count 1 in the best composition, so the
    # last one's walk, which runs over all rows in first-point order, must
    # skip the anchors past the one before it (each pair is visited once),
    # not score them: scoring them too counts (1, 3, 23) for the same fit.
    assert best_fit(_inst([3, 4, 9, 16], T=16), 3).cost == 1
    (record,) = caplog.records
    assert (record.compositions_pruned, record.prefixes_pruned, record.candidates_scored) == (1, 8, 18)


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


def _anchored(minutes, counts, anchors, T=None):
    inst = _inst(minutes, T=T)
    return inst, anchored_streams(inst, counts, anchors)


@st.composite
def _anchored_cases(draw):
    """An instance with n <= 8 and a stream set anchored on its arrivals:
    counts in drawn order summing to n, one anchor per count."""
    inst = draw(_small_instances(max_n=8))
    counts = []
    while sum(counts) < inst.n:
        counts.append(draw(st.integers(1, inst.n - sum(counts))))
    anchors = draw(st.lists(st.integers(0, inst.n - 1), min_size=len(counts), max_size=len(counts)))
    return inst, anchored_streams(inst, counts, anchors)


@settings(max_examples=150, deadline=None)
@given(_anchored_cases())
@example(_anchored([2, 5, 9, 14, 20, 21], [3, 3], [0, 3], T=24))
@example(_anchored([7], [1], [0]))
@example(_anchored([3, 3, 3, 8, 8, 11], [2, 3, 1], [5, 0, 3], T=12))
def test_oracle_modes_agree(case):
    """The Hungarian method on the integer-scaled matrix finds the cost of
    the best of all n! bijections."""
    inst, ss = case
    hungarian = oracle_min_cost_bijection(inst, ss, mode="hungarian")
    assert hungarian == oracle_min_cost_bijection(inst, ss, mode="factorial")


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


@pytest.mark.parametrize(
    "mu, lam, count, field",
    [
        (1.5, Fraction(4), 3, "mu"),
        (Fraction(3, 2), 4.0, 3, "lam"),
        (True, Fraction(4), 3, "mu"),
        (Fraction(1), True, 1, "lam"),
        (Fraction(1), Fraction(4), 3.0, "count"),
        (Fraction(1), Fraction(4), True, "count"),
    ],
)
def test_stream_rejects_non_rational_fields(mu, lam, count, field):
    """Floats and bools are not accepted as exact values; the error names the field."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        Stream(mu, lam, count)


def test_stream_set_rejects_non_int_T():
    stream = Stream(Fraction(1), Fraction(4), 3)
    for T in (12.0, Fraction(12)):
        with pytest.raises(ValueError, match="^T must be an int"):
            StreamSet(streams=(stream,), T=T)


def test_stream_validation():
    with pytest.raises(ValueError):
        Stream(Fraction(0), Fraction(4), 3)  # mu must exceed 0
    with pytest.raises(ValueError):
        Stream(Fraction(5), Fraction(4), 3)  # mu must not exceed lambda
    with pytest.raises(ValueError):
        StreamSet(streams=(Stream(Fraction(1), Fraction(4), 2),), T=12)  # 2*4 != 12
    with pytest.raises(ValueError, match="^lambda must be positive$"):
        Stream(Fraction(1), Fraction(0), 3)
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        Stream(Fraction(1), Fraction(4), 0)
