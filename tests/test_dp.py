import logging
import math
from fractions import Fraction

import pytest
from oracles import (
    BruteForcePeriodError,
    _cyclic,
    brute_force_optimal,
    reference_arrival_counts,
    reference_lane,
    reference_lane_path,
    reference_min_cycle_mean,
    reference_path_actions,
    reference_solve,
    slot_costs,
    transition_cost,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locksched import dp
from locksched.dp import (
    ALL_STATES,
    CANONICAL,
    DEFAULT_PERIOD_CAP,
    PAPER_LITERAL,
    LockState,
    PeriodCapExceededError,
    decode_lane,
    lane,
    predecessors,
    result_to_json_dict,
    solve,
    start_values,
)
from locksched.schedule import (
    Direction,
    PeriodicInstance,
    StreamSpec,
    cyclic_average,
    is_feasible,
    lcm_period,
)


def _inst(*specs):
    return PeriodicInstance(tuple(StreamSpec(d, lam, mu) for d, lam, mu in specs))


def test_state_space_size():
    assert len(ALL_STATES) == 8
    assert len(set(ALL_STATES)) == 8


def test_predecessor_counts():
    for state in ALL_STATES:
        preds = predecessors(state)
        if state.own_waits == 0:
            assert len(preds) == 2
            assert all(p.alignment is state.alignment.flip() for p in preds)
            assert all(p.own_waits == state.other_waits for p in preds)
        else:
            assert preds == (LockState(state.alignment, state.own_waits - 1, state.other_waits),)


def test_transition_cost_switch_examples():
    inst = _inst((Direction.DOWN, 2, 2), (Direction.UP, 2, 2))
    # Serve Down at an even t from (D,0,0): window 2, arrivals at odd t are 0.
    prev = LockState(Direction.DOWN, 0, 0)
    state = LockState(Direction.UP, 0, 0)
    assert transition_cost(inst, 2, prev, state) == 0
    # Serve Up at an odd t from (U,0,0): the even-period Up arrival waited one.
    prev = LockState(Direction.UP, 0, 0)
    state = LockState(Direction.DOWN, 0, 0)
    assert transition_cost(inst, 3, prev, state) == 1


def test_transition_cost_wait_is_free():
    inst = _inst((Direction.DOWN, 2, 1))
    prev = LockState(Direction.DOWN, 0, 0)
    state = LockState(Direction.DOWN, 1, 0)
    assert transition_cost(inst, 5, prev, state) == 0
    assert transition_cost(inst, 5, prev, state, mode=PAPER_LITERAL) == 0


def test_transition_cost_rejects_non_predecessor():
    inst = _inst((Direction.DOWN, 2, 1))
    with pytest.raises(ValueError):
        transition_cost(inst, 2, LockState(Direction.DOWN, 0, 0), LockState(Direction.DOWN, 0, 0))


def test_transition_cost_matches_full_pattern_at_large_lcm():
    inst = _inst((Direction.DOWN, 5, 3), (Direction.DOWN, 7, 4), (Direction.UP, 11, 7), (Direction.UP, 13, 2))
    pattern = reference_arrival_counts(inst, 1, lcm_period(inst))
    lam = len(pattern)
    assert lam == 5005
    cyclic = lambda t: pattern[(t - 1) % lam]  # noqa: E731
    for mode, shift in ((CANONICAL, 0), (PAPER_LITERAL, 1)):
        for t in (1, 2, 3, 4, 7, 2503, lam - 1, lam, lam + 1, lam + 3, 3 * lam + 2):
            costs = slot_costs(cyclic, t, shift)
            for state in ALL_STATES:
                for prev in predecessors(state):
                    expected = costs[3 * (prev.alignment is Direction.UP) + prev.own_waits + prev.other_waits]
                    if state.own_waits > 0:
                        expected = 0
                    assert transition_cost(inst, t, prev, state, mode=mode) == expected


def test_paper_literal_window_is_shifted():
    """The literal convention charges the window one period earlier: an
    arrival in the service period costs nothing in both, but one exactly at
    the window's far edge is counted only by one convention."""
    inst = _inst((Direction.DOWN, 4, 2))
    prev = LockState(Direction.DOWN, 1, 1)  # window of 4
    state = LockState(Direction.UP, 0, 1)
    canonical = transition_cost(inst, 5, prev, state, mode=CANONICAL)
    literal = transition_cost(inst, 5, prev, state, mode=PAPER_LITERAL)
    assert canonical == 3  # arrival at t-3 weighted 3
    assert literal == 2  # same arrival reached via i=3, weighted i-1


def test_solve_alternating_instance_is_free():
    result = solve(_inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2)))
    assert result.avg_cost == 0
    assert is_feasible(result.schedule)


def test_solve_coinciding_offsets_cost_half():
    result = solve(_inst((Direction.DOWN, 2, 2), (Direction.UP, 2, 2)))
    assert result.avg_cost == Fraction(1, 2)


def test_solve_gcd_one_cost_one_sixth():
    result = solve(_inst((Direction.DOWN, 2, 1), (Direction.UP, 3, 3)))
    assert result.avg_cost == Fraction(1, 6)
    assert result.period == 8 * 6


def test_solve_self_consistency():
    for specs in [
        ((Direction.DOWN, 2, 1), (Direction.UP, 3, 3)),
        ((Direction.DOWN, 3, 2), (Direction.UP, 4, 4), (Direction.DOWN, 2, 1)),
        ((Direction.UP, 5, 3),),
    ]:
        result = solve(_inst(*specs))
        assert cyclic_average(_inst(*specs), result.schedule) == result.avg_cost


def test_solve_deterministic():
    inst = _inst((Direction.DOWN, 3, 1), (Direction.UP, 4, 2))
    a = solve(inst)
    b = solve(inst)
    assert a.schedule == b.schedule and a.avg_cost == b.avg_cost


def test_solve_period_cap():
    with pytest.raises(PeriodCapExceededError):
        solve(_inst((Direction.DOWN, 7, 1), (Direction.UP, 11, 1)), period_cap=100)


@pytest.mark.parametrize("cap", [True, 1e6])
def test_solve_rejects_a_non_int_period_cap(cap):
    """A float or bool cap is rejected by name, not compared as its value."""
    with pytest.raises(ValueError, match=f"^period_cap must be an int, got {cap!r}$"):
        solve(_inst((Direction.DOWN, 2, 1)), period_cap=cap)


@pytest.mark.parametrize("cap", [0, -3])
def test_solve_rejects_period_cap_below_one(cap):
    with pytest.raises(ValueError) as exc:
        solve(_inst((Direction.DOWN, 2, 1)), period_cap=cap)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"period_cap must be >= 1, got {cap}"


def test_solve_period_cap_checked_before_the_pattern(monkeypatch):
    # lcm(997, 991, 983) is about 9.7e8: building its arrival pattern alone
    # takes over a minute, so the cap must be checked from the lcm first.
    def no_pattern(instance, first, last):
        raise AssertionError("arrival pattern built before the period cap check")

    monkeypatch.setattr(dp, "arrival_counts", no_pattern)
    inst = _inst((Direction.DOWN, 997, 1), (Direction.UP, 991, 1), (Direction.DOWN, 983, 2))
    with pytest.raises(PeriodCapExceededError) as exc:
        solve(inst)
    assert exc.value.required == 8 * 997 * 991 * 983
    assert exc.value.cap == DEFAULT_PERIOD_CAP


def test_solve_rejects_unknown_mode():
    with pytest.raises(ValueError):
        solve(_inst((Direction.DOWN, 2, 1)), mode="bogus")


def test_brute_force_examples():
    assert brute_force_optimal(_inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2)), 2) == 0
    assert brute_force_optimal(_inst((Direction.DOWN, 2, 2), (Direction.UP, 2, 2)), 2) == Fraction(1, 2)
    assert brute_force_optimal(_inst((Direction.DOWN, 3, 3)), 6) == 0


def test_brute_force_rejects_large_period():
    with pytest.raises(BruteForcePeriodError):
        brute_force_optimal(_inst((Direction.DOWN, 2, 1)), 15)


def test_brute_force_agrees_with_dp():
    for specs in [
        ((Direction.DOWN, 2, 1), (Direction.UP, 3, 3)),
        ((Direction.DOWN, 2, 2), (Direction.UP, 4, 4)),
        ((Direction.DOWN, 1, 1), (Direction.UP, 2, 1)),
    ]:
        inst = _inst(*specs)
        dp = solve(inst).avg_cost
        lam = solve(inst).period // 8
        best = min(brute_force_optimal(inst, p) for p in (lam, 2 * lam) if p <= 14)
        assert dp == best


def test_result_json_shape():
    d = result_to_json_dict(solve(_inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2))))
    assert d["mode"] == CANONICAL
    assert d["avg_cost"] == {"num": 0, "den": 1}
    assert len(d["schedule"]["actions"]) == d["schedule"]["period"]


# Paper-literal solve() results: (streams as direction lambda/mu, avg_cost,
# initial_state, actions, initial_alignment).  No other test checks this
# convention's schedules, only its transition costs.
PAPER_LITERAL_RECORDED = [
    ('U2/1 U6/6', '1/6', '(U,0,0)', 'DUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDU', 'D'),
    ('D5/3 U5/5 D1/1', '7/10', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('D6/5 U2/1 U3/2', '1/3', '(U,0,0)', 'DUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDU', 'D'),
    ('D6/3', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('U3/1 U3/2', '1/3', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('D3/1', '0/1', '(D,0,1)', 'UDWUDWUDWUDWUDWUDWUDWUDW', 'U'),
    ('D3/1 U3/3', '0/1', '(D,0,1)', 'UDWUDWUDWUDWUDWUDWUDWUDW', 'U'),
    ('D6/3 D2/1 D2/1', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('D6/3 D2/1', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('U2/2 U4/4', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('U1/1', '1/2', '(D,0,0)', 'UDUDUDUD', 'U'),
    ('U2/1 D4/2', '0/1', '(U,0,0)', 'DUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDU', 'D'),
    ('D2/2 D3/3', '1/6', '(U,0,0)', 'DUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDU', 'D'),
    ('U5/1 D1/1 D5/2', '7/10', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('D2/1', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUD', 'U'),
    ('D1/1 D1/1 D1/1', '3/2', '(D,0,0)', 'UDUDUDUD', 'U'),
    ('D6/5', '0/1', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
    ('D6/4', '0/1', '(D,0,1)', 'UWDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDW', 'U'),
    ('U4/3', '0/1', '(D,1,0)', 'WDWUDUDUDUDUDUDUDUDUDUDUDUDUDUDU', 'D'),
    ('U3/1', '0/1', '(U,0,1)', 'DUWDUWDUWDUWDUWDUWDUWDUW', 'D'),
    ('U3/3', '0/1', '(D,0,0)', 'UWDUWDUWDUWDUWDUWDUWDUWD', 'U'),
    ('U5/1', '0/1', '(U,0,0)', 'DUWDUDUWDUDUWDUDUWDUDUWDUDUWDUDUWDUDUWDU', 'D'),
    ('U5/5', '0/1', '(D,0,0)', 'UWDUDUWDUDUWDUDUWDUDUWDUDUWDUDUWDUDUWDUD', 'U'),
    ('U3/2 U2/2', '1/6', '(D,0,0)', 'UDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUDUD', 'U'),
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PAPER_LITERAL_RECORDED), st.data())
def test_paper_literal_solve_matches_recorded(record, data):
    streams, avg, initial_state, actions, initial_alignment = record
    specs = [(Direction(s[0]), *map(int, s[1:].split("/"))) for s in streams.split()]
    # The arrival pattern, and so the result, does not depend on stream order.
    result = solve(_inst(*data.draw(st.permutations(specs))), mode=PAPER_LITERAL)
    assert result.avg_cost == Fraction(avg)
    assert result.total_cost == result.avg_cost * result.period
    assert str(result.initial_state) == initial_state
    assert "".join(a.value for a in result.schedule.actions) == actions
    assert result.schedule.initial_alignment.value == initial_alignment


@pytest.mark.parametrize("mode", [CANONICAL, PAPER_LITERAL])
def test_solve_checks_its_schedule_by_simulation(monkeypatch, mode):
    """Both modes check the reconstructed schedule against ``cyclic_average``
    of the pattern they solved, so a wrong simulation is caught."""
    inst = _inst((Direction.DOWN, 3, 1), (Direction.UP, 2, 2))
    monkeypatch.setattr(dp, "_cyclic_average", lambda pattern, schedule: Fraction(-1))
    with pytest.raises(AssertionError, match="simulates to -1"):
        solve(inst, mode)


def _assert_same_result(result, reference):
    assert result.avg_cost == reference.avg_cost
    assert result.total_cost == reference.total_cost
    assert result.period == reference.period
    assert "".join(a.value for a in result.schedule.actions) == "".join(a.value for a in reference.schedule.actions)
    assert result.schedule.initial_alignment is reference.schedule.initial_alignment
    assert result.initial_state == reference.initial_state
    assert result.mode == reference.mode


_streams = st.lists(
    st.integers(1, 14).flatmap(
        lambda lam: st.tuples(st.sampled_from(list(Direction)), st.just(lam), st.integers(1, lam))
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=80, deadline=None)
@given(_streams, st.sampled_from([CANONICAL, PAPER_LITERAL]))
def test_solve_equals_nine_lane_reference(specs, mode):
    inst = _inst(*specs)
    # Keep each example cheap; lambda <= 14 alone allows lcm up to 18018.
    assume(lcm_period(inst) <= 840)
    _assert_same_result(solve(inst, mode), reference_solve(inst, mode))


@settings(max_examples=100, deadline=None)
@given(_streams, st.sampled_from([CANONICAL, PAPER_LITERAL]))
def test_solve_equals_minimum_cycle_mean(specs, mode):
    """The 8 * Lambda horizon loses nothing: ``solve`` reaches the minimum
    cycle mean over all cycle lengths j * Lambda, j = 1..8, including the
    j = 3, 5, 6 and 7 cycles that cannot be repeated to fill 8 * Lambda
    periods exactly."""
    inst = _inst(*specs)
    assume(lcm_period(inst) <= 420)
    assert solve(inst, mode).avg_cost == reference_min_cycle_mean(inst, mode)


@pytest.mark.parametrize("mode", [CANONICAL, PAPER_LITERAL])
def test_solve_equals_nine_lane_reference_fixed(mode):
    for specs in [
        ((Direction.UP, 1, 1),),  # Lambda = 1
        ((Direction.DOWN, 1, 1), (Direction.UP, 1, 1)),
        # The benchmark's Lambda = 693 instance.
        ((Direction.DOWN, 7, 3), (Direction.DOWN, 9, 4), (Direction.UP, 11, 7)),
    ]:
        inst = _inst(*specs)
        _assert_same_result(solve(inst, mode), reference_solve(inst, mode))


# Per-period (down, up) counts behind a three-period lead-in, the lane's input.
_lane_counts = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=63)


def _assert_lane_equals_reference(counts, rows):
    """``lane`` over ``counts`` against ``reference_lane`` over the slot-cost
    ``rows`` of its stepped periods, from each start: the end values and the
    decoded path to every reachable end state."""
    for start in range(8):
        values, back = lane(start_values(start), counts)
        ref_values, ref_back = reference_lane(start, rows, keep_back=True)
        assert values == ref_values
        assert len(back) == len(rows)
        for final, value in enumerate(values):
            if value == float("inf"):
                continue
            path = reference_lane_path(ref_back, final)
            assert decode_lane(back, final) == (path[0], reference_path_actions(path))


@settings(max_examples=300, deadline=None)
@given(_lane_counts)
def test_lane_equals_table_reference(counts):
    """The straight-line step, its slot costs and its choice bits against
    the table loop over ``slot_costs`` rows.

    Counts in 0..3 make ties common, so the first-strict-minimum rule is
    exercised on every switch state."""
    rows = [slot_costs(counts.__getitem__, t) for t in range(3, len(counts))]
    _assert_lane_equals_reference(counts, rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=30),
       st.sampled_from([0, 1]), st.integers(1, 50))
def test_lane_reads_counts_behind_a_lead_in(counts, shift, t_start):
    """The lane's slot costs against ``slot_costs`` period by period, on a
    cyclic pattern (its lead-in wrapped from the pattern's end, as in
    ``solve``) and on a window with zero arrivals before it (as in
    ``solve_window``).  A window shifted back by ``shift`` periods is the
    lane over the counts delayed by ``shift`` periods, which is how
    ``solve`` computes the paper-literal convention."""
    lam = len(counts)
    delayed = [counts[(t - shift) % lam] for t in range(lam)]
    lead_in = [delayed[t % lam] for t in range(-3, 0)]
    cyclic = [slot_costs(_cyclic(counts), t, shift) for t in range(1, lam + 1)]
    _assert_lane_equals_reference(lead_in + delayed, cyclic)

    def window(t):
        return counts[t - t_start] if t_start <= t < t_start + lam else (0, 0)

    padded = [slot_costs(window, t, shift) for t in range(t_start, t_start + lam)]
    _assert_lane_equals_reference(([(0, 0)] * (3 + shift) + counts)[: 3 + lam], padded)


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.integers(1, 7).flatmap(
        lambda lam: st.tuples(st.sampled_from(list(Direction)), st.just(lam), st.integers(1, lam))
    ),
    min_size=1,
    max_size=4,
))
def test_extra_waits_never_beat_the_dp(specs):
    """No cyclic schedule of a period 2 <= p <= 14 dividing 8 * Lambda, with
    waits anywhere, costs less than the single-wait DP optimum.  Such a
    schedule repeated is a schedule of period 8 * Lambda; period 1 allows no
    feasible schedule."""
    inst = _inst(*specs)
    lam = lcm_period(inst)
    periods = [p for p in range(2, 15) if 8 * lam % p == 0]
    optimum = solve(inst).avg_cost
    for p in periods:
        assert optimum <= brute_force_optimal(inst, p)


def test_solve_logs_period_and_initial_state(caplog):
    """One DEBUG record per solve, with its figures as record attributes."""
    inst = _inst((Direction.DOWN, 2, 1), (Direction.UP, 3, 2))
    caplog.set_level(logging.DEBUG, logger="locksched.dp")
    result = solve(inst)
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG and record.name == "locksched.dp"
    assert (record.lcm, record.period, record.total_cost) == (6, 48, result.total_cost)
    assert record.initial_state == str(result.initial_state)
    assert record.mode == CANONICAL
    assert f"lcm=6, T=48, initial state {result.initial_state}" in record.getMessage()


_lane_start = st.lists(st.one_of(st.integers(0, 20), st.just(math.inf)), min_size=8, max_size=8).filter(
    lambda values: min(values) < math.inf
)


@settings(max_examples=300, deadline=None)
@given(_lane_start, st.integers(-50, 50), _lane_counts)
def test_lane_shifted_start_gives_same_bits_and_shifted_values(start, shift, counts):
    """``solve`` keys its lane memos on normalised start values, which is
    exact because a lane from v + K makes the same choices as one from v
    and ends K higher (inf stays inf)."""
    values, back = lane(start, counts)
    shifted_values, shifted_back = lane([v + shift for v in start], counts)
    assert shifted_back == back
    assert shifted_values == [v + shift for v in values]


# (streams, distinct normalised starts of the rest piece, distinct starts of
# the head piece after the first turn): a rest piece that runs from two
# starts, a later turn whose head does not start where the first turn ended,
# Lambda = 1 whose one-step turns coalesce only after many turns (each turn
# is one piece: its empty rest is not run, and its rest count is multiplied
# by Lambda - head = 0 steps), and the Lambda = 5005 benchmark instance,
# whose eight lanes share one rest piece and, after the first turn, one head.
MEMO_CASES = [
    (((Direction.UP, 10, 5), (Direction.DOWN, 7, 7), (Direction.DOWN, 1, 1)), 2, 1),
    (((Direction.UP, 11, 6), (Direction.UP, 7, 4), (Direction.DOWN, 1, 1)), 2, 2),
    (((Direction.DOWN, 1, 1),), 19, 17),
    (((Direction.DOWN, 5, 3), (Direction.DOWN, 7, 4), (Direction.UP, 11, 7), (Direction.UP, 13, 2)), 1, 1),
]


@pytest.mark.parametrize("mode", [CANONICAL, PAPER_LITERAL])
@pytest.mark.parametrize("specs, rests, later_heads", MEMO_CASES)
def test_solve_logs_lane_steps(caplog, specs, rests, later_heads, mode):
    """The DEBUG record's ``lane_steps`` counts the lane steps run: each
    piece of a turn once per distinct normalised start, shared by the eight
    lanes of eight turns, so eight first-turn heads, the later turns' heads
    and the rest pieces.  At Lambda = 5005 that is 5,261 steps, where the
    matrix lanes and the re-run winning lane took 10,233."""
    caplog.set_level(logging.DEBUG, logger="locksched.dp")
    inst = _inst(*specs)
    lam = lcm_period(inst)
    solve(inst, mode)
    (record,) = caplog.records
    head = min(dp._HEAD, lam)
    assert record.lane_steps == (8 + later_heads) * head + rests * (lam - head)
    if lam == 5005:
        assert record.lane_steps == 5261
    assert f"{record.lane_steps} lane steps" in record.getMessage()


@pytest.mark.parametrize("head", [0, 1, 5, dp._HEAD, 100])
def test_solve_memo_paths_equal_nine_lane_reference(monkeypatch, head):
    """Each memo path gives the reference result field for field, in both
    modes, whatever the head length: the memo is keyed by exact normalised
    values, so the head changes only how much lane work is shared."""
    monkeypatch.setattr(dp, "_HEAD", head)
    for specs, _, _ in MEMO_CASES[:3]:
        inst = _inst(*specs)
        for mode in (CANONICAL, PAPER_LITERAL):
            _assert_same_result(solve(inst, mode), reference_solve(inst, mode))


@pytest.mark.parametrize("mode", [CANONICAL, PAPER_LITERAL])
@pytest.mark.parametrize(
    "specs, calls",
    [
        (((Direction.DOWN, 4, 1), (Direction.UP, 3, 2)), 24),  # Lambda = 12
        (((Direction.DOWN, 4, 1), (Direction.UP, 3, 2), (Direction.UP, 5, 5)), 32),  # Lambda = 60
    ],
)
def test_solve_runs_no_empty_piece(monkeypatch, specs, calls, mode):
    """A turn of Lambda <= _HEAD periods is one piece, so no lane runs over
    an empty rest, and each of the eight lanes normalises its start three
    times, once per turn until its chain meets a repeated key (24 in all),
    not once per head and once per empty rest; a longer turn has two pieces,
    and each lane normalises four times (32)."""
    seen = []
    normalised = dp._normalised
    run_lane = dp.lane
    steps = []

    def counting(values):
        seen.append(values)
        return normalised(values)

    def counted_lane(start, counts):
        steps.append(len(counts) - 3)
        return run_lane(start, counts)

    monkeypatch.setattr(dp, "_normalised", counting)
    monkeypatch.setattr(dp, "lane", counted_lane)
    inst = _inst(*specs)
    assert (lcm_period(inst) <= dp._HEAD) == (calls == 24)
    solve(inst, mode)
    assert len(seen) == calls
    assert min(steps) > 0
