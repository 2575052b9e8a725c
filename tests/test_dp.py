from fractions import Fraction

import pytest
from oracles import BruteForcePeriodError, brute_force_optimal, reference_solve
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
    predecessors,
    result_to_json_dict,
    slot_costs,
    solve,
    transition_cost,
)
from locksched.schedule import (
    Direction,
    PeriodicInstance,
    StreamSpec,
    arrival_pattern,
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
    pattern = arrival_pattern(inst)
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


def test_solve_period_cap_checked_before_the_pattern(monkeypatch):
    # lcm(997, 991, 983) is about 9.7e8: building its arrival pattern alone
    # takes over a minute, so the cap must be checked from the lcm first.
    def no_pattern(instance):
        raise AssertionError("arrival pattern built before the period cap check")

    monkeypatch.setattr(dp, "arrival_pattern", no_pattern)
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
