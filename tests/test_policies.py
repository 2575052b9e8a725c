from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locksched.policies import adv_fifo, alternating, fifo, realized_periodic
from locksched.schedule import Action, Direction, InfeasibleScheduleError, Schedule, simulate
from oracles import (
    reference_adv_fifo,
    reference_alternating,
    reference_fifo,
    reference_realized_periodic,
)

D, U, W = Action.PROCESS_DOWN, Action.PROCESS_UP, Action.WAIT


def test_alternating_on_alternating_arrivals_is_free():
    arrivals = [(1, 0) if t % 2 == 1 else (0, 1) for t in range(1, 13)]
    run = alternating(arrivals, 12)
    assert run.result.total_wait == 0


def test_alternating_serves_single_side_every_other_period():
    arrivals = [(1, 0)] * 10
    run = alternating(arrivals, 10)
    assert run.result.total_wait == 10 // 2


def test_alternating_no_arrivals():
    assert alternating([], 6).result.total_wait == 0


def test_alternating_picks_better_phase():
    arrivals = [(0, 1) if t % 2 == 1 else (1, 0) for t in range(1, 13)]
    run = alternating(arrivals, 12)
    assert run.result.total_wait == 0
    assert run.actions[0] is U


_ALTERNATION = Schedule((D, U), Direction.DOWN)


def _replay(schedule_run):
    return lambda arrivals, horizon: schedule_run(_ALTERNATION, arrivals, horizon)


def _from(run, start):
    return lambda arrivals, horizon: run(arrivals, horizon, start)


def _cases(runs, shapes):
    """One case per (policy, reference) pair of ``runs`` and per shape.

    The alternating cases keep the shape's bare id; the others prefix it
    with the run's name.
    """
    return [
        pytest.param(fast, reference, *shape.values, id=shape.id if name == "alternating" else f"{name}-{shape.id}")
        for name, (fast, reference) in runs.items()
        for shape in shapes
    ]


_ALL_POLICIES = {
    "alternating": (alternating, reference_alternating),
    "fifo": (fifo, reference_fifo),
    "adv_fifo": (adv_fifo, reference_adv_fifo),
    "realized_periodic": (_replay(realized_periodic), _replay(reference_realized_periodic)),
}


@pytest.mark.parametrize(
    "policy, reference, arrivals, horizon",
    _cases(_ALL_POLICIES, [
        pytest.param(arrivals, horizon, id=f"{name}-{horizon}")
        for horizon in (0, -1, -7)
        for name, arrivals in (("empty", []), ("three", [(1, 0), (0, 2), (3, 1)]))
    ]),
)
def test_alternating_rejects_horizon_below_one_like_reference(policy, reference, arrivals, horizon):
    """Every policy, alternation included, rejects a horizon below 1 with
    the reference's error, though only periodic replay goes through
    ``simulate``."""
    with pytest.raises(ValueError) as fast:
        policy(arrivals, horizon)
    with pytest.raises(ValueError) as expected:
        reference(arrivals, horizon)
    assert (type(fast.value), str(fast.value)) == (type(expected.value), str(expected.value))
    assert str(fast.value) == f"horizon must be >= 1, got {horizon}"


_DAY = [((t * 7) % 5 // 2, (t * 11) % 7 // 3) for t in range(480)]

_SHAPES = [
    pytest.param(arrivals, horizon, id=name)
    for name, arrivals, horizon in (
        ("tuple", tuple(_DAY[:9]), 9),
        ("list-exact", _DAY[:8], 8),
        ("list-exact-day", _DAY, 480),
        ("list-longer", _DAY, 121),
        ("list-shorter", _DAY[:50], 480),
        ("empty", [], 5),
        ("down-first-free", [(1, 0), (0, 1)], 2),
        ("up-first-free", [(0, 1), (1, 0)], 2),
        ("tie", [(1, 1), (1, 1)], 2),
        # Idle through the horizon, so advanced FIFO's lookahead reads the
        # arrivals on both sides one period past it.
        ("one-past-horizon", [(0, 0)] * 4 + [(1, 1)], 4),
    )
]


@pytest.mark.parametrize(
    "policy, reference, arrivals, horizon",
    _cases({
        "alternating": (alternating, reference_alternating),
        **{
            f"{name}-{start.value}": (_from(run, start), _from(reference, start))
            for name, run, reference in (("fifo", fifo, reference_fifo), ("adv_fifo", adv_fifo, reference_adv_fifo))
            for start in Direction
        },
    }, _SHAPES),
)
def test_alternating_equals_reference_for_each_arrivals_shape(policy, reference, arrivals, horizon):
    """Alternation, FIFO and advanced FIFO from either alignment score their
    own traces; each whole run equals the reference's, which replays the
    trace through the reference simulator."""
    assert policy(arrivals, horizon) == reference(arrivals, horizon)


def test_fifo_single_arrival_served_immediately():
    run = fifo([(1, 0)], 2)
    assert run.result.total_wait == 0
    assert run.actions[0] is D


def test_fifo_simultaneous_both_sides():
    run = fifo([(1, 1)], 3)
    assert run.result.total_wait == 1  # D at 1, U at 2


def test_fifo_opposite_side_needs_empty_lockage():
    run = fifo([(0, 1)], 3)
    assert run.actions[0] is D  # empty lockage to reorient
    assert run.result.total_wait == 1


def test_fifo_idles_without_vessels():
    run = fifo([(0, 0), (0, 0)], 2)
    assert run.actions == (W, W)
    assert run.result.total_wait == 0


def test_adv_fifo_preorients_one_period_early():
    # Nothing at t=1, a U vessel at t=2: the lookahead runs the empty lockage
    # at t=1 so the vessel is served on arrival.  Plain FIFO pays 1.
    arrivals = [(0, 0), (0, 1)]
    adv = adv_fifo(arrivals, 3)
    assert adv.actions[0] is D
    assert adv.result.total_wait == 0
    assert fifo(arrivals, 3).result.total_wait == 1
    # The lookahead also reads the period just past the horizon.
    assert adv_fifo(arrivals, 1).actions == (D,)


def test_adv_fifo_matches_alternating_on_alternating_arrivals():
    arrivals = [(1, 0) if t % 2 == 1 else (0, 1) for t in range(1, 13)]
    run = adv_fifo(arrivals, 12)
    assert run.result.total_wait == 0


def test_adv_fifo_all_wait_without_arrivals():
    run = adv_fifo([], 4)
    assert run.actions == (W, W, W, W)


def test_adv_fifo_single_stream_matched_alignment_is_free():
    for lam in (2, 3, 5):
        arrivals = [(1, 0) if t % lam == 1 % lam else (0, 0) for t in range(1, 4 * lam + 1)]
        run = adv_fifo(arrivals, 4 * lam, Direction.DOWN)
        assert run.result.total_wait == 0


def test_realized_periodic_replays_schedule_exactly():
    sched = Schedule((D, U), Direction.DOWN)
    arrivals = [(1, 0) if t % 2 == 1 else (0, 1) for t in range(1, 9)]
    run = realized_periodic(sched, arrivals, 8)
    assert run.result.total_wait == 0
    assert run.actions == (D, U) * 4


def test_realized_periodic_equals_alternating_on_same_trace():
    arrivals = [(1, 1), (0, 0), (1, 0), (0, 1)]
    sched = Schedule((D, U), Direction.DOWN)
    replay = realized_periodic(sched, arrivals, 4)
    direct = simulate(arrivals, sched.actions, 4, sched.initial_alignment)
    assert replay.result.total_wait == direct.total_wait


def test_realized_periodic_empty_data():
    sched = Schedule((D, U), Direction.DOWN)
    assert realized_periodic(sched, [], 4).result.total_wait == 0


def test_per_vessel_minutes_conversion():
    run = fifo([(1, 1)], 3)
    # total wait 1 over 2 vessels, at 21 minutes per period
    assert run.per_vessel_minutes(21) == Fraction(21, 2)


def test_policy_runs_are_re_simulable():
    arrivals = [(2, 0), (0, 1), (1, 1), (0, 0)]
    for run in (alternating(arrivals, 4), fifo(arrivals, 4), adv_fifo(arrivals, 4)):
        res = simulate(arrivals, list(run.actions), 4, initial_alignment=run.initial_alignment)
        assert res.total_wait == run.result.total_wait


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InfeasibleScheduleError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    horizon=st.integers(1, 30),
    arrivals=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=35),
    start=st.sampled_from(Direction),
    processes=st.lists(st.booleans(), min_size=1, max_size=40),
    schedule_start=st.sampled_from(Direction),
)
@example(horizon=1, arrivals=[], start=Direction.UP, processes=[True], schedule_start=Direction.DOWN)
@example(horizon=7, arrivals=[(0, 1)], start=Direction.DOWN, processes=[False, True, True], schedule_start=Direction.UP)
def test_fast_policies_equal_references(horizon, arrivals, start, processes, schedule_start):
    """Every policy gives the reference's policy name, actions, initial
    alignment and simulation result; schedules (period 1 to 40 against
    horizons 1 to 30) alternate sides, so an odd number of lockages makes
    the replay infeasible after one cycle, for both."""
    assert alternating(arrivals, horizon) == reference_alternating(arrivals, horizon)
    assert fifo(arrivals, horizon, start) == reference_fifo(arrivals, horizon, start)
    assert adv_fifo(arrivals, horizon, start) == reference_adv_fifo(arrivals, horizon, start)
    side, actions = schedule_start, []
    for process in processes:
        actions.append(Action.process(side) if process else W)
        side = side.flip() if process else side
    schedule = Schedule(tuple(actions), schedule_start)
    assert _outcome(realized_periodic, schedule, arrivals, horizon) == _outcome(
        reference_realized_periodic, schedule, arrivals, horizon
    )
