from fractions import Fraction

import pytest

from locksched.schedule import (
    Action,
    Direction,
    InfeasibleScheduleError,
    PeriodicInstance,
    Schedule,
    StreamSpec,
    arrival_at,
    cyclic_average,
    instance_from_json,
    is_feasible,
    lcm_period,
    schedule_from_json,
    schedule_to_json,
    simulate,
)

D, U, W = Action.PROCESS_DOWN, Action.PROCESS_UP, Action.WAIT


def _inst(*specs):
    return PeriodicInstance(tuple(StreamSpec(d, lam, mu) for d, lam, mu in specs))


def test_arrival_at_single_stream():
    inst = _inst((Direction.DOWN, 2, 1))
    assert arrival_at(inst, 3) == (1, 0)
    assert arrival_at(inst, 2) == (0, 0)


def test_arrival_at_two_streams():
    inst = _inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2))
    assert arrival_at(inst, 4) == (0, 1)
    assert arrival_at(inst, 1) == (1, 0)


def test_arrival_at_rejects_nonpositive_t():
    with pytest.raises(ValueError):
        arrival_at(_inst((Direction.DOWN, 2, 1)), 0)


def test_lcm_period():
    assert lcm_period(_inst((Direction.DOWN, 2, 1), (Direction.UP, 3, 1))) == 6
    assert lcm_period(_inst((Direction.DOWN, 4, 1), (Direction.UP, 6, 1))) == 12
    assert lcm_period(_inst((Direction.DOWN, 5, 1))) == 5


def test_stream_spec_validation():
    with pytest.raises(ValueError):
        StreamSpec(Direction.DOWN, 0, 1)
    with pytest.raises(ValueError):
        StreamSpec(Direction.DOWN, 3, 4)
    with pytest.raises(ValueError):
        StreamSpec(Direction.DOWN, 3, 0)


def test_feasibility_alternation():
    assert is_feasible(Schedule((D, U), Direction.DOWN))
    assert not is_feasible(Schedule((D, W, D), Direction.DOWN))


def test_feasibility_all_wait_is_vacuously_ok():
    assert is_feasible(Schedule((W, W), Direction.DOWN))


def test_feasibility_requires_cyclic_closure():
    # An odd number of lockages cannot wrap around.
    assert not is_feasible(Schedule((D, U, W, D), Direction.DOWN))


def test_simulate_serves_on_arrival():
    inst = _inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2))
    sched = Schedule((D, U), Direction.DOWN)
    result = simulate(lambda t: arrival_at(inst, t), sched, 20)
    assert result.total_wait == 0
    assert result.n_arrivals == 20


def test_simulate_wait_then_serve():
    """Arrivals D at t = 1 mod 3 with schedule (W, D, U): the t=1 vessel
    waits one period, so the average cost per period is 1/3."""
    inst = _inst((Direction.DOWN, 3, 1))
    sched = Schedule((W, D, U), Direction.DOWN)
    result = simulate(lambda t: arrival_at(inst, t), sched, 12)
    assert result.per_period_cost[0] == 1
    assert result.avg_wait_per_period == Fraction(1, 3)


def test_simulate_detects_misaligned_action():
    with pytest.raises(InfeasibleScheduleError):
        simulate([(1, 0)], [U], 1, initial_alignment=Direction.DOWN)


def test_simulate_sequence_arrivals_past_end_are_zero():
    result = simulate([(1, 0)], [D, U, D, U], 4)
    assert result.total_wait == 0
    assert result.n_arrivals == 1


def test_simulate_action_sequence_must_cover_horizon():
    with pytest.raises(ValueError):
        simulate([(0, 0)], [D], 2)


def test_simulate_tracks_vessel_average():
    # One U vessel at t=1, served at t=2 after an initial D lockage.
    result = simulate([(0, 1)], [D, U], 2, initial_alignment=Direction.DOWN)
    assert result.total_wait == 1
    assert result.avg_wait_per_vessel == Fraction(1, 1)


def test_cyclic_average_steady_state():
    inst = _inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2))
    assert cyclic_average(inst, Schedule((D, U), Direction.DOWN)) == 0
    # Starting on the wrong phase costs 1 every period.
    assert cyclic_average(inst, Schedule((U, D), Direction.UP)) == 1


def test_simulate_schedule_misaligned_on_second_cycle():
    # (D, U, D) closes on UP, so the second cycle's first D is misaligned.
    sched = Schedule((D, U, D), Direction.DOWN)
    with pytest.raises(InfeasibleScheduleError, match="period 4:"):
        simulate([(0, 0)] * 6, sched, 6)


def test_simulate_initial_alignment_overrides_schedule():
    sched = Schedule((U, D), Direction.DOWN)
    with pytest.raises(InfeasibleScheduleError, match="period 1:"):
        simulate([(1, 1)], sched, 4)
    result = simulate([(1, 1)], sched, 4, initial_alignment=Direction.UP)
    assert result.per_period_cost == (1, 0, 0, 0)


def test_simulate_schedule_partial_cycle_matches_per_step_replay():
    inst = _inst((Direction.DOWN, 3, 1), (Direction.UP, 4, 2))
    sched = Schedule((W, D, U, D, W, U, W), Direction.DOWN)
    horizon = 3 * sched.period + 4
    cyclic = simulate(lambda t: arrival_at(inst, t), sched, horizon)
    steps = [sched.action_at(t) for t in range(1, horizon + 1)]
    replay = simulate(lambda t: arrival_at(inst, t), steps, horizon, initial_alignment=Direction.DOWN)
    assert cyclic.per_period_cost == replay.per_period_cost
    assert cyclic == replay


def test_cyclic_average_rejects_all_wait_schedule():
    with pytest.raises(ValueError, match="all-wait"):
        cyclic_average(_inst((Direction.DOWN, 2, 1)), Schedule((W, W), Direction.DOWN))


def test_schedule_json_round_trip():
    sched = Schedule((D, W, U), Direction.DOWN)
    assert schedule_from_json(schedule_to_json(sched)) == sched


def test_instance_json_round_trip():
    inst = _inst((Direction.DOWN, 2, 1), (Direction.UP, 3, 3))
    text = '{"streams": [{"direction": "D", "lambda": 2, "mu": 1}, {"direction": "U", "lambda": 3, "mu": 3}]}'
    assert instance_from_json(text) == inst


def test_action_helpers():
    assert Action.process(Direction.UP) is U
    assert U.processes is Direction.UP
    assert W.processes is None
    assert Direction.DOWN.flip() is Direction.UP
