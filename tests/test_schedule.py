import re
from collections.abc import Iterator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locksched.schedule import (
    Action,
    Direction,
    InfeasibleScheduleError,
    PeriodicInstance,
    Schedule,
    StreamSpec,
    arrival_at,
    arrival_counts,
    cyclic_average,
    instance_from_json,
    is_feasible,
    lcm_period,
    schedule_from_json,
    schedule_to_json,
    simulate,
)
from oracles import reference_arrival_counts, reference_cyclic_average, reference_simulate

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


@pytest.mark.parametrize(
    "direction, lam, mu, message",
    [
        ("D", 2, 1, "direction must be a Direction, got 'D'"),
        (Direction.DOWN, True, True, "lam must be an int, got True"),
        (Direction.UP, 2, True, "mu must be an int, got True"),
        (Direction.DOWN, 2.0, 1, "lam must be an int, got 2.0"),
        (Direction.UP, 4, 1.5, "mu must be an int, got 1.5"),
    ],
    ids=["direction-string", "lam-bool", "mu-bool", "lam-float", "mu-float"],
)
def test_stream_spec_rejects_bad_field_types(direction, lam, mu, message):
    """A string direction would count as upstream, a bool as 1, and a float
    would fail later inside ``math.lcm``: each is rejected when the spec is
    built, naming the field."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StreamSpec(direction, lam, mu)


def test_instance_rejects_a_stream_that_is_not_a_stream_spec():
    with pytest.raises(ValueError, match="^stream 1 must be a StreamSpec, got 'x'$"):
        PeriodicInstance((StreamSpec(Direction.DOWN, 2, 1), "x"))


def test_empty_instance_and_schedule_are_rejected():
    with pytest.raises(ValueError, match="^instance requires at least one stream$"):
        PeriodicInstance(())
    with pytest.raises(ValueError, match="^schedule must be non-empty$"):
        Schedule((), Direction.DOWN)


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
    result = simulate(lambda t: arrival_at(inst, t), sched.actions, 20, sched.initial_alignment)
    assert result.total_wait == 0
    assert result.n_arrivals == 20


def test_simulate_wait_then_serve():
    """Arrivals D at t = 1 mod 3 with schedule (W, D, U): the t=1 vessel
    waits one period, so the average cost per period is 1/3."""
    inst = _inst((Direction.DOWN, 3, 1))
    sched = Schedule((W, D, U), Direction.DOWN)
    result = simulate(lambda t: arrival_at(inst, t), sched.actions, 12, sched.initial_alignment)
    assert result.per_period_cost[0] == 1
    assert Fraction(result.total_wait, result.horizon) == Fraction(1, 3)


def test_simulate_detects_misaligned_action():
    with pytest.raises(InfeasibleScheduleError):
        simulate([(1, 0)], [U], 1, initial_alignment=Direction.DOWN)


@pytest.mark.parametrize("shape", [list, tuple, iter, lambda seq: (lambda t: seq[t - 1])],
                         ids=["list", "tuple", "iterator", "callable"])
@pytest.mark.parametrize("trace", [[D, U, U, W], (D, U, U, W, D), (D, U, U)], ids=["exact", "longer", "cycled"])
def test_simulate_names_the_misaligned_period_for_each_input_shape(shape, trace):
    with pytest.raises(InfeasibleScheduleError, match="^period 3: action processes U but lock is aligned D$"):
        simulate(shape([(1, 0), (0, 1), (1, 1), (0, 0)]), trace, 4, Direction.DOWN)


def test_simulate_tuple_arrivals_equal_reference():
    arrivals = ((2, 0), (0, 1), (1, 1), (0, 3), (1, 0))
    for trace, alignment in (([D, U, W, D, U], Direction.DOWN), ([U, D, U, W, W, D], Direction.UP)):
        assert simulate(arrivals, trace, 5, alignment) == reference_simulate(arrivals, trace, 5, alignment)


def test_simulate_sequence_arrivals_past_end_are_zero():
    result = simulate([(1, 0)], [D, U, D, U], 4, Direction.DOWN)
    assert result.total_wait == 0
    assert result.n_arrivals == 1


def test_simulate_short_action_sequence_cycles_as_its_schedule():
    # A sequence shorter than the horizon repeats from period 1, as the
    # Schedule of the same actions does, so (D,) misaligns at period 2.
    arrivals = [(1, 0), (0, 1), (1, 1), (0, 0), (2, 1)]
    result = simulate(arrivals, [W, D, U], 5, Direction.DOWN)
    assert result == simulate(arrivals, [W, D, U, W, D], 5, Direction.DOWN)
    assert result.per_period_cost == (1, 1, 1, 1, 1)
    with pytest.raises(InfeasibleScheduleError, match="^period 2: action processes D but lock is aligned U$"):
        simulate([(0, 0)], [D], 2, Direction.DOWN)


def test_simulate_rejects_an_empty_action_sequence():
    for actions in ([], ()):
        with pytest.raises(ValueError, match="^action sequence must be non-empty$"):
            simulate([(1, 0)], actions, 3, Direction.DOWN)


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
        simulate([(0, 0)] * 6, sched.actions, 6, sched.initial_alignment)


def test_simulate_schedule_partial_cycle_matches_per_step_replay():
    inst = _inst((Direction.DOWN, 3, 1), (Direction.UP, 4, 2))
    sched = Schedule((W, D, U, D, W, U, W), Direction.DOWN)
    horizon = 3 * sched.period + 4
    cyclic = simulate(lambda t: arrival_at(inst, t), sched.actions, horizon, sched.initial_alignment)
    steps = [sched.action_at(t) for t in range(1, horizon + 1)]
    replay = simulate(lambda t: arrival_at(inst, t), steps, horizon, initial_alignment=Direction.DOWN)
    assert cyclic.per_period_cost == replay.per_period_cost
    assert cyclic == replay


def test_cyclic_average_rejects_all_wait_schedule():
    with pytest.raises(ValueError, match="all-wait"):
        cyclic_average(_inst((Direction.DOWN, 2, 1)), Schedule((W, W), Direction.DOWN))


def test_cyclic_average_single_service_fails_in_second_repetition():
    # One processing action flips the alignment once per repetition, so the
    # error shows at the second repetition's service, period 3 + 2, past
    # period + 1; the warm-up reaches into that repetition.
    with pytest.raises(InfeasibleScheduleError, match="^period 5: action processes D but lock is aligned U$"):
        cyclic_average(_inst((Direction.DOWN, 2, 1)), Schedule((W, D, W), Direction.DOWN))


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


_pairs = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def _simulations(draw):
    """Arguments for ``simulate``: arrivals as a list, tuple or iterator
    shorter than, equal to or longer than the horizon, or as a callable;
    actions as a list that is empty, shorter than the horizon (cycled), as
    long as it or longer.  Actions alternate sides from the drawn initial
    alignment, and one of them is sometimes overwritten, so infeasible traces
    are drawn too.  ``seq`` is the arrivals as a list."""
    horizon = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["shorter", "equal", "longer", "callable"]))
    sizes = {"shorter": (0, horizon - 1), "equal": (horizon, horizon)}.get(shape, (horizon + 1, horizon + 10))
    seq = draw(st.lists(_pairs, min_size=sizes[0], max_size=sizes[1]))
    arrivals = (lambda t: seq[t - 1]) if shape == "callable" else draw(st.sampled_from([list, tuple, iter]))(seq)

    lengths = {"empty": (0, 0), "short": (1, max(1, horizon - 1)), "exact": (horizon, horizon)}
    kind = draw(st.sampled_from(["empty", "short", "exact", "long"]))
    length = draw(st.integers(*lengths.get(kind, (horizon + 1, 2 * horizon))))
    alignment = draw(st.sampled_from(Direction))
    side, actions = alignment, []
    for process in draw(st.lists(st.booleans(), min_size=length, max_size=length)):
        actions.append(Action.process(side) if process else W)
        side = side.flip() if process else side
    if actions and draw(st.booleans()):
        actions[draw(st.integers(0, length - 1))] = draw(st.sampled_from(Action))
    return arrivals, actions, horizon, alignment, seq


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # InfeasibleScheduleError included
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(_simulations())
def test_simulate_equals_reference_and_keeps_invariants(case):
    """Besides matching the reference, ``simulate`` reads the arrivals for
    periods 1..p only: p is the horizon, the period an alignment error names,
    or 0 for an empty trace."""
    arrivals, actions, horizon, alignment, seq = case
    calls = []
    source = (lambda t: calls.append(t) or arrivals(t)) if callable(arrivals) else arrivals
    fast = _outcome(simulate, source, actions, horizon, alignment)
    assert fast == _outcome(reference_simulate, arrivals if callable(arrivals) else seq, actions, horizon, alignment)
    if not isinstance(fast, tuple):
        read = horizon
    elif fast[0] is InfeasibleScheduleError:
        read = int(re.match(r"period (\d+): ", fast[1]).group(1))
    else:
        read = 0
    if callable(arrivals):
        assert calls == list(range(1, read + 1))
    elif isinstance(arrivals, Iterator):
        assert next(arrivals, None) == (seq[read] if read < len(seq) else None)
    if isinstance(fast, tuple):
        return
    assert len(fast.per_period_cost) == horizon
    assert min(fast.per_period_cost) >= 0
    assert fast.total_wait == sum(fast.per_period_cost)
    assert fast.n_arrivals == sum(a_d + a_u for a_d, a_u in seq[:horizon])


def _instances(max_lam):
    """Instances of one to four streams with periodicities up to ``max_lam``."""
    stream = st.integers(1, max_lam).flatmap(
        lambda lam: st.tuples(st.sampled_from(Direction), st.just(lam), st.integers(1, lam))
    )
    return st.lists(stream, min_size=1, max_size=4).map(lambda specs: _inst(*specs))


@st.composite
def _cyclic_schedules(draw):
    """Schedules of period up to 12.  Half alternate sides from the drawn
    start at drawn processing periods, feasible exactly when they process an
    even number of times; half draw every letter freely, so misaligned
    actions fall anywhere.  Waits may fall anywhere in both."""
    period = draw(st.integers(1, 12))
    start = draw(st.sampled_from(Direction))
    if draw(st.booleans()):
        side, actions = start, []
        for process in draw(st.lists(st.booleans(), min_size=period, max_size=period)):
            actions.append(Action.process(side) if process else W)
            side = side.flip() if process else side
    else:
        actions = draw(st.lists(st.sampled_from(Action), min_size=period, max_size=period))
    return Schedule(tuple(actions), start)


@settings(max_examples=500, deadline=None)
@given(_instances(9), _cyclic_schedules())
def test_cyclic_average_equals_two_cycle_reference(instance, schedule):
    """One warm-up to the second service plus one joint cycle gives the same
    value as measuring the second of two joint cycles, and the same error
    (type and message) for all-wait and misaligned schedules."""
    assert _outcome(cyclic_average, instance, schedule) == _outcome(reference_cyclic_average, instance, schedule)


@settings(max_examples=200, deadline=None)
@given(_instances(14), st.integers(-60, 60), st.integers(-1, 80))
def test_arrival_pattern_equals_reference(instance, first, length):
    """``arrival_counts`` over a random window, periods <= 0 included (an
    empty window when ``length`` is 0 or -1), equals one ``arrival_at`` call
    per period of the pattern; the hyper-period from period 1 is the arrival
    pattern itself."""
    last = first + length - 1
    assert arrival_counts(instance, first, last) == reference_arrival_counts(instance, first, last)
    lam = lcm_period(instance)
    assert arrival_counts(instance, 1, lam) == reference_arrival_counts(instance, 1, lam)


# Lambda = 3 with arrivals on both sides: (kind, schedule) pairs covering each
# way through ``cyclic_average``'s horizon choice.
_BLOCK_INSTANCE = _inst((Direction.DOWN, 3, 1), (Direction.UP, 3, 2))
BLOCK_CASES = [
    ("Lambda-periodic", Schedule((D, W, U) * 3, Direction.DOWN)),
    ("Lambda-periodic, one block", Schedule((D, U, W), Direction.DOWN)),
    ("not Lambda-periodic", Schedule((D, W, U, D, U, W), Direction.DOWN)),
    ("period not a multiple of Lambda", Schedule((D, U, W, D, U, W, W, D, U, W), Direction.DOWN)),
    ("infeasible, odd block", Schedule((W, D, W) * 2, Direction.DOWN)),
    ("infeasible, odd block, three blocks", Schedule((D, U, D) * 3, Direction.DOWN)),
    ("infeasible within a block", Schedule((D, D, U) * 2, Direction.DOWN)),
    ("all waits", Schedule((W, W, W) * 2, Direction.DOWN)),
]


@pytest.mark.parametrize("kind, schedule", BLOCK_CASES, ids=[kind for kind, _ in BLOCK_CASES])
def test_cyclic_average_block_cases_equal_reference(kind, schedule):
    """The one-hyper-period measurement of a schedule that repeats every
    Lambda periods gives the two-cycle reference's value, and an infeasible
    one fails with the same error text at the same period."""
    assert _outcome(cyclic_average, _BLOCK_INSTANCE, schedule) == _outcome(
        reference_cyclic_average, _BLOCK_INSTANCE, schedule
    )


@st.composite
def _block_schedules(draw):
    """An instance and a schedule of r copies of a Lambda-action block
    (alternating sides or free letters, waits anywhere), sometimes with one
    action changed or a few actions appended, so that Lambda-periodic,
    non-periodic, non-multiple and infeasible schedules are all drawn."""
    instance = draw(_instances(6))
    lam = lcm_period(instance)
    start = draw(st.sampled_from(Direction))
    if draw(st.booleans()):
        side, block = start, []
        for process in draw(st.lists(st.booleans(), min_size=lam, max_size=lam)):
            block.append(Action.process(side) if process else W)
            side = side.flip() if process else side
    else:
        block = draw(st.lists(st.sampled_from(Action), min_size=lam, max_size=lam))
    actions = block * draw(st.integers(1, 3))
    change = draw(st.sampled_from(["none", "one action", "appended"]))
    if change == "one action":
        actions[draw(st.integers(0, len(actions) - 1))] = draw(st.sampled_from(Action))
    elif change == "appended":
        actions += draw(st.lists(st.sampled_from(Action), min_size=1, max_size=lam))
    return instance, Schedule(tuple(actions), start)


@settings(max_examples=400, deadline=None)
@given(_block_schedules())
def test_cyclic_average_of_repeated_blocks_equals_two_cycle_reference(case):
    instance, schedule = case
    assert _outcome(cyclic_average, instance, schedule) == _outcome(reference_cyclic_average, instance, schedule)
