import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import oracle_windowed_cost

from locksched.rolling import (
    CASE_CHEAP,
    CASE_FULL,
    CASE_GAP,
    DEFAULT_WINDOW_CAP,
    Chunk,
    ChunkRequest,
    WindowCapExceededError,
    chunk_to_json,
    default_window,
    generate,
    next_chunk,
    windowed_optimum,
)
from locksched.schedule import (
    Action,
    Direction,
    PeriodicInstance,
    StreamSpec,
    arrival_at,
    simulate,
)
from locksched.dp import solve


def _inst(*specs):
    return PeriodicInstance(tuple(StreamSpec(d, lam, mu) for d, lam, mu in specs))


ALTERNATING = _inst((Direction.DOWN, 2, 1), (Direction.UP, 2, 2))


def test_default_window():
    assert default_window(2, 1.0) == 160
    assert default_window(2, 0.5) == 320
    assert default_window(1, 100.0) == 4  # floor guard
    assert default_window(3, 7.0) % 2 == 0
    with pytest.raises(ValueError):
        default_window(2, 0)


def test_chunk_request_validation():
    with pytest.raises(ValueError):
        ChunkRequest(start=0, window=10, epsilon=1.0)
    with pytest.raises(ValueError):
        ChunkRequest(start=1, window=2, epsilon=1.0)
    with pytest.raises(ValueError):
        ChunkRequest(start=1, window=10, epsilon=0)


def test_windowed_optimum_serve_on_arrival():
    sol = windowed_optimum(ALTERNATING, 1, 12)
    assert sol.cost == 0
    assert sol.entry_alignment is Direction.DOWN


def test_windowed_optimum_fixed_never_beats_free():
    for t_end in (6, 9, 13):
        free = windowed_optimum(ALTERNATING, 1, t_end)
        fixed = windowed_optimum(ALTERNATING, 1, t_end, Direction.UP)
        assert fixed.cost >= free.cost


def test_windowed_optimum_matches_simulation():
    rng = random.Random(5)
    for _ in range(15):
        specs = [
            (
                rng.choice((Direction.DOWN, Direction.UP)),
                (lam := rng.randint(2, 5)),
                rng.randint(1, lam),
            )
            for _ in range(rng.randint(1, 3))
        ]
        inst = _inst(*specs)
        start = rng.randint(1, 8)
        sol = windowed_optimum(inst, start, start + rng.randint(5, 20))
        res = simulate(
            lambda t: arrival_at(inst, start + t - 1),
            list(sol.actions),
            len(sol.actions),
            initial_alignment=sol.entry_alignment,
        )
        assert res.total_wait == sol.cost


@st.composite
def _small_instances(draw):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.integers(1, 8))
        specs.append((draw(st.sampled_from(Direction)), lam, draw(st.integers(1, lam))))
    return _inst(*specs)


@settings(max_examples=200, deadline=None)
@given(_small_instances(), st.integers(1, 20), st.integers(1, 10))
def test_windowed_optimum_equals_exhaustive_oracle(inst, t_start, n):
    t_end = t_start + n - 1
    costs = {}
    for entry in Direction:
        costs[entry] = oracle_windowed_cost(inst, t_start, t_end, entry)
        assert windowed_optimum(inst, t_start, t_end, entry).cost == costs[entry]
    # A free entry takes DOWN unless UP is strictly cheaper.
    expected = Direction.UP if costs[Direction.UP] < costs[Direction.DOWN] else Direction.DOWN
    free = windowed_optimum(inst, t_start, t_end)
    assert (free.cost, free.entry_alignment) == (costs[expected], expected)


def test_windowed_optimum_cap():
    # Rejected before the window's arrivals are built.
    with pytest.raises(WindowCapExceededError):
        windowed_optimum(ALTERNATING, 1, DEFAULT_WINDOW_CAP + 1)


def test_gap_case_ends_at_gap_with_free_handoff():
    inst = _inst((Direction.DOWN, 8, 1), (Direction.UP, 8, 2))
    chunk = next_chunk(inst, ChunkRequest(start=1, window=8, epsilon=1.0))
    assert chunk.case == CASE_GAP
    assert chunk.free_tail == 2
    assert chunk.next_position is None
    assert chunk.next_start == chunk.end + 1
    assert chunk.actions[-2:] == (Action.WAIT, Action.WAIT)


def test_cheap_case_returns_half_window_plus_one():
    chunk = next_chunk(ALTERNATING, ChunkRequest(start=1, window=160, epsilon=1.0))
    assert chunk.case == CASE_CHEAP
    assert chunk.end == 1 + 80 + 1 - 1 + 1  # start + window // 2 + 1
    assert len(chunk.actions) == chunk.end - chunk.start + 1
    assert chunk.cost == 0
    assert chunk.next_position is not None


def test_full_case_appends_two_reorientation_periods():
    # Coinciding streams conflict every period-pair, so a large epsilon
    # pushes the threshold 2k/eps below the window cost.
    inst = _inst((Direction.DOWN, 2, 2), (Direction.UP, 2, 2))
    request = ChunkRequest(start=1, window=12, epsilon=10.0)
    chunk = next_chunk(inst, request)
    assert chunk.case == CASE_FULL
    assert chunk.end == 1 + 12 + 2
    assert chunk.free_tail == 2
    assert chunk.next_position is None


def test_generate_single_chunk_matches_next_chunk():
    plan = generate(ALTERNATING, 1, 1, 1.0, window=20)
    chunk = next_chunk(ALTERNATING, ChunkRequest(start=1, window=20, epsilon=1.0))
    assert plan.chunks == (chunk,)


def test_generate_concatenation_is_feasible():
    rng = random.Random(9)
    for _ in range(10):
        specs = [
            (
                rng.choice((Direction.DOWN, Direction.UP)),
                (lam := rng.randint(2, 6)),
                rng.randint(1, lam),
            )
            for _ in range(rng.randint(1, 3))
        ]
        inst = _inst(*specs)
        plan = generate(inst, 1, 8, 1.0, window=12)
        # simulate() raises on any alternation violation
        simulate(lambda t: arrival_at(inst, t), list(plan.actions), len(plan.actions),
                 initial_alignment=plan.initial_alignment)


def test_generate_cost_within_bound_of_dp():
    inst = _inst((Direction.DOWN, 2, 2), (Direction.UP, 3, 3))
    eps = 1.0
    plan = generate(inst, 1, 10, eps, window=12)
    span = len(plan.actions)
    res = simulate(lambda t: arrival_at(inst, t), list(plan.actions), span,
                   initial_alignment=plan.initial_alignment)
    opt = solve(inst)
    full_chunks = sum(1 for c in plan.chunks if c.case == CASE_FULL)
    bound = (1 + eps) * float(opt.avg_cost) * span + 2 * inst.k * full_chunks
    assert res.total_wait <= bound


def test_chunk_json_fields():
    chunk = next_chunk(ALTERNATING, ChunkRequest(start=1, window=10, epsilon=1.0))
    data = json.loads(chunk_to_json(chunk))
    assert data["start"] == 1
    assert data["case"] in (CASE_GAP, CASE_CHEAP, CASE_FULL)
    assert len(data["actions"]) == data["end"] - data["start"] + 1


def test_generate_zero_arrival_free_ride():
    """A stream with one arrival per long period leaves gaps everywhere."""
    inst = _inst((Direction.DOWN, 30, 1))
    plan = generate(inst, 2, 5, 1.0, window=10)
    assert all(c.cost == 0 for c in plan.chunks)
