import json
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    oracle_windowed_cost,
    reference_arrival_counts,
    reference_generate,
    reference_solve_window,
    reference_terminal_charges,
)

from locksched import dp
from locksched.rolling import (
    CASE_CHEAP,
    CASE_FULL,
    CASE_GAP,
    DEFAULT_WINDOW_CAP,
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
    arrival_counts,
    lcm_period,
    simulate,
)
from locksched.dp import _terminal_charges, solve, solve_window


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
    with pytest.raises(ValueError, match="epsilon must be positive"):
        default_window(2, float("nan"))
    # 40*k^2/epsilon overflows to inf, which has no ceiling.
    with pytest.raises(ValueError, match="epsilon 1e-320 is too small"):
        default_window(2, 1e-320)
    assert default_window(2, 1e-300) > DEFAULT_WINDOW_CAP


def test_next_chunk_validation():
    with pytest.raises(ValueError):
        next_chunk(ALTERNATING, start=0, window=10, epsilon=1.0)
    with pytest.raises(ValueError):
        next_chunk(ALTERNATING, start=1, window=2, epsilon=1.0)
    with pytest.raises(ValueError):
        next_chunk(ALTERNATING, start=1, window=10, epsilon=0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        next_chunk(ALTERNATING, start=1, window=10, epsilon=float("nan"))


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
def _small_instances(draw, max_lam=8):
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.integers(1, max_lam))
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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=6))
def test_terminal_charges_equal_per_period_reference(counts):
    """The window's last three counts, behind empty periods, give every
    state's terminal charge, for windows shorter than the three periods a
    charge reaches back as well."""
    assert _terminal_charges(([(0, 0)] * 3 + counts)[-3:]) == reference_terminal_charges(counts)


_COUNTS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(_COUNTS, st.sampled_from((None, Direction.DOWN, Direction.UP)))
def test_solve_window_equals_two_lane_reference(counts, position):
    """One lane from both entries, Up a half higher, gives the cost, the
    actions and the entry of the cheaper entry's own lane."""
    assert solve_window(counts, position) == reference_solve_window(counts, position)


@pytest.mark.parametrize(
    "counts",
    [[(0, 0)], [(0, 0)] * 7, [(1, 1)] * 5, [(2, 2), (0, 0), (0, 0), (1, 1)], [(3, 3), (0, 0), (1, 1), (1, 1), (0, 0)]],
    ids=["empty-1", "empty-7", "both-every-period", "both-after-gap", "mixed"],
)
def test_solve_window_free_tie_enters_down(counts):
    """Windows with equal counts on both sides cost the same from either
    entry, and a free entry then takes DOWN."""
    down, up = (reference_solve_window(counts, entry) for entry in (Direction.DOWN, Direction.UP))
    assert down.cost == up.cost
    free = solve_window(counts, None)
    assert free == down and free.entry_alignment is Direction.DOWN


def test_free_window_runs_one_lane(monkeypatch):
    run_lane = dp.lane
    starts = []

    def counted_lane(start, steps):
        starts.append((start, steps))
        return run_lane(start, steps)

    monkeypatch.setattr(dp, "lane", counted_lane)
    inst = _inst((Direction.DOWN, 3, 1), (Direction.UP, 4, 2))
    windowed_optimum(inst, 1, 30)
    assert len(starts) == 1
    # A window of 400 periods at Lambda = 12 walks a first piece, ten middle
    # pieces of P = 36 periods and a remainder of 4, and runs each (piece,
    # normalised start) once, both entries in one lane.
    starts.clear()
    windowed_optimum(inst, 1, 400)
    down, up = (dp.ALL_STATES.index(dp.LockState(entry, 0, 0)) for entry in Direction)
    assert (starts[0][0][down], starts[0][0][up]) == (0, 0.5)
    runs = [(tuple(steps), tuple(start)) for start, steps in starts]
    assert len(set(runs)) == len(runs) == 3


def _piece_length(lam):
    """P, the length of a memoised window's middle pieces at hyper-period ``lam``."""
    return lam * -(-dp._HEAD // lam)


@st.composite
def _periodic_windows(draw):
    """(instance, start, periods): an instance of Lambda <= 60 and a window
    of 1 to 8 * Lambda + 2P periods from a random start, or of 3P - 1, 3P,
    4P (remainder zero), 4P + 1 or 5P + Lambda periods."""
    lam = draw(st.integers(1, 60))
    divisors = [d for d in range(1, lam + 1) if lam % d == 0]
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        stream_lam = draw(st.sampled_from(divisors))
        specs.append((draw(st.sampled_from(Direction)), stream_lam, draw(st.integers(1, stream_lam))))
    inst = _inst(*specs)
    lam = lcm_period(inst)
    size = _piece_length(lam)
    special = (3 * size - 1, 3 * size, 4 * size, 4 * size + 1, 5 * size + lam)
    periods = draw(st.one_of(st.integers(1, 8 * lam + 2 * size), st.sampled_from(special)))
    return inst, draw(st.integers(1, 200)), periods


@settings(max_examples=200, deadline=None)
@given(_periodic_windows(), st.sampled_from((None, Direction.DOWN, Direction.UP)))
def test_memoised_solve_window_equals_one_piece_and_reference(window, position):
    """Cutting a window into pieces that repeat every hyper-period changes
    nothing: cost, actions and entry equal the one-piece lane's and the
    two-lane reference's, below 3P and from 3P on, with and without a
    remainder, from every entry."""
    inst, start, periods = window
    counts = arrival_counts(inst, start, start + periods - 1)
    memoised = solve_window(counts, position, lcm_period(inst))
    assert memoised == solve_window(counts, position) == reference_solve_window(counts, position)


def test_solve_window_logs_periods_and_lane_steps(caplog):
    """One DEBUG record per window solve.  The dense rolling plan's window of
    361 periods at Lambda = 30 runs a first piece of P = 60 periods, one
    middle piece (its four repeats are lookups) and a remainder of 1; a
    window shorter than 3P is one piece, run whole."""
    caplog.set_level(logging.DEBUG, logger="locksched.dp")
    dense = _inst((Direction.DOWN, 2, 1), (Direction.UP, 3, 2), (Direction.UP, 5, 4))
    windowed_optimum(dense, 1, 361)
    windowed_optimum(dense, 1, 179)
    memoised, one_piece = caplog.records
    assert memoised.levelno == logging.DEBUG and memoised.name == "locksched.dp"
    assert (memoised.periods, memoised.lane_steps) == (361, 121)
    assert memoised.lane_steps < memoised.periods
    assert (one_piece.periods, one_piece.lane_steps) == (179, 179)
    assert memoised.getMessage() == "window of 361 periods, 121 lane steps"


def test_solve_window_rejects_an_lcm_the_counts_do_not_repeat_with():
    """A wrong hyper-period fails loudly instead of reusing pieces that
    differ; a multiple of the right one is accepted."""
    counts = arrival_counts(_inst((Direction.DOWN, 3, 1), (Direction.UP, 4, 2)), 1, 200)  # Lambda = 12
    for wrong in (8, 18, 199):
        with pytest.raises(ValueError, match=rf"^window counts do not repeat every lcm = {wrong} periods$"):
            solve_window(counts, None, wrong)
    with pytest.raises(ValueError, match=r"^lcm must be >= 1, got 0$"):
        solve_window(counts, None, 0)
    assert solve_window(counts, None, 24) == solve_window(counts, None, 12) == solve_window(counts, None)


def test_windowed_optimum_cap():
    # Rejected before the window's arrivals are built.
    with pytest.raises(WindowCapExceededError):
        windowed_optimum(ALTERNATING, 1, DEFAULT_WINDOW_CAP + 1)


def test_windowed_optimum_rejects_start_before_period_1():
    with pytest.raises(ValueError, match=r"period must be >= 1, got 0"):
        windowed_optimum(ALTERNATING, 0, 5)


def test_windowed_optimum_rejects_empty_window():
    with pytest.raises(ValueError, match=r"^empty window \[5, 4\]$"):
        windowed_optimum(ALTERNATING, 5, 4)


def test_next_chunk_window_beyond_cap_fails_without_scanning_it():
    # No gap ever comes, and the gap scan stops at the cap instead of
    # reading a billion periods.
    with pytest.raises(WindowCapExceededError):
        next_chunk(ALTERNATING, 1, 10**9, 1.0)


def test_next_chunk_window_beyond_cap_takes_an_early_gap():
    # Periods 3..8 bring no arrivals, so the scan stops at period 4 and the
    # window past the cap is never checked against it.
    chunk = next_chunk(_inst((Direction.DOWN, 8, 1), (Direction.UP, 8, 2)), 1, 10**9, 1.0)
    assert chunk.case == CASE_GAP
    assert (chunk.start, chunk.end) == (1, 4)


def test_gap_case_ends_at_gap_with_free_handoff():
    inst = _inst((Direction.DOWN, 8, 1), (Direction.UP, 8, 2))
    chunk = next_chunk(inst, start=1, window=8, epsilon=1.0)
    assert chunk.case == CASE_GAP
    assert chunk.free_tail == 2
    assert chunk.next_position is None
    assert chunk.actions[-2:] == (Action.WAIT, Action.WAIT)


def test_cheap_case_returns_half_window_plus_one():
    chunk = next_chunk(ALTERNATING, start=1, window=160, epsilon=1.0)
    assert chunk.case == CASE_CHEAP
    assert chunk.end == 1 + 80 + 1 - 1 + 1  # start + window // 2 + 1
    assert len(chunk.actions) == chunk.end - chunk.start + 1
    assert chunk.cost == 0
    assert chunk.next_position is not None


def test_full_case_appends_two_reorientation_periods():
    # Coinciding streams conflict every period-pair, so a large epsilon
    # pushes the threshold 2k/eps below the window cost.
    inst = _inst((Direction.DOWN, 2, 2), (Direction.UP, 2, 2))
    chunk = next_chunk(inst, start=1, window=12, epsilon=10.0)
    assert chunk.case == CASE_FULL
    assert chunk.end == 1 + 12 + 2
    assert chunk.free_tail == 2
    assert chunk.next_position is None


def test_generate_single_chunk_matches_next_chunk():
    plan = generate(ALTERNATING, 1, 1, 1.0, window=20)
    chunk = next_chunk(ALTERNATING, start=1, window=20, epsilon=1.0)
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


@settings(max_examples=200, deadline=None)
@given(
    _small_instances(),
    st.integers(1, 200),
    st.sampled_from((None, 4, 6, 10, 20)),
    st.integers(1, 6),
    st.sampled_from((0.25, 0.5, 1.0, 50.0)),
)
def test_generate_equals_two_pass_reference(inst, start, window, n_chunks, epsilon):
    """One-pass assembly fills each free tail exactly as the two-pass
    reference does, over gap, cheap and full chunks and both tail lengths."""
    plan = generate(inst, start, n_chunks, epsilon, window=window)
    assert plan == reference_generate(inst, start, n_chunks, epsilon, window=window)


@settings(max_examples=60, deadline=None)
@given(
    _small_instances(),
    st.integers(1, 200),
    st.integers(0, 150),
    st.integers(1, 4),
    st.sampled_from((0.25, 1.0, 50.0)),
)
def test_generate_with_memoised_windows_equals_reference(inst, start, extra, n_chunks, epsilon):
    """Windows of at least 3P periods, whose lanes walk the memo, give the
    two-pass reference's plan and the plan of one-piece windows (a head so
    long that P exceeds every window)."""
    window = 3 * _piece_length(lcm_period(inst)) - 1 + extra
    plan = generate(inst, start, n_chunks, epsilon, window=window)
    assert plan == reference_generate(inst, start, n_chunks, epsilon, window=window)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dp, "_HEAD", 10**6)
        assert plan == generate(inst, start, n_chunks, epsilon, window=window)


def _plan_cost_and_bound(inst, plan, epsilon):
    """The plan's simulated waiting from its start, queues empty, and
    (1 + epsilon) * opt * span + 2k per chunk.  ``simulate`` raises on an
    alternation violation, so a plan that does not replay fails here."""
    span = len(plan.actions)
    arrivals = arrival_counts(inst, plan.chunks[0].start, plan.chunks[0].start + span - 1)
    run = simulate(arrivals, list(plan.actions), span, initial_alignment=plan.initial_alignment)
    bound = (1 + Fraction(epsilon)) * solve(inst).avg_cost * span + 2 * inst.k * len(plan.chunks)
    return run.total_wait, bound


@settings(max_examples=200, deadline=None)
@given(
    _small_instances(max_lam=10),
    st.integers(1, 200),
    st.sampled_from((None, 4, 6, 10, 20)),
    st.integers(1, 6),
    st.sampled_from((0.25, 0.5, 1.0)),
)
def test_generate_within_one_plus_epsilon_of_optimum(inst, start, window, n_chunks, epsilon):
    plan = generate(inst, start, n_chunks, epsilon, window=window)
    cost, bound = _plan_cost_and_bound(inst, plan, epsilon)
    assert cost <= bound


def test_one_plus_epsilon_slack_covers_every_chunk_case():
    """Slack for full-window chunks alone is not enough: both streams arrive
    at period 18, so ten gap chunks over periods 1..24 wait once, and
    (1 + epsilon) * opt * span is 8/15."""
    inst = _inst((Direction.UP, 9, 9), (Direction.DOWN, 10, 8))
    plan = generate(inst, 1, 10, 1.0)
    cost, bound = _plan_cost_and_bound(inst, plan, 1.0)
    assert {c.case for c in plan.chunks} == {CASE_GAP}
    assert (len(plan.actions), cost) == (24, 1)
    assert bound - 2 * inst.k * len(plan.chunks) == Fraction(8, 15)


def test_chunk_json_fields():
    chunk = next_chunk(ALTERNATING, start=1, window=10, epsilon=1.0)
    data = json.loads(chunk_to_json(chunk))
    assert data["start"] == 1
    assert data["case"] in (CASE_GAP, CASE_CHEAP, CASE_FULL)
    assert len(data["actions"]) == data["end"] - data["start"] + 1


def test_generate_zero_arrival_free_ride():
    """A stream with one arrival per long period leaves gaps everywhere."""
    inst = _inst((Direction.DOWN, 30, 1))
    plan = generate(inst, 2, 5, 1.0, window=10)
    assert all(c.cost == 0 for c in plan.chunks)


def _simulated_chunk_cost(inst, chunk):
    """The chunk's actions replayed on one ``arrival_at`` call per period from
    its entry alignment, queues empty at its start."""
    return simulate(
        lambda u: arrival_at(inst, chunk.start + u - 1),
        list(chunk.actions),
        len(chunk.actions),
        initial_alignment=chunk.entry_alignment,
    ).total_wait


@pytest.mark.parametrize(
    "specs, request_args, case",
    [
        (((Direction.DOWN, 8, 1), (Direction.UP, 8, 2)), (1, 8, 1.0), (CASE_GAP, 2)),
        (((Direction.DOWN, 3, 3), (Direction.DOWN, 4, 2)), (1, 8, 1.0), (CASE_GAP, 1)),
        (((Direction.DOWN, 2, 1), (Direction.UP, 2, 2)), (1, 16, 1.0), (CASE_CHEAP, 0)),
        (((Direction.DOWN, 2, 2), (Direction.UP, 2, 2)), (1, 12, 10.0), (CASE_FULL, 2)),
    ],
    ids=["gap-tail-2", "gap-tail-1", "cheap", "full"],
)
def test_chunk_cost_equals_simulation_in_each_case(specs, request_args, case):
    inst = _inst(*specs)
    chunk = next_chunk(inst, *request_args)
    assert (chunk.case, chunk.free_tail) == case
    assert chunk.cost == _simulated_chunk_cost(inst, chunk)


@settings(max_examples=300, deadline=None)
@given(
    _small_instances(),
    st.integers(1, 30),
    st.integers(4, 20),
    st.sampled_from((0.25, 1.0, 10.0)),
    st.sampled_from((None, Direction.DOWN, Direction.UP)),
)
def test_chunk_cost_equals_simulation(inst, start, window, epsilon, position):
    """A chunk's cost is its actions' simulated waiting, rewritten free tail
    included, in every case."""
    chunk = next_chunk(inst, start, window, epsilon, position)
    assert chunk.cost == _simulated_chunk_cost(inst, chunk)


@settings(max_examples=300, deadline=None)
@given(
    _small_instances(),
    st.integers(1, 30),
    st.integers(4, 40),
    st.sampled_from((None, Direction.DOWN, Direction.UP)),
)
def test_gap_chunk_is_empty_after_its_first_gap_period(inst, start, window, position):
    """An exact gap head has served every vessel by the end of the gap's
    first period, so a gap chunk always frees at least its last period and
    hands off a free position."""
    chunk = next_chunk(inst, start, window, 1.0, position)
    if chunk.case != CASE_GAP:
        return
    assert chunk.free_tail in (1, 2)
    assert chunk.next_position is None
    run = simulate(
        lambda u: arrival_at(inst, chunk.start + u - 1),
        list(chunk.actions),
        len(chunk.actions),
        initial_alignment=chunk.entry_alignment,
    )
    assert run.per_period_cost[-2] == 0


@pytest.mark.parametrize("gap_at", [1, 63, 64, 65, 191, 192, 250, 281])
def test_gap_scan_finds_the_first_gap_across_blocks(gap_at):
    """A 300-period hyper-period with arrivals in every period but gap_at and
    gap_at + 1.  The gap scan reads the window in doubling blocks, so a gap
    straddling a block boundary must still be found; a gap ending past the
    window's last period t + window is not a gap of this chunk."""
    lam = 300
    inst = _inst(*[(Direction.DOWN, lam, mu) for mu in range(1, lam + 1) if mu not in (gap_at, gap_at + 1)])
    chunk = next_chunk(inst, start=1, window=280, epsilon=1.0)
    if gap_at + 1 <= 281:
        assert (chunk.case, chunk.end) == (CASE_GAP, gap_at + 1)
    else:
        assert chunk.case != CASE_GAP


def _full_scan_case_and_end(inst, start, window, epsilon, position):
    """The chunk's case and end from one scan of the whole window's counts,
    read one ``arrival_at`` call per period, and a one-piece window solve."""
    counts = reference_arrival_counts(inst, start, start + window)
    gap = next((i for i in range(len(counts) - 1) if counts[i] == (0, 0) == counts[i + 1]), None)
    if gap is not None:
        return CASE_GAP, start + gap + 1
    if solve_window(counts, position).cost <= 2 * inst.k / epsilon:
        return CASE_CHEAP, start + window // 2 + 1
    return CASE_FULL, start + window + 2


@settings(max_examples=300, deadline=None)
@given(
    _small_instances(),
    st.integers(1, 300),
    st.integers(1, 60),
    st.sampled_from((0.25, 1.0, 10.0)),
    st.sampled_from((None, Direction.DOWN, Direction.UP)),
)
def test_gap_scan_up_to_a_hyper_period_equals_full_window_scan(inst, start, extra, epsilon, position):
    """Gaps repeat every Lambda, so a scan that stops at period start + Lambda
    finds the window's first gap, or that it has none, on windows longer
    than Lambda + 1."""
    window = max(lcm_period(inst) + 1 + extra, 4)
    chunk = next_chunk(inst, start, window, epsilon, position)
    assert (chunk.case, chunk.end) == _full_scan_case_and_end(inst, start, window, epsilon, position)


@pytest.mark.parametrize(
    "start, offset",
    [(50, 0), (1, 49), (60, 90), (51, 99), (52, None)],
    ids=["at-start", "before-lambda", "past-lambda", "ends-at-start-plus-lambda", "absent"],
)
def test_gap_scan_finds_the_gap_within_one_hyper_period(start, offset):
    """A 100-period hyper-period with arrivals in every period but 50 and 51
    (and, for the absent case, in every period).  The first gap from
    ``start`` lies at ``offset``: in the first hyper-period, in the second,
    or ending exactly at period start + Lambda, the last the scan reads."""
    lam = 100
    gap = () if offset is None else (50, 51)
    inst = _inst(*[(Direction.DOWN, lam, mu) for mu in range(1, lam + 1) if mu not in gap])
    chunk = next_chunk(inst, start, 280, 1.0)
    assert (chunk.case, chunk.end) == _full_scan_case_and_end(inst, start, 280, 1.0, None)
    if offset is None:
        assert chunk.case != CASE_GAP
    else:
        assert (chunk.case, chunk.end) == (CASE_GAP, start + offset + 1)
