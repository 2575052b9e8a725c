"""Slow, independent references that the fast code is tested against.

``reference_solve_matching`` enumerates every candidate stream set and
scores its sorted assignment in integers, with the anchor rule of the
``anchored_streams`` docstring; ``fraction_solve_matching``, the original
enumerator, builds each candidate with ``fraction_anchored_streams`` and
scores it with ``fraction_assignment_cost``, and checks the integer one on
fixed instances.  Those two, with the sorted ``Fraction`` points of
``matching_points``, are ``anchored_streams`` and ``assignment_cost`` as
they were before both moved to integers.
``oracle_min_cost_bijection`` does not use the sorted assignment at all.
They are test-only, so scipy and numpy are test dependencies, not runtime
ones.  ``reference_anchor_rows`` finds each anchored row's lower bound with
one bisect per point, where ``matching._anchor_rows`` sweeps all rows of a
count at once.
``oracle_windowed_cost`` checks the rolling windows by simulating every
process/wait sequence.  ``reference_generate`` is the two-pass plan assembly
that ``rolling.generate`` replaced: it requests every chunk first, then fills
each free tail, finding the alignment with a per-action loop.
``reference_solve`` is the cyclic DP as nine lanes
over the whole horizon, which the memoised ``dp.solve`` must reproduce
exactly; its lanes run through ``reference_lane``,
``reference_lane_path`` and ``reference_path_actions``, the table-driven loop
over ``_TRANSITIONS`` with an 8-entry backpointer list per step that the
straight-line ``dp.lane`` replaced.  ``reference_min_cycle_mean`` builds the
Lambda-step min-plus transfer matrix from those lanes and the table step at
period 1, and takes the minimum cycle mean over cycles of 1 to 8
hyper-periods, the bound that the 8 * Lambda horizon of ``dp.solve`` must
reach.  Both build their slot costs period by period with ``slot_costs``
(which ``dp.lane`` forms inside its step from the counts of the three
periods before it) and their pattern with
``reference_arrival_counts`` (one ``arrival_at`` call per period, replaced
by the strided ``arrival_counts``); ``reference_solve`` checks its schedule
with ``reference_cyclic_average``, which measures the second of two simulated
joint cycles where ``cyclic_average`` warms up only to the second service.
``brute_force_optimal`` enumerates every cyclic action sequence of a given
period and sums the waits of each one's steady cycle; it reads only the
arrival pattern (from ``reference_arrival_counts``), so it is independent of
``dp`` and of ``simulate``.
``reference_simulate`` is the per-period simulator loop as it was before the
fast replay: a closure per arrival lookup and a cyclic index per period.
``reference_alternating``, ``reference_fifo``, ``reference_adv_fifo`` and
``reference_realized_periodic`` are the policies as they were, scored by
``reference_simulate``.  ``transition_cost`` is the cost of one transition
at one period, priced by ``slot_costs`` from the strided ``arrival_counts``
of the three periods before period t - shift; it checks those counts at
large and non-positive periods against ``reference_arrival_counts``.  These
references keep the paper-literal convention's
definition as a window shifted back by one period (``_SHIFT``), while
``dp.solve`` solves the canonical DP on the pattern delayed by one period.
``reference_terminal_charges`` is the per-state, per-period loop that
``dp._terminal_charges`` replaced with the slot costs of one empty period
past the window.
``reference_solve_window`` is the window solve with one lane per entry
orientation, which ``dp.solve_window`` replaced with one lane from both
entries, Up a half higher; its lanes are ``reference_lane`` over
``slot_costs`` rows, decoded by ``reference_lane_path`` and
``reference_path_actions``, and its charges ``reference_terminal_charges``,
so it shares no code with ``dp``'s kernel.
``reference_run_experiment`` is the experiment with no sharing: it fits every
(k, n, day, direction) and evaluates every (k, n, day) on its own with the
references above, and formats both reports with the package's writers.
``reference_parse_arrivals`` parses well-formed arrival text one row at a
time by the rule that ``parse_arrivals`` replaced: ``Direction(token)`` and
``fromisoformat(...).replace(second=0, microsecond=0, tzinfo=None)`` on
every row.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from datetime import date, datetime
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product
from operator import itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from locksched.arrivals import CSV_HEADER, ArrivalDataset, ArrivalRecord, MatchingInstance
from locksched.dp import (
    _INF,
    ALL_STATES,
    CANONICAL,
    DEFAULT_PERIOD_CAP,
    PAPER_LITERAL,
    OptimalResult,
    LockState,
    PeriodCapExceededError,
    WindowSolution,
    predecessors,
)
from locksched.experiment import ExperimentConfig, FitRow, ScheduleRow, fit_report_csv, schedule_report_csv
from locksched.matching import (
    CountMismatchError,
    MatchingSolution,
    Stream,
    StreamSet,
)
from locksched.policies import Arrivals, PolicyRun
from locksched.rolling import Chunk, GeneratedPlan, default_window, next_chunk
from locksched.schedule import (
    Action,
    ArrivalSource,
    Direction,
    InfeasibleScheduleError,
    PeriodicInstance,
    Schedule,
    SimulationResult,
    StreamSpec,
    arrival_at,
    arrival_counts,
    lcm_period,
    simulate,
)


# Periods the service window is shifted back, per transition-cost convention.
_SHIFT = {CANONICAL: 0, PAPER_LITERAL: 1}


class OracleSizeError(ValueError):
    """Instance too large for the requested oracle mode."""


def _compositions_nondecreasing(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _compositions_nondecreasing(total - first, parts - 1, first):
            yield (first,) + rest


def _compositions_all(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_all(total - first, parts - 1):
            yield (first,) + rest


def _anchor_tuples(counts: Tuple[int, ...], n: int, pruned: bool) -> Iterator[Tuple[int, ...]]:
    # For equal-count streams the candidate is symmetric under swapping the
    # streams, so anchors within an equal-count run are taken non-decreasing.
    def rec(i: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if i == len(counts):
            yield prefix
            return
        start = 0
        if pruned and i > 0 and counts[i] == counts[i - 1]:
            start = prefix[-1]
        for a in range(start, n):
            yield from rec(i + 1, prefix + (a,))

    yield from rec(0, ())


def reference_solve_matching(instance: MatchingInstance, k: int, prune: bool = True) -> MatchingSolution:
    """Optimal k-stream fit by enumeration of compositions and anchors,
    scored in integers.

    By the rule of ``anchored_streams``, the stream of count c anchored at
    arrival t has period lam = T/c and its first point at t - j*lam, for the
    largest j with j*lam < t: j = ceil(t*c/T) - 1.  Scaled by the lcm L of a
    composition's counts, every such point is whole, so each candidate's
    sorted assignment cost is an integer over L.  With ``prune`` the search
    visits only non-decreasing count tuples and multiplicity-aware anchor
    tuples; the unpruned search is kept for equivalence testing.  Ties break
    on the lexicographically smallest (counts, anchors) visited.  The winner
    is built once, at the end, with ``fraction_anchored_streams`` and
    ``fraction_assignment_cost``, so that no package code builds the
    reference's answer.
    """
    n, T, arrivals = instance.n, instance.T, instance.arrival_minutes
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    comps = _compositions_nondecreasing(n, k) if prune else _compositions_all(n, k)
    best = None  # (scaled cost, scale, counts, anchors)
    for counts in comps:
        scale = math.lcm(*counts)
        target = [t * scale for t in arrivals]
        rows = {}
        for c in set(counts):
            step = T * scale // c
            firsts = [t * scale - (-(-t * c // T) - 1) * step for t in arrivals]
            rows[c] = [list(range(first, first + c * step, step)) for first in firsts]
        for anchors in _anchor_tuples(counts, n, prune):
            points = sorted(chain.from_iterable(rows[c][a] for c, a in zip(counts, anchors)))
            cost = sum(map(abs, map(sub, points, target)))
            if best is None or cost * best[1] < best[0] * scale:
                best = (cost, scale, counts, anchors)
    assert best is not None
    cost, scale, counts, anchors = best
    solution = fraction_assignment_cost(instance, fraction_anchored_streams(instance, counts, anchors))
    assert solution.cost == Fraction(cost, scale)
    return solution


def matching_points(streams: StreamSet) -> List[Tuple[Fraction, int]]:
    """All (time, stream index) matching points, sorted; a true multiset."""
    points = []
    for i, s in enumerate(streams.streams):
        points.extend((s.mu + ell * s.lam, i) for ell in range(s.count))
    points.sort()
    return points


def fraction_assignment_cost(instance: MatchingInstance, streams: StreamSet) -> MatchingSolution:
    """The order-preserving assignment in ``Fraction`` arithmetic: the
    sorted (time, stream index) points, each given the next occurrence of
    its stream, summed against the arrivals."""
    if streams.n != instance.n:
        raise CountMismatchError(f"streams provide {streams.n} points for {instance.n} arrivals")
    occurrence = [0] * len(streams.streams)
    assignment = []
    cost = Fraction(0)
    for arrival, (time, stream_idx) in zip(instance.arrival_minutes, matching_points(streams)):
        cost += abs(time - arrival)
        assignment.append((stream_idx, occurrence[stream_idx]))
        occurrence[stream_idx] += 1
    return MatchingSolution(streams=streams, assignment=tuple(assignment), cost=cost)


def fraction_anchored_streams(
    instance: MatchingInstance, counts: Sequence[int], anchors: Sequence[int]
) -> StreamSet:
    """The anchored streams in ``Fraction`` arithmetic: lam = T/c and
    mu = t - j*lam with j = ceil(t/lam) - 1."""
    if sum(counts) != instance.n:
        raise CountMismatchError(f"counts sum to {sum(counts)}, expected {instance.n}")
    streams = []
    for count, anchor in zip(counts, anchors):
        lam = Fraction(instance.T, count)
        t_anchor = instance.arrival_minutes[anchor]
        j = math.ceil(Fraction(t_anchor) / lam) - 1
        streams.append(Stream(mu=t_anchor - j * lam, lam=lam, count=count))
    return StreamSet(streams=tuple(streams), T=instance.T)


def fraction_solve_matching(instance: MatchingInstance, k: int, prune: bool = True) -> MatchingSolution:
    """``reference_solve_matching`` with ``Fraction`` arithmetic: every
    candidate built with ``fraction_anchored_streams`` and scored with
    ``fraction_assignment_cost``.  A cross-check of the integer scoring."""
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    comps = _compositions_nondecreasing(n, k) if prune else _compositions_all(n, k)
    best: Optional[MatchingSolution] = None
    for counts in comps:
        for anchors in _anchor_tuples(counts, n, prune):
            streams = fraction_anchored_streams(instance, counts, anchors)
            solution = fraction_assignment_cost(instance, streams)
            if best is None or solution.cost < best.cost:
                best = solution
    assert best is not None
    return best


def reference_anchor_rows(T: int, count: int, arrivals: Sequence[int]) -> List[Tuple[int, int, int]]:
    """``matching._anchor_rows`` with one bisect per point: each distinct
    anchored row's (anchor, first point, summed distance of its points to
    the nearest scaled arrival), at scale ``count``."""
    target = [t * count for t in arrivals]
    last = len(target) - 1
    seen = set()
    rows = []
    for a, t in enumerate(arrivals):
        j = max(-(-t * count // T) - 1, 0)  # largest j with j*lam < t, clamped at 0
        first = t * count - j * T
        if first in seen:
            continue
        seen.add(first)
        bound = 0
        for p in range(first, first + count * T, T):
            i = bisect_left(target, p)
            if i > last:
                bound += p - target[last]
            elif i and p - target[i - 1] < target[i] - p:
                bound += p - target[i - 1]
            else:
                bound += target[i] - p
        rows.append((a, first, bound))
    return rows


def reference_best_fit(instance: MatchingInstance, k: int) -> MatchingSolution:
    """The at-most-k envelope of ``reference_solve_matching``; first minimum wins."""
    best: Optional[MatchingSolution] = None
    for j in range(1, min(k, instance.n) + 1):
        solution = reference_solve_matching(instance, j)
        if best is None or solution.cost < best.cost:
            best = solution
    assert best is not None
    return best


def oracle_min_cost_bijection(
    instance: MatchingInstance, streams: StreamSet, mode: str = "auto"
) -> Fraction:
    """Exact minimum L1 cost over all point-to-arrival bijections.

    Independent of the sorted assignment: either factorial enumeration
    (n <= 9) or an exact integer-scaled Hungarian assignment (n <= 50).
    """
    if streams.n != instance.n:
        raise CountMismatchError(f"streams provide {streams.n} points for {instance.n} arrivals")
    n = instance.n
    times = [t for t, _ in matching_points(streams)]
    if mode == "auto":
        mode = "factorial" if n <= 9 else "hungarian"
    if mode == "factorial":
        if n > 9:
            raise OracleSizeError(f"factorial oracle limited to n <= 9, got {n}")
        best = None
        for perm in permutations(range(n)):
            cost = sum(abs(times[perm[j]] - instance.arrival_minutes[j]) for j in range(n))
            if best is None or cost < best:
                best = cost
        return Fraction(best)
    if mode == "hungarian":
        if n > 50:
            raise OracleSizeError(f"hungarian oracle limited to n <= 50, got {n}")
        from scipy.optimize import linear_sum_assignment
        import numpy as np

        den = math.lcm(*(t.denominator for t in times))
        scaled = [int(t * den) for t in times]
        cost_matrix = np.array(
            [[abs(p - a * den) for p in scaled] for a in instance.arrival_minutes], dtype=np.int64
        )
        rows, cols = linear_sum_assignment(cost_matrix)
        return Fraction(int(cost_matrix[rows, cols].sum()), den)
    raise ValueError(f"unknown oracle mode {mode!r}")


def oracle_windowed_cost(instance: PeriodicInstance, t_start: int, t_end: int, entry: Direction) -> int:
    """Minimum simulated waiting in [t_start, t_end], queues empty at t_start,
    over all 2^n process/wait sequences from lock position ``entry``
    (n <= 10).  Unlike the DP, waits may repeat freely."""
    n = t_end - t_start + 1
    if not 1 <= n <= 10:
        raise OracleSizeError(f"window oracle limited to 1 <= n <= 10 periods, got {n}")
    best: Optional[int] = None
    for processes in product((False, True), repeat=n):
        alignment = entry
        actions = []
        for process in processes:
            if process:
                actions.append(Action.process(alignment))
                alignment = alignment.flip()
            else:
                actions.append(Action.WAIT)
        run = simulate(lambda u: arrival_at(instance, t_start + u - 1), actions, n, initial_alignment=entry)
        if best is None or run.total_wait < best:
            best = run.total_wait
    assert best is not None
    return best


def reference_terminal_charges(counts: Sequence[Tuple[int, int]]) -> List[int]:
    """The end-of-window charge of each state in ``ALL_STATES``, by state id.

    Arrivals still queued when the window closes, `back` periods before its
    last, have accrued back + 1 waits each; the state's counters say which
    arrivals are unserved: the current side since its service before the
    last switch, the opposite side since the switch itself.  Periods before
    the window contribute nothing.
    """
    charges = []
    for state in ALL_STATES:
        total = 0
        for back, (a_d, a_u) in enumerate(counts[-1:-4:-1]):
            own, other = (a_d, a_u) if state.alignment is Direction.DOWN else (a_u, a_d)
            if back <= state.own_waits + state.other_waits:
                total += own * (back + 1)
            if back < state.own_waits:
                total += other * (back + 1)
        charges.append(total)
    return charges


def reference_solve_window(counts: List[Tuple[int, int]], position: Optional[Direction]) -> WindowSolution:
    """``dp.solve_window`` with one table-driven lane per entry orientation,
    the cheaper one kept: the window solve as it was before a free entry ran
    one lane, built from ``slot_costs`` rows and ``reference_terminal_charges``."""
    # Arrivals clipped to the window: periods before it contribute nothing,
    # so costs count exactly the in-window waits of in-window arrivals.
    def window(t: int) -> Tuple[int, int]:
        return counts[t] if 0 <= t < len(counts) else (0, 0)

    rows = [slot_costs(window, t) for t in range(len(counts))]
    charges = reference_terminal_charges(counts)

    def lane_end(entry: Direction) -> Tuple[int, Tuple[Action, ...], Direction]:
        # The lane starts in the virtual state (entry, 0, 0): the lock
        # position entering the window, with fresh wait counters.
        values, back = reference_lane(ALL_STATES.index(LockState(entry, 0, 0)), rows, keep_back=True)
        assert back is not None
        cost, final = min((v + charge, s_id) for s_id, (v, charge) in enumerate(zip(values, charges)) if v != math.inf)
        return int(cost), reference_path_actions(reference_lane_path(back, final)), entry

    # A free entry takes the cheaper orientation, DOWN on a tie (min keeps the first).
    entries = (Direction.DOWN, Direction.UP) if position is None else (position,)
    cost, actions, entry = min(map(lane_end, entries), key=itemgetter(0))
    return WindowSolution(cost=cost, actions=actions, entry_alignment=entry)


def _reference_alignment_after(actions: Iterable[Action], entry: Direction) -> Direction:
    alignment = entry
    for action in actions:
        if action.processes is not None:
            alignment = alignment.flip()
    return alignment


def reference_generate(
    instance: PeriodicInstance,
    t_start: int,
    n_chunks: int,
    epsilon: float,
    window: Optional[int] = None,
) -> GeneratedPlan:
    """``rolling.generate`` in two passes: every chunk first, then the free
    tails, each filled once the following chunk's entry orientation is known:
    two waits if the alignment already matches, otherwise a wait followed by
    a (possibly empty) lockage to flip it."""
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    if window is None:
        window = default_window(instance.k, epsilon)
    chunks: List[Chunk] = []
    start = t_start
    position: Optional[Direction] = None
    for _ in range(n_chunks):
        chunk = next_chunk(instance, start, window, epsilon, position)
        chunks.append(chunk)
        start = chunk.end + 1
        position = chunk.next_position

    actions: List[Action] = []
    initial_alignment: Optional[Direction] = None
    for i, chunk in enumerate(chunks):
        if initial_alignment is None:
            initial_alignment = chunk.entry_alignment
        body = list(chunk.actions)
        if chunk.free_tail:
            defined = body[: len(body) - chunk.free_tail]
            alignment = _reference_alignment_after(defined, chunk.entry_alignment)
            target = chunks[i + 1].entry_alignment if i + 1 < len(chunks) else alignment
            if alignment is target:
                tail = [Action.WAIT] * chunk.free_tail
            else:
                tail = [Action.WAIT] * (chunk.free_tail - 1) + [Action.process(alignment)]
            body = defined + tail
        actions.extend(body)
    assert initial_alignment is not None
    return GeneratedPlan(
        actions=tuple(actions),
        initial_alignment=initial_alignment,
        chunks=tuple(chunks),
    )


def _slot(prev: LockState, state: LockState) -> int:
    """-1 for a wait, else the (served side, window) index into a period's slot costs."""
    if state.own_waits > 0:
        return -1
    side = 0 if prev.alignment is Direction.DOWN else 1
    return 3 * side + prev.own_waits + prev.other_waits


# Every transition as (state_id, pred_id, slot), by state id and then in
# predecessors() order.  ``dp.lane`` hard-codes this table as its step and,
# like the wrap-around pick in ``reference_solve``, keeps the first strict
# minimum in this order, which fixes the tie-breaking.
_TRANSITIONS: Tuple[Tuple[int, int, int], ...] = tuple(
    (s_id, ALL_STATES.index(prev), _slot(prev, state))
    for s_id, state in enumerate(ALL_STATES)
    for prev in predecessors(state)
)


def _cost(costs: Sequence[int], slot: int) -> int:
    return costs[slot] if slot >= 0 else 0


def reference_lane(
    start: int, steps: Iterable[Sequence[int]], keep_back: bool = False
) -> Tuple[List[float], Optional[List[List[int]]]]:
    """The table-driven lane: every ``_TRANSITIONS`` row per step, with
    ``keep_back`` an 8-entry list of chosen predecessors per step."""
    values: List[float] = [_INF] * 8
    values[start] = 0
    back: Optional[List[List[int]]] = [] if keep_back else None
    for costs in steps:
        new = [_INF] * 8
        choice = [-1] * 8
        for s_id, p_id, slot in _TRANSITIONS:
            v = values[p_id]
            if v == _INF:
                continue
            if slot >= 0:
                v += costs[slot]
            if v < new[s_id]:
                new[s_id] = v
                choice[s_id] = p_id
        values = new
        if back is not None:
            back.append(choice)
    return values, back


def reference_lane_path(back: List[List[int]], final: int) -> List[int]:
    """State ids from the lane's start to ``final``, one per step plus the start."""
    path = [final]
    for choice in reversed(back):
        path.append(choice[path[-1]])
    path.reverse()
    return path


def reference_path_actions(path: Sequence[int]) -> Tuple[Action, ...]:
    """The action taken on each step of a state-id path."""
    actions = []
    for prev, state in zip(path, path[1:]):
        if ALL_STATES[state].own_waits > 0:
            actions.append(Action.WAIT)
        else:
            actions.append(Action.process(ALL_STATES[prev].alignment))
    return tuple(actions)


def reference_arrival_counts(instance: PeriodicInstance, first: int, last: int) -> List[Tuple[int, int]]:
    """Per-period (down, up) arrival counts for periods first..last, one
    ``arrival_at`` call per period: a period u, possibly <= 0, is read as
    the period (u - 1) mod Lambda + 1 of the first hyper-period."""
    lam = lcm_period(instance)
    return [arrival_at(instance, (u - 1) % lam + 1) for u in range(first, last + 1)]


def reference_cyclic_average(instance: PeriodicInstance, schedule: Schedule) -> Fraction:
    """Steady-state average waiting cost per period of a cyclic schedule.

    Simulates two joint cycles of the arrival pattern and the schedule and
    measures the second, by which point the queues have reached the cyclic
    regime (every side served at least once in the warm-up cycle).  Raises
    ValueError for an all-wait schedule: every instance has arrivals, so its
    queues grow without bound.
    """
    if all(a is Action.WAIT for a in schedule.actions):
        raise ValueError("an all-wait schedule never serves a vessel; its average waiting cost is unbounded")
    pattern = reference_arrival_counts(instance, 1, lcm_period(instance))
    lam = len(pattern)
    cycle = math.lcm(lam, schedule.period)
    result = simulate(lambda t: pattern[(t - 1) % lam], schedule.actions, 2 * cycle, schedule.initial_alignment)
    second = sum(result.per_period_cost[cycle:])
    return Fraction(second, cycle)


ArrivalFn = Callable[[int], Tuple[int, int]]


def slot_costs(arrivals: ArrivalFn, t: int, shift: int = 0) -> Tuple[int, ...]:
    """Switch costs at period t for the six (side, window) slots.

    Serving a side (0 = DOWN, 1 = UP) at t after a window of w in {2, 3, 4}
    periods costs slot ``3 * side + w - 2``: each arrival i periods before
    t - shift, for 1 <= i < w, is charged i.  ``shift`` is 0 in the
    canonical convention and 1 in the paper-literal one.
    """
    earlier = [arrivals(t - shift - i) for i in (1, 2, 3)]
    costs = []
    for side in (0, 1):
        cost = 0
        for i, counts in enumerate(earlier, start=1):
            cost += i * counts[side]
            costs.append(cost)
    return tuple(costs)


def _cyclic(pattern: List[Tuple[int, int]]) -> ArrivalFn:
    return lambda t: pattern[(t - 1) % len(pattern)]


def transition_cost(
    instance: PeriodicInstance, t: int, prev: LockState, state: LockState, mode: str = CANONICAL
) -> int:
    """Waiting cost charged when moving from ``prev`` to ``state`` at period t."""
    if mode not in _SHIFT:
        raise ValueError(f"unknown mode {mode!r}")
    if prev not in predecessors(state):
        raise ValueError(f"{prev} is not a predecessor of {state}")
    first = t - _SHIFT[mode] - 3
    earlier = arrival_counts(instance, first, first + 2)
    costs = slot_costs(lambda u: earlier[u - first], t, _SHIFT[mode])
    return _cost(costs, _slot(prev, state))


def reference_solve(
    instance: PeriodicInstance, mode: str = CANONICAL, period_cap: int = DEFAULT_PERIOD_CAP
) -> OptimalResult:
    """The nine-lane ``solve``: eight full lanes of 8 * Lambda - 1 steps, one
    per initial state, then the winning lane again with backpointers."""
    if mode not in _SHIFT:
        raise ValueError(f"unknown mode {mode!r}")
    pattern = reference_arrival_counts(instance, 1, lcm_period(instance))
    lam = len(pattern)
    T = 8 * lam
    if T > period_cap:
        raise PeriodCapExceededError(T, period_cap)
    # Costs depend on t only through t mod Lambda.  Lanes start at t = 1 and
    # step through t = 2..T; the wrap-around step S -> S0 is at t = 1 again.
    arrivals = _cyclic(pattern)
    phase_costs = [slot_costs(arrivals, t, _SHIFT[mode]) for t in range(1, lam + 1)]
    steps = [phase_costs[(t - 1) % lam] for t in range(2, T + 1)]
    wrap = phase_costs[0]

    best: Optional[Tuple[int, int, int]] = None  # (total, s0_id, s_final_id)
    for s0_id in range(8):
        values, _ = reference_lane(s0_id, steps)
        for s_id, p_id, slot in _TRANSITIONS:
            if s_id != s0_id or values[p_id] == _INF:
                continue
            total = int(values[p_id]) + _cost(wrap, slot)
            if best is None or total < best[0]:
                best = (total, s0_id, p_id)
    assert best is not None, "DP found no feasible cyclic schedule"
    total, s0_id, final_id = best

    # Re-run the winning lane with backpointers and rebuild the state path;
    # the path's last state is the cyclic predecessor of its first.
    _, back = reference_lane(s0_id, steps, keep_back=True)
    assert back is not None
    path = reference_lane_path(back, final_id)
    assert path[0] == s0_id
    actions = reference_path_actions(path[-1:] + path)
    first = actions[0]
    initial_alignment = first.processes if first.processes is not None else ALL_STATES[s0_id].alignment
    schedule = Schedule(actions=actions, initial_alignment=initial_alignment)

    avg = Fraction(total, T)
    if mode == CANONICAL:
        simulated = reference_cyclic_average(instance, schedule)
        if simulated != avg:
            raise AssertionError(
                f"reconstructed schedule simulates to {simulated}, DP value is {avg}"
            )
    return OptimalResult(
        avg_cost=avg,
        total_cost=total,
        period=T,
        schedule=schedule,
        initial_state=ALL_STATES[s0_id],
        mode=mode,
    )


def _min_plus(x: List[List[float]], y: List[List[float]]) -> List[List[float]]:
    """Min-plus matrix product: entry (i, j) is min over k of x[i][k] + y[k][j]."""
    columns = list(zip(*y))
    return [[min(a + b for a, b in zip(row, col)) for col in columns] for row in x]


def reference_min_cycle_mean(instance: PeriodicInstance, mode: str = CANONICAL) -> Fraction:
    """Minimum cycle mean of the (state, phase) graph: a lower bound on the
    long-run average of every single-wait schedule, of any period.

    A holds the lanes over t = 2..Lambda from each state and B the table step
    at t = 1, so M = A B is the Lambda-step transfer matrix from phase 1 back
    to phase 1.  Every cycle passes phase 1, and a simple one meets each of
    the 8 states there at most once, so its length is j * Lambda for some j
    in 1..8 and the minimum cycle mean is the least (M^j)[s][s] / (j * Lambda)
    (Karp 1978).
    """
    if mode not in _SHIFT:
        raise ValueError(f"unknown mode {mode!r}")
    pattern = reference_arrival_counts(instance, 1, lcm_period(instance))
    lam = len(pattern)
    arrivals = _cyclic(pattern)
    phase_costs = [slot_costs(arrivals, t, _SHIFT[mode]) for t in range(1, lam + 1)]
    a = [reference_lane(s_id, phase_costs[1:])[0] for s_id in range(8)]
    b = [[_INF] * 8 for _ in range(8)]
    for s_id, p_id, slot in _TRANSITIONS:
        b[p_id][s_id] = _cost(phase_costs[0], slot)
    m = _min_plus(a, b)
    power = m
    best: Optional[Fraction] = None
    for j in range(1, 9):
        if j > 1:
            power = _min_plus(power, m)
        for s_id in range(8):
            if power[s_id][s_id] < _INF:
                mean = Fraction(int(power[s_id][s_id]), j * lam)
                if best is None or mean < best:
                    best = mean
    assert best is not None
    return best


class BruteForcePeriodError(ValueError):
    """Requested period too large for exhaustive enumeration."""


def brute_force_optimal(instance: PeriodicInstance, period: int) -> Fraction:
    """Exact minimum steady-state average cost over all feasible cyclic
    action sequences of the given period, by exhaustive enumeration.

    Feasible sequences have an even number of processing actions alternating
    between the sides.  Every candidate serves both sides, so in the steady
    cycle each arrival waits, one cost unit per period, until its side's next
    service at or after its arrival period, taken cyclically; the waits of one
    joint cycle of the pattern and the sequence, over its length, are the
    average.  A service repeats every ``period`` periods, so an arrival's wait
    depends on its period only modulo ``period``, and the arrivals of one
    joint cycle are summed per residue once.  Independent of the DP (no
    single-wait restriction: extra waits are enumerated freely) and of the
    simulator.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if period > 14:
        raise BruteForcePeriodError(f"period {period} too large for 2^p enumeration")
    pattern = reference_arrival_counts(instance, 1, lcm_period(instance))
    lam = len(pattern)
    if not any(a_d or a_u for a_d, a_u in pattern):
        return Fraction(0)
    cycle = math.lcm(lam, period)
    # Arrivals per side at each residue of the period over one joint cycle.
    down, up = [0] * period, [0] * period
    for t in range(cycle):
        a_d, a_u = pattern[t % lam]
        down[t % period] += a_d
        up[t % period] += a_u

    @cache
    def distances(services: Tuple[int, ...]) -> List[int]:
        """Periods from each residue to the first of ``services`` (ascending) at or after it, cyclically."""
        upcoming = services[0] + period
        out = [0] * period
        for r in range(period - 1, -1, -1):
            if r in services:
                upcoming = r
            out[r] = upcoming - r
        return out

    best: Optional[int] = None
    for size in range(2, period + 1, 2):
        for positions in combinations(range(period), size):
            evens, odds = distances(positions[0::2]), distances(positions[1::2])
            for first, second in ((down, up), (up, down)):
                total = sum(map(mul, first, evens)) + sum(map(mul, second, odds))
                if best is None or total < best:
                    best = total
    if best is None:
        raise BruteForcePeriodError(
            f"no feasible processing sequence of period {period} for a non-empty pattern"
        )
    return Fraction(best, cycle)


# The simulator and policies as they were before the fast replay loop.


def _reference_arrival_fn(arrivals: ArrivalSource) -> Callable[[int], Tuple[int, int]]:
    if callable(arrivals):
        return arrivals
    seq = arrivals

    def fn(t: int) -> Tuple[int, int]:
        return seq[t - 1] if 1 <= t <= len(seq) else (0, 0)

    return fn


def reference_simulate(
    arrivals: ArrivalSource,
    actions: Sequence[Action],
    horizon: int,
    initial_alignment: Direction,
) -> SimulationResult:
    """The original ``simulate``: the per-period queue recurrence over [1, horizon].

    ``arrivals`` is either a callable t -> (a_D, a_U) or a sequence indexed
    from period 1; periods past the end of a sequence contribute no arrivals.
    ``actions`` is a non-empty sequence replayed cyclically from
    ``initial_alignment``.  Raises InfeasibleScheduleError if a processing
    action does not match the lock's alignment.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if not actions:
        raise ValueError("action sequence must be non-empty")
    arrive = _reference_arrival_fn(arrivals)
    sides = [a.processes for a in actions]
    alignment = initial_alignment
    period = len(sides)

    n_d = n_u = 0
    n_arrivals = 0
    costs = []
    for t in range(1, horizon + 1):
        a_d, a_u = arrive(t)
        n_arrivals += a_d + a_u
        side = sides[(t - 1) % period]
        if side is None:
            n_d += a_d
            n_u += a_u
        elif side is not alignment:
            raise InfeasibleScheduleError(
                f"period {t}: action processes {side.value} but lock is aligned {alignment.value}"
            )
        elif side is Direction.DOWN:
            alignment = Direction.UP
            n_d = 0
            n_u += a_u
        else:
            alignment = Direction.DOWN
            n_u = 0
            n_d += a_d
        costs.append(n_d + n_u)
    total = sum(costs)
    per_vessel = Fraction(total, n_arrivals) if n_arrivals else Fraction(0)
    return SimulationResult(
        horizon=horizon,
        per_period_cost=tuple(costs),
        total_wait=total,
        n_arrivals=n_arrivals,
        avg_wait_per_vessel=per_vessel,
    )


def _reference_run(policy: str, arrivals: Arrivals, actions: Sequence[Action], horizon: int, alignment: Direction) -> PolicyRun:
    result = reference_simulate(arrivals, list(actions), horizon, initial_alignment=alignment)
    return PolicyRun(policy=policy, actions=tuple(actions), initial_alignment=alignment, result=result)


def reference_alternating(arrivals: Arrivals, horizon: int) -> PolicyRun:
    """Strict alternation with no waits; the better of the two phases wins.

    Ties go to the downstream-first phase.
    """
    candidates = []
    for first in (Direction.DOWN, Direction.UP):
        actions = [Action.process(first if t % 2 == 1 else first.flip()) for t in range(1, horizon + 1)]
        candidates.append(_reference_run("alternating", arrivals, actions, horizon, first))
    down_first, up_first = candidates
    return down_first if down_first.result.total_wait <= up_first.result.total_wait else up_first


def _reference_get(arrivals: Arrivals, t: int) -> Tuple[int, int]:
    return arrivals[t - 1] if 1 <= t <= len(arrivals) else (0, 0)


def _reference_fifo_actions(arrivals: Arrivals, horizon: int, alignment: Direction, lookahead: bool) -> List[Action]:
    """The action trace of ``fifo``, or of ``adv_fifo`` with ``lookahead``."""
    n_d = n_u = 0
    actions: List[Action] = []
    for t in range(1, horizon + 1):
        a_d, a_u = _reference_get(arrivals, t)
        operate = n_d + n_u + a_d + a_u > 0
        if not operate and lookahead:
            next_d, next_u = _reference_get(arrivals, t + 1)
            operate = (next_u if alignment is Direction.DOWN else next_d) > 0
        if operate:
            actions.append(Action.process(alignment))
            if alignment is Direction.DOWN:
                n_d = 0
                n_u += a_u
            else:
                n_u = 0
                n_d += a_d
            alignment = alignment.flip()
        else:
            actions.append(Action.WAIT)
    return actions


def reference_fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """Operate whenever any vessel is waiting or arriving, else wait.

    The lockage always runs from the current alignment; an empty lockage is
    the only way to reach vessels stuck on the opposite side.
    """
    actions = _reference_fifo_actions(arrivals, horizon, initial_alignment, lookahead=False)
    return _reference_run("fifo", arrivals, actions, horizon, initial_alignment)


def reference_adv_fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """FIFO plus a one-period lookahead.

    When idle and the next period brings an arrival on the side opposite the
    current alignment, run an empty lockage now so that arrival is served on
    arrival.
    """
    actions = _reference_fifo_actions(arrivals, horizon, initial_alignment, lookahead=True)
    return _reference_run("advfifo", arrivals, actions, horizon, initial_alignment)


def reference_realized_periodic(
    schedule: Schedule, arrivals: Arrivals, horizon: int
) -> PolicyRun:
    """Replay a precomputed periodic schedule against raw arrival counts.

    The schedule is applied exactly as produced, anchored at period 1; no
    rotation or alignment search is performed.
    """
    actions = [schedule.action_at(t) for t in range(1, horizon + 1)]
    return _reference_run("realizedPeriodic", arrivals, actions, horizon, schedule.initial_alignment)


# The experiment with no sharing between cells.


def _reference_evaluate(
    dataset: ArrivalDataset, day: date, fits: Sequence[Tuple[Direction, MatchingSolution]], config: ExperimentConfig
) -> Optional[Tuple[Fraction, ...]]:
    """The five policy columns of one day in minutes per vessel, or None when
    the rounded instance's 8 * Lambda exceeds ``config.dp_cap``."""
    period = config.period_minutes
    horizon = -(-1440 // period)
    specs = []
    for direction, solution in fits:
        for stream in solution.streams.streams:
            # Round half up: floor(x + 1/2) = (2x + 1) // 2.
            lam = max(1, (Fraction(2 * stream.lam, period) + 1) // 2)
            mu = min(max(1, (Fraction(2 * stream.mu, period) + 1) // 2), lam)
            specs.append(StreamSpec(direction=direction, lam=lam, mu=mu))
    instance = PeriodicInstance(tuple(specs))
    if 8 * math.lcm(*(s.lam for s in specs)) > config.dp_cap:
        return None
    schedule = reference_solve(instance, period_cap=config.dp_cap).schedule
    counts = [[0, 0] for _ in range(horizon)]
    for record in dataset.records:
        if record.day == day:
            counts[-(-record.minute_of_day // period) - 1][0 if record.direction is Direction.DOWN else 1] += 1
    counts = [tuple(c) for c in counts]
    optimum = reference_simulate(
        reference_arrival_counts(instance, 1, horizon), schedule.actions, horizon, schedule.initial_alignment
    )
    runs = (
        reference_alternating(counts, horizon),
        reference_fifo(counts, horizon),
        reference_adv_fifo(counts, horizon),
        reference_realized_periodic(schedule, counts, horizon),
    )
    return (optimum.avg_wait_per_vessel * period, *(run.result.avg_wait_per_vessel * period for run in runs))


def reference_run_experiment(dataset: ArrivalDataset, config: ExperimentConfig) -> Tuple[str, str, int]:
    """``fit.csv``, ``schedule.csv`` and the skipped count of ``run_experiment``.

    Each (k, n, day, direction) is fitted with ``reference_best_fit`` on the
    day's first n arrivals, and is skipped when the direction has none.  A
    (k, n, day) is skipped when a direction has no arrivals or its rounded
    instance exceeds the period cap; otherwise its five columns come from
    ``reference_solve``, ``reference_simulate`` and the reference policies.
    The Runtime column reads 0.00.
    """
    days = sorted({record.day for record in dataset.records})
    fit_rows, schedule_rows = [], []
    skipped = 0
    for k in config.k_values:
        for n in config.n_values:
            fit_values, evaluations = [], []
            for day in days:
                fits = []
                for direction in (Direction.DOWN, Direction.UP):
                    minutes = sorted(
                        r.minute_of_day for r in dataset.records if r.day == day and r.direction is direction
                    )[:n]
                    if not minutes:
                        skipped += 1
                        continue
                    solution = reference_best_fit(MatchingInstance(tuple(minutes), minutes[-1]), k)
                    fits.append((direction, solution))
                    fit_values.append(float(solution.cost / len(minutes)))
                evaluation = _reference_evaluate(dataset, day, fits, config) if len(fits) == 2 else None
                if evaluation is None:
                    skipped += 1
                else:
                    evaluations.append(evaluation)
            if fit_values:
                fit_rows.append(FitRow(k, n, 0.0, sum(fit_values) / len(fit_values)))
            if evaluations:
                means = (float(sum(column) / len(evaluations)) for column in zip(*evaluations))
                schedule_rows.append(ScheduleRow(k, n, *means))
    return fit_report_csv(fit_rows), schedule_report_csv(schedule_rows), skipped


def reference_parse_arrivals(text: str) -> ArrivalDataset:
    """``parse_arrivals`` on well-formed text, one row at a time.

    A leading byte-order mark is dropped, empty lines are skipped, the first
    other line must be the header, and cells are split on commas and
    stripped.  Each row is read by the per-row rule: ``Direction(token)``,
    and ``fromisoformat`` (which reads a trailing ``Z`` from Python 3.11)
    truncated with ``replace(second=0, microsecond=0, tzinfo=None)``.  Every
    timestamp must share one UTC offset, or none.
    """
    rows = [[cell.strip() for cell in line.split(",")] for line in text.removeprefix("\ufeff").split("\n") if line]
    if not rows:
        return ArrivalDataset(())
    if tuple(rows[0]) != CSV_HEADER:
        raise ValueError(f"expected header, got {rows[0]}")
    records, offsets = [], set()
    for raw_ts, token in rows[1:]:
        ts = datetime.fromisoformat(raw_ts)
        offsets.add(ts.utcoffset())
        records.append(ArrivalRecord(ts.replace(second=0, microsecond=0, tzinfo=None), Direction(token)))
    if len(offsets) > 1:
        raise ValueError(f"mixed UTC offsets {offsets}")
    return ArrivalDataset(tuple(records))
