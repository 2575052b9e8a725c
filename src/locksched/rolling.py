"""Incremental (1+eps)-approximate schedule generation in bounded windows.

Each chunk is produced from an exact windowed optimization (a finite-horizon
variant of the cyclic DP) and handed off to the next chunk either at a
no-arrival gap, mid-window after a cheap window, or after two reorientation
periods.  The full horizon schedule is never materialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .dp import ALL_STATES, LockState, lane, lane_path, path_actions, slot_cost_table, start_values
from .schedule import (
    Action,
    Direction,
    PeriodicInstance,
    arrival_counts,
    simulate,
)

DEFAULT_WINDOW_CAP = 200_000

CASE_GAP = "gap"
CASE_CHEAP = "cheap-window"
CASE_FULL = "full-window"


class WindowCapExceededError(ValueError):
    pass


def default_window(k: int, epsilon: float) -> int:
    """40*k^2/eps rounded up to an even integer, floored at 4."""
    if not epsilon > 0:  # also rejects NaN
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    w = math.ceil(40 * k * k / epsilon)
    if w % 2:
        w += 1
    return max(w, 4)


@dataclass(frozen=True)
class ChunkRequest:
    start: int
    window: int
    epsilon: float
    position: Optional[Direction] = None  # None = free

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("start must be >= 1")
        if self.window < 4:
            raise ValueError("window must be >= 4")
        if not self.epsilon > 0:  # also rejects NaN
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class Chunk:
    start: int
    end: int
    actions: Tuple[Action, ...]  # covers [start, end]; the free tail holds Wait placeholders
    free_tail: int  # trailing periods whose actions the caller may rewrite (0, 1, or 2)
    case: str
    cost: int  # simulated waiting within [start, end], queues empty at start
    entry_alignment: Direction
    next_start: int
    next_position: Optional[Direction]  # None = free


@dataclass(frozen=True)
class WindowSolution:
    cost: int
    actions: Tuple[Action, ...]
    states: Tuple[LockState, ...]  # state after each period's action
    entry_alignment: Direction


def _terminal_charges(counts: Sequence[Tuple[int, int]]) -> List[int]:
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


def windowed_optimum(
    instance: PeriodicInstance,
    t_start: int,
    t_end: int,
    position: Optional[Direction] = None,
) -> WindowSolution:
    """Exact minimum in-window waiting over single-wait action sequences.

    ``position`` fixes the lock's orientation entering t_start; None means
    free, taking the better of the two orientations.
    """
    _check_window(t_start, t_end)
    return _window_optimum(arrival_counts(instance, t_start, t_end), position)


def _check_window(t_start: int, t_end: int) -> None:
    if t_start > t_end:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    if t_end - t_start + 1 > DEFAULT_WINDOW_CAP:
        raise WindowCapExceededError(f"window of {t_end - t_start + 1} periods exceeds cap {DEFAULT_WINDOW_CAP}")
    if t_start < 1:
        raise ValueError(f"period must be >= 1, got {t_start}")


def _window_optimum(counts: List[Tuple[int, int]], position: Optional[Direction]) -> WindowSolution:
    """``windowed_optimum`` over the window's arrival counts ``counts``."""
    # Arrivals clipped to the window: periods before t_start contribute nothing,
    # so costs count exactly the in-window waits of in-window arrivals.
    steps = slot_cost_table([(0, 0)] * 3 + counts)
    charges = _terminal_charges(counts)

    def solve_from(entry: Direction) -> WindowSolution:
        # The lane starts in the virtual state (entry, 0, 0): the lock
        # position entering t_start, with fresh wait counters.
        values, back = lane(start_values(ALL_STATES.index(LockState(entry, 0, 0))), steps)
        totals = {
            s_id: v + charge
            for s_id, (v, charge) in enumerate(zip(values, charges))
            if v != math.inf
        }
        final = min(totals, key=lambda s_id: (totals[s_id], s_id))
        path = lane_path(back, final)
        return WindowSolution(
            cost=totals[final],
            actions=path_actions(path),
            states=tuple(ALL_STATES[s_id] for s_id in path[1:]),
            entry_alignment=entry,
        )

    if position is not None:
        return solve_from(position)
    down = solve_from(Direction.DOWN)
    up = solve_from(Direction.UP)
    return down if down.cost <= up.cost else up


# The gap scan reads the window's arrivals in blocks of this many periods,
# doubling, so that it stops soon after the first gap.
_SCAN_BLOCK = 64


def _scan_for_gap(instance: PeriodicInstance, t: int, last: int) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    """Arrival counts of periods t.. and the offset of the first two-period
    gap, read until the gap or period ``last``; (the counts up to ``last``,
    None) when there is no gap."""
    empty = (0, 0)
    counts: List[Tuple[int, int]] = []
    block = _SCAN_BLOCK
    while True:
        scanned = max(len(counts) - 1, 0)
        first = t + len(counts)
        counts += arrival_counts(instance, first, min(last, first + block - 1))
        gap = next((i for i in range(scanned, len(counts) - 1) if counts[i] == empty == counts[i + 1]), None)
        if gap is not None or t + len(counts) > last:
            return counts, gap
        block *= 2


def next_chunk(instance: PeriodicInstance, request: ChunkRequest) -> Chunk:
    """One step of the incremental scheme: a schedule chunk plus a handoff."""
    t = request.start
    t_end = t + request.window
    k = instance.k
    # A gap head longer than the window cap is rejected anyway, so the scan
    # never reads past the cap, however large the window.
    counts, gap = _scan_for_gap(instance, t, min(t_end, t + DEFAULT_WINDOW_CAP - 1))

    # Case: a 2-period no-arrival gap lets the next chunk start free of charge.
    if gap is not None:
        # Optimize over the whole span including the gap: the terminal charge
        # makes clearing every queue within the arrival-free gap optimal, so
        # nothing carries over to the next chunk.
        counts = counts[: gap + 2]
        head = _window_optimum(counts, request.position)
        entry = head.entry_alignment
        run = simulate(counts, list(head.actions), len(head.actions), initial_alignment=entry)
        # Trailing gap periods count as rewritable only once the queues are
        # empty entering them (a zero per-period cost means an empty queue).
        # Rewriting them changes no cost: they have no arrivals and, from
        # then on, empty queues.
        #
        # The queues are always empty after the first gap period g, so at
        # least the last period is free.  Suppose a vessel still waits after
        # g.  If the lock waited at g, serving its side at g and the other
        # side at g + 1 instead leaves nothing queued after g + 1 and saves
        # every queued vessel at least one period.  Otherwise it served a
        # side Z at g with side W still queued.  Entering g aligned to Z, it
        # served W or waited at g - 1; serving W would have emptied W, as
        # nothing arrives at g, so it waited, and serving Z at g - 1 and W
        # at g instead saves the W vessels a period each.  Both changes only add switches,
        # which every state allows, and leave the periods before them alone,
        # so either would be a strictly cheaper head than the exact optimum.
        assert run.per_period_cost[gap] == 0, "exact gap head still queues vessels after the gap's first period"
        free_tail = 2 if gap == 0 or run.per_period_cost[gap - 1] == 0 else 1
        actions = head.actions[: len(head.actions) - free_tail] + (Action.WAIT,) * free_tail
        return Chunk(
            start=t,
            end=t + gap + 1,
            actions=actions,
            free_tail=free_tail,
            case=CASE_GAP,
            cost=run.total_wait,
            entry_alignment=entry,
            next_start=t + gap + 2,
            next_position=None,
        )

    _check_window(t, t_end)
    sol = _window_optimum(counts, request.position)
    # Case: cheap window; keep the first half and hand off the lock position.
    if sol.cost <= 2 * k / request.epsilon:
        t_prime = t + request.window // 2 + 1
        cut = t_prime - t + 1
        actions = sol.actions[:cut]
        return Chunk(
            start=t,
            end=t_prime,
            actions=actions,
            free_tail=0,
            case=CASE_CHEAP,
            cost=simulate(counts, list(actions), cut, initial_alignment=sol.entry_alignment).total_wait,
            entry_alignment=sol.entry_alignment,
            next_start=t_prime + 1,
            next_position=sol.states[cut - 1].alignment,
        )

    # Case: expensive window; emit it whole plus two reorientation periods.
    actions = sol.actions + (Action.WAIT, Action.WAIT)
    tail = arrival_counts(instance, t_end + 1, t_end + 2)
    return Chunk(
        start=t,
        end=t_end + 2,
        actions=actions,
        free_tail=2,
        case=CASE_FULL,
        cost=simulate(counts + tail, list(actions), len(actions), initial_alignment=sol.entry_alignment).total_wait,
        entry_alignment=sol.entry_alignment,
        next_start=t_end + 3,
        next_position=None,
    )


@dataclass(frozen=True)
class GeneratedPlan:
    start: int
    actions: Tuple[Action, ...]
    initial_alignment: Direction
    chunks: Tuple[Chunk, ...]


def _alignment_after(actions, entry: Direction) -> Direction:
    alignment = entry
    for action in actions:
        if action.processes is not None:
            alignment = alignment.flip()
    return alignment


def generate(
    instance: PeriodicInstance,
    t_start: int,
    n_chunks: int,
    epsilon: float,
    window: Optional[int] = None,
) -> GeneratedPlan:
    """Concatenate chunks into one feasible action sequence.

    Free tails are realized once the following chunk has chosen its entry
    orientation: two waits if the alignment already matches, otherwise a wait
    followed by a (possibly empty) lockage to flip it.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    if window is None:
        window = default_window(instance.k, epsilon)
    chunks: List[Chunk] = []
    start = t_start
    position: Optional[Direction] = None
    for _ in range(n_chunks):
        chunk = next_chunk(instance, ChunkRequest(start=start, window=window, epsilon=epsilon, position=position))
        chunks.append(chunk)
        start = chunk.next_start
        position = chunk.next_position

    actions: List[Action] = []
    initial_alignment: Optional[Direction] = None
    for i, chunk in enumerate(chunks):
        if initial_alignment is None:
            initial_alignment = chunk.entry_alignment
        body = list(chunk.actions)
        if chunk.free_tail:
            defined = body[: len(body) - chunk.free_tail]
            alignment = _alignment_after(defined, chunk.entry_alignment)
            target = chunks[i + 1].entry_alignment if i + 1 < len(chunks) else alignment
            if alignment is target:
                tail = [Action.WAIT] * chunk.free_tail
            else:
                tail = [Action.WAIT] * (chunk.free_tail - 1) + [Action.process(alignment)]
            body = defined + tail
        actions.extend(body)
    assert initial_alignment is not None
    return GeneratedPlan(
        start=t_start,
        actions=tuple(actions),
        initial_alignment=initial_alignment,
        chunks=tuple(chunks),
    )


def chunk_to_json(chunk: Chunk) -> str:
    return json.dumps(
        {
            "start": chunk.start,
            "end": chunk.end,
            "actions": [a.value for a in chunk.actions],
            "free_tail": chunk.free_tail,
            "case": chunk.case,
            "cost": chunk.cost,
            "entry_alignment": chunk.entry_alignment.value,
            "next_start": chunk.next_start,
            "next_position": chunk.next_position.value if chunk.next_position else None,
        }
    )
