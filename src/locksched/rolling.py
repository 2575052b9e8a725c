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
from typing import List, Optional, Tuple

from .dp import ALL_STATES, ArrivalFn, LockState, lane, lane_path, path_actions, slot_costs
from .schedule import (
    Action,
    Direction,
    PeriodicInstance,
    arrival_at,
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
    if epsilon <= 0:
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
        if self.epsilon <= 0:
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


def _terminal_cost(arrivals: ArrivalFn, t_end: int, state: LockState) -> int:
    # Arrivals still queued when the window closes have accrued t_end - s + 1
    # waits each; the state's counters say which arrivals are unserved: the
    # current side since its service before the last switch, the opposite
    # side since the switch itself.
    own_from = t_end - state.own_waits - state.other_waits
    other_from = t_end - state.own_waits + 1
    own_side = 0 if state.alignment is Direction.DOWN else 1
    total = 0
    for s in range(own_from, t_end + 1):
        total += arrivals(s)[own_side] * (t_end - s + 1)
    for s in range(other_from, t_end + 1):
        total += arrivals(s)[1 - own_side] * (t_end - s + 1)
    return total


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
    if t_start > t_end:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    if t_end - t_start + 1 > DEFAULT_WINDOW_CAP:
        raise WindowCapExceededError(f"window of {t_end - t_start + 1} periods exceeds cap {DEFAULT_WINDOW_CAP}")
    # Arrivals clipped to the window: periods before t_start contribute nothing,
    # so costs count exactly the in-window waits of in-window arrivals.
    clipped = [arrival_at(instance, t) for t in range(t_start, t_end + 1)]

    def arrivals(t: int) -> Tuple[int, int]:
        return clipped[t - t_start] if t_start <= t <= t_end else (0, 0)

    steps = [slot_costs(arrivals, t) for t in range(t_start, t_end + 1)]

    def solve_from(entry: Direction) -> WindowSolution:
        # The lane starts in the virtual state (entry, 0, 0): the lock
        # position entering t_start, with fresh wait counters.
        values, back = lane(ALL_STATES.index(LockState(entry, 0, 0)), steps, keep_back=True)
        totals = {
            s_id: v + _terminal_cost(arrivals, t_end, ALL_STATES[s_id])
            for s_id, v in enumerate(values)
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


def _chunk_cost(instance: PeriodicInstance, start: int, actions: Tuple[Action, ...], entry: Direction) -> int:
    result = simulate(
        lambda t: arrival_at(instance, start + t - 1),
        list(actions),
        len(actions),
        initial_alignment=entry,
    )
    return result.total_wait


def next_chunk(instance: PeriodicInstance, request: ChunkRequest) -> Chunk:
    """One step of the incremental scheme: a schedule chunk plus a handoff."""
    t = request.start
    t_end = t + request.window
    k = instance.k

    # Case: a 2-period no-arrival gap lets the next chunk start free of charge.
    gap = None
    for s in range(t, t_end):
        if arrival_at(instance, s) == (0, 0) and arrival_at(instance, s + 1) == (0, 0):
            gap = s
            break
    if gap is not None:
        # Optimize over the whole span including the gap: the terminal charge
        # makes clearing every queue within the arrival-free gap optimal, so
        # nothing carries over to the next chunk.
        head = windowed_optimum(instance, t, gap + 1, request.position)
        entry = head.entry_alignment
        run = simulate(
            lambda u: arrival_at(instance, t + u - 1),
            list(head.actions),
            len(head.actions),
            initial_alignment=entry,
        )
        # Trailing gap periods count as rewritable only once the queues are
        # empty entering them (a zero per-period cost means an empty queue).
        before_gap = gap - 1 - t
        if before_gap < 0 or run.per_period_cost[before_gap] == 0:
            free_tail = 2
        elif run.per_period_cost[gap - t] == 0:
            free_tail = 1
        else:
            free_tail = 0
        actions = head.actions
        if free_tail:
            actions = actions[: len(actions) - free_tail] + (Action.WAIT,) * free_tail
            next_position = None
        else:
            next_position = _alignment_after(actions, entry)
        return Chunk(
            start=t,
            end=gap + 1,
            actions=actions,
            free_tail=free_tail,
            case=CASE_GAP,
            cost=_chunk_cost(instance, t, actions, entry),
            entry_alignment=entry,
            next_start=gap + 2,
            next_position=next_position,
        )

    sol = windowed_optimum(instance, t, t_end, request.position)
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
            cost=_chunk_cost(instance, t, actions, sol.entry_alignment),
            entry_alignment=sol.entry_alignment,
            next_start=t_prime + 1,
            next_position=sol.states[cut - 1].alignment,
        )

    # Case: expensive window; emit it whole plus two reorientation periods.
    actions = sol.actions + (Action.WAIT, Action.WAIT)
    return Chunk(
        start=t,
        end=t_end + 2,
        actions=actions,
        free_tail=2,
        case=CASE_FULL,
        cost=_chunk_cost(instance, t, actions, sol.entry_alignment),
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
