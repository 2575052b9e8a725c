"""Incremental (1+eps)-approximate schedule generation in bounded windows.

Each chunk is produced from an exact windowed optimization (a finite-horizon
variant of the cyclic DP) and handed off to the next chunk either at a
no-arrival gap, mid-window after a cheap window, or after two reorientation
periods.  ``generate`` concatenates the chunks in one pass, rewriting a free
tail once the next chunk has chosen its entry orientation.  The full horizon
schedule is never materialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
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

    def lane_end(entry: Direction) -> Tuple[int, int, List[int], Direction]:
        # The lane starts in the virtual state (entry, 0, 0): the lock
        # position entering t_start, with fresh wait counters.
        values, back = lane(start_values(ALL_STATES.index(LockState(entry, 0, 0))), steps)
        cost, final = min((v + charge, s_id) for s_id, (v, charge) in enumerate(zip(values, charges)) if v != math.inf)
        return cost, final, back, entry

    # A free entry takes the cheaper orientation, DOWN on a tie (min keeps the first).
    entries = (Direction.DOWN, Direction.UP) if position is None else (position,)
    cost, final, back, entry = min(map(lane_end, entries), key=itemgetter(0))
    return WindowSolution(cost=cost, actions=path_actions(lane_path(back, final)), entry_alignment=entry)


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
    # A gap head longer than the window cap is rejected anyway, so the scan
    # never reads past the cap, however large the window.
    counts, gap = _scan_for_gap(instance, t, min(t_end, t + DEFAULT_WINDOW_CAP - 1))

    # Case: a 2-period no-arrival gap lets the next chunk start free of charge.
    if gap is not None:
        # Optimize over the whole span including the gap: the terminal charge
        # makes clearing every queue within the arrival-free gap optimal, so
        # nothing carries over to the next chunk.
        counts = counts[: gap + 2]
        sol = _window_optimum(counts, request.position)
        run = simulate(counts, list(sol.actions), len(sol.actions), initial_alignment=sol.entry_alignment)
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
        actions = sol.actions[: len(sol.actions) - free_tail] + (Action.WAIT,) * free_tail
        case, cost, next_position = CASE_GAP, run.total_wait, None
    else:
        _check_window(t, t_end)
        sol = _window_optimum(counts, request.position)
        if sol.cost <= 2 * instance.k / request.epsilon:
            # Case: cheap window; keep periods t..t + window // 2 + 1 and hand
            # off the lock position.
            actions = sol.actions[: request.window // 2 + 2]
            case, free_tail = CASE_CHEAP, 0
            next_position = _alignment_after(actions, sol.entry_alignment)
        else:
            # Case: expensive window; emit it whole plus two reorientation periods.
            actions = sol.actions + (Action.WAIT, Action.WAIT)
            counts += arrival_counts(instance, t_end + 1, t_end + 2)
            case, free_tail, next_position = CASE_FULL, 2, None
        cost = simulate(counts, list(actions), len(actions), initial_alignment=sol.entry_alignment).total_wait
    end = t + len(actions) - 1
    return Chunk(
        start=t,
        end=end,
        actions=actions,
        free_tail=free_tail,
        case=case,
        cost=cost,
        entry_alignment=sol.entry_alignment,
        next_start=end + 1,
        next_position=next_position,
    )


def _alignment_after(actions: Sequence[Action], entry: Direction) -> Direction:
    """The lock's orientation after ``actions`` from ``entry``: each lockage flips it."""
    lockages = len(actions) - actions.count(Action.WAIT)
    return entry.flip() if lockages % 2 else entry


@dataclass(frozen=True)
class GeneratedPlan:
    start: int
    actions: Tuple[Action, ...]
    initial_alignment: Direction
    chunks: Tuple[Chunk, ...]


def generate(
    instance: PeriodicInstance,
    t_start: int,
    n_chunks: int,
    epsilon: float,
    window: Optional[int] = None,
) -> GeneratedPlan:
    """Concatenate chunks into one feasible action sequence.

    Chunks are requested in order, each from the previous one's handoff.  A
    free tail stays waits when the next chunk enters in the alignment it
    leaves (or no chunk follows); otherwise its last period becomes the
    (possibly empty) lockage that flips the lock to the next chunk's entry.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    if window is None:
        window = default_window(instance.k, epsilon)
    chunks: List[Chunk] = []
    actions: List[Action] = []
    start = t_start
    position: Optional[Direction] = None
    tail_alignment: Optional[Direction] = None  # after the previous chunk, if its tail is free
    for _ in range(n_chunks):
        chunk = next_chunk(instance, ChunkRequest(start=start, window=window, epsilon=epsilon, position=position))
        if tail_alignment is not None and chunk.entry_alignment is not tail_alignment:
            actions[-1] = Action.process(tail_alignment)
        actions += chunk.actions
        tail_alignment = _alignment_after(chunk.actions, chunk.entry_alignment) if chunk.free_tail else None
        chunks.append(chunk)
        start = chunk.next_start
        position = chunk.next_position
    return GeneratedPlan(
        start=t_start,
        actions=tuple(actions),
        initial_alignment=chunks[0].entry_alignment,
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
