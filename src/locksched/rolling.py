"""Incremental (1+eps)-approximate schedule generation in bounded windows.

Each chunk, ``next_chunk(instance, start, window, epsilon, position)``, is
produced from an exact windowed optimization (a finite-horizon variant of the
cyclic DP) and handed off to the next chunk, which starts at ``end + 1``,
either at a no-arrival gap, mid-window after a cheap window, or after two
reorientation periods.  ``generate`` concatenates the chunks in one pass,
rewriting a free tail once the next chunk has chosen its entry orientation.
The full horizon schedule is never materialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .dp import WindowSolution, solve_window
from .schedule import (
    Action,
    Direction,
    PeriodicInstance,
    _check_int,
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
    quotient = 40 * k * k / epsilon
    if not math.isfinite(quotient):
        raise ValueError(f"epsilon {epsilon} is too small: 40*k^2/epsilon overflows")
    w = math.ceil(quotient)
    if w % 2:
        w += 1
    return max(w, 4)


@dataclass(frozen=True)
class Chunk:
    """One chunk of a rolling plan, periods ``start``..``end``, and the lock
    position ``next_position`` it hands to the next chunk."""

    start: int
    end: int
    actions: Tuple[Action, ...]  # covers [start, end]; the free tail holds Wait placeholders
    free_tail: int  # trailing periods whose actions the caller may rewrite (0, 1, or 2)
    case: str
    cost: int  # simulated waiting within [start, end], queues empty at start
    entry_alignment: Direction
    next_position: Optional[Direction]  # None = free


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
    return solve_window(arrival_counts(instance, t_start, t_end), position)


def _check_window(t_start: int, t_end: int) -> None:
    _check_int("t_end", t_end)
    if t_start > t_end:
        raise ValueError(f"empty window [{t_start}, {t_end}]")
    if t_end - t_start + 1 > DEFAULT_WINDOW_CAP:
        raise WindowCapExceededError(f"window of {t_end - t_start + 1} periods exceeds cap {DEFAULT_WINDOW_CAP}")
    _check_int("period", t_start, 1)


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


def next_chunk(
    instance: PeriodicInstance,
    start: int,
    window: int,
    epsilon: float,
    position: Optional[Direction] = None,
) -> Chunk:
    """One step of the incremental scheme: the chunk from period ``start``,
    entered in orientation ``position`` (None = free), plus a handoff to the
    next chunk, which starts at ``end + 1``.  A window whose exact optimum
    costs at most 2k/epsilon is cheap."""
    _check_int("start", start, 1)
    _check_int("window", window, 4)
    if not epsilon > 0:  # also rejects NaN
        raise ValueError("epsilon must be positive")
    t_end = start + window
    # A gap head longer than the window cap is rejected anyway, so the scan
    # never reads past the cap, however large the window.
    counts, gap = _scan_for_gap(instance, start, min(t_end, start + DEFAULT_WINDOW_CAP - 1))

    # Case: a 2-period no-arrival gap lets the next chunk start free of charge.
    if gap is not None:
        # Optimize over the whole span including the gap: the terminal charge
        # makes clearing every queue within the arrival-free gap optimal, so
        # nothing carries over to the next chunk.
        counts = counts[: gap + 2]
        sol = solve_window(counts, position)
        run = simulate(counts, sol.actions, len(sol.actions), initial_alignment=sol.entry_alignment)
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
        _check_window(start, t_end)
        sol = solve_window(counts, position)
        if sol.cost <= 2 * instance.k / epsilon:
            # Case: cheap window; keep periods start..start + window // 2 + 1
            # and hand off the lock position.
            actions = sol.actions[: window // 2 + 2]
            case, free_tail = CASE_CHEAP, 0
            next_position = _alignment_after(actions, sol.entry_alignment)
        else:
            # Case: expensive window; emit it whole plus two reorientation periods.
            actions = sol.actions + (Action.WAIT, Action.WAIT)
            counts += arrival_counts(instance, t_end + 1, t_end + 2)
            case, free_tail, next_position = CASE_FULL, 2, None
        cost = simulate(counts, actions, len(actions), initial_alignment=sol.entry_alignment).total_wait
    return Chunk(
        start=start,
        end=start + len(actions) - 1,
        actions=actions,
        free_tail=free_tail,
        case=case,
        cost=cost,
        entry_alignment=sol.entry_alignment,
        next_position=next_position,
    )


def _alignment_after(actions: Sequence[Action], entry: Direction) -> Direction:
    """The lock's orientation after ``actions`` from ``entry``: each lockage flips it."""
    lockages = len(actions) - actions.count(Action.WAIT)
    return entry.flip() if lockages % 2 else entry


@dataclass(frozen=True)
class GeneratedPlan:
    """A rolling plan: one feasible action sequence and the chunks it joins."""

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
    _check_int("n_chunks", n_chunks, 1)
    if window is None:
        window = default_window(instance.k, epsilon)
    chunks: List[Chunk] = []
    actions: List[Action] = []
    start = t_start
    position: Optional[Direction] = None
    tail_alignment: Optional[Direction] = None  # after the previous chunk, if its tail is free
    for _ in range(n_chunks):
        chunk = next_chunk(instance, start, window, epsilon, position)
        if tail_alignment is not None and chunk.entry_alignment is not tail_alignment:
            actions[-1] = Action.process(tail_alignment)
        actions += chunk.actions
        tail_alignment = _alignment_after(chunk.actions, chunk.entry_alignment) if chunk.free_tail else None
        chunks.append(chunk)
        start = chunk.end + 1
        position = chunk.next_position
    return GeneratedPlan(
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
            "next_start": chunk.end + 1,
            "next_position": chunk.next_position.value if chunk.next_position else None,
        }
    )
