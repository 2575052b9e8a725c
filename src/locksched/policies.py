"""Online baseline policies and replay of a fixed periodic schedule.

All policies emit an explicit action trace; the reported result is always
reproducible by feeding the trace back through the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import List, Sequence, Tuple

from .schedule import (
    Action,
    Direction,
    Schedule,
    SimulationResult,
    simulate,
)

Arrivals = Sequence[Tuple[int, int]]


@dataclass(frozen=True)
class PolicyRun:
    policy: str
    actions: Tuple[Action, ...]
    initial_alignment: Direction
    result: SimulationResult

    def per_vessel_minutes(self, period_minutes: int) -> Fraction:
        return self.result.avg_wait_per_vessel * period_minutes


def _run(policy: str, arrivals: Arrivals, actions: List[Action], horizon: int, alignment: Direction) -> PolicyRun:
    result = simulate(arrivals, actions, horizon, initial_alignment=alignment)
    return PolicyRun(policy=policy, actions=tuple(actions), initial_alignment=alignment, result=result)


def alternating(arrivals: Arrivals, horizon: int) -> PolicyRun:
    """Strict alternation with no waits; the better of the two phases wins.

    Under strict alternation a vessel that arrives in a period serving its
    side waits no period, and one that arrives in a period serving the other
    side waits exactly one.  So the downstream-first phase waits for the
    downstream arrivals of even periods and the upstream arrivals of odd
    ones, and the upstream-first phase for every other arrival.  The phase
    is picked from those sums, ties going to the downstream-first phase, and
    only the winner's trace is simulated.
    """
    # Slicing never raises, so a horizon below 1 is still rejected by simulate.
    window = arrivals[:horizon]
    down, up = zip(*window) if window else ((), ())
    down_first_wait = sum(down[1::2]) + sum(up[::2])
    up_first_wait = sum(down[::2]) + sum(up[1::2])
    first = Direction.DOWN if down_first_wait <= up_first_wait else Direction.UP
    actions = [Action.process(first), Action.process(first.flip())] * (horizon // 2 + 1)
    del actions[horizon:]
    return _run("alternating", arrivals, actions, horizon, first)


def _fifo_actions(arrivals: Arrivals, horizon: int, alignment: Direction, lookahead: bool) -> List[Action]:
    """The action trace of ``fifo``, or of ``adv_fifo`` with ``lookahead``."""
    # Periods 1..horizon+1, so the lookahead can read one period past the end.
    padded = list(arrivals[: horizon + 1])
    padded += [(0, 0)] * (horizon + 1 - len(padded))
    wait, serve_down, serve_up = Action.WAIT, Action.PROCESS_DOWN, Action.PROCESS_UP
    down = alignment is Direction.DOWN
    n_d = n_u = 0
    actions: List[Action] = []
    for t in range(horizon):
        a_d, a_u = padded[t]
        # Idle lookahead: the next period's arrival on the side opposite the
        # alignment, which is index 1 (up) when aligned down and 0 otherwise.
        if n_d + n_u + a_d + a_u > 0 or (lookahead and padded[t + 1][down] > 0):
            if down:
                actions.append(serve_down)
                n_d = 0
                n_u += a_u
            else:
                actions.append(serve_up)
                n_u = 0
                n_d += a_d
            down = not down
        else:
            actions.append(wait)
    return actions


def fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """Operate whenever any vessel is waiting or arriving, else wait.

    The lockage always runs from the current alignment; an empty lockage is
    the only way to reach vessels stuck on the opposite side.
    """
    actions = _fifo_actions(arrivals, horizon, initial_alignment, lookahead=False)
    return _run("fifo", arrivals, actions, horizon, initial_alignment)


def adv_fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """FIFO plus a one-period lookahead.

    When idle and the next period brings an arrival on the side opposite the
    current alignment, run an empty lockage now so that arrival is served on
    arrival.
    """
    actions = _fifo_actions(arrivals, horizon, initial_alignment, lookahead=True)
    return _run("advfifo", arrivals, actions, horizon, initial_alignment)


def realized_periodic(
    schedule: Schedule, arrivals: Arrivals, horizon: int
) -> PolicyRun:
    """Replay a precomputed periodic schedule against raw arrival counts.

    The schedule is applied exactly as produced, anchored at period 1; no
    rotation or alignment search is performed.
    """
    actions = list(islice(cycle(schedule.actions), horizon))
    return _run("realizedPeriodic", arrivals, actions, horizon, schedule.initial_alignment)
