"""Online baseline policies and replay of a fixed periodic schedule.

All policies emit an explicit action trace with its result.  FIFO, advanced
FIFO and alternation score their own traces: the FIFO loop that decides each
action already keeps both queues, and strict alternation's queue in each
period is that period's arrivals on the side not served.  Periodic replay
scores its trace with ``schedule.simulate``, the reference recurrence that
the tests replay every policy's trace against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from typing import Sequence, Tuple

from .schedule import (
    Action,
    Direction,
    Schedule,
    SimulationResult,
    _check_int,
    _simulation_result,
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


def alternating(arrivals: Arrivals, horizon: int) -> PolicyRun:
    """Strict alternation with no waits; the better of the two phases wins.

    Under strict alternation a vessel that arrives in a period serving its
    side waits no period, and one that arrives in a period serving the other
    side waits exactly one, so each period's queue after the lockage is that
    period's arrivals on the side not served.  The downstream-first phase
    therefore waits for the upstream arrivals of odd periods and the
    downstream arrivals of even ones, and the upstream-first phase for every
    other arrival.  The phase is picked from those sums, ties going to the
    downstream-first phase, and the winner's per-period costs are the two
    interleaved columns.
    """
    _check_int("horizon", horizon, 1)
    window = arrivals[:horizon]
    down, up = zip(*window) if window else ((), ())
    down_first_wait = sum(down[1::2]) + sum(up[::2])
    up_first_wait = sum(down[::2]) + sum(up[1::2])
    first = Direction.DOWN if down_first_wait <= up_first_wait else Direction.UP
    # Periods 1, 3, ... serve ``first``: their queue is the other side's column.
    costs, other = (list(up), down) if first is Direction.DOWN else (list(down), up)
    costs[1::2] = other[1::2]
    costs += [0] * (horizon - len(costs))
    # Each arrival waits in exactly one of the two phases.
    result = _simulation_result(horizon, costs, down_first_wait + up_first_wait)
    actions = (Action.process(first), Action.process(first.flip())) * (horizon // 2 + 1)
    return PolicyRun("alternating", actions[:horizon], first, result)


def _fifo(policy: str, arrivals: Arrivals, horizon: int, alignment: Direction, lookahead: bool) -> PolicyRun:
    """The run of ``fifo``, or of ``adv_fifo`` with ``lookahead``.

    The loop keeps both queues as ``simulate`` does and records their total
    after each lockage.  A wait happens only with both queues empty and
    nothing arriving, so a waiting period keeps its preset wait action and
    cost 0 and adds no arrival.
    """
    _check_int("horizon", horizon, 1)
    # Periods 1..horizon+1, so the lookahead can read one period past the end.
    padded = list(arrivals[: horizon + 1])
    padded += [(0, 0)] * (horizon + 1 - len(padded))
    serve_down, serve_up = Action.PROCESS_DOWN, Action.PROCESS_UP
    down = alignment is Direction.DOWN
    n_d = n_u = n_arrivals = 0
    actions = [Action.WAIT] * horizon
    costs = [0] * horizon
    for t in range(horizon):
        a_d, a_u = padded[t]
        # Idle lookahead: the next period's arrival on the side opposite the
        # alignment, which is index 1 (up) when aligned down and 0 otherwise.
        if n_d or n_u or a_d or a_u or (lookahead and padded[t + 1][down]):
            n_arrivals += a_d + a_u
            if down:
                actions[t] = serve_down
                n_d = 0
                n_u += a_u
                costs[t] = n_u
            else:
                actions[t] = serve_up
                n_u = 0
                n_d += a_d
                costs[t] = n_d
            down = not down
    result = _simulation_result(horizon, costs, n_arrivals)
    return PolicyRun(policy, tuple(actions), alignment, result)


def fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """Operate whenever any vessel is waiting or arriving, else wait.

    The lockage always runs from the current alignment; an empty lockage is
    the only way to reach vessels stuck on the opposite side.
    """
    return _fifo("fifo", arrivals, horizon, initial_alignment, lookahead=False)


def adv_fifo(arrivals: Arrivals, horizon: int, initial_alignment: Direction = Direction.DOWN) -> PolicyRun:
    """FIFO plus a one-period lookahead.

    When idle and the next period brings an arrival on the side opposite the
    current alignment, run an empty lockage now so that arrival is served on
    arrival.
    """
    return _fifo("advfifo", arrivals, horizon, initial_alignment, lookahead=True)


def realized_periodic(
    schedule: Schedule, arrivals: Arrivals, horizon: int
) -> PolicyRun:
    """Replay a precomputed periodic schedule against raw arrival counts.

    The schedule is applied exactly as produced, anchored at period 1; no
    rotation or alignment search is performed.
    """
    # Simulated first: it rejects a horizon below 1 before islice can.
    result = simulate(arrivals, schedule.actions, horizon, schedule.initial_alignment)
    actions = tuple(islice(cycle(schedule.actions), horizon))
    return PolicyRun("realizedPeriodic", actions, schedule.initial_alignment, result)
