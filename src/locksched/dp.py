"""Optimal periodic schedules by dynamic programming over lock states.

The search space is the cyclic single-wait schedules of period T = 8 * Lambda
(Lambda = hyper-period of the arrivals).  A lock state records the current
alignment plus the 0/1 wait counters of both sides since their last service,
giving 8 states.  Costs repeat every Lambda periods, so ``solve`` runs the
lane over one hyper-period from each of the 8 states to get a Lambda-step
transfer matrix, takes min-plus powers of it for the whole horizon (the
transfer-matrix view of the cyclic optimum, as in Karp 1978), closes the
cycle with a wrap-around term, and re-runs only the winning lane to rebuild
the schedule.

Two transition-cost conventions are provided.  The canonical convention
weights an arrival i periods before its service by i (so arrivals served in
their own period cost nothing), which matches the per-period queue-length
recurrence exactly; reconstructed schedules are verified against simulation.
The paper-literal convention shifts the service window back by one period and
is kept for comparison only.

The forward pass (``lane``) runs over integer state ids and per-period slot
costs; the rolling-horizon windows in ``rolling`` run through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice
from operator import add
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .schedule import (
    Action,
    Direction,
    PeriodicInstance,
    Schedule,
    arrival_at,
    arrival_pattern,
    cyclic_average,
    lcm_period,
)

CANONICAL = "canonical"
PAPER_LITERAL = "paper-literal"
_SHIFT = {CANONICAL: 0, PAPER_LITERAL: 1}  # periods the service window is shifted back

DEFAULT_PERIOD_CAP = 1_000_000


class PeriodCapExceededError(ValueError):
    def __init__(self, required: int, cap: int):
        super().__init__(
            f"DP horizon 8*lcm = {required} exceeds the cap of {cap} periods; "
            "use the rolling-horizon generator instead"
        )
        self.required = required
        self.cap = cap


class LockState(NamedTuple):
    alignment: Direction
    own_waits: int  # waits on the current side since the last switch
    other_waits: int  # waits on the opposite side during its last visit

    def __str__(self) -> str:
        return f"({self.alignment.value},{self.own_waits},{self.other_waits})"


ALL_STATES: Tuple[LockState, ...] = tuple(
    LockState(alignment, own, other)
    for alignment in (Direction.DOWN, Direction.UP)
    for own in (0, 1)
    for other in (0, 1)
)

_INF = math.inf


def predecessors(state: LockState) -> Tuple[LockState, ...]:
    """States from which ``state`` is reachable in one period.

    A state with own_waits = 0 was just switched into: the predecessor sat on
    the opposite side, its own wait counter becomes this state's other_waits,
    and its other_waits is unconstrained.  Otherwise the step was a single
    wait.
    """
    if state.own_waits == 0:
        prev_alignment = state.alignment.flip()
        return (
            LockState(prev_alignment, state.other_waits, 0),
            LockState(prev_alignment, state.other_waits, 1),
        )
    return (LockState(state.alignment, state.own_waits - 1, state.other_waits),)


def _slot(prev: LockState, state: LockState) -> int:
    """-1 for a wait, else the (served side, window) index into slot_costs."""
    if state.own_waits > 0:
        return -1
    side = 0 if prev.alignment is Direction.DOWN else 1
    return 3 * side + prev.own_waits + prev.other_waits


# Every transition as (state_id, pred_id, slot), by state id and then in
# predecessors() order; the lane keeps the first strict minimum, so this
# order fixes the tie-breaking.
_TRANSITIONS: Tuple[Tuple[int, int, int], ...] = tuple(
    (s_id, ALL_STATES.index(prev), _slot(prev, state))
    for s_id, state in enumerate(ALL_STATES)
    for prev in predecessors(state)
)

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


def _cost(costs: Sequence[int], slot: int) -> int:
    return costs[slot] if slot >= 0 else 0


def lane(
    start: int, steps: Iterable[Sequence[int]], keep_back: bool = False
) -> Tuple[List[float], Optional[List[List[int]]]]:
    """Forward DP from state id ``start``, one period per entry of ``steps``.

    Each step holds that period's six slot costs.  Returns the minimum cost
    of reaching each state after the last step (inf if unreachable) and, with
    ``keep_back``, each step's chosen predecessor per state.
    """
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


def lane_path(back: List[List[int]], final: int) -> List[int]:
    """State ids from the lane's start to ``final``, one per step plus the start."""
    path = [final]
    for choice in reversed(back):
        path.append(choice[path[-1]])
    path.reverse()
    return path


def path_actions(path: Sequence[int]) -> Tuple[Action, ...]:
    """The action taken on each step of a state-id path."""
    actions = []
    for prev, state in zip(path, path[1:]):
        if ALL_STATES[state].own_waits > 0:
            actions.append(Action.WAIT)
        else:
            actions.append(Action.process(ALL_STATES[prev].alignment))
    return tuple(actions)


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
    lam = lcm_period(instance)
    costs = slot_costs(lambda u: arrival_at(instance, (u - 1) % lam + 1), t, _SHIFT[mode])
    return _cost(costs, _slot(prev, state))


def _min_plus(x: List[List[float]], y: List[List[float]]) -> List[List[float]]:
    """Min-plus matrix product: entry (i, j) is min over k of x[i][k] + y[k][j]."""
    columns = list(zip(*y))
    return [[min(map(add, row, col)) for col in columns] for row in x]


@dataclass(frozen=True)
class OptimalResult:
    avg_cost: Fraction
    total_cost: int
    period: int
    schedule: Schedule
    initial_state: LockState
    mode: str


def solve(
    instance: PeriodicInstance, mode: str = CANONICAL, period_cap: int = DEFAULT_PERIOD_CAP
) -> OptimalResult:
    """Minimum long-run average waiting time and an achieving cyclic schedule."""
    if mode not in _SHIFT:
        raise ValueError(f"unknown mode {mode!r}")
    lam = lcm_period(instance)
    T = 8 * lam
    if T > period_cap:
        raise PeriodCapExceededError(T, period_cap)
    pattern = arrival_pattern(instance)
    # Costs depend on t only through t mod Lambda.  Lanes start at t = 1 and
    # step through t = 2..T; the wrap-around step S -> S0 is at t = 1 again.
    arrivals = _cyclic(pattern)
    phase_costs = [slot_costs(arrivals, t, _SHIFT[mode]) for t in range(1, lam + 1)]
    wrap = phase_costs[0]

    # Min-plus transfer matrices: A covers t = 2..Lambda from each start, B is
    # the phase-1 step.  The 8*Lambda - 1 steps t = 2..T are A (B A)^7, so
    # lane s0 ends at row s0 of M^7 A with M = A B.
    a = [lane(s_id, phase_costs[1:])[0] for s_id in range(8)]
    b = [[_INF] * 8 for _ in range(8)]
    for s_id, p_id, slot in _TRANSITIONS:
        b[p_id][s_id] = _cost(wrap, slot)
    m = _min_plus(a, b)
    m2 = _min_plus(m, m)
    m4 = _min_plus(m2, m2)
    m7 = _min_plus(_min_plus(m4, m2), m)
    lanes = _min_plus(m7, a)

    best: Optional[Tuple[int, int, int]] = None  # (total, s0_id, s_final_id)
    for s0_id in range(8):
        values = lanes[s0_id]
        for s_id, p_id, slot in _TRANSITIONS:
            if s_id != s0_id or values[p_id] == _INF:
                continue
            total = int(values[p_id]) + _cost(wrap, slot)
            if best is None or total < best[0]:
                best = (total, s0_id, p_id)
    assert best is not None, "DP found no feasible cyclic schedule"
    total, s0_id, final_id = best

    # Run the winning lane with backpointers and rebuild the state path; the
    # path's last state is the cyclic predecessor of its first.
    _, back = lane(s0_id, islice(cycle(phase_costs), 1, T), keep_back=True)
    assert back is not None
    path = lane_path(back, final_id)
    assert path[0] == s0_id
    actions = path_actions(path[-1:] + path)
    first = actions[0]
    initial_alignment = first.processes if first.processes is not None else ALL_STATES[s0_id].alignment
    schedule = Schedule(actions=actions, initial_alignment=initial_alignment)

    avg = Fraction(total, T)
    if mode == CANONICAL:
        simulated = cyclic_average(instance, schedule)
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


def result_to_json_dict(result: OptimalResult) -> dict:
    return {
        "mode": result.mode,
        "avg_cost": {"num": result.avg_cost.numerator, "den": result.avg_cost.denominator},
        "total_cost": result.total_cost,
        "period": result.period,
        "initial_state": {
            "alignment": result.initial_state.alignment.value,
            "own_waits": result.initial_state.own_waits,
            "other_waits": result.initial_state.other_waits,
        },
        "schedule": {
            "period": result.schedule.period,
            "initial_alignment": result.schedule.initial_alignment.value,
            "actions": [a.value for a in result.schedule.actions],
        },
    }
