"""Optimal periodic schedules by dynamic programming over lock states.

The search space is the cyclic single-wait schedules of period T = 8 * Lambda
(Lambda = hyper-period of the arrivals).  A lock state records the current
alignment plus the 0/1 wait counters of both sides since their last service,
giving 8 states.  Costs repeat every Lambda periods, so ``solve`` runs one
lane from each of the 8 states over eight turns of one hyper-period each,
periods t = 2..Lambda and then t = 1.  The last step of the last turn is the
wrap-around step back to period 1, so the lane's value in its own start
state is the cost of the best cyclic schedule through that state.  The first
start with the least value wins, and only its lane is decoded.

A lane's step compares only sums v[p] + c, so lanes started from v and from
v + K make the same choices and end K apart (min-plus values become periodic
up to a constant; Baccelli, Cohen, Olsder and Quadrat 1992).  ``solve``
therefore cuts each turn into a short head and the rest (a turn of
Lambda <= _HEAD periods is one piece) and runs each piece once per distinct
normalised start (v - min v), shared by all eight lanes and all eight
turns.  The eight lanes usually coalesce within the first head, and
later turns usually start where the first one ended, so the work is about
Lambda + 9 * _HEAD lane steps where one full lane alone takes 8 * Lambda.
A lane's chain of (piece, normalised start) keys stops at its first
repeated key: every later key and each lap's rise are then known, so the
end value and the key list are extended without further lookups.  Each
distinct (piece, end state) pair of the winning lane is decoded once, each
step's predecessor read from one table by its choice bits, and the decoded
pieces are joined into the 8 * Lambda schedule in one list, already rotated
to start at period 1, that becomes one tuple.

Two transition-cost conventions are provided.  The canonical convention
weights an arrival i periods before its service by i (so arrivals served in
their own period cost nothing), which matches the per-period queue-length
recurrence exactly.  The paper-literal convention, kept for comparison only,
shifts the service window back by one period: it is the canonical DP on the
pattern delayed by one period (each mu becomes mu mod lambda + 1).  Every
reconstructed schedule is verified against simulation of the pattern solved
(``cyclic_average``: a warm-up to the schedule's second service, then one
hyper-period when the schedule repeats every Lambda periods, else one joint
cycle, in which each stretch that repeats the one a hyper-period before it
is reused instead of run).

The forward pass (``lane``) reads per-period (down, up) arrival counts
behind a three-period lead-in, all read by ``schedule.arrival_counts`` over
a period range: periods -1..Lambda and then 1 for one turn of ``solve``
(periods <= 0 repeat the hyper-period's last ones), each piece a slice with
its own three lead-in periods, and the rolling windows' own periods behind
three empty ones.  It is one straight-line step per period over the eight
state values, which keeps the counts of the three periods before it in
locals and forms the period's six slot costs (one per served side and
window length) from them: four copies for the wait states and four two-way
minimums for the switch states.  Each step keeps one int of four choice
bits as its backpointers.

``solve_window`` is the finite-horizon variant that solves each window of the
rolling-horizon scheme in ``rolling``: one lane over the window's periods
from its entry state (the lock position, fresh wait counters), plus each end
state's terminal charge for the arrivals still queued, priced from the
window's last three counts as the slot costs of one empty period past it.
A free entry starts the one lane in both entry states at once, Down at 0 and
Up at 1/2.  A lane is min-plus linear in its start, so it ends at the lower
of the two entries' own lanes; the half makes every comparison between a
Down-origin and an Up-origin path strict, so the winning path keeps its own
entry's choice bits, and a tie between the entries goes Down.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import cycle, islice
from operator import add
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .schedule import (
    Action,
    Direction,
    PeriodicInstance,
    Schedule,
    _check_int,
    _cyclic_average,
    _schedule_dict,
    arrival_counts,
    lcm_period,
)

CANONICAL = "canonical"
PAPER_LITERAL = "paper-literal"

DEFAULT_PERIOD_CAP = 1_000_000

# Length of each turn's head piece, which the eight lanes run from their own
# starts before the rest of the turn is shared by normalised values.  Any
# length gives the same results; lanes from the eight starts usually differ
# only by a constant after 6 to 8 steps.
_HEAD = 32

_log = logging.getLogger(__name__)


class PeriodCapExceededError(ValueError):
    """The DP horizon 8 * lcm, ``required``, exceeds ``cap`` periods."""

    def __init__(self, required: int, cap: int):
        super().__init__(
            f"DP horizon 8*lcm = {required} exceeds the cap of {cap} periods; "
            "use the rolling-horizon generator instead"
        )
        self.required = required
        self.cap = cap


class LockState(NamedTuple):
    """A DP state: the lock's alignment and its two 0/1 wait counters."""

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


def start_values(s_id: int) -> List[float]:
    """Lane start values for a lane that starts in state id ``s_id`` alone."""
    return [0 if i == s_id else _INF for i in range(8)]


def lane(start: Sequence[float], counts: Sequence[Tuple[int, int]]) -> Tuple[List[float], List[int]]:
    """Forward DP from the eight state values ``start``, one period per entry of ``counts`` after three.

    ``counts`` holds per-period (down, up) arrival counts whose first three
    entries are the lead-in: the periods before the first one stepped.
    Serving a side (0 = DOWN, 1 = UP) at period t after a window of w in
    {2, 3, 4} periods costs slot ``3 * side + w - 2``: each arrival i periods
    before t, for 1 <= i < w, is charged i.  With d1, d2, d3 the down
    arrivals 1, 2 and 3 periods back, kept in locals, the down slots are
    c0 = d1, c1 = d1 + 2 * d2 and c2 = c1 + 3 * d3, and c3..c5 are the same
    for up; a period's own counts are first read by the step after it.
    The transitions of ``predecessors`` reduce to one straight-line step over
    the eight state values v0..v7.
    The wait states copy their one predecessor (v2, v3, v6, v7 become v0, v1,
    v4, v5).  Each switch state takes the first strict minimum of its two
    predecessors: v0 of v4+c3 and v5+c4, v1 of v6+c4 and v7+c5, v4 of v0+c0
    and v1+c1, v5 of v2+c1 and v3+c2, the first operand winning a tie.
    Returns the minimum cost of reaching each state after the last step (inf
    if unreachable) and, per step, an int of choice bits: bit s is set when
    switch state s took its second predecessor (decoded by ``decode_lane``).
    ``start_values(s_id)`` starts from one state.  The step compares only
    sums v + c, so starting from ``start`` plus a constant K gives the same
    bits and values K higher.
    """
    v0, v1, v2, v3, v4, v5, v6, v7 = start
    rest = iter(counts)
    (d3, u3), (d2, u2), (d1, u1) = islice(rest, 3)
    back: List[int] = []
    append = back.append
    for d, u in rest:
        c1 = d1 + 2 * d2
        c4 = u1 + 2 * u2
        n0 = v4 + u1
        x0 = v5 + c4
        n1 = v6 + c4
        x1 = v7 + c4 + 3 * u3
        n4 = v0 + d1
        x4 = v1 + c1
        n5 = v2 + c1
        x5 = v3 + c1 + 3 * d3
        v2 = v0
        v3 = v1
        v6 = v4
        v7 = v5
        bits = 0
        if x0 < n0:
            v0 = x0
            bits = 1
        else:
            v0 = n0
        if x1 < n1:
            v1 = x1
            bits |= 2
        else:
            v1 = n1
        if x4 < n4:
            v4 = x4
            bits |= 16
        else:
            v4 = n4
        if x5 < n5:
            v5 = x5
            bits |= 32
        else:
            v5 = n5
        d3, d2, d1 = d2, d1, d
        u3, u2, u1 = u2, u1, u
        append(bits)
    return [v0, v1, v2, v3, v4, v5, v6, v7], back


# Per state id: its first predecessor in predecessors() order (a switch
# state's second one is the next id), and the action that enters it.
_FIRST_PRED = tuple(ALL_STATES.index(predecessors(state)[0]) for state in ALL_STATES)
_ENTRY_ACTION = tuple(
    Action.WAIT if state.own_waits else Action.process(state.alignment.flip()) for state in ALL_STATES
)
# _PRED[bits][s]: the predecessor of state id s in a step with choice bits
# ``bits``, its first one plus its own choice bit.  Bits of wait states are
# never set.
_PRED = tuple(tuple(_FIRST_PRED[s] + (bits >> s & 1) for s in range(8)) for bits in range(64))


def decode_lane(back: Sequence[int], final: int) -> Tuple[int, Tuple[Action, ...]]:
    """The start state id of the lane's path to ``final`` and its actions, one per step.

    Each step's predecessor is read from ``_PRED`` by its choice bits, and
    each step's action is the one that enters its end state.
    """
    actions = []
    append = actions.append
    s_id = final
    for bits in reversed(back):
        append(_ENTRY_ACTION[s_id])
        s_id = _PRED[bits][s_id]
    actions.reverse()
    return s_id, tuple(actions)


@dataclass(frozen=True)
class WindowSolution:
    cost: int
    actions: Tuple[Action, ...]
    entry_alignment: Direction


def _terminal_charges(last: Sequence[Tuple[int, int]]) -> List[int]:
    """The end-of-window charge of each state in ``ALL_STATES``, by state id.

    ``last`` holds the (down, up) counts of the window's last three periods,
    oldest first, with empty periods before the window.  They give the slot
    costs of the empty period just past the window, which charge each
    arrival ``back`` periods before the window's last one back + 1, the
    waits it has accrued.  A state's unserved arrivals reach back
    own + other + 1 periods on its aligned side (the window own + other + 2)
    and ``own`` periods on the other side.
    """
    (d3, u3), (d2, u2), (d1, u1) = last
    past = (d1, d1 + 2 * d2, d1 + 2 * d2 + 3 * d3, u1, u1 + 2 * u2, u1 + 2 * u2 + 3 * u3)
    return [
        past[3 * (alignment is Direction.UP) + own + other] + (past[3 * (alignment is Direction.DOWN)] if own else 0)
        for alignment, own, other in ALL_STATES
    ]


def solve_window(counts: List[Tuple[int, int]], position: Optional[Direction]) -> WindowSolution:
    """Exact minimum waiting within a window of per-period (down, up) ``counts``.

    Queues are empty entering the window, and arrivals still queued after it
    are charged their waits so far.  ``position`` fixes the lock's
    orientation entering the window; None means free, taking the cheaper
    orientation and DOWN on a tie.  A free entry runs one lane from Down at 0
    and Up at 1/2 and truncates the end value; the half is exact because lane
    values stay far below 2**53 (windows are capped at 200,000 periods).
    """
    counts = [(0, 0)] * 3 + counts
    charges = _terminal_charges(counts[-3:])
    entries = {Direction.DOWN: 0, Direction.UP: 0.5} if position is None else {position: 0}
    start = [entries.get(alignment, _INF) if own == other == 0 else _INF for alignment, own, other in ALL_STATES]
    values, back = lane(start, counts)
    cost, final = min(zip(map(add, values, charges), range(8)))
    start_id, actions = decode_lane(back, final)
    return WindowSolution(cost=int(cost), actions=actions, entry_alignment=ALL_STATES[start_id].alignment)


def _normalised(values: Sequence[float]) -> Tuple[float, Tuple[float, ...]]:
    """(min of ``values``, ``values`` minus it): a lane start's memo key."""
    low = min(values)
    return low, tuple(v - low for v in values)


@dataclass(frozen=True)
class OptimalResult:
    """A ``solve`` result: ``avg_cost`` = ``total_cost`` / ``period`` and a
    schedule of ``period`` = 8 * Lambda periods that starts in ``initial_state``."""

    avg_cost: Fraction
    total_cost: int
    period: int
    schedule: Schedule
    initial_state: LockState
    mode: str


def solve(
    instance: PeriodicInstance, mode: str = CANONICAL, period_cap: int = DEFAULT_PERIOD_CAP
) -> OptimalResult:
    """Minimum long-run average waiting time and an achieving cyclic schedule.

    The 8 * Lambda horizon is checked against ``period_cap`` before any
    per-period work.  Each solve logs one DEBUG record on the ``locksched.dp``
    logger with attributes ``mode``, ``lcm`` (Lambda), ``period``,
    ``initial_state``, ``total_cost`` and ``lane_steps``, the lane steps run.
    """
    if mode not in (CANONICAL, PAPER_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    _check_int("period_cap", period_cap, 1)
    lam = lcm_period(instance)
    T = 8 * lam
    if T > period_cap:
        raise PeriodCapExceededError(T, period_cap)
    # Costs depend on t only through t mod Lambda.  The lane from s0 starts at
    # t = 1 and runs eight turns of t = 2..Lambda then t = 1, the last step
    # being the wrap-around one back into s0.  Periods -2..0 repeat the
    # pattern's last ones.
    if mode == PAPER_LITERAL:
        instance = PeriodicInstance(tuple(replace(s, mu=s.mu % s.lam + 1) for s in instance.streams))
    counts = arrival_counts(instance, -2, lam)
    # One turn, periods 2..Lambda and then 1, behind the lead-in -1..1.  Each
    # piece carries its own three lead-in periods, and an empty piece (the
    # rest, when Lambda <= _HEAD) is left out.
    turn = counts[1:] + counts[3:4]
    pieces = [piece for piece in (turn[: _HEAD + 3], turn[_HEAD:]) if len(piece) > 3]

    n_keys = 8 * len(pieces)
    runs = {}  # (piece, normalised start) -> lane over that piece
    chains = []  # per start state, the keys of its n_keys pieces in order
    totals = []
    for s0_id in range(8):
        values = start_values(s0_id)
        keys = []
        lows = []  # per key, the minimum of the values entering it
        for k in range(n_keys):
            low, start = _normalised(values)
            key = k % len(pieces), start
            if key in keys:
                # Each key fixes the next one and the rise in the minimum
                # over its piece, so from the key's first meeting at i the
                # chain repeats with period k - i, each lap low - lows[i]
                # higher.
                i = keys.index(key)
                laps, j = divmod(n_keys - 1 - i, k - i)
                end = runs[keys[i + j]][0][s0_id] + lows[i + j] + laps * (low - lows[i])
                keys.extend(islice(cycle(keys[i:]), n_keys - k))
                break
            if key not in runs:
                runs[key] = lane(start, pieces[key[0]])
            keys.append(key)
            lows.append(low)
            values = [v + low for v in runs[key][0]]
        else:
            end = values[s0_id]
        chains.append(keys)
        totals.append(end)
    total = min(totals)
    s0_id = totals.index(total)
    lane_steps = sum(len(pieces[piece]) - 3 for piece, _ in runs)

    # Decode the winning chain backwards from s0, once per distinct
    # (piece key, end state) pair.
    decoded = {}  # (piece key, end state) -> (start state, actions)
    parts = []
    s_id = s0_id
    for key in reversed(chains[s0_id]):
        if (key, s_id) not in decoded:
            decoded[key, s_id] = decode_lane(runs[key][1], s_id)
        s_id, piece_actions = decoded[key, s_id]
        parts.append(piece_actions)
    assert s_id == s0_id
    # The turn's last action, at t = 1, is the schedule's first: it leads
    # the list, and its second copy at the end of the lane is dropped.
    joined = [parts[0][-1]]
    for piece_actions in reversed(parts):
        joined += piece_actions
    del joined[-1]
    actions = tuple(joined)
    first = actions[0]
    initial_alignment = first.processes if first.processes is not None else ALL_STATES[s0_id].alignment
    schedule = Schedule(actions=actions, initial_alignment=initial_alignment)

    avg = Fraction(total, T)
    simulated = _cyclic_average(counts[3:], schedule)
    if simulated != avg:
        raise AssertionError(f"reconstructed schedule simulates to {simulated}, DP value is {avg}")
    _log.debug(
        "%s: lcm=%d, T=%d, initial state %s, total cost %d, %d lane steps",
        mode, lam, T, ALL_STATES[s0_id], total, lane_steps,
        extra={
            "mode": mode,
            "lcm": lam,
            "period": T,
            "initial_state": str(ALL_STATES[s0_id]),
            "total_cost": total,
            "lane_steps": lane_steps,
        },
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
        "schedule": _schedule_dict(result.schedule),
    }
