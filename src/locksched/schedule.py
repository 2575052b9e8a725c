"""Periodic scheduling instances, schedules, and the waiting-time simulator.

The lock alternates between the two waterway sides.  A processing action
serves the entire batch waiting on the lock's current side and flips the
alignment; a wait action holds it.  Waiting cost is accounted per period as
the total queue length after the period's action.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, count, cycle, islice, repeat
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union


class Direction(Enum):
    """A side of the lock: downstream (``"D"``) or upstream (``"U"``)."""

    DOWN = "D"
    UP = "U"

    def flip(self) -> "Direction":
        return Direction.UP if self is Direction.DOWN else Direction.DOWN


class Action(Enum):
    """One period's action: serve the Down side, serve the Up side, or wait."""

    PROCESS_DOWN = "D"
    PROCESS_UP = "U"
    WAIT = "W"

    @property
    def processes(self) -> Direction | None:
        """Side served by this action, or None for a wait."""
        if self is Action.PROCESS_DOWN:
            return Direction.DOWN
        if self is Action.PROCESS_UP:
            return Direction.UP
        return None

    @staticmethod
    def process(direction: Direction) -> "Action":
        return Action.PROCESS_DOWN if direction is Direction.DOWN else Action.PROCESS_UP


class InfeasibleScheduleError(ValueError):
    """An action sequence violates the alternation constraint."""


class RepeatedKeyError(ValueError):
    """An object of a JSON input document gives one key twice."""


def _check_int(name: str, value: object, minimum: Optional[int] = None) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an int (bool
    is not one here) and, when ``minimum`` is given, at least ``minimum``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class StreamSpec:
    """One periodic arrival stream in lock-period units."""

    direction: Direction
    lam: int
    mu: int

    def __post_init__(self) -> None:
        if not isinstance(self.direction, Direction):
            raise ValueError(f"direction must be a Direction, got {self.direction!r}")
        _check_int("lam", self.lam)
        _check_int("mu", self.mu)
        if self.lam < 1:
            raise ValueError(f"lambda must be >= 1, got {self.lam}")
        if not 1 <= self.mu <= self.lam:
            raise ValueError(f"mu must satisfy 1 <= mu <= lambda, got mu={self.mu}, lambda={self.lam}")


@dataclass(frozen=True)
class PeriodicInstance:
    """A periodic scheduling input: one StreamSpec per arrival stream."""

    streams: Tuple[StreamSpec, ...]

    def __post_init__(self) -> None:
        if not self.streams:
            raise ValueError("instance requires at least one stream")
        object.__setattr__(self, "streams", tuple(self.streams))
        for i, stream in enumerate(self.streams):
            if not isinstance(stream, StreamSpec):
                raise ValueError(f"stream {i} must be a StreamSpec, got {stream!r}")

    @property
    def k(self) -> int:
        return len(self.streams)


def arrival_at(instance: PeriodicInstance, t: int) -> Tuple[int, int]:
    """Arrival counts (downstream, upstream) in period t >= 1."""
    _check_int("period", t, 1)
    a_d = a_u = 0
    for s in instance.streams:
        if (t - s.mu) % s.lam == 0:
            if s.direction is Direction.DOWN:
                a_d += 1
            else:
                a_u += 1
    return a_d, a_u


def lcm_period(instance: PeriodicInstance) -> int:
    """Hyper-period of the arrival pattern: lcm of all stream periodicities."""
    return math.lcm(*(s.lam for s in instance.streams))


def arrival_counts(instance: PeriodicInstance, first: int, last: int) -> List[Tuple[int, int]]:
    """Per-period (down, up) arrival counts for periods first..last.

    A stream arrives in period t iff t = mu (mod lam), for any t, so periods
    <= 0 repeat the pattern backwards.  The list starts as one shared
    ``(0, 0)`` per period, and each stream rebuilds the pair of every lam-th
    entry from its first arrival in the range, so the cost is one step per
    arrival, not one congruence test or one new pair per period and stream.
    A range of at least two hyper-periods is built for its first
    hyper-period only, which is then repeated to the range's length.
    """
    _check_int("first", first)
    _check_int("last", last)
    n = last - first + 1
    lam = lcm_period(instance)
    built = lam if n >= 2 * lam else n
    counts = [(0, 0)] * built
    for s in instance.streams:
        a_d, a_u = (1, 0) if s.direction is Direction.DOWN else (0, 1)
        for i in range((s.mu - first) % s.lam, built, s.lam):
            d, u = counts[i]
            counts[i] = (d + a_d, u + a_u)
    if built < n:
        counts = (counts * -(-n // lam))[:n]
    return counts


@dataclass(frozen=True)
class Schedule:
    """A finite action sequence interpreted cyclically."""

    actions: Tuple[Action, ...]
    initial_alignment: Direction

    def __post_init__(self) -> None:
        if not self.actions:
            raise ValueError("schedule must be non-empty")
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def period(self) -> int:
        return len(self.actions)

    def action_at(self, t: int) -> Action:
        _check_int("t", t)
        return self.actions[(t - 1) % self.period]


def is_feasible(schedule: Schedule) -> bool:
    """Check the cyclic alternation constraint.

    Every processing action must match the lock's alignment at that point,
    and one full cycle must return the lock to its initial alignment so the
    wrap-around is consistent.  An all-wait schedule is vacuously feasible.
    """
    alignment = schedule.initial_alignment
    for action in schedule.actions:
        side = action.processes
        if side is None:
            continue
        if side is not alignment:
            return False
        alignment = alignment.flip()
    return alignment is schedule.initial_alignment


@dataclass(frozen=True)
class SimulationResult:
    """A run over periods 1..horizon: each period's queue total after its
    action, their sum, the arrivals read and the exact wait per vessel."""

    horizon: int
    per_period_cost: Tuple[int, ...]
    total_wait: int
    n_arrivals: int
    avg_wait_per_vessel: Fraction


def _simulation_result(horizon: int, costs: Sequence[int], n_arrivals: int) -> SimulationResult:
    """The result of a run over [1, horizon], checked by the caller on entry,
    with these per-period queue totals."""
    total = sum(costs)
    return SimulationResult(
        horizon=horizon,
        per_period_cost=tuple(costs),
        total_wait=total,
        n_arrivals=n_arrivals,
        avg_wait_per_vessel=Fraction(total, n_arrivals) if n_arrivals else Fraction(0),
    )


ArrivalSource = Union[Callable[[int], Tuple[int, int]], Iterable[Tuple[int, int]]]


def simulate(
    arrivals: ArrivalSource,
    actions: Sequence[Action],
    horizon: int,
    initial_alignment: Direction,
) -> SimulationResult:
    """Run the per-period queue recurrence over [1, horizon].

    ``arrivals`` is a callable t -> (a_D, a_U) or an iterable of counts from
    period 1, padded with empty periods past its end.  ``actions`` is a
    non-empty sequence (an empty one raises ValueError), cycled and cut to
    the horizon and run from the lock's ``initial_alignment``; a Schedule is
    passed as its actions and initial alignment.  The trace comes first in
    the loop's ``zip``, so arrivals are read for periods 1..p only: p is the
    horizon, or the period an InfeasibleScheduleError names when a
    processing action does not match the lock's alignment.

    This is the reference queue recurrence.  FIFO, advanced FIFO and
    alternation score their own traces, and the tests replay those traces
    here; periodic replay and rolling plans are scored here directly, and
    cyclic averages run its loop (``_run_queues``) on every stretch they do
    not reuse.  Each action is tested by identity against a boolean alignment;
    the loop deliberately avoids hashing ``Action`` members, whose
    ``__hash__`` is Python code.
    """
    _check_int("horizon", horizon, 1)
    if not actions:
        raise ValueError("action sequence must be non-empty")
    if callable(arrivals):
        arrivals = map(arrivals, count(1))
    costs: List[int] = []
    steps = zip(islice(cycle(actions), horizon), chain(arrivals, repeat((0, 0))))
    _, n_arrivals = _run_queues(steps, (initial_alignment is Direction.DOWN, 0, 0), costs, 1)
    return _simulation_result(horizon, costs, n_arrivals)


QueueState = Tuple[bool, int, int]  # (aligned DOWN, down queue, up queue)


def _run_queues(
    steps: Iterable[Tuple[Action, Tuple[int, int]]], state: QueueState, costs: List[int], period: int
) -> Tuple[QueueState, int]:
    """The queue recurrence over ``steps``, one (action, (a_d, a_u)) per period.

    Starts from ``state``, appends each period's queue total to the empty
    list ``costs`` and returns the end state and the number of arrivals
    read.  The first step is period ``period``, the number an
    InfeasibleScheduleError names for it.
    """
    wait, serve_down = Action.WAIT, Action.PROCESS_DOWN
    down, n_d, n_u = state
    n_arrivals = 0
    append = costs.append
    for action, (a_d, a_u) in steps:
        n_arrivals += a_d + a_u
        if action is wait:
            n_d += a_d
            n_u += a_u
        elif (action is serve_down) is not down:
            raise InfeasibleScheduleError(
                f"period {period + len(costs)}: action processes {action.value} "
                f"but lock is aligned {'D' if down else 'U'}"
            )
        elif down:
            down = False
            n_d = 0
            n_u += a_u
        else:
            down = True
            n_u = 0
            n_d += a_d
        append(n_d + n_u)
    return (down, n_d, n_u), n_arrivals


def cyclic_average(instance: PeriodicInstance, schedule: Schedule) -> Fraction:
    """Steady-state average waiting cost per period of a cyclic schedule.

    Once both sides have been served, the queues hold exactly the arrivals
    since each side's last service, so the per-period costs repeat with the
    joint cycle of the arrival pattern and the schedule from the period of
    the schedule's second processing action on.  The simulation warms up to
    that period (into the second repetition when the schedule processes only
    once) and then measures one repeat of the costs: one hyper-period Lambda
    when the schedule's period is a multiple of Lambda and its actions repeat
    every Lambda periods (as the DP's schedules usually do), else one joint
    cycle.  The horizon covers the first processing action of the second
    repetition, or of the second Lambda-block, the last period at which an
    alignment error can first show.  The horizon is cut into chunks, and a
    chunk that starts in the same state with the same actions as the chunk a
    hyper-period before it is reused instead of run (``_cyclic_cost``).
    Raises ValueError for an all-wait schedule: every instance has arrivals,
    so its queues grow without bound.
    """
    return _cyclic_average(arrival_counts(instance, 1, lcm_period(instance)), schedule)


def _cyclic_average(pattern: Sequence[Tuple[int, int]], schedule: Schedule) -> Fraction:
    """``cyclic_average`` over one hyper-period's arrival counts ``pattern``."""
    wait = Action.WAIT
    actions = schedule.actions
    processing = list(islice((t for t, a in enumerate(actions, start=1) if a is not wait), 2))
    if not processing:
        raise ValueError("an all-wait schedule never serves a vessel; its average waiting cost is unbounded")
    warm_up = processing[1] if len(processing) > 1 else schedule.period + processing[0]
    lam = len(pattern)
    if schedule.period % lam == 0 and actions == actions[:lam] * (schedule.period // lam):
        span = lam
    else:
        span = math.lcm(lam, schedule.period)
    horizon = warm_up - 1 + span
    state = (schedule.initial_alignment is Direction.DOWN, 0, 0)
    return Fraction(_cyclic_cost(pattern, actions, warm_up, horizon, state), span)


# Chunk length of ``_cyclic_cost``, in periods.
_CHUNK = 64


def _cyclic_cost(
    pattern: Sequence[Tuple[int, int]], actions: Tuple[Action, ...], first: int, horizon: int, state: QueueState
) -> int:
    """The sum of ``simulate``'s per-period costs over periods first..horizon
    of ``actions`` cycled against the cycled arrival counts ``pattern``, run
    from ``state`` at period 1.

    The recurrence's costs over a stretch depend only on its start state,
    its actions and its arrivals, and the arrivals repeat every Lambda =
    len(pattern) periods.  Each Lambda-block is cut into chunks of
    ``_CHUNK`` periods, and a chunk that starts in the same state with the
    same actions as the chunk one block before it costs what that chunk
    cost and ends in the same state, without being run; any other chunk is
    run.  A DP schedule that departs from a Lambda-periodic one only near
    its wrap-around is then run for about one block and a few chunks, not
    for all 8 * Lambda periods.  Every chunk that could first show an
    alignment error is run, so errors name the same period as one run of
    ``simulate`` would.

    No chunk that starts before ``first``, the schedule's second service,
    is reused, so each reused cost counts whole: over the hyper-period
    before such a chunk the lock either serves once, which flips its
    alignment, or only waits, which adds arrivals to its queues.
    """
    lam = len(pattern)
    trace = actions * (horizon // len(actions)) + actions[: horizon % len(actions)]
    total = 0
    previous: List[Tuple[QueueState, QueueState, int]] = []  # per chunk of the block before: start and end state, cost
    # ``trace`` ends at the horizon, so a chunk that the horizon cuts short
    # never equals the whole one a block before, and is run.
    for block in range(0, horizon, lam):
        current = []
        for k, start in enumerate(range(block, min(block + lam, horizon), _CHUNK)):
            end = min(start + _CHUNK, block + lam)
            if previous and previous[k][0] == state and trace[start:end] == trace[start - lam : end - lam]:
                _, after, cost = previous[k]
                total += cost
            else:
                costs: List[int] = []
                steps = zip(trace[start:end], pattern[start - block : end - block])
                after, _ = _run_queues(steps, state, costs, start + 1)
                cost = sum(costs)
                total += cost if start >= first - 1 else sum(costs[first - 1 - start :])
            current.append((state, after, cost))
            state = after
        previous = current
    return total


def _schedule_dict(schedule: Schedule) -> dict:
    """The JSON object that ``schedule_from_json`` reads."""
    return {
        "period": schedule.period,
        "initial_alignment": schedule.initial_alignment.value,
        "actions": [a.value for a in schedule.actions],
    }


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(_schedule_dict(schedule))


def _unique_keys(pairs: List[Tuple[str, object]]) -> dict:
    """The JSON readers' ``object_pairs_hook``: the object's dict, or ``RepeatedKeyError``."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise RepeatedKeyError(f"repeated key {json.dumps(key)}")
        data[key] = value
    return data


def _fields(data: object, where: str, keys: Tuple[str, ...]) -> List[object]:
    """The values of ``keys`` in ``data``, in that order, when ``data`` is a
    JSON object with exactly those keys; else ``ValueError`` naming the first
    key of ``data`` not in ``keys``, or the first of ``keys`` it lacks."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be a JSON object, got {json.dumps(data)}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{where}: unknown key {json.dumps(key)}")
    for key in keys:
        if key not in data:
            raise ValueError(f'{where}: missing key "{key}"')
    return [data[key] for key in keys]


def schedule_from_json(text: str) -> Schedule:
    """Parse ``{"period": T, "initial_alignment": "D"|"U", "actions": [...]}``.

    A bad document, or one with any other key, raises ``ValueError`` naming
    the key; a key given twice raises ``RepeatedKeyError``.
    """
    data = json.loads(text, object_pairs_hook=_unique_keys)
    period, alignment, actions = _fields(data, "schedule", ("period", "initial_alignment", "actions"))
    if not isinstance(actions, list):
        raise ValueError(f'schedule key "actions" must be a list, got {json.dumps(actions)}')
    letters = [a.value for a in Action]
    for i, letter in enumerate(actions):
        if letter not in letters:
            raise ValueError(f'schedule key "actions": entry {i} must be "D", "U" or "W", got {json.dumps(letter)}')
    if alignment not in [d.value for d in Direction]:
        raise ValueError(f'schedule key "initial_alignment" must be "D" or "U", got {json.dumps(alignment)}')
    if type(period) is not int:  # bool is not an int here
        raise ValueError(f'schedule key "period" must be an int, got {json.dumps(period)}')
    if period != len(actions):
        raise ValueError(f'schedule key "period" is {period} but "actions" holds {len(actions)} entries')
    if not actions:
        raise ValueError('schedule key "actions" must be non-empty')
    return Schedule(actions=tuple(map(Action, actions)), initial_alignment=Direction(alignment))


def instance_from_json(text: str) -> PeriodicInstance:
    """Parse ``{"streams": [{"direction": ..., "lambda": ..., "mu": ...}, ...]}``.

    A bad document, or one with any other key, raises ``ValueError`` naming
    the stream index and key; a key given twice raises ``RepeatedKeyError``.
    """
    (streams,) = _fields(json.loads(text, object_pairs_hook=_unique_keys), "instance", ("streams",))
    if not isinstance(streams, list):
        raise ValueError(f'instance key "streams" must be a list, got {json.dumps(streams)}')
    specs = []
    for i, stream in enumerate(streams):
        where = f"instance stream {i}"
        direction, lam, mu = _fields(stream, where, ("direction", "lambda", "mu"))
        for key, value in (("lambda", lam), ("mu", mu)):
            if type(value) is not int:  # bool is not an int here
                raise ValueError(f'{where}: key "{key}" must be an int, got {json.dumps(value)}')
        if direction not in [d.value for d in Direction]:
            raise ValueError(f'{where}: key "direction" must be "D" or "U", got {json.dumps(direction)}')
        try:
            specs.append(StreamSpec(Direction(direction), lam, mu))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return PeriodicInstance(streams=tuple(specs))
