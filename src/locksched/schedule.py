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
from itertools import chain, cycle, islice, repeat
from typing import Callable, Iterable, List, Sequence, Tuple, Union


class Direction(Enum):
    DOWN = "D"
    UP = "U"

    def flip(self) -> "Direction":
        return Direction.UP if self is Direction.DOWN else Direction.DOWN


class Action(Enum):
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


@dataclass(frozen=True)
class StreamSpec:
    """One periodic arrival stream in lock-period units."""

    direction: Direction
    lam: int
    mu: int

    def __post_init__(self) -> None:
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

    @property
    def k(self) -> int:
        return len(self.streams)


def arrival_at(instance: PeriodicInstance, t: int) -> Tuple[int, int]:
    """Arrival counts (downstream, upstream) in period t >= 1."""
    if t < 1:
        raise ValueError(f"period must be >= 1, got {t}")
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


def arrival_pattern(instance: PeriodicInstance) -> List[Tuple[int, int]]:
    """Per-period (down, up) arrival counts over one hyper-period."""
    return [arrival_at(instance, t) for t in range(1, lcm_period(instance) + 1)]


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
    horizon: int
    per_period_cost: Tuple[int, ...]
    total_wait: int
    n_arrivals: int
    avg_wait_per_period: Fraction
    avg_wait_per_vessel: Fraction


ArrivalSource = Union[Callable[[int], Tuple[int, int]], Sequence[Tuple[int, int]]]


def simulate(
    arrivals: ArrivalSource,
    actions: Union[Schedule, Sequence[Action]],
    horizon: int,
    initial_alignment: Direction | None = None,
) -> SimulationResult:
    """Run the per-period queue recurrence over [1, horizon].

    ``arrivals`` is either a callable t -> (a_D, a_U) or a sequence indexed
    from period 1; periods past the end of a sequence contribute no arrivals.
    ``actions`` is a Schedule (replayed cyclically) or a finite sequence
    covering the horizon.  Raises InfeasibleScheduleError if a processing
    action does not match the lock's alignment.

    This is the only queue recurrence: every policy trace is scored here.
    The loop zips the periods with an arrivals iterator (the callable mapped
    over the periods, or the sequence padded with empty periods) and an
    actions iterator (cycled only when shorter than the horizon), and tests
    each action by identity against a boolean alignment.  It deliberately
    avoids hashing ``Action`` members, whose ``__hash__`` is Python code.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    periods = range(1, horizon + 1)
    if callable(arrivals):
        arriving: Iterable[Tuple[int, int]] = map(arrivals, periods)
    else:
        arriving = chain(islice(arrivals, horizon), repeat((0, 0)))
    if isinstance(actions, Schedule):
        trace: Sequence[Action] = actions.actions
        alignment = actions.initial_alignment if initial_alignment is None else initial_alignment
    else:
        if len(actions) < horizon:
            raise ValueError(f"action sequence of length {len(actions)} does not cover horizon {horizon}")
        trace = actions
        alignment = initial_alignment
        if alignment is None:
            first = next((a for a in actions if a is not Action.WAIT), Action.PROCESS_DOWN)
            alignment = first.processes
    steps: Iterable[Action] = trace if len(trace) >= horizon else islice(cycle(trace), horizon)

    wait, serve_down = Action.WAIT, Action.PROCESS_DOWN
    down = alignment is Direction.DOWN
    n_d = n_u = 0
    n_arrivals = 0
    costs: List[int] = []
    for t, (a_d, a_u), action in zip(periods, arriving, steps):
        n_arrivals += a_d + a_u
        if action is wait:
            n_d += a_d
            n_u += a_u
        elif (action is serve_down) is not down:
            raise InfeasibleScheduleError(
                f"period {t}: action processes {action.value} but lock is aligned {'D' if down else 'U'}"
            )
        elif down:
            down = False
            n_d = 0
            n_u += a_u
        else:
            down = True
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
        avg_wait_per_period=Fraction(total, horizon),
        avg_wait_per_vessel=per_vessel,
    )


def cyclic_average(instance: PeriodicInstance, schedule: Schedule) -> Fraction:
    """Steady-state average waiting cost per period of a cyclic schedule.

    Simulates two joint cycles of the arrival pattern and the schedule and
    measures the second, by which point the queues have reached the cyclic
    regime (every side served at least once in the warm-up cycle).  Raises
    ValueError for an all-wait schedule: every instance has arrivals, so its
    queues grow without bound.
    """
    if all(a is Action.WAIT for a in schedule.actions):
        raise ValueError("an all-wait schedule never serves a vessel; its average waiting cost is unbounded")
    pattern = arrival_pattern(instance)
    lam = len(pattern)
    cycle = math.lcm(lam, schedule.period)
    result = simulate(lambda t: pattern[(t - 1) % lam], schedule, 2 * cycle)
    second = sum(result.per_period_cost[cycle:])
    return Fraction(second, cycle)


def schedule_to_json(schedule: Schedule) -> str:
    return json.dumps(
        {
            "period": schedule.period,
            "initial_alignment": schedule.initial_alignment.value,
            "actions": [a.value for a in schedule.actions],
        }
    )


def schedule_from_json(text: str) -> Schedule:
    data = json.loads(text)
    return Schedule(
        actions=tuple(Action(a) for a in data["actions"]),
        initial_alignment=Direction(data["initial_alignment"]),
    )


def instance_from_json(text: str) -> PeriodicInstance:
    """Parse ``{"streams": [{"direction": ..., "lambda": ..., "mu": ...}, ...]}``.

    A bad document raises ``ValueError`` naming the stream index and key.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"instance must be a JSON object, got {json.dumps(data)}")
    if "streams" not in data:
        raise ValueError('instance: missing key "streams"')
    if not isinstance(data["streams"], list):
        raise ValueError(f'instance key "streams" must be a list, got {json.dumps(data["streams"])}')
    specs = []
    for i, stream in enumerate(data["streams"]):
        where = f"instance stream {i}"
        if not isinstance(stream, dict):
            raise ValueError(f"{where} must be a JSON object, got {json.dumps(stream)}")
        for key in ("direction", "lambda", "mu"):
            if key not in stream:
                raise ValueError(f'{where}: missing key "{key}"')
        for key in ("lambda", "mu"):
            if type(stream[key]) is not int:  # bool is not an int here
                raise ValueError(f'{where}: key "{key}" must be an int, got {json.dumps(stream[key])}')
        if stream["direction"] not in [d.value for d in Direction]:
            raise ValueError(f'{where}: key "direction" must be "D" or "U", got {json.dumps(stream["direction"])}')
        try:
            specs.append(StreamSpec(Direction(stream["direction"]), stream["lambda"], stream["mu"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return PeriodicInstance(streams=tuple(specs))
