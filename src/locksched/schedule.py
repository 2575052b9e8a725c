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


def _arrival_fn(arrivals: ArrivalSource) -> Callable[[int], Tuple[int, int]]:
    if callable(arrivals):
        return arrivals
    seq = arrivals

    def fn(t: int) -> Tuple[int, int]:
        return seq[t - 1] if 1 <= t <= len(seq) else (0, 0)

    return fn


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
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    arrive = _arrival_fn(arrivals)
    if isinstance(actions, Schedule):
        # One period of sides, replayed cyclically.
        sides = [a.processes for a in actions.actions]
        alignment = actions.initial_alignment if initial_alignment is None else initial_alignment
    else:
        if len(actions) < horizon:
            raise ValueError(f"action sequence of length {len(actions)} does not cover horizon {horizon}")
        sides = [a.processes for a in actions]
        alignment = initial_alignment
        if alignment is None:
            alignment = next((side for side in sides if side is not None), Direction.DOWN)
    period = len(sides)

    n_d = n_u = 0
    n_arrivals = 0
    costs = []
    for t in range(1, horizon + 1):
        a_d, a_u = arrive(t)
        n_arrivals += a_d + a_u
        side = sides[(t - 1) % period]
        if side is None:
            n_d += a_d
            n_u += a_u
        elif side is not alignment:
            raise InfeasibleScheduleError(
                f"period {t}: action processes {side.value} but lock is aligned {alignment.value}"
            )
        elif side is Direction.DOWN:
            alignment = Direction.UP
            n_d = 0
            n_u += a_u
        else:
            alignment = Direction.DOWN
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
    data = json.loads(text)
    return PeriodicInstance(
        streams=tuple(
            StreamSpec(direction=Direction(s["direction"]), lam=int(s["lambda"]), mu=int(s["mu"]))
            for s in data["streams"]
        )
    )
