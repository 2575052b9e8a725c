"""Closed-form optimal policy for one downstream and one upstream stream.

For periodicities of at least 2 on both sides, the per-period action is a
constant-time function of t, and the achieved long-run average equals the
Diophantine lower bound: 1/lcm when the offsets coincide modulo
gcd(lambda_D, lambda_U), otherwise 0.  A periodicity of 1 is handled by a
dedicated period-2 schedule.

One kernel, ``_closed_form_actions``, holds the formula.  It reads the
sides' (mu, lambda) once per call and writes only the periods in which a
side is served, so ``closed_form_schedule`` is one pass over a hyper-period
and ``closed_form_action`` the same pass over one period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .schedule import Action, Direction, PeriodicInstance, Schedule, StreamSpec, _check_int


class LambdaOneError(ValueError):
    """Raised when a periodicity of 1 makes the requested form inapplicable."""


@dataclass(frozen=True)
class TwoStreamParams:
    mu_d: int
    mu_u: int
    lambda_d: int
    lambda_u: int

    def __post_init__(self) -> None:
        for name in ("mu_d", "mu_u", "lambda_d", "lambda_u"):
            _check_int(name, getattr(self, name))
        if not 1 <= self.mu_d <= self.lambda_d:
            raise ValueError(f"need 1 <= mu_d <= lambda_d, got {self.mu_d}, {self.lambda_d}")
        if not 1 <= self.mu_u <= self.lambda_u:
            raise ValueError(f"need 1 <= mu_u <= lambda_u, got {self.mu_u}, {self.lambda_u}")

    @property
    def primary(self) -> Direction:
        """The side with the smaller periodicity (ties go downstream)."""
        return Direction.DOWN if self.lambda_d <= self.lambda_u else Direction.UP

    def of(self, direction: Direction) -> Tuple[int, int]:
        """(mu, lambda) of one side."""
        if direction is Direction.DOWN:
            return self.mu_d, self.lambda_d
        return self.mu_u, self.lambda_u

    def instance(self) -> PeriodicInstance:
        return PeriodicInstance(
            (
                StreamSpec(Direction.DOWN, self.lambda_d, self.mu_d),
                StreamSpec(Direction.UP, self.lambda_u, self.mu_u),
            )
        )


def hyper_period(params: TwoStreamParams) -> int:
    return math.lcm(params.lambda_d, params.lambda_u)


def lower_bound(params: TwoStreamParams) -> Fraction:
    """Minimum achievable long-run average waiting time (both lambdas >= 2)."""
    if params.lambda_d < 2 or params.lambda_u < 2:
        raise LambdaOneError("lower_bound requires both periodicities >= 2; use lambda_one_schedule")
    g = math.gcd(params.lambda_d, params.lambda_u)
    if (params.mu_u - params.mu_d) % g == 0:
        return Fraction(1, hyper_period(params))
    return Fraction(0)


def _closed_form_actions(params: TwoStreamParams, first: int, last: int) -> List[Action]:
    """The closed form's actions for periods first..last (first >= 1).

    Side 1 is the primary side and side 2 the other; r1 = (t - mu1) mod lam1
    and r2 = (t - mu2) mod lam2.  Period t processes side 1 when r1 = 0, its
    arrival.  Otherwise it processes side 2 when r2 = 0, its arrival; when
    r1 = r2 = 1, both sides having arrived the period before; or when
    r1 = lam1 - 1 and r2 > r1, to preorient the lock before side 1's next
    arrival when side 2 arrived last.  Every other period waits.  Each rule
    holds only on one residue class of t modulo lam1 or lam2, so the list
    starts as all waits and only those periods are visited, side 1's last
    so that its rule takes precedence.
    """
    if params.lambda_d < 2 or params.lambda_u < 2:
        raise LambdaOneError("closed form requires both periodicities >= 2; use lambda_one_schedule")
    _check_int("period", first, 1)
    d1 = params.primary
    mu1, lam1 = params.of(d1)
    mu2, lam2 = params.of(d1.flip())
    serve1, serve2 = Action.process(d1), Action.process(d1.flip())
    n = last - first + 1
    actions = [Action.WAIT] * n
    for i in range((mu2 - first) % lam2, n, lam2):
        actions[i] = serve2
    for i in range((mu1 + 1 - first) % lam1, n, lam1):
        if (first + i - mu2) % lam2 == 1:
            actions[i] = serve2
    for i in range((mu1 - 1 - first) % lam1, n, lam1):
        if (first + i - mu2) % lam2 >= lam1:
            actions[i] = serve2
    for i in range((mu1 - first) % lam1, n, lam1):
        actions[i] = serve1
    return actions


def closed_form_action(params: TwoStreamParams, t: int) -> Action:
    """Optimal action for period t, evaluated in O(1) arithmetic operations.

    Process the small-periodicity side on each of its arrivals; process the
    other side on its own arrivals, after a period in which both sides
    arrived, and to preorient the lock one period before a primary arrival
    (see ``_closed_form_actions``).
    """
    _check_int("t", t)
    return _closed_form_actions(params, t, t)[0]


def closed_form_schedule(params: TwoStreamParams) -> Schedule:
    """The closed form materialized over one hyper-period.

    The action stream is periodic with the hyper-period, so this cyclic
    schedule reproduces it exactly.
    """
    actions = tuple(_closed_form_actions(params, 1, hyper_period(params)))
    wait = Action.WAIT
    first = next((a.processes for a in actions if a is not wait), Direction.DOWN)
    return Schedule(actions=actions, initial_alignment=first)


def lambda_one_schedule(params: TwoStreamParams) -> Schedule:
    """Optimal period-2 schedule when a periodicity equals 1.

    With lambda_D = 1 a downstream vessel arrives every period, so the only
    question is which parity serves the upstream stream on arrival: process
    upstream on the parity of mu_U.  The mirrored rule applies when
    lambda_U = 1 (with both equal to 1 the two candidates tie).
    """
    if params.lambda_d == 1:
        up_on_odd = params.mu_u % 2 == 1
        first = Direction.UP if up_on_odd else Direction.DOWN
    elif params.lambda_u == 1:
        down_on_odd = params.mu_d % 2 == 1
        first = Direction.DOWN if down_on_odd else Direction.UP
    else:
        raise LambdaOneError("lambda_one_schedule requires a periodicity equal to 1")
    return Schedule(
        actions=(Action.process(first), Action.process(first.flip())),
        initial_alignment=first,
    )
