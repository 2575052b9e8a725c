"""Closed-form optimal policy for one downstream and one upstream stream.

For periodicities of at least 2 on both sides, the per-period action is a
constant-time function of t, and the achieved long-run average equals the
Diophantine lower bound: 1/lcm when the offsets coincide modulo
gcd(lambda_D, lambda_U), otherwise 0.  A periodicity of 1 is handled by a
dedicated period-2 schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .schedule import Action, Direction, PeriodicInstance, Schedule, StreamSpec


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
            if type(getattr(self, name)) is not int:  # bool is not an int here
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
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


def _arrives(t: int, mu: int, lam: int) -> bool:
    # Pure congruence: the pattern is treated as doubly infinite, which keeps
    # the action stream exactly periodic with the hyper-period.
    return (t - mu) % lam == 0


def closed_form_action(params: TwoStreamParams, t: int) -> Action:
    """Optimal action for period t, evaluated in O(1) arithmetic operations.

    Process the small-periodicity side on each of its arrivals (unless it
    also arrived the period before, when the other side's coinciding vessel
    is cleared first); process the other side on its own arrivals and to
    preorient the lock one period before a primary arrival.
    """
    if params.lambda_d < 2 or params.lambda_u < 2:
        raise LambdaOneError("closed form requires both periodicities >= 2; use lambda_one_schedule")
    if t < 1:
        raise ValueError(f"period must be >= 1, got {t}")
    d1 = params.primary
    d2 = d1.flip()
    mu1, lam1 = params.of(d1)
    mu2, lam2 = params.of(d2)

    c1 = _arrives(t, mu1, lam1) and not _arrives(t - 1, mu1, lam1)
    if c1:
        return Action.process(d1)
    c2 = _arrives(t - 1, mu1, lam1) and _arrives(t - 1, mu2, lam2)
    c3 = not _arrives(t, mu1, lam1) and _arrives(t, mu2, lam2)
    c4 = _arrives(t + 1, mu1, lam1) and (
        mu1 + ((t - mu1) // lam1) * lam1 > mu2 + ((t - mu2) // lam2) * lam2
    )
    if c2 or c3 or c4:
        return Action.process(d2)
    return Action.WAIT


def closed_form_schedule(params: TwoStreamParams) -> Schedule:
    """The closed form materialized over one hyper-period.

    The action stream is periodic with the hyper-period, so this cyclic
    schedule reproduces it exactly.
    """
    lam = hyper_period(params)
    actions = tuple(closed_form_action(params, t) for t in range(1, lam + 1))
    first = next((a.processes for a in actions if a.processes is not None), Direction.DOWN)
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
