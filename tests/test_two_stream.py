from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locksched.dp import solve
from locksched.schedule import Action, Direction, cyclic_average, is_feasible
from locksched.two_stream import (
    LambdaOneError,
    TwoStreamParams,
    closed_form_action,
    closed_form_schedule,
    hyper_period,
    lambda_one_schedule,
    lower_bound,
)


def test_params_validation():
    with pytest.raises(ValueError):
        TwoStreamParams(mu_d=0, mu_u=1, lambda_d=2, lambda_u=2)
    with pytest.raises(ValueError):
        TwoStreamParams(mu_d=1, mu_u=3, lambda_d=2, lambda_u=2)


@pytest.mark.parametrize(
    "fields, name",
    [
        ((1.0, 1, 2, 2), "mu_d"),
        ((1, True, 2, 2), "mu_u"),
        ((1, 1, 2.0, 2), "lambda_d"),
        ((1, 1, 2, True), "lambda_u"),
    ],
)
def test_params_reject_non_int_fields(fields, name):
    """A float or bool field is rejected by name, not solved as its value."""
    with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
        TwoStreamParams(*fields)


def test_primary_side_tie_goes_down():
    assert TwoStreamParams(1, 1, 2, 2).primary is Direction.DOWN
    assert TwoStreamParams(1, 1, 4, 3).primary is Direction.UP


def test_lower_bound_congruence_holds():
    params = TwoStreamParams(mu_d=1, mu_u=3, lambda_d=4, lambda_u=6)
    assert lower_bound(params) == Fraction(1, 12)


def test_lower_bound_congruence_fails():
    params = TwoStreamParams(mu_d=1, mu_u=2, lambda_d=2, lambda_u=4)
    assert lower_bound(params) == 0


def test_lower_bound_fully_coinciding():
    assert lower_bound(TwoStreamParams(2, 2, 2, 2)) == Fraction(1, 2)


def test_lower_bound_rejects_lambda_one():
    with pytest.raises(LambdaOneError):
        lower_bound(TwoStreamParams(1, 1, 1, 2))


def test_closed_form_action_examples():
    params = TwoStreamParams(mu_d=1, mu_u=2, lambda_d=2, lambda_u=4)
    assert closed_form_action(params, 1) is Action.PROCESS_DOWN
    assert closed_form_action(params, 2) is Action.PROCESS_UP


def test_closed_form_action_rejects_lambda_one():
    with pytest.raises(LambdaOneError):
        closed_form_action(TwoStreamParams(1, 1, 1, 2), 1)


def test_closed_form_action_rejects_period_before_1():
    with pytest.raises(ValueError, match="^period must be >= 1, got 0$"):
        closed_form_action(TwoStreamParams(mu_d=1, mu_u=2, lambda_d=2, lambda_u=4), 0)


def test_closed_form_action_periodicity():
    params = TwoStreamParams(mu_d=2, mu_u=3, lambda_d=3, lambda_u=4)
    lam = hyper_period(params)
    for t in range(1, 2 * lam + 1):
        assert closed_form_action(params, t) is closed_form_action(params, t + lam)


def test_closed_form_schedule_achieves_lower_bound():
    for params in (
        TwoStreamParams(1, 2, 2, 4),
        TwoStreamParams(1, 3, 4, 6),
        TwoStreamParams(2, 2, 2, 2),
        TwoStreamParams(3, 1, 5, 2),
    ):
        sched = closed_form_schedule(params)
        assert is_feasible(sched)
        assert cyclic_average(params.instance(), sched) == lower_bound(params)


def test_closed_form_never_violates_alternation_over_long_window():
    params = TwoStreamParams(2, 2, 2, 3)
    lam = hyper_period(params)
    sides = [
        a.processes
        for t in range(1, 4 * lam + 1)
        if (a := closed_form_action(params, t)).processes is not None
    ]
    for prev, cur in zip(sides, sides[1:]):
        assert cur is prev.flip()


def _period2_costs(params):
    results = {}
    for first in (Direction.DOWN, Direction.UP):
        from locksched.schedule import Schedule

        sched = Schedule((Action.process(first), Action.process(first.flip())), first)
        results[first] = cyclic_average(params.instance(), sched)
    return results


def test_lambda_one_schedule_is_minimizer():
    for lam_u in range(2, 9):
        for mu_u in range(1, lam_u + 1):
            params = TwoStreamParams(mu_d=1, mu_u=mu_u, lambda_d=1, lambda_u=lam_u)
            sched = lambda_one_schedule(params)
            costs = _period2_costs(params)
            chosen = costs[sched.actions[0].processes]
            assert chosen == min(costs.values())


def test_lambda_one_schedule_mirrored_case():
    for lam_d in range(2, 9):
        for mu_d in range(1, lam_d + 1):
            params = TwoStreamParams(mu_d=mu_d, mu_u=1, lambda_d=lam_d, lambda_u=1)
            sched = lambda_one_schedule(params)
            costs = _period2_costs(params)
            assert costs[sched.actions[0].processes] == min(costs.values())


def test_lambda_one_both_one_ties():
    params = TwoStreamParams(1, 1, 1, 1)
    costs = _period2_costs(params)
    assert costs[Direction.DOWN] == costs[Direction.UP]
    assert is_feasible(lambda_one_schedule(params))


def test_lambda_one_requires_a_unit_period():
    with pytest.raises(LambdaOneError):
        lambda_one_schedule(TwoStreamParams(1, 1, 2, 2))


_two_streams = st.tuples(st.integers(2, 30), st.integers(2, 30)).flatmap(
    lambda lams: st.builds(
        TwoStreamParams,
        mu_d=st.integers(1, lams[0]),
        mu_u=st.integers(1, lams[1]),
        lambda_d=st.just(lams[0]),
        lambda_u=st.just(lams[1]),
    )
)


@settings(max_examples=200, deadline=None)
@given(_two_streams)
def test_closed_form_equals_lower_bound_equals_dp(params):
    """The simulated closed form, the congruence bound and the cyclic DP agree
    exactly for periodicities up to 30 (criterion 3 covers the grid up to 8)."""
    bound = lower_bound(params)
    assert cyclic_average(params.instance(), closed_form_schedule(params)) == bound
    assert solve(params.instance()).avg_cost == bound
