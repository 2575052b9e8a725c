"""End-to-end acceptance suite.

Each test covers one release criterion with its stated tolerance and time
budget and prints a one-line verdict.  All comparisons are exact rational
equality unless the criterion itself defines a slack term.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from oracles import _compositions_all, oracle_min_cost_bijection

from locksched.arrivals import MatchingInstance
from locksched.dp import brute_force_optimal, solve
from locksched.experiment import (
    FIT_HEADER,
    SCHEDULE_HEADER,
    ExperimentConfig,
    FitRow,
    ScheduleRow,
    evaluate_day,
    fit_report_csv,
    run_fit_experiment,
    schedule_report_csv,
    synth_dataset,
)
from locksched.matching import anchored_streams, best_fit, solve_matching
from locksched.policies import adv_fifo, alternating
from locksched.rolling import CASE_FULL, generate
from locksched.schedule import (
    Direction,
    PeriodicInstance,
    StreamSpec,
    arrival_at,
    cyclic_average,
    lcm_period,
    simulate,
)
from locksched.two_stream import (
    TwoStreamParams,
    closed_form_schedule,
    lambda_one_schedule,
    lower_bound,
)


def _report(name: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"{name}: PASS in {elapsed:.1f}s (budget {budget:.0f}s){suffix}")
    assert elapsed < budget


def _random_matching_instance(rng: random.Random, n_max: int = 8, t_max: int = 40):
    n = rng.randint(2, n_max)
    T = rng.randint(n, t_max)
    minutes = sorted(rng.sample(range(1, T + 1), n))
    return MatchingInstance(tuple(minutes), max(minutes), n)


def test_criterion_1_matching_oracle_equivalence():
    """Solver cost equals full enumeration over compositions, anchors, and
    all bijections on 500 random instances (n <= 8, k <= 2, T <= 40)."""
    started = time.perf_counter()
    rng = random.Random(20260823)
    for _ in range(500):
        inst = _random_matching_instance(rng)
        n = inst.n
        for k in (1, 2):
            solved = solve_matching(inst, k)
            exhaustive = None
            for counts in _compositions_all(n, k):
                for anchors in itertools.product(range(n), repeat=k):
                    streams = anchored_streams(inst, counts, anchors)
                    cost = oracle_min_cost_bijection(inst, streams, mode="hungarian")
                    if exhaustive is None or cost < exhaustive:
                        exhaustive = cost
            assert solved.cost == exhaustive
    _report("criterion 1 (matching oracle equivalence, 500 instances)", started, 60)


def test_criterion_2_fit_monotonicity():
    started = time.perf_counter()
    rng = random.Random(17)
    for _ in range(200):
        inst = _random_matching_instance(rng)
        if inst.n < 3:
            continue
        costs = {k: best_fit(inst, k).cost for k in (1, 2, 3)}
        assert costs[2] <= costs[1]
        assert costs[3] <= costs[2]
    _report("criterion 2 (fit monotone in k, 200 instances)", started, 120)


def test_criterion_3_two_stream_grid():
    """Exact three-way agreement on the full parameter grid: the cyclic DP,
    the simulated closed form, and the congruence lower bound."""
    started = time.perf_counter()
    checked = 0
    for lam_d in range(2, 9):
        for lam_u in range(2, 9):
            for mu_d in range(1, lam_d + 1):
                for mu_u in range(1, lam_u + 1):
                    params = TwoStreamParams(mu_d, mu_u, lam_d, lam_u)
                    bound = lower_bound(params)
                    assert cyclic_average(params.instance(), closed_form_schedule(params)) == bound
                    assert solve(params.instance()).avg_cost == bound
                    checked += 1
    _report("criterion 3 (two-stream grid)", started, 120, f"{checked} instances")


def test_criterion_4_dp_vs_brute_force():
    """DP optimum equals exhaustive search over feasible cyclic action
    sequences of period <= 12 on every small instance (k <= 3,
    lambda in 1..4, hyper-period <= 6); the searched periods are the
    divisor-compatible ones (8 always, 12 when it divides 8*Lambda)."""
    started = time.perf_counter()
    choices = [
        (d, lam, mu)
        for lam in range(1, 5)
        for mu in range(1, lam + 1)
        for d in (Direction.DOWN, Direction.UP)
    ]
    patterns = {}
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(choices, k):
            if math.lcm(*(c[1] for c in combo)) > 6:
                continue
            inst = PeriodicInstance(tuple(StreamSpec(d, lam, mu) for d, lam, mu in combo))
            lam_all = lcm_period(inst)
            key = tuple(arrival_at(inst, t) for t in range(1, lam_all + 1))
            patterns.setdefault(key, inst)
    for inst in patterns.values():
        lam_all = lcm_period(inst)
        periods = [8]
        if (8 * lam_all) % 12 == 0:
            periods.append(12)
        brute = min(brute_force_optimal(inst, p) for p in periods)
        assert solve(inst).avg_cost == brute
    _report("criterion 4 (DP vs brute force)", started, 600, f"{len(patterns)} patterns")


def test_criterion_5_dp_self_consistency():
    started = time.perf_counter()
    rng = random.Random(99)
    for _ in range(60):
        specs = []
        for _ in range(rng.randint(1, 4)):
            lam = rng.randint(1, 8)
            specs.append(
                StreamSpec(rng.choice((Direction.DOWN, Direction.UP)), lam, rng.randint(1, lam))
            )
        inst = PeriodicInstance(tuple(specs))
        if lcm_period(inst) > 60:
            continue
        result = solve(inst)
        assert cyclic_average(inst, result.schedule) == result.avg_cost
    _report("criterion 5 (DP self-consistency, 60 instances)", started, 120)


def test_criterion_6_lambda_one_lemma():
    """The returned period-2 schedule is a minimizer among both period-2
    candidates, for every lambda_U in 2..8 and every offset (both the
    lambda_D = 1 case and its mirror)."""
    started = time.perf_counter()
    from locksched.schedule import Action, Schedule

    def candidates(params):
        out = {}
        for first in (Direction.DOWN, Direction.UP):
            sched = Schedule((Action.process(first), Action.process(first.flip())), first)
            out[first] = cyclic_average(params.instance(), sched)
        return out

    for lam in range(2, 9):
        for mu in range(1, lam + 1):
            for mu_one in (1,):
                params = TwoStreamParams(mu_d=mu_one, mu_u=mu, lambda_d=1, lambda_u=lam)
                sched = lambda_one_schedule(params)
                costs = candidates(params)
                assert costs[sched.actions[0].processes] == min(costs.values())
                mirrored = TwoStreamParams(mu_d=mu, mu_u=mu_one, lambda_d=lam, lambda_u=1)
                sched = lambda_one_schedule(mirrored)
                costs = candidates(mirrored)
                assert costs[sched.actions[0].processes] == min(costs.values())
    _report("criterion 6 (unit-period lemma minimizer)", started, 60)


def test_criterion_7_rolling_approximation():
    """Concatenated 10-chunk cost stays within (1 + eps) of the cyclic
    optimum over the same span, plus 2k slack per expensive-window chunk."""
    started = time.perf_counter()
    rng = random.Random(1)
    for _ in range(50):
        while True:
            specs = []
            for _ in range(rng.randint(2, 3)):
                lam = rng.randint(2, 10)
                specs.append(
                    StreamSpec(rng.choice((Direction.DOWN, Direction.UP)), lam, rng.randint(1, lam))
                )
            if math.lcm(*(s.lam for s in specs)) <= 60:
                break
        inst = PeriodicInstance(tuple(specs))
        opt = solve(inst).avg_cost
        for eps in (0.5, 1.0):
            plan = generate(inst, 1, 10, eps)
            span = len(plan.actions)
            run = simulate(
                lambda t: arrival_at(inst, t),
                list(plan.actions),
                span,
                initial_alignment=plan.initial_alignment,
            )
            full_chunks = sum(1 for c in plan.chunks if c.case == CASE_FULL)
            bound = (1 + eps) * opt * span + 2 * inst.k * full_chunks
            assert Fraction(run.total_wait) <= bound
    _report("criterion 7 (rolling approximation, 50 instances x 2 eps)", started, 300)


def test_criterion_8_policy_sanity():
    started = time.perf_counter()
    arrivals = [(1, 0) if t % 2 == 1 else (0, 1) for t in range(1, 41)]
    assert alternating(arrivals, 40).result.total_wait == 0
    for lam in range(2, 7):
        for mu in range(1, lam + 1):
            horizon = 6 * lam
            single = [(1, 0) if (t - mu) % lam == 0 else (0, 0) for t in range(1, horizon + 1)]
            run = adv_fifo(single, horizon, Direction.DOWN)
            assert run.result.total_wait == 0
    _report("criterion 8 (policy sanity)", started, 60)


SYNTH_SPEC = {
    Direction.DOWN: [(42, 126), (126, 126)],
    Direction.UP: [(21, 126), (126, 126)],
}


def test_criterion_9_end_to_end_synthetic():
    started = time.perf_counter()
    dataset = synth_dataset(0, 3, SYNTH_SPEC, 0.0)
    config = ExperimentConfig(k_values=(2,), n_values=(20,), period_minutes=21)
    fit_rows, skipped = run_fit_experiment(dataset, config)
    assert skipped == 0
    assert all(row.fit_minutes == 0.0 for row in fit_rows)
    for day in dataset.days():
        evaluation = evaluate_day(dataset, day, 2, 20, config)
        assert evaluation.realised_periodic == evaluation.periodic_opt
    _report("criterion 9 (end-to-end synthetic pipeline)", started, 60)


def test_criterion_10_report_format():
    started = time.perf_counter()
    fit_text = fit_report_csv([FitRow(2, 20, 0.5, 1.25)])
    fit_lines = fit_text.splitlines()
    assert fit_lines[0] == "k,n,Runtime,Fit"
    assert fit_lines[0] == ",".join(FIT_HEADER)
    assert fit_lines[1].split(",") == ["2", "20", "0.50", "1.25"]

    sched_text = schedule_report_csv([ScheduleRow(3, 40, 1.0, 2.0, 3.0, 4.0, 5.0)])
    sched_lines = sched_text.splitlines()
    assert sched_lines[0] == "k,n,periodicOpt,alternating,FIFO,advFIFO,realisedPeriodic"
    assert sched_lines[0] == ",".join(SCHEDULE_HEADER)
    assert sched_lines[1].split(",") == ["3", "40", "1.00", "2.00", "3.00", "4.00", "5.00"]
    for text in (fit_text, sched_text):
        assert text.endswith("\n") and "\r" not in text
    _report("criterion 10 (report format conformance)", started, 60)
