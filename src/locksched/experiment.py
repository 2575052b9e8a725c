"""End-to-end experiment pipeline: fit streams, schedule, evaluate policies.

Reports follow the two table layouts used throughout: a fitting table
(k, n, Runtime, Fit) and a policy-comparison table (k, n, periodicOpt,
alternating, FIFO, advFIFO, realisedPeriodic), with waiting times per vessel
in minutes.
"""

from __future__ import annotations

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .arrivals import (
    ArrivalDataset,
    ArrivalRecord,
    MatchingInstance,
    NoArrivalsError,
    bucket_to_periods,
    extract_instance,
)
from .dp import PeriodCapExceededError, solve as dp_solve, DEFAULT_PERIOD_CAP
from .matching import MatchingSolution, Stream, best_fit
from .policies import adv_fifo, alternating, fifo, realized_periodic
from .schedule import (
    Direction,
    PeriodicInstance,
    Schedule,
    StreamSpec,
    arrival_at,
    simulate,
)

DAY_MINUTES = 1440

FIT_HEADER = ("k", "n", "Runtime", "Fit")
SCHEDULE_HEADER = ("k", "n", "periodicOpt", "alternating", "FIFO", "advFIFO", "realisedPeriodic")


@dataclass(frozen=True)
class ExperimentConfig:
    k_values: Tuple[int, ...] = (2, 3, 4)
    n_values: Tuple[int, ...] = (20, 30, 40, 50)
    period_minutes: int = 21
    dp_cap: int = DEFAULT_PERIOD_CAP
    jobs: int = 1

    def __post_init__(self) -> None:
        if not self.k_values or not self.n_values:
            raise ValueError("k and n value lists must be non-empty")
        if self.period_minutes < 1:
            raise ValueError("period_minutes must be >= 1")


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def rescale_streams(
    streams: Sequence[Tuple[Direction, Stream]], period_minutes: int
) -> PeriodicInstance:
    """Convert minute-unit fitted streams to an integral period-unit instance."""
    specs = []
    for direction, stream in streams:
        lam_hat = max(1, _round_half_up(stream.lam / period_minutes))
        mu_hat = min(max(1, _round_half_up(stream.mu / period_minutes)), lam_hat)
        specs.append(StreamSpec(direction=direction, lam=lam_hat, mu=mu_hat))
    return PeriodicInstance(tuple(specs))


def synth_dataset(
    seed: int,
    days: int,
    streams_spec: Dict[Direction, Sequence[Tuple[int, int]]],
    jitter_sigma: float = 0.0,
    start_day: date = date(2019, 1, 2),
) -> ArrivalDataset:
    """Generate per-day periodic arrivals with optional integer jitter.

    ``streams_spec`` maps each direction to (mu, lambda) pairs in minutes;
    jittered times are clamped to [1, 1440].  A sigma of zero yields exactly
    periodic data.
    """
    if jitter_sigma < 0:
        raise ValueError("jitter sigma must be >= 0")
    rng = random.Random(seed)
    records = []
    for d in range(days):
        day = start_day + timedelta(days=d)
        for direction, specs in sorted(streams_spec.items(), key=lambda kv: kv[0].value):
            for mu, lam in specs:
                t = mu
                while t <= DAY_MINUTES:
                    minute = t
                    if jitter_sigma > 0:
                        minute = min(max(t + round(rng.gauss(0, jitter_sigma)), 1), DAY_MINUTES)
                    ts = datetime(day.year, day.month, day.day) + timedelta(minutes=minute - 1)
                    records.append(ArrivalRecord(ts, direction))
                    t += lam
    return ArrivalDataset(tuple(records))


@dataclass(frozen=True)
class FitRow:
    k: int
    n: int
    runtime_seconds: float
    fit_minutes: float


@dataclass(frozen=True)
class ScheduleRow:
    k: int
    n: int
    periodic_opt: float
    alternating: float
    fifo: float
    adv_fifo: float
    realised_periodic: float


@dataclass(frozen=True)
class FitResult:
    day: date
    direction: Direction
    instance: MatchingInstance
    solution: MatchingSolution
    runtime_seconds: float


def fit_day_direction(
    dataset: ArrivalDataset, day: date, direction: Direction, k: int, n: int
) -> FitResult:
    instance = extract_instance(dataset, day, direction, n)
    started = time.perf_counter()
    solution = best_fit(instance, k)
    elapsed = time.perf_counter() - started
    return FitResult(day=day, direction=direction, instance=instance, solution=solution, runtime_seconds=elapsed)


def _map_ordered(jobs: int, fn, tasks):
    if jobs <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


def _fit_task(args):
    dataset, day, direction, k, n = args
    try:
        fit = fit_day_direction(dataset, day, direction, k, n)
    except NoArrivalsError:
        return None
    return fit.runtime_seconds, float(fit.solution.cost / fit.instance.n)


def run_fit_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[FitRow], int]:
    """Fit every (k, n, day, direction) combination; aggregate per (k, n).

    Returns the report rows and the number of skipped instances (days with
    no arrivals in a direction).
    """
    rows = []
    skipped = 0
    days = dataset.days()
    for k in config.k_values:
        for n in config.n_values:
            tasks = [
                (dataset, day, direction, k, n)
                for day in days
                for direction in (Direction.DOWN, Direction.UP)
            ]
            outcomes = _map_ordered(config.jobs, _fit_task, tasks)
            skipped += sum(1 for o in outcomes if o is None)
            done = [o for o in outcomes if o is not None]
            if done:
                rows.append(
                    FitRow(
                        k=k,
                        n=n,
                        runtime_seconds=sum(o[0] for o in done) / len(done),
                        fit_minutes=sum(o[1] for o in done) / len(done),
                    )
                )
    return rows, skipped


def _per_vessel_minutes_from_total(total_wait: int, n_arrivals: int, period_minutes: int) -> Fraction:
    if n_arrivals == 0:
        return Fraction(0)
    return Fraction(total_wait, n_arrivals) * period_minutes


@dataclass(frozen=True)
class DayEvaluation:
    day: date
    periodic_opt: Fraction
    alternating: Fraction
    fifo: Fraction
    adv_fifo: Fraction
    realised_periodic: Fraction
    schedule: Schedule


def evaluate_day(
    dataset: ArrivalDataset,
    day: date,
    k: int,
    n: int,
    config: ExperimentConfig,
) -> DayEvaluation:
    """Fit both directions, optimize a schedule, evaluate all policies.

    The fitted streams of both directions are rescaled into one period-unit
    instance; the day is evaluated over ceil(1440 / period_minutes) periods
    with per-vessel waiting converted to minutes.
    """
    period = config.period_minutes
    horizon = -(-DAY_MINUTES // period)
    tagged: List[Tuple[Direction, Stream]] = []
    for direction in (Direction.DOWN, Direction.UP):
        fit = fit_day_direction(dataset, day, direction, k, n)
        tagged.extend((direction, s) for s in fit.solution.streams.streams)
    instance = rescale_streams(tagged, period)
    optimal = dp_solve(instance, period_cap=config.dp_cap)

    pattern = [arrival_at(instance, t) for t in range(1, horizon + 1)]
    opt_run = simulate(pattern, optimal.schedule, horizon)
    periodic_opt = _per_vessel_minutes_from_total(opt_run.total_wait, opt_run.n_arrivals, period)

    counts = bucket_to_periods(dataset, day, period, horizon)
    alt = alternating(counts, horizon)
    fifo_run = fifo(counts, horizon)
    adv_run = adv_fifo(counts, horizon)
    realised = realized_periodic(optimal.schedule, counts, horizon)
    return DayEvaluation(
        day=day,
        periodic_opt=periodic_opt,
        alternating=alt.per_vessel_minutes(period),
        fifo=fifo_run.per_vessel_minutes(period),
        adv_fifo=adv_run.per_vessel_minutes(period),
        realised_periodic=realised.per_vessel_minutes(period),
        schedule=optimal.schedule,
    )


def _eval_task(args):
    dataset, day, k, n, config = args
    try:
        return evaluate_day(dataset, day, k, n, config)
    except (NoArrivalsError, PeriodCapExceededError):
        return None


def run_schedule_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[ScheduleRow], int]:
    """Per-(k, n) averages of all policy columns; returns (rows, skipped)."""
    rows = []
    skipped = 0
    days = dataset.days()
    for k in config.k_values:
        for n in config.n_values:
            tasks = [(dataset, day, k, n, config) for day in days]
            outcomes = _map_ordered(config.jobs, _eval_task, tasks)
            skipped += sum(1 for o in outcomes if o is None)
            evaluations = [o for o in outcomes if o is not None]
            if not evaluations:
                continue
            m = len(evaluations)
            rows.append(
                ScheduleRow(
                    k=k,
                    n=n,
                    periodic_opt=float(sum(e.periodic_opt for e in evaluations) / m),
                    alternating=float(sum(e.alternating for e in evaluations) / m),
                    fifo=float(sum(e.fifo for e in evaluations) / m),
                    adv_fifo=float(sum(e.adv_fifo for e in evaluations) / m),
                    realised_periodic=float(sum(e.realised_periodic for e in evaluations) / m),
                )
            )
    return rows, skipped


def fit_report_csv(rows: Sequence[FitRow]) -> str:
    lines = [",".join(FIT_HEADER)]
    for r in rows:
        lines.append(f"{r.k},{r.n},{r.runtime_seconds:.2f},{r.fit_minutes:.2f}")
    return "\n".join(lines) + "\n"


def schedule_report_csv(rows: Sequence[ScheduleRow]) -> str:
    lines = [",".join(SCHEDULE_HEADER)]
    for r in rows:
        lines.append(
            f"{r.k},{r.n},{r.periodic_opt:.2f},{r.alternating:.2f},"
            f"{r.fifo:.2f},{r.adv_fifo:.2f},{r.realised_periodic:.2f}"
        )
    return "\n".join(lines) + "\n"
