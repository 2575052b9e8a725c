"""End-to-end experiment pipeline: fit streams, schedule, evaluate policies.

Reports follow the two table layouts used throughout: a fitting table
(k, n, Runtime, Fit) and a policy-comparison table (k, n, periodicOpt,
alternating, FIFO, advFIFO, realisedPeriodic), with waiting times per vessel
in minutes.
"""

from __future__ import annotations

import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    StreamSpec,
    arrival_counts,
    simulate,
)

DAY_MINUTES = 1440
DIRECTIONS = (Direction.DOWN, Direction.UP)
# The first day of every synthetic dataset.
_SYNTH_START_DAY = date(2019, 1, 2)

FIT_HEADER = ("k", "n", "Runtime", "Fit")
SCHEDULE_HEADER = ("k", "n", "periodicOpt", "alternating", "FIFO", "advFIFO", "realisedPeriodic")

_log = logging.getLogger(__name__)


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
        for name, values in (("k", self.k_values), ("n", self.n_values)):
            for value in values:
                if value < 1:
                    raise ValueError(f"{name} values must be >= 1, got {value}")
        day_periods(self.period_minutes)  # rejects periods below one minute
        if self.dp_cap < 1:
            raise ValueError(f"dp_cap must be >= 1, got {self.dp_cap}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")


def day_periods(period_minutes: int) -> int:
    """The number of periods of ``period_minutes`` that cover one day."""
    if period_minutes < 1:
        raise ValueError(f"period_minutes must be >= 1, got {period_minutes}")
    return -(-DAY_MINUTES // period_minutes)


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


def _check_stream_pairs(direction: Direction, specs: object) -> None:
    """Reject a direction's stream list unless it holds (mu, lambda) integer
    pairs that each put a first arrival in the day and then advance."""
    if not isinstance(specs, (list, tuple)):
        raise ValueError(f"streams for {direction.value} must be a list of [mu, lambda] pairs, got {specs!r}")
    for pair in specs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(type(x) is int for x in pair)):
            raise ValueError(f"stream {direction.value} {pair!r}: expected a [mu, lambda] pair of integers")
        mu, lam = pair
        if lam < 1:
            raise ValueError(f"stream {direction.value} {list(pair)}: lambda must be >= 1, got {lam}")
        if not 1 <= mu <= DAY_MINUTES:
            raise ValueError(f"stream {direction.value} {list(pair)}: mu must be in 1..{DAY_MINUTES}, got {mu}")


def synth_dataset(
    seed: int,
    days: int,
    streams_spec: Dict[Direction, Sequence[Tuple[int, int]]],
    jitter_sigma: float = 0.0,
) -> ArrivalDataset:
    """Generate per-day periodic arrivals with optional integer jitter.

    ``streams_spec`` maps each direction to (mu, lambda) pairs in minutes,
    integers with 1 <= mu <= 1440 and lambda >= 1; jittered times are clamped
    to [1, 1440].  A sigma of zero yields exactly periodic data.  The days run
    from 2019-01-02.
    """
    if not jitter_sigma >= 0:  # also rejects NaN
        raise ValueError("jitter sigma must be >= 0")
    if days < 0:
        raise ValueError(f"days must be >= 0, got {days}")
    for direction, specs in streams_spec.items():
        _check_stream_pairs(direction, specs)
    rng = random.Random(seed)
    records = []
    for d in range(days):
        day = _SYNTH_START_DAY + timedelta(days=d)
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
    return FitResult(direction=direction, instance=instance, solution=solution, runtime_seconds=elapsed)


_dataset: Optional[ArrivalDataset] = None  # a pool worker's copy of the dataset


def _share_dataset(dataset: ArrivalDataset) -> None:
    global _dataset
    _dataset = dataset


def _on_shared_dataset(fn, task):
    return fn(_dataset, task)


def _map_ordered(jobs: int, fn, dataset: ArrivalDataset, tasks):
    """``fn(dataset, task)`` for each task, in order.

    With more than one job the tasks run in a process pool whose workers
    each receive the dataset once, rather than with every task.
    """
    if jobs <= 1:
        return [fn(dataset, task) for task in tasks]
    with ProcessPoolExecutor(max_workers=jobs, initializer=_share_dataset, initargs=(dataset,)) as pool:
        return list(pool.map(partial(_on_shared_dataset, fn), tasks))


class Skip(NamedTuple):
    """Why a fit or a day's evaluation produced no result.

    ``direction`` is the side with no arrivals, or None for a period-cap
    skip, whose instance joins both directions' streams.
    """

    reason: str
    direction: Optional[Direction]


def _fit_task(dataset: ArrivalDataset, task) -> Union[FitResult, Skip]:
    k, n, day, direction = task
    try:
        return fit_day_direction(dataset, day, direction, k, n)
    except NoArrivalsError:
        return Skip("no arrivals", direction)


def _fit_all(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Dict[Tuple[int, int, date, Direction], Union[FitResult, Skip]]:
    """The fit of every (k, n, day, direction), mapping all fits over one pool.

    Cells whose n reaches past the day's arrivals in a direction hold the
    same instance, so each distinct instance is fitted once and shared.  A
    fit is a ``Skip`` when the day has no arrivals in that direction.
    """
    cells = {
        (k, n, day, direction): (k, min(n, len(dataset.minutes_for(day, direction)) or 1), day, direction)
        for k in config.k_values
        for n in config.n_values
        for day in dataset.days()
        for direction in DIRECTIONS
    }
    tasks = list(dict.fromkeys(cells.values()))
    done = dict(zip(tasks, _map_ordered(config.jobs, _fit_task, dataset, tasks)))
    return {cell: done[task] for cell, task in cells.items()}


def _log_skip(report: str, day: date, k: int, n: int, skip: Skip) -> None:
    """One DEBUG record per skipped (day, direction, k, n) of a report."""
    direction = skip.direction.value if skip.direction is not None else None
    _log.debug(
        "%s skipped: day %s, %s, k=%d, n=%d: %s",
        report, day, f"direction {direction}" if direction else "both directions", k, n, skip.reason,
        extra={"report": report, "day": day.isoformat(), "direction": direction, "k": k, "n": n, "reason": skip.reason},
    )


def _fit_rows(
    dataset: ArrivalDataset,
    config: ExperimentConfig,
    fits: Dict[Tuple[int, int, date, Direction], Union[FitResult, Skip]],
) -> Tuple[List[FitRow], int]:
    rows = []
    skipped = 0
    days = dataset.days()
    for k in config.k_values:
        for n in config.n_values:
            done = []
            for day in days:
                for direction in DIRECTIONS:
                    fit = fits[k, n, day, direction]
                    if isinstance(fit, Skip):
                        skipped += 1
                        _log_skip("fit", day, k, n, fit)
                    else:
                        done.append(fit)
            if done:
                rows.append(
                    FitRow(
                        k=k,
                        n=n,
                        runtime_seconds=sum(fit.runtime_seconds for fit in done) / len(done),
                        fit_minutes=sum(float(fit.solution.cost / fit.instance.n) for fit in done) / len(done),
                    )
                )
    return rows, skipped


def run_fit_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[FitRow], int]:
    """Fit every (k, n, day, direction) combination; aggregate per (k, n).

    Returns the report rows and the number of skipped instances (days with
    no arrivals in a direction).
    """
    return _fit_rows(dataset, config, _fit_all(dataset, config))


@dataclass(frozen=True)
class DayEvaluation:
    periodic_opt: Fraction
    alternating: Fraction
    fifo: Fraction
    adv_fifo: Fraction
    realised_periodic: Fraction


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
    fits = [fit_day_direction(dataset, day, direction, k, n) for direction in DIRECTIONS]
    return _evaluate_fits(dataset, day, fits, config)


def _evaluate_fits(
    dataset: ArrivalDataset, day: date, fits: Sequence[FitResult], config: ExperimentConfig
) -> DayEvaluation:
    """``evaluate_day`` on the day's fits, one per direction in ``DIRECTIONS`` order."""
    period = config.period_minutes
    horizon = day_periods(period)
    tagged: List[Tuple[Direction, Stream]] = [
        (fit.direction, s) for fit in fits for s in fit.solution.streams.streams
    ]
    instance = rescale_streams(tagged, period)
    optimal = dp_solve(instance, period_cap=config.dp_cap)

    opt_run = simulate(arrival_counts(instance, 1, horizon), optimal.schedule, horizon)

    counts = bucket_to_periods(dataset, day, period, horizon)
    alt = alternating(counts, horizon)
    fifo_run = fifo(counts, horizon)
    adv_run = adv_fifo(counts, horizon)
    realised = realized_periodic(optimal.schedule, counts, horizon)
    return DayEvaluation(
        periodic_opt=opt_run.avg_wait_per_vessel * period,
        alternating=alt.per_vessel_minutes(period),
        fifo=fifo_run.per_vessel_minutes(period),
        adv_fifo=adv_run.per_vessel_minutes(period),
        realised_periodic=realised.per_vessel_minutes(period),
    )


def _eval_task(dataset: ArrivalDataset, task) -> Union[DayEvaluation, Skip]:
    day, fits, config = task
    for fit in fits:
        if isinstance(fit, Skip):
            return fit
    try:
        return _evaluate_fits(dataset, day, fits, config)
    except PeriodCapExceededError as exc:
        return Skip(f"period cap: T = {exc.required} exceeds {exc.cap}", None)


def _schedule_rows(
    dataset: ArrivalDataset,
    config: ExperimentConfig,
    fits: Dict[Tuple[int, int, date, Direction], Union[FitResult, Skip]],
) -> Tuple[List[ScheduleRow], int]:
    rows = []
    skipped = 0
    days = dataset.days()
    cells = [(k, n) for k in config.k_values for n in config.n_values]
    inputs = [
        (day, tuple(fits[k, n, day, direction] for direction in DIRECTIONS))
        for k, n in cells
        for day in days
    ]
    # Cells that share a day's fits share its evaluation.
    distinct = list(dict.fromkeys(inputs))
    tasks = [(day, day_fits, config) for day, day_fits in distinct]
    done = dict(zip(distinct, _map_ordered(config.jobs, _eval_task, dataset, tasks)))
    outcomes = map(done.__getitem__, inputs)
    for k, n in cells:
        evaluations = []
        for day, outcome in zip(days, islice(outcomes, len(days))):
            if isinstance(outcome, Skip):
                skipped += 1
                _log_skip("schedule", day, k, n, outcome)
            else:
                evaluations.append(outcome)
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


def run_schedule_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[ScheduleRow], int]:
    """Per-(k, n) averages of all policy columns; returns (rows, skipped).

    A day is skipped when either direction has no arrivals or the fitted
    instance's hyper-period exceeds ``config.dp_cap``.
    """
    return _schedule_rows(dataset, config, _fit_all(dataset, config))


def run_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[FitRow], List[ScheduleRow], int]:
    """Both reports from one set of fits, so no cell is fitted twice.

    Returns the rows of ``run_fit_experiment`` and ``run_schedule_experiment``
    and the sum of their skipped counts.
    """
    fits = _fit_all(dataset, config)
    fit_rows, fit_skipped = _fit_rows(dataset, config, fits)
    schedule_rows, schedule_skipped = _schedule_rows(dataset, config, fits)
    return fit_rows, schedule_rows, fit_skipped + schedule_skipped


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
