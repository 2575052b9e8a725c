"""End-to-end experiment pipeline: fit streams, schedule, evaluate policies.

Reports follow the two table layouts used throughout: a fitting table
(k, n, Runtime, Fit) and a policy-comparison table (k, n, periodicOpt,
alternating, FIFO, advFIFO, realisedPeriodic), with waiting times per vessel
in minutes.  Both reports read one set of fits: each distinct fit and each
distinct day evaluation runs once, and one loop averages every (k, n) cell.
"""

from __future__ import annotations

import logging
import math
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .arrivals import (
    ArrivalDataset,
    ArrivalRecord,
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
    _check_int,
    arrival_counts,
    simulate,
)

DAY_MINUTES = 1440
DIRECTIONS = (Direction.DOWN, Direction.UP)
# Midnight of the first day of every synthetic dataset.
_SYNTH_START = datetime(2019, 1, 2)

FIT_HEADER = ("k", "n", "Runtime", "Fit")
SCHEDULE_HEADER = ("k", "n", "periodicOpt", "alternating", "FIFO", "advFIFO", "realisedPeriodic")

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """The experiment grid and its run settings, checked on construction.

    ``k_values`` (streams fitted) and ``n_values`` (arrivals per day fitted)
    must each be a non-empty list or tuple of distinct ints >= 1, and are
    stored as tuples.  ``period_minutes``, ``dp_cap`` and ``jobs`` must each
    be an int >= 1.  bool is not an int here.  Any other value raises a
    ``ValueError`` that names the field.
    """

    k_values: Tuple[int, ...] = (2, 3, 4)
    n_values: Tuple[int, ...] = (20, 30, 40, 50)
    period_minutes: int = 21
    dp_cap: int = DEFAULT_PERIOD_CAP
    jobs: int = 1

    def __post_init__(self) -> None:
        for name in ("k", "n"):
            values = getattr(self, f"{name}_values")
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"{name} values must be a non-empty list, got {values!r}")
            for value in values:
                if type(value) is not int:
                    raise ValueError(f"{name} values must be integers, got {value!r}")
                if value < 1:
                    raise ValueError(f"{name} values must be >= 1, got {value}")
            if len(set(values)) < len(values):
                raise ValueError(f"{name} values must be distinct, got {list(values)}")
            object.__setattr__(self, f"{name}_values", tuple(values))
        for name in ("period_minutes", "dp_cap", "jobs"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def day_periods(period_minutes: int) -> int:
    """The number of periods of ``period_minutes`` that cover one day."""
    _check_int("period_minutes", period_minutes, 1)
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
        _check_int(f"stream {direction.value} {list(pair)}: lambda", lam, 1)
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
    from 2019-01-02, and a seed gives the same records.  A sigma that is
    negative, not finite, or so large that a draw overflows raises
    ``ValueError``.
    """
    if not 0 <= jitter_sigma < math.inf:  # also rejects NaN
        raise ValueError(f"jitter sigma must be >= 0 and finite, got {jitter_sigma}")
    _check_int("days", days, 0)
    for key in streams_spec:
        if not isinstance(key, Direction):
            raise ValueError(f"streams_spec keys must be Directions, got {key!r}")
    for direction, specs in streams_spec.items():
        _check_stream_pairs(direction, specs)
    rng = random.Random(seed)
    streams = sorted(streams_spec.items(), key=lambda kv: kv[0].value)
    # Minute m of a day is midnight + offsets[m - 1]: one datetime sum a record.
    # The offsets are summed in C; building 1,440 timedeltas one by one would
    # cost more than a dataset of a few days saves.
    offsets = list(accumulate(repeat(timedelta(minutes=1), DAY_MINUTES - 1), initial=timedelta(0)))
    records = []
    append, record, gauss = records.append, ArrivalRecord, rng.gauss
    for d in range(days):
        midnight = _SYNTH_START + timedelta(days=d)
        for direction, specs in streams:
            for mu, lam in specs:
                for t in range(mu, DAY_MINUTES + 1, lam):
                    minute = t
                    if jitter_sigma > 0:
                        try:
                            minute = min(max(t + round(gauss(0, jitter_sigma)), 1), DAY_MINUTES)
                        except OverflowError:
                            raise ValueError(
                                f"jitter sigma must be >= 0 and small enough for finite draws, got {jitter_sigma}"
                            ) from None
                    append(record(midnight + offsets[minute - 1], direction))
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
    solution: MatchingSolution
    runtime_seconds: float


def fit_day_direction(
    dataset: ArrivalDataset, day: date, direction: Direction, k: int, n: int
) -> FitResult:
    instance = extract_instance(dataset, day, direction, n)
    started = time.perf_counter()
    solution = best_fit(instance, k)
    elapsed = time.perf_counter() - started
    return FitResult(solution=solution, runtime_seconds=elapsed)


_dataset: Optional[ArrivalDataset] = None  # a pool worker's copy of the dataset


def _share_dataset(dataset: ArrivalDataset) -> None:
    global _dataset
    _dataset = dataset


def _on_shared_dataset(fn, task):
    return fn(_dataset, task)


class Skip(NamedTuple):
    """Why a fit or a day's evaluation produced no result.

    ``direction`` is the side with no arrivals, or None for a period-cap
    skip, whose instance joins both directions' streams.
    """

    reason: str
    direction: Optional[Direction]


def _shared(jobs: int, fn, dataset: ArrivalDataset, keys: List):
    """``fn(dataset, key)`` for each key, in key order; equal keys run once.

    With more than one job and more than one distinct key, the distinct keys
    run in a process pool of at most one worker per key, each worker
    receiving the dataset once, rather than with every key.
    """
    distinct = list(dict.fromkeys(keys))
    workers = min(jobs, len(distinct))
    if workers <= 1:
        results = [fn(dataset, key) for key in distinct]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_share_dataset, initargs=(dataset,)) as pool:
            results = list(pool.map(partial(_on_shared_dataset, fn), distinct))
    done = dict(zip(distinct, results))
    return [done[key] for key in keys]


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
    days = dataset.days()
    cells = [(k, n, day, d) for k in config.k_values for n in config.n_values for day in days for d in DIRECTIONS]
    tasks = [(k, min(n, len(dataset.minutes_for(day, d)) or 1), day, d) for k, n, day, d in cells]
    return dict(zip(cells, _shared(config.jobs, _fit_task, dataset, tasks)))


def _log_skip(report: str, day: date, k: int, n: int, skip: Skip) -> None:
    """One DEBUG record per skipped (day, direction, k, n) of a report."""
    direction = skip.direction.value if skip.direction is not None else None
    _log.debug(
        "%s skipped: day %s, %s, k=%d, n=%d: %s",
        report, day, f"direction {direction}" if direction else "both directions", k, n, skip.reason,
        extra={"report": report, "day": day.isoformat(), "direction": direction, "k": k, "n": n, "reason": skip.reason},
    )


def _rows(report: str, config: ExperimentConfig, outcomes, row) -> Tuple[List, int]:
    """``row(k, n, *means)`` per (k, n) cell in grid order, and the skip count.

    ``outcomes(k, n)`` gives the cell's (day, values) pairs.  Each ``Skip``
    among them is counted and logged; each mean is one column of the other
    values.  A cell with no values has no row.
    """
    rows = []
    skipped = 0
    for k in config.k_values:
        for n in config.n_values:
            values = []
            for day, outcome in outcomes(k, n):
                if isinstance(outcome, Skip):
                    skipped += 1
                    _log_skip(report, day, k, n, outcome)
                else:
                    values.append(outcome)
            if values:
                rows.append(row(k, n, *(float(sum(column) / len(values)) for column in zip(*values))))
    return rows, skipped


def _fit_rows(
    dataset: ArrivalDataset,
    config: ExperimentConfig,
    fits: Dict[Tuple[int, int, date, Direction], Union[FitResult, Skip]],
) -> Tuple[List[FitRow], int]:
    days = dataset.days()

    def outcomes(k: int, n: int):
        for day in days:
            for d in DIRECTIONS:
                fit = fits[k, n, day, d]
                if not isinstance(fit, Skip):
                    fit = (fit.runtime_seconds, float(fit.solution.cost / fit.solution.streams.n))
                yield day, fit

    return _rows("fit", config, outcomes, FitRow)


def run_fit_experiment(
    dataset: ArrivalDataset, config: ExperimentConfig
) -> Tuple[List[FitRow], int]:
    """Fit every (k, n, day, direction) combination; aggregate per (k, n).

    Returns the report rows and the number of skipped instances (days with
    no arrivals in a direction).
    """
    return _fit_rows(dataset, config, _fit_all(dataset, config))


class DayEvaluation(NamedTuple):
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
        (direction, s) for direction, fit in zip(DIRECTIONS, fits) for s in fit.solution.streams.streams
    ]
    instance = rescale_streams(tagged, period)
    schedule = dp_solve(instance, period_cap=config.dp_cap).schedule

    opt_run = simulate(arrival_counts(instance, 1, horizon), schedule.actions, horizon, schedule.initial_alignment)

    counts = bucket_to_periods(dataset, day, period, horizon)
    alt = alternating(counts, horizon)
    fifo_run = fifo(counts, horizon)
    adv_run = adv_fifo(counts, horizon)
    realised = realized_periodic(schedule, counts, horizon)
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
    days = dataset.days()
    cells = [(k, n, day) for k in config.k_values for n in config.n_values for day in days]
    # Cells that share a day's fits share its evaluation.
    tasks = [(day, tuple(fits[k, n, day, d] for d in DIRECTIONS), config) for k, n, day in cells]
    evaluations = dict(zip(cells, _shared(config.jobs, _eval_task, dataset, tasks)))
    return _rows("schedule", config, lambda k, n: [(day, evaluations[k, n, day]) for day in days], ScheduleRow)


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
    and the sum of their skipped counts.  Each skipped (day, direction, k, n)
    of either report logs one DEBUG record on the ``locksched.experiment``
    logger with attributes ``report``, ``day``, ``direction``, ``k``, ``n``
    and ``reason``, which is no arrivals or the period cap with the required
    T; ``direction`` is None for a period-cap skip.
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
