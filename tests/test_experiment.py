import hashlib
import logging
import re
from collections import Counter
from dataclasses import replace
from datetime import date
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_run_experiment

from locksched import experiment
from locksched.arrivals import ArrivalDataset, serialize_arrivals
from locksched.cli import main
from locksched.experiment import (
    FIT_HEADER,
    SCHEDULE_HEADER,
    ExperimentConfig,
    FitRow,
    ScheduleRow,
    evaluate_day,
    fit_day_direction,
    fit_report_csv,
    rescale_streams,
    run_experiment,
    run_fit_experiment,
    run_schedule_experiment,
    schedule_report_csv,
    synth_dataset,
)
from locksched.matching import Stream
from locksched.schedule import Direction

TWO_STREAM_SPEC = {
    Direction.DOWN: [(42, 126), (126, 126)],
    Direction.UP: [(21, 126), (126, 126)],
}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(k_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(period_minutes=0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ExperimentConfig(jobs=bad)
        with pytest.raises(ValueError, match="dp_cap must be >= 1"):
            ExperimentConfig(dp_cap=bad)


@pytest.mark.parametrize(
    "k_values, n_values, message",
    [((0, -2), (0,), "k values must be >= 1, got 0"),
     ((3, 0), (20,), "k values must be >= 1, got 0"),
     ((2,), (20, -1), "n values must be >= 1, got -1")],
    ids=["k-zero-and-negative", "k-zero", "n-negative"],
)
def test_config_rejects_non_positive_k_and_n(k_values, n_values, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(k_values=k_values, n_values=n_values)


@pytest.mark.parametrize(
    "fields, message",
    [({"k_values": (True,)}, "k values must be integers, got True"),
     ({"k_values": (2, 2.0)}, "k values must be integers, got 2.0"),
     ({"n_values": (2.5,)}, "n values must be integers, got 2.5"),
     ({"n_values": (False,)}, "n values must be integers, got False"),
     ({"period_minutes": True}, "period_minutes must be an integer, got True"),
     ({"period_minutes": 2.5}, "period_minutes must be an integer, got 2.5"),
     ({"dp_cap": True}, "dp_cap must be an integer, got True"),
     ({"dp_cap": 2.5}, "dp_cap must be an integer, got 2.5"),
     ({"jobs": True}, "jobs must be an integer, got True"),
     ({"jobs": 2.5}, "jobs must be an integer, got 2.5")],
    ids=["k-bool", "k-float", "n-float", "n-bool", "period-bool", "period-float",
         "dp-cap-bool", "dp-cap-float", "jobs-bool", "jobs-float"],
)
def test_config_rejects_non_integer_values(fields, message):
    """k, n and the scalar fields must be ints; bool is not one here."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)


@pytest.mark.parametrize(
    "fields, message",
    [({"k_values": 5}, "k values must be a non-empty list, got 5"),
     ({"n_values": "20"}, "n values must be a non-empty list, got '20'"),
     ({"k_values": {2, 3}}, r"k values must be a non-empty list, got \{2, 3\}"),
     ({"n_values": []}, r"n values must be a non-empty list, got \[\]"),
     ({"k_values": (1, 1)}, r"k values must be distinct, got \[1, 1\]"),
     ({"n_values": [20, 30, 20]}, r"n values must be distinct, got \[20, 30, 20\]")],
    ids=["k-int", "n-str", "k-set", "n-empty", "k-repeated", "n-repeated"],
)
def test_config_rejects_grids_that_are_not_distinct_value_lists(fields, message):
    """A repeated k or n would write its rows and count its skips twice."""
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**fields)


def test_config_stores_lists_as_tuples():
    """A list grid is stored as a tuple, so the config hashes and runs
    exactly like the tuple one."""
    listed = ExperimentConfig(k_values=[1], n_values=[5])
    tupled = ExperimentConfig(k_values=(1,), n_values=(5,))
    assert (listed.k_values, listed.n_values) == ((1,), (5,))
    assert listed == tupled and hash(listed) == hash(tupled)
    dataset = synth_dataset(0, 2, TWO_STREAM_SPEC, 3.0)
    fit_rows, schedule_rows, skipped = run_experiment(dataset, listed)
    want_fit, want_schedule, want_skipped = run_experiment(dataset, tupled)
    assert _without_runtime(fit_report_csv(fit_rows)) == _without_runtime(fit_report_csv(want_fit))
    assert (schedule_rows, skipped) == (want_schedule, want_skipped)


def test_rescale_exact_multiple():
    inst = rescale_streams([(Direction.DOWN, Stream(Fraction(21), Fraction(63), 3))], 21)
    assert inst.streams[0].lam == 3 and inst.streams[0].mu == 1


def test_rescale_floor_guard():
    inst = rescale_streams([(Direction.DOWN, Stream(Fraction(5), Fraction(10), 2))], 21)
    assert inst.streams[0].lam == 1 and inst.streams[0].mu == 1


def test_rescale_clamps_mu():
    inst = rescale_streams([(Direction.UP, Stream(Fraction(1), Fraction(63), 2))], 21)
    assert inst.streams[0].mu == 1
    inst = rescale_streams([(Direction.UP, Stream(Fraction(63), Fraction(63), 2))], 21)
    assert inst.streams[0].mu == inst.streams[0].lam == 3


def test_synth_zero_sigma_is_exactly_periodic():
    ds = synth_dataset(0, 1, {Direction.DOWN: [(180, 480)], Direction.UP: [(240, 600)]})
    assert ds.minutes_for(date(2019, 1, 2), Direction.DOWN) == [180, 660, 1140]
    assert ds.minutes_for(date(2019, 1, 2), Direction.UP) == [240, 840, 1440]


def test_synth_deterministic_per_seed():
    spec = {Direction.DOWN: [(30, 200)], Direction.UP: [(90, 300)]}
    assert synth_dataset(4, 2, spec, 5.0) == synth_dataset(4, 2, spec, 5.0)
    assert synth_dataset(4, 2, spec, 5.0) != synth_dataset(5, 2, spec, 5.0)


def test_synth_jitter_stays_in_day():
    ds = synth_dataset(1, 2, {Direction.UP: [(1, 60)]}, 50.0)
    for day in ds.days():
        for m in ds.minutes_for(day, Direction.UP):
            assert 1 <= m <= 1440


REPLAY_SPEC = {
    Direction.DOWN: [(63, 126), (126, 126), (40, 90), (7, 35)],
    Direction.UP: [(21, 126), (126, 126), (11, 45)],
}
CLI_DEFAULT_SPEC = {Direction.DOWN: [[63, 126], [126, 126]], Direction.UP: [[21, 126], [126, 126]]}


SYNTH_PINS = [
    (0, 365, REPLAY_SPEC, 5.0, "aacdf5c49a721379b2ccb11fb8191c1c5dbe0862dfbe06dc27e10feee6853773"),
    (3, 30, CLI_DEFAULT_SPEC, 0.0, "8554d9df1513c8650f22a7bc208efb2424f6badb8872e3c09120934e475f45dc"),
]


@pytest.mark.parametrize("seed, days, spec, sigma, sha256", SYNTH_PINS, ids=["replay-year", "cli-default"])
def test_synth_serialized_bytes_are_pinned(seed, days, spec, sigma, sha256):
    """The benchmark's replay year and the ``synth`` command's default
    streams; any change to the sampler's call order or to the CSV text
    changes these digests."""
    text = serialize_arrivals(synth_dataset(seed, days, spec, sigma))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


def test_synth_rejects_negative_sigma():
    with pytest.raises(ValueError):
        synth_dataset(0, 1, {Direction.DOWN: [(10, 100)]}, -1.0)


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(5, 0)], r"stream D \[5, 0\]: lambda must be >= 1, got 0"),
        ([(5, -3)], r"stream D \[5, -3\]: lambda must be >= 1, got -3"),
        ([(0, 60)], r"stream D \[0, 60\]: mu must be in 1..1440, got 0"),
        ([(1441, 60)], r"stream D \[1441, 60\]: mu must be in 1..1440, got 1441"),
        ([(1.5, 60)], r"stream D \(1.5, 60\): expected a \[mu, lambda\] pair of integers"),
        ([(True, 60)], r"stream D \(True, 60\): expected a \[mu, lambda\] pair of integers"),
        ([(5, 60, 1)], r"stream D \(5, 60, 1\): expected a \[mu, lambda\] pair of integers"),
        ([5], r"stream D 5: expected a \[mu, lambda\] pair of integers"),
        (5, r"streams for D must be a list of \[mu, lambda\] pairs, got 5"),
    ],
)
def test_synth_rejects_bad_stream_pairs_before_generating(monkeypatch, pairs, message):
    """A lambda <= 0 never advances the arrival loop and mu = 0 writes a
    record on the previous day, so every pair is checked before any record
    is made; the good pairs come first so that a lazy check would be seen."""

    def no_records(*args):
        raise AssertionError("a record was generated before the streams were checked")

    monkeypatch.setattr(experiment, "ArrivalRecord", no_records)
    spec = {Direction.UP: [(10, 100)], Direction.DOWN: [(20, 100)] + pairs if isinstance(pairs, list) else pairs}
    with pytest.raises(ValueError, match=message):
        synth_dataset(0, 2, spec)


def test_synth_rejects_negative_days_and_allows_none():
    with pytest.raises(ValueError, match="days must be >= 0, got -1"):
        synth_dataset(0, -1, TWO_STREAM_SPEC)
    assert synth_dataset(0, 0, TWO_STREAM_SPEC).records == ()


def test_synth_rejects_nan_sigma():
    with pytest.raises(ValueError, match="jitter sigma must be >= 0"):
        synth_dataset(0, 1, TWO_STREAM_SPEC, float("nan"))


@pytest.mark.parametrize(
    "sigma, message",
    [(float("inf"), "and finite, got inf"), (1e308, "and small enough for finite draws, got 1e+308")],
    ids=["inf", "overflowing-draw"],
)
def test_synth_rejects_sigma_without_finite_draws(sigma, message):
    with pytest.raises(ValueError, match=re.escape(f"jitter sigma must be >= 0 {message}")):
        synth_dataset(0, 1, TWO_STREAM_SPEC, sigma)


def test_fit_day_direction_recovers_ground_truth():
    ds = synth_dataset(0, 1, TWO_STREAM_SPEC)
    fit = fit_day_direction(ds, date(2019, 1, 2), Direction.DOWN, 2, 20)
    assert fit.solution.cost == 0
    assert sorted(s.count for s in fit.solution.streams.streams) == [10, 10]


def test_fit_experiment_zero_sigma_fit_is_zero():
    ds = synth_dataset(0, 2, TWO_STREAM_SPEC)
    config = ExperimentConfig(k_values=(2,), n_values=(20,))
    rows, skipped = run_fit_experiment(ds, config)
    assert skipped == 0
    assert len(rows) == 1
    assert rows[0].fit_minutes == 0.0


def test_fit_monotone_in_k():
    ds = synth_dataset(3, 1, TWO_STREAM_SPEC, 4.0)
    config = ExperimentConfig(k_values=(1, 2), n_values=(20,))
    rows, _ = run_fit_experiment(ds, config)
    by_k = {r.k: r.fit_minutes for r in rows}
    assert by_k[2] <= by_k[1]


def test_fit_jitter_bounded():
    """Mean fit under sigma-jitter stays within a loose linear bound."""
    sigma = 3.0
    total = 0.0
    seeds = range(20)
    for seed in seeds:
        ds = synth_dataset(seed, 1, TWO_STREAM_SPEC, sigma)
        config = ExperimentConfig(k_values=(2,), n_values=(20,))
        rows, _ = run_fit_experiment(ds, config)
        total += rows[0].fit_minutes
    assert total / len(seeds) <= 3 * sigma


def test_evaluate_day_consistency_on_periodic_data():
    ds = synth_dataset(0, 1, TWO_STREAM_SPEC)
    config = ExperimentConfig(k_values=(2,), n_values=(20,))
    ev = evaluate_day(ds, date(2019, 1, 2), 2, 20, config)
    assert ev.realised_periodic == ev.periodic_opt


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP open item 2: rescale_streams rounds mu/period half up, so the stream whose "
    "first vessel comes at minute 22 of 21-minute periods is solved in period 1 but replayed in period 2",
)
def test_evaluate_day_replays_an_exact_fit_at_its_optimum():
    """Both fits cost 0, so replaying the optimal schedule on the day's own
    arrivals waits exactly as the schedule's own pattern does."""
    spec = {Direction.DOWN: [(126, 126), (22, 126)], Direction.UP: [(126, 126)]}
    ds = synth_dataset(0, 1, spec, 0.0)
    fits = [fit_day_direction(ds, date(2019, 1, 2), d, 2, 22) for d in (Direction.DOWN, Direction.UP)]
    assert [fit.solution.cost for fit in fits] == [0, 0]
    ev = evaluate_day(ds, date(2019, 1, 2), 2, 22, ExperimentConfig())
    assert ev.periodic_opt == Fraction(231, 34)
    assert ev.realised_periodic == ev.periodic_opt


def test_alternating_column_zero_on_alternating_data():
    spec = {Direction.DOWN: [(21, 42)], Direction.UP: [(42, 42)]}
    ds = synth_dataset(0, 1, spec)
    config = ExperimentConfig(k_values=(1,), n_values=(20,))
    ev = evaluate_day(ds, date(2019, 1, 2), 1, 20, config)
    assert ev.alternating == 0


def test_schedule_experiment_shapes():
    ds = synth_dataset(0, 2, TWO_STREAM_SPEC)
    config = ExperimentConfig(k_values=(2,), n_values=(20,))
    rows, skipped = run_schedule_experiment(ds, config)
    assert skipped == 0
    assert [(r.k, r.n) for r in rows] == [(2, 20)]


def test_parallel_matches_sequential():
    ds = synth_dataset(0, 2, TWO_STREAM_SPEC)
    seq = ExperimentConfig(k_values=(2,), n_values=(20,), jobs=1)
    par = ExperimentConfig(k_values=(2,), n_values=(20,), jobs=2)
    seq_rows, _ = run_schedule_experiment(ds, seq)
    par_rows, _ = run_schedule_experiment(ds, par)
    assert seq_rows == par_rows
    seq_fit, _ = run_fit_experiment(ds, seq)
    par_fit, _ = run_fit_experiment(ds, par)
    assert [(r.k, r.n, r.fit_minutes) for r in seq_fit] == [
        (r.k, r.n, r.fit_minutes) for r in par_fit
    ]


@pytest.mark.parametrize(
    "jobs, keys, workers",
    [(8, [1, 2, 1], 2), (2, [1, 2, 3], 2), (8, [1, 1], None), (8, [], None), (1, [1, 2], None)],
    ids=["jobs-over-keys", "keys-over-jobs", "one-key", "no-keys", "one-job"],
)
def test_shared_starts_at_most_one_worker_per_distinct_key(monkeypatch, jobs, keys, workers):
    """A pool starts all its workers at once, so ``_shared`` sizes it by the
    distinct keys and runs one key, or none, without a pool.  A stand-in
    executor records the size and runs the tasks in process."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiment, "_dataset", None)
    assert experiment._shared(jobs, lambda data, key: (data, key), "data", keys) == [("data", key) for key in keys]
    assert sizes == ([] if workers is None else [workers])


@st.composite
def _small_experiments(draw):
    """A 1-3 day jittered synthetic set, some of whose (day, direction)
    pairs lose all their arrivals, and a small grid whose DP cap is low
    enough that some days are period-cap skips."""
    days = draw(st.integers(1, 3))
    pairs = st.lists(st.tuples(st.integers(1, 1440), st.integers(20, 1440)), min_size=1, max_size=3)
    spec = {direction: draw(pairs) for direction in Direction}
    dataset = synth_dataset(draw(st.integers(0, 999)), days, spec, draw(st.sampled_from([0.0, 3.0, 20.0])))
    dropped = draw(st.sets(st.tuples(st.sampled_from(dataset.days()), st.sampled_from(Direction)), max_size=2))
    dataset = ArrivalDataset(tuple(r for r in dataset.records if (r.day, r.direction) not in dropped))
    config = ExperimentConfig(
        k_values=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))),
        n_values=tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))),
        period_minutes=draw(st.sampled_from([21, 60, 180])),
        dp_cap=draw(st.sampled_from([16, 96, 400])),
    )
    return dataset, config


def _without_runtime(fit_csv):
    return [line.split(",")[:2] + line.split(",")[3:] for line in fit_csv.splitlines()]


@settings(max_examples=40, deadline=None)
@given(_small_experiments())
def test_run_experiment_equals_reference(case):
    """``run_experiment`` shares fits and evaluations between cells; the
    reference computes every cell on its own.  Both reports (fit.csv without
    Runtime) and the skipped count must agree, sequentially and in a pool."""
    dataset, config = case
    want_fit, want_schedule, want_skipped = reference_run_experiment(dataset, config)
    for jobs in (1, 2):
        fit_rows, schedule_rows, skipped = run_experiment(dataset, replace(config, jobs=jobs))
        assert _without_runtime(fit_report_csv(fit_rows)) == _without_runtime(want_fit)
        assert schedule_report_csv(schedule_rows) == want_schedule
        assert skipped == want_skipped


def test_fit_report_csv_format():
    text = fit_report_csv([FitRow(2, 20, 0.125, 3.0)])
    lines = text.splitlines()
    assert lines[0] == ",".join(FIT_HEADER)
    assert lines[1] == "2,20,0.12,3.00"


def test_schedule_report_csv_format():
    text = schedule_report_csv([ScheduleRow(2, 20, 1.0, 2.5, 3.25, 4.0, 1.0)])
    lines = text.splitlines()
    assert lines[0] == ",".join(SCHEDULE_HEADER)
    assert lines[1] == "2,20,1.00,2.50,3.25,4.00,1.00"


def _write_csv(tmp_path, dataset, drop=lambda line: False):
    path = tmp_path / "arrivals.csv"
    lines = serialize_arrivals(dataset).splitlines()
    path.write_text("\n".join(line for line in lines if not drop(line)) + "\n")
    return path


def test_experiment_fits_each_cell_once(tmp_path, monkeypatch):
    """``locksched experiment`` calls ``best_fit`` once per (k, n, day,
    direction), and both reports read those fits.  Cells whose n reaches past
    the day's 23 arrivals per direction hold the same instance and share one
    fit, so their rows are equal."""
    calls = Counter()
    fit = experiment.best_fit

    def counting_fit(instance, k):
        calls[(instance.arrival_minutes, k)] += 1
        return fit(instance, k)

    monkeypatch.setattr(experiment, "best_fit", counting_fit)
    arrivals = _write_csv(tmp_path, synth_dataset(1, 2, TWO_STREAM_SPEC, 3.0))
    out_dir = tmp_path / "out"
    code = main(["experiment", "--arrivals", str(arrivals), "--k-list", "1,2",
                 "--n-list", "6,8,30,40", "--out-dir", str(out_dir)])
    assert code == 0
    # 2 k values x 3 instances (n = 6, 8, and all 23 arrivals) x 2 days x 2 directions.
    assert len(calls) == 24 and set(calls.values()) == {1}
    fit_rows = [line.split(",") for line in (out_dir / "fit.csv").read_text().splitlines()[1:]]
    sched_rows = [line.split(",") for line in (out_dir / "schedule.csv").read_text().splitlines()[1:]]
    for rows, skip in ((fit_rows, 3), (sched_rows, 2)):
        by_cell = {(r[0], r[1]): r[skip:] for r in rows}
        assert len(by_cell) == 8
        for k in ("1", "2"):
            assert by_cell[k, "30"] == by_cell[k, "40"]


def test_experiment_skips_day_without_up_arrivals(tmp_path, capsys):
    """A day with no Up arrivals skips that fit and that day's evaluation:
    2 skips per grid cell, exit code 2.  The reports and the skipped count
    match those of the experiment before it fitted each cell once."""
    dataset = synth_dataset(1, 2, TWO_STREAM_SPEC, 3.0)
    arrivals = _write_csv(tmp_path, dataset, lambda line: line.startswith("2019-01-03") and line.endswith(",U"))
    out_dir = tmp_path / "out"
    code = main(["experiment", "--arrivals", str(arrivals), "--k-list", "2",
                 "--n-list", "6", "--out-dir", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == "warning: 2 per-instance computations skipped\n"
    fit = (out_dir / "fit.csv").read_text().splitlines()
    assert [line.split(",")[::3] for line in fit] == [["k", "Fit"], ["2", "1.59"]]
    assert (out_dir / "schedule.csv").read_text().splitlines() == [
        ",".join(SCHEDULE_HEADER),
        "2,6,5.02,10.04,11.87,9.13,10.96",
    ]


def test_experiment_logs_skip_reasons_without_changing_reports(tmp_path, monkeypatch, caplog):
    """With DEBUG logging on, ``locksched.experiment`` logs one record per
    skipped (day, direction, k, n) with the cause, and both reports stay
    byte-identical.  Day 2019-01-03 has no Up arrivals; at a DP cap of 30
    periods the k=1 instance (T = 24) is solved and the k=2 one (T = 48) is
    skipped.  The fit clock is frozen so the Runtime column is fixed."""
    monkeypatch.setattr(experiment, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    dataset = synth_dataset(1, 2, TWO_STREAM_SPEC, 3.0)
    arrivals = _write_csv(tmp_path, dataset, lambda line: line.startswith("2019-01-03") and line.endswith(",U"))

    def reports(name):
        out_dir = tmp_path / name
        code = main(["experiment", "--arrivals", str(arrivals), "--k-list", "1,2", "--n-list", "6",
                     "--dp-cap", "30", "--out-dir", str(out_dir)])
        assert code == 2
        return [(out_dir / report).read_bytes() for report in ("fit.csv", "schedule.csv")]

    quiet = reports("quiet")
    assert not caplog.records
    caplog.set_level(logging.DEBUG, logger="locksched.experiment")
    assert reports("loud") == quiet
    assert quiet[1].decode().splitlines()[1:] == ["1,6,0.00,10.04,11.87,9.13,19.63"]
    skips = [(r.report, r.day, r.direction, r.k, r.n, r.reason) for r in caplog.records]
    assert all(r.levelno == logging.DEBUG for r in caplog.records)
    assert skips == [
        ("fit", "2019-01-03", "U", 1, 6, "no arrivals"),
        ("fit", "2019-01-03", "U", 2, 6, "no arrivals"),
        ("schedule", "2019-01-03", "U", 1, 6, "no arrivals"),
        ("schedule", "2019-01-02", None, 2, 6, "period cap: T = 48 exceeds 30"),
        ("schedule", "2019-01-03", "U", 2, 6, "no arrivals"),
    ]
