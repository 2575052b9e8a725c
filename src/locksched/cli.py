"""Command-line interface for the lock-scheduling toolkit.

Exit codes: 0 on success, 2 when some per-instance computations were skipped,
1 on fatal errors and usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from functools import partial
from pathlib import Path

from . import __version__
from .arrivals import bucket_to_periods, parse_arrivals, serialize_arrivals
from .dp import CANONICAL, PAPER_LITERAL, result_to_json_dict, solve as dp_solve, DEFAULT_PERIOD_CAP
from .experiment import (
    ExperimentConfig,
    day_periods,
    fit_day_direction,
    fit_report_csv,
    run_experiment,
    run_fit_experiment,
    schedule_report_csv,
    synth_dataset,
)
from .matching import stream_set_to_json
from .policies import adv_fifo, alternating, fifo, realized_periodic
from .rolling import chunk_to_json, generate
from .schedule import Direction, RepeatedKeyError, _check_int, _unique_keys, instance_from_json, schedule_from_json
from .two_stream import TwoStreamParams, closed_form_action, lambda_one_schedule


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read(path: str, parse=partial(json.load, object_pairs_hook=_unique_keys)):
    """``parse`` (by default, JSON with no repeated key) of input file ``path``
    opened as UTF-8.  A byte that is not UTF-8, a JSON syntax error or a
    repeated key is a ``ValueError`` that names the file; others pass as they are."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return parse(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RepeatedKeyError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_dataset(path: str):
    dataset = _read(path, parse_arrivals)
    if not dataset.records:
        raise ValueError(f"{path} holds no arrival records")
    return dataset


def cmd_synth(args) -> int:
    spec = _read(args.streams) if args.streams else {
        "D": [[63, 126], [126, 126]],
        "U": [[21, 126], [126, 126]],
    }
    if not isinstance(spec, dict):
        raise ValueError(f"{args.streams}: expected an object mapping direction to [mu, lambda] pairs")
    for d in spec:
        if d not in ("D", "U"):
            raise ValueError(f'{args.streams}: direction key must be "D" or "U", got {json.dumps(d)}')
    streams_spec = {Direction(d): pairs for d, pairs in spec.items()}
    dataset = synth_dataset(args.seed, args.days, streams_spec, args.sigma)
    _write(args.out, serialize_arrivals(dataset))
    return 0


def cmd_fit(args) -> int:
    # The parser leaves every mode flag None, so that one given for the
    # other mode (--day fits one day, no --day the grid) is caught here.
    single = {"--direction": args.direction, "--k": args.k, "--n": args.n}
    grid = {"--k-list": args.k_list, "--n-list": args.n_list, "--jobs": args.jobs}
    for flag, value in (grid if args.day else single).items():
        if value is not None:
            raise ValueError(f"{flag} {'is not used with' if args.day else 'needs'} --day")
    dataset = _load_dataset(args.arrivals)
    if args.day:
        day = date.fromisoformat(args.day)
        direction = Direction(args.direction or "D")
        k, n = 2 if args.k is None else args.k, 20 if args.n is None else args.n
        solution = fit_day_direction(dataset, day, direction, k, n).solution
        directions = [direction] * len(solution.streams.streams)
        _write(args.out, stream_set_to_json(solution.streams, directions) + "\n")
        return 0
    given = {"k_values": args.k_list, "n_values": args.n_list, "jobs": args.jobs}
    config = ExperimentConfig(**{field: value for field, value in given.items() if value is not None})
    rows, skipped = run_fit_experiment(dataset, config)
    _write(args.out, fit_report_csv(rows))
    return 2 if skipped else 0


def cmd_schedule(args) -> int:
    instance = _read(args.instance, lambda fh: instance_from_json(fh.read()))
    out = {}
    for mode in (CANONICAL, PAPER_LITERAL):
        result = dp_solve(instance, mode=mode, period_cap=args.dp_cap)
        out[mode] = result_to_json_dict(result)
    _write(args.out, json.dumps(out, indent=2) + "\n")
    return 0


POLICY_NAMES = ("alternating", "fifo", "advfifo", "realized")


def cmd_evaluate(args) -> int:
    wanted = [name for name in args.policies.split(",") if name]
    unknown = [name for name in wanted if name not in POLICY_NAMES]
    if unknown:
        raise ValueError(f"unknown policies: {', '.join(unknown)} (known: {', '.join(POLICY_NAMES)})")
    if not wanted:
        raise ValueError(f"no policies given (known: {', '.join(POLICY_NAMES)})")
    if "realized" in wanted and not args.schedule:
        raise ValueError("--schedule is required for the realized policy")
    if args.schedule is not None and "realized" not in wanted:
        raise ValueError("--schedule is only used by the realized policy")
    if args.best_of_two and not {"fifo", "advfifo"} & set(wanted):
        raise ValueError("--best-of-two is only used by the fifo and advfifo policies")
    schedule = _read(args.schedule, lambda fh: schedule_from_json(fh.read())) if args.schedule else None
    period = args.period_minutes
    horizon = day_periods(period)
    dataset = _load_dataset(args.arrivals)
    lines = ["day,policy,per_vessel_minutes"]
    for day in dataset.days():
        counts = bucket_to_periods(dataset, day, period, horizon)
        runs = []
        if "alternating" in wanted:
            runs.append(alternating(counts, horizon))
        for name, policy in (("fifo", fifo), ("advfifo", adv_fifo)):
            if name not in wanted:
                continue
            run = policy(counts, horizon)
            if args.best_of_two:
                other = policy(counts, horizon, Direction.UP)
                run = other if other.result.total_wait < run.result.total_wait else run
            runs.append(run)
        if "realized" in wanted:
            runs.append(realized_periodic(schedule, counts, horizon))
        for run in runs:
            lines.append(f"{day.isoformat()},{run.policy},{float(run.per_vessel_minutes(period)):.2f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_rolling(args) -> int:
    instance = _read(args.instance, lambda fh: instance_from_json(fh.read()))
    plan = generate(instance, args.start, args.chunks, args.epsilon, window=args.window)
    _write(args.out, "\n".join(chunk_to_json(chunk) for chunk in plan.chunks) + "\n")
    return 0


def cmd_policy(args) -> int:
    params = TwoStreamParams(
        mu_d=args.mu_d, mu_u=args.mu_u, lambda_d=args.lambda_d, lambda_u=args.lambda_u
    )
    _check_int("period", args.t, 1)
    if params.lambda_d == 1 or params.lambda_u == 1:
        action = lambda_one_schedule(params).action_at(args.t)
    else:
        action = closed_form_action(params, args.t)
    print(action.value)
    return 0


def cmd_experiment(args) -> int:
    # The flags' values, by --config key; the file's keys override them.
    settings = {"k": args.k_list, "n": args.n_list, "period_minutes": args.period_minutes,
                "dp_cap": args.dp_cap, "jobs": args.jobs}
    if args.config:
        raw = _read(args.config)
        if not isinstance(raw, dict):
            raise ValueError(f"--config {args.config} must hold a JSON object")
        unknown = sorted(set(raw) - set(settings))
        if unknown:
            raise ValueError(
                f"unknown --config keys: {', '.join(unknown)} (known: {', '.join(settings)})"
            )
        settings.update(raw)
    config = ExperimentConfig(k_values=settings.pop("k"), n_values=settings.pop("n"), **settings)
    dataset = _load_dataset(args.arrivals)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit_rows, sched_rows, skipped = run_experiment(dataset, config)
    (out_dir / "fit.csv").write_text(fit_report_csv(fit_rows), encoding="utf-8")
    (out_dir / "schedule.csv").write_text(schedule_report_csv(sched_rows), encoding="utf-8")
    if skipped:
        print(f"warning: {skipped} per-instance computations skipped", file=sys.stderr)
    return 2 if skipped else 0


def _int_list(text: str):
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="locksched", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    grid = ExperimentConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic arrival CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=3)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--streams", help="JSON file mapping direction to [mu, lambda] minute pairs")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit periodic streams to arrival data")
    p.add_argument("--arrivals", required=True)
    p.add_argument("--day", help="fit a single day/direction and emit the stream-set JSON")
    p.add_argument("--direction", choices=["D", "U"], help="with --day (default D)")
    p.add_argument("--k", type=int, help="with --day (default 2)")
    p.add_argument("--n", type=int, help="with --day (default 20)")
    p.add_argument("--k-list", type=_int_list, help=f"without --day (default {','.join(map(str, grid.k_values))})")
    p.add_argument("--n-list", type=_int_list, help=f"without --day (default {','.join(map(str, grid.n_values))})")
    p.add_argument("--jobs", type=int, help=f"without --day (default {grid.jobs})")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("schedule", help="optimal periodic schedule for an instance JSON")
    p.add_argument("--instance", required=True)
    p.add_argument("--dp-cap", type=int, default=DEFAULT_PERIOD_CAP)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("evaluate", help="run policies against arrival data")
    p.add_argument("--policies", default="alternating,fifo,advfifo")
    p.add_argument("--arrivals", required=True)
    p.add_argument("--schedule", help="schedule JSON for the realized policy")
    p.add_argument("--period-minutes", type=int, default=grid.period_minutes)
    p.add_argument("--best-of-two", action="store_true")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rolling", help="emit rolling-horizon chunks as JSON lines")
    p.add_argument("--instance", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--chunks", type=int, default=1)
    p.add_argument("--window", type=int)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_rolling)

    p = sub.add_parser("policy", help="query the two-stream closed form")
    p.add_argument("mode", choices=["two-stream"])
    p.add_argument("--lambda-d", type=int, required=True)
    p.add_argument("--lambda-u", type=int, required=True)
    p.add_argument("--mu-d", type=int, required=True)
    p.add_argument("--mu-u", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("experiment", help="full fit + schedule pipeline with CSV reports")
    p.add_argument("--arrivals", required=True)
    p.add_argument("--config", help="JSON config whose keys override the flags")
    p.add_argument("--k-list", type=_int_list, default=grid.k_values)
    p.add_argument("--n-list", type=_int_list, default=grid.n_values)
    p.add_argument("--period-minutes", type=int, default=grid.period_minutes)
    p.add_argument("--jobs", type=int, default=grid.jobs)
    p.add_argument("--dp-cap", type=int, default=grid.dp_cap)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_experiment)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # Built on first use, not at import, and shared by later calls: safe
        # while every default is an immutable tuple or scalar.
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means skipped instances
        # here; --help and --version exit 0.
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
