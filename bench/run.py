"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload {pipeline,schedule,replay} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it spends half of ``--seconds`` on untraced
passes and half on traced ones and prints the per-layer metrics, writing
the spans to ``.bench_out/``.  Times are normalised to a reference host
speed (see ``speed.py``); raw times are printed to stderr.  Outputs are
checked against the goldens on the default seed and against the library's
cross-checks on every seed; a failed check makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import SETUP_TASK, Metrics, layer_metrics  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedProbe, Timing  # noqa: E402
from workloads import DEFAULT_SEED, GOLDENS, WORKLOADS, Replay, Workload  # noqa: E402

PACKAGE = "locksched"
MODULES = ("arrivals", "matching", "experiment", "dp", "rolling", "two_stream", "schedule", "policies", "cli")
SETUP_REPEATS = 11


def load_package() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != src / PACKAGE:
        raise SystemExit(f"error: imported {PACKAGE} from {package.__file__}, not from {src}")
    return SimpleNamespace(**{name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def set_up(cls, seed: int, tiny: bool, workdir: Path) -> Workload:
    """Import, generate, serialise and parse the inputs, load goldens."""
    workload = cls(load_package(), seed, tiny, workdir)
    workload.prepare()
    return workload


def timed_set_up(probe: SpeedProbe, *args) -> Tuple[Workload, Timing]:
    timing = probe.timed(lambda: set_up(*args))
    if timing.error is not None:
        raise SystemExit(f"error: set-up failed:\n{timing.error}")
    # The timing outlives the workload; holding it there would keep every
    # repeated set-up's inputs alive.
    workload, timing.result = timing.result, None
    return workload, timing


def as_json(value):
    return json.loads(json.dumps(value))


class Runner:
    """Runs passes over a workload's tasks, timing and verifying each task.

    Every task of the first pass is checked with the goldens (when loaded)
    and the cross-checks; later passes must reproduce the first pass's
    outputs exactly.  Task times are kept raw and normalised.
    """

    def __init__(self, workload: Workload, probe: SpeedProbe, tracer: Optional[Tracer] = None):
        self.workload = workload
        self.probe = probe
        self.tracer = tracer
        self.tasks = workload.tasks()
        self.reference: Dict[str, object] = {}
        self.by_task: Dict[str, List[float]] = {name: [] for name, _ in self.tasks}
        self.pass_s: List[float] = []
        self.raw_pass_s: List[float] = []
        # Normalisation factor of each traced task id, for its spans.
        self.factors: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def _verify(self, task: str, raw) -> List[str]:
        summary = as_json(self.workload.summarize(task, raw))
        if task in self.reference:
            return [] if summary == self.reference[task] else ["output differs from the first pass"]
        self.reference[task] = summary
        problems = self.workload.check(task, raw)
        goldens = self.workload.goldens
        if goldens is not None and goldens.get(task) != summary:
            problems.append("output differs from the golden")
        return problems

    def in_task(self, task_id: str, fn):
        """``fn`` with the tracer's task set to ``task_id`` while it runs."""
        if self.tracer is None:
            return fn
        tracer = self.tracer

        def call():
            tracer.task = task_id
            try:
                return fn()
            finally:
                tracer.task = None

        return call

    def run_pass(self) -> None:
        raw_total = total = 0.0
        for name, fn in self.tasks:
            task_id = f"{len(self.pass_s)}:{name}"
            self.attempted += 1
            timing = self.probe.timed(self.in_task(task_id, fn))
            self.factors[task_id] = timing.normalised_s / timing.raw_s if timing.raw_s else 1.0
            self.by_task[name].append(timing.normalised_s)
            raw_total += timing.raw_s
            total += timing.normalised_s
            if timing.error is not None:
                problems = [f"raised:\n{timing.error}"]
            else:
                problems = self._verify(name, timing.result)
            if problems:
                self.failed += 1
                print(f"task {name} failed: {'; '.join(problems)}", file=sys.stderr)
        self.pass_s.append(total)
        self.raw_pass_s.append(raw_total)

    def run_for(self, seconds: float) -> None:
        """At least one pass; then another while it is expected to fit."""
        started = perf_counter()
        while True:
            self.run_pass()
            if perf_counter() - started + max(self.raw_pass_s) > seconds:
                return

    def task_medians(self) -> List[float]:
        """Each task's median time across the passes."""
        return [statistics.median(times) for times in self.by_task.values() if times]

    def typical_pass_s(self) -> float:
        return sum(self.task_medians())


def percentile(values: List[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, setup_s: List[float]) -> Metrics:
    # Percentiles over the tasks' medians rather than over pooled samples: a
    # percentile that lands on a group's edge would otherwise pick that
    # task's single fastest or slowest sample.
    task_ms = [1000 * s for s in runner.task_medians()]
    return {
        "wall_s": (runner.typical_pass_s(), "s"),
        "task_ms_p50": (statistics.median(task_ms), "ms"),
        "task_ms_p90": (percentile(task_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(metrics: Metrics, runners: List[Runner], notes: Dict[str, str]) -> int:
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted} tasks)", file=sys.stderr)
    for key, text in notes.items():
        print(f"{key}: {text}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{len(values)} pass, {values[0]:.4f} s"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{len(values)} passes, quartiles {q1:.4f} / {q2:.4f} / {q3:.4f} s"


def pass_notes(runner: Runner, label: str) -> Dict[str, str]:
    return {
        f"{label}passes, normalised": quartiles(runner.pass_s),
        f"{label}passes, raw": quartiles(runner.raw_pass_s),
        f"{label}task samples": f"{runner.attempted} ({len(runner.tasks)} tasks x {len(runner.pass_s)} passes)",
    }


def record_goldens(cls, args, workdir: Path) -> int:
    """Write the default seed's outputs as the goldens the runs compare with."""
    GOLDENS.mkdir(exist_ok=True)
    if cls is Replay:
        schedule = Replay.solve_schedule(load_package())
        (GOLDENS / Replay.SCHEDULE_FILE).write_text(json.dumps(schedule) + "\n", encoding="utf-8")
    workload = set_up(cls, DEFAULT_SEED, args.size == "tiny", workdir)
    workload.goldens = None
    with SpeedProbe() as probe:
        runner = Runner(workload, probe)
        runner.run_pass()
    if runner.failed:
        print("error: outputs failed their cross-checks; no goldens written", file=sys.stderr)
        return 1
    workload.goldens_path.write_text(json.dumps(runner.reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {workload.goldens_path}", file=sys.stderr)
    return 0


def run(args, workdir: Path) -> int:
    cls = WORKLOADS[args.workload]
    setup_args = (cls, args.seed, args.size == "tiny", workdir)
    with SpeedProbe() as probe:
        if not args.trace:
            timings = []
            workload = None
            for _ in range(SETUP_REPEATS):
                workload = None
                workload, timing = timed_set_up(probe, *setup_args)
                timings.append(timing)
            runner = Runner(workload, probe)
            runner.run_for(args.seconds)
            setup_s = [t.normalised_s for t in timings]
            notes = {
                "setup_s, raw": f"median {statistics.median(t.raw_s for t in timings):.4f} s",
                **pass_notes(runner, ""),
            }
            return report(end_to_end(runner, setup_s), [runner], notes)

        workload, _ = timed_set_up(probe, *setup_args)
        plain = Runner(workload, probe)
        plain.run_for(args.seconds / 2)
        tracer = Tracer()
        tracer.install(PACKAGE)
        try:
            traced = Runner(workload, probe, tracer)
            setup = probe.timed(traced.in_task(SETUP_TASK, workload.prepare))
            if setup.error is not None:
                raise SystemExit(f"error: traced set-up failed:\n{setup.error}")
            traced.reference = plain.reference
            traced.run_for(args.seconds / 2)
        finally:
            tracer.uninstall()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    overhead = traced.typical_pass_s() - plain.typical_pass_s()
    factors = {SETUP_TASK: setup.normalised_s / setup.raw_s, **traced.factors}
    notes = {
        **pass_notes(plain, "untraced "),
        **pass_notes(traced, "traced "),
        "spans": f"{len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    }
    return report(layer_metrics(tracer, len(traced.pass_s), factors, overhead), [plain, traced], notes)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs for the harness smoke test")
    parser.add_argument("--record-goldens", action="store_true",
                        help="write the default seed's outputs as goldens instead of measuring")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_goldens:
            return record_goldens(WORKLOADS[args.workload], args, workdir)
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
