"""The benchmark's three workloads: inputs, tasks, and output checks.

Each workload builds its inputs from the seed in ``prepare`` (which is timed
as set-up), then exposes a fixed list of named tasks that make up one pass.
A task returns the program's raw result; ``summarize`` turns it into a small
JSON value that is compared with the goldens and across passes, and
``check`` applies the library's independent cross-checks to the raw result.

Every package function is looked up on its module at call time, so a traced
run sees the calls the benchmark makes.
"""

from __future__ import annotations

import collections
import io
import json
import random
from datetime import date
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

DEFAULT_SEED = 0
SIGMA = 5.0
GOLDENS = Path(__file__).resolve().parent / "goldens"

Task = Tuple[str, Callable[[], object]]


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def action_string(actions) -> str:
    return "".join(a.value for a in actions)


class Workload:
    name = ""

    def __init__(self, pkg: SimpleNamespace, seed: int, tiny: bool, workdir: Path):
        self.m = pkg
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.goldens_path = GOLDENS / f"{self.name}{'-tiny' if tiny else ''}.json"
        self.goldens = None

    def prepare(self) -> None:
        """Generate inputs from the seed; load goldens on the default seed."""
        self.make_inputs()
        if self.seed == DEFAULT_SEED and self.goldens_path.exists():
            self.goldens = json.loads(self.goldens_path.read_text(encoding="utf-8"))

    def make_inputs(self) -> None:
        raise NotImplementedError

    def tasks(self) -> List[Task]:
        raise NotImplementedError

    def summarize(self, task: str, raw) -> object:
        raise NotImplementedError

    def check(self, task: str, raw) -> List[str]:
        return []

    def parse_text(self, text: str):
        return self.m.arrivals.parse_arrivals(io.StringIO(text))


def _directions(pkg):
    return pkg.schedule.Direction.DOWN, pkg.schedule.Direction.UP


class Pipeline(Workload):
    """``locksched experiment`` in process, one invocation per grid cell."""

    name = "pipeline"
    PERIOD_MINUTES = 21  # the experiment default

    def make_inputs(self) -> None:
        D, U = _directions(self.m)
        days = 1 if self.tiny else 2
        self.cells = [(2, 6)] if self.tiny else [(2, 20), (3, 10)]
        spec = {D: [(63, 126), (126, 126), (40, 90)], U: [(21, 126), (126, 126)]}
        dataset = self.m.experiment.synth_dataset(self.seed, days, spec, SIGMA)
        text = self.m.arrivals.serialize_arrivals(dataset)
        self.arrivals_csv = self.workdir / "arrivals.csv"
        self.arrivals_csv.write_text(text, encoding="utf-8")
        self.dataset = self.parse_text(self.arrivals_csv.read_text(encoding="utf-8"))

    def tasks(self) -> List[Task]:
        def invoke(task: str, k: int, n: int):
            argv = [
                "experiment", "--arrivals", str(self.arrivals_csv),
                "--k-list", str(k), "--n-list", str(n), "--out-dir", str(self.workdir / task),
            ]
            return task, lambda: self.m.cli.main(argv)

        return [invoke(f"k{k}-n{n}", k, n) for k, n in self.cells]

    def summarize(self, task: str, raw) -> object:
        out = self.workdir / task
        fit = (out / "fit.csv").read_text(encoding="utf-8").splitlines()
        # The Runtime column is a measured time, not an output.
        fit = [",".join(c for i, c in enumerate(line.split(",")) if i != 2) for line in fit]
        sched = (out / "schedule.csv").read_text(encoding="utf-8").splitlines()
        return {"exit": raw, "fit": fit, "schedule": sched}

    def check(self, task: str, raw) -> List[str]:
        """Recompute the fit-free policy columns from the library's primitives.

        ``alternating``, ``FIFO`` and ``advFIFO`` depend only on the bucketed
        arrivals, so they are rebuilt per day and every trace is checked with
        ``policy_problems``; the fitted columns are only checked for shape.
        """
        problems = []
        if raw != 0:
            problems.append(f"exit code {raw}")
        summary = self.summarize(task, raw)
        k, n = (int(p[1:]) for p in task.split("-"))
        fit, sched = summary["fit"], summary["schedule"]
        if fit[0] != "k,n,Fit" or len(fit) != 2 or fit[1].split(",")[:2] != [str(k), str(n)]:
            return problems + [f"unexpected fit.csv {fit}"]
        if float(fit[1].split(",")[2]) < 0:
            problems.append(f"negative fit {fit[1]}")
        if len(sched) != 2 or sched[1].split(",")[:2] != [str(k), str(n)]:
            return problems + [f"unexpected schedule.csv {sched}"]
        m = self.m
        period = self.PERIOD_MINUTES
        horizon = -(-1440 // period)
        totals = [Fraction(0)] * 3
        days = self.dataset.days()
        for day in days:
            counts = m.arrivals.bucket_to_periods(self.dataset, day, period, horizon)
            runs = [m.policies.alternating(counts, horizon), m.policies.fifo(counts, horizon),
                    m.policies.adv_fifo(counts, horizon)]
            for i, run in enumerate(runs):
                problems += policy_problems(m, run, counts, horizon)
                totals[i] += run.per_vessel_minutes(period)
        expected = [f"{float(t / len(days)):.2f}" for t in totals]
        if sched[1].split(",")[3:6] != expected:
            problems.append(f"policy columns {sched[1]} != recomputed {expected}")
        return problems


def policy_problems(m, run, counts, horizon: int, schedule=None) -> List[str]:
    """Replay a policy's trace through the simulator and check the policy's rule.

    The replay must give the policy's result.  The simulator's per-period
    queue lengths then show whether the trace follows the rule: FIFO waits
    exactly when nothing is queued or arriving; advanced FIFO also runs when
    the next period brings an arrival to the opposite side; alternation never
    waits; the realised schedule repeats ``schedule`` from period 1.
    """
    try:
        replay = m.schedule.simulate(counts, list(run.actions), horizon, initial_alignment=run.initial_alignment)
    except m.schedule.InfeasibleScheduleError as exc:
        return [f"{run.policy}: infeasible trace: {exc}"]
    if replay.total_wait != run.result.total_wait:
        return [f"{run.policy}: replay waits {replay.total_wait}, policy reports {run.result.total_wait}"]

    def arrivals(t: int) -> Tuple[int, int]:
        return counts[t - 1] if 1 <= t <= len(counts) else (0, 0)

    wait = m.schedule.Action.WAIT
    queued_before = (0,) + replay.per_period_cost
    alignment = run.initial_alignment
    for t, action in enumerate(run.actions[:horizon], start=1):
        if run.policy == "alternating":
            expected = action is not wait
        elif run.policy == "realizedPeriodic":
            expected = action is schedule.action_at(t)
        else:
            busy = queued_before[t - 1] + sum(arrivals(t)) > 0
            if run.policy == "advfifo":
                next_d, next_u = arrivals(t + 1)
                busy = busy or (next_u if alignment is m.schedule.Direction.DOWN else next_d) > 0
            expected = (action is not wait) == busy
        if not expected:
            return [f"{run.policy}: period {t} action {action.value} breaks the policy's rule"]
        if action is not wait:
            alignment = alignment.flip()
    return []


class Schedule(Workload):
    """Periodic instances: a DP Λ ladder, rolling plans, two-stream closed forms.

    The default seed uses the listed offsets and start periods; any other
    seed redraws the DP and two-stream offsets μ and the rolling start
    periods, which changes the answers but neither the hyper-periods nor the
    rolling chunk cases, so the work per pass stays the same.
    """

    name = "schedule"
    # (direction, λ, μ) per stream.
    DP_LADDER = {
        "dp-L30": (("D", 6, 3), ("D", 10, 4), ("U", 15, 7)),
        "dp-L693": (("D", 7, 3), ("D", 9, 4), ("U", 11, 7)),
        "dp-L2310": (("D", 10, 3), ("D", 11, 4), ("U", 21, 7)),
        "dp-L5005": (("D", 5, 3), ("D", 7, 4), ("U", 11, 7), ("U", 13, 2)),
    }
    # name: (streams, epsilon); each plan has 10 chunks.
    ROLLING = {
        "rolling-sparse": ((("D", 7, 3), ("D", 9, 4), ("U", 11, 7)), 0.5),
        "rolling-dense": ((("D", 2, 1), ("U", 3, 2), ("U", 5, 4)), 1.0),
        "rolling-alternating": ((("D", 2, 1), ("U", 2, 2)), 1.0),
    }
    # (μ_D, μ_U, λ_D, λ_U).  With these nine tasks, and percentiles taken
    # over the tasks' median times, p50 is the dp-L693 task and p90 is 0.8
    # of rolling-sparse plus 0.2 of dp-L5005, the two slowest tasks.
    TWO_STREAM = {
        "two-stream-4x6": (1, 2, 4, 6),
        "two-stream-21x22": (8, 1, 21, 22),
    }
    CHUNKS = 10

    def make_inputs(self) -> None:
        m = self.m
        rng = random.Random(self.seed)
        redraw = self.seed != DEFAULT_SEED
        ladder = {"dp-L30": self.DP_LADDER["dp-L30"]} if self.tiny else self.DP_LADDER
        rolling = {"rolling-alternating": self.ROLLING["rolling-alternating"]} if self.tiny else self.ROLLING
        pairs = {"two-stream-4x6": self.TWO_STREAM["two-stream-4x6"]} if self.tiny else self.TWO_STREAM

        def instance(streams, redraw_mu):
            return m.schedule.PeriodicInstance(tuple(
                m.schedule.StreamSpec(m.schedule.Direction(d), lam, rng.randint(1, lam) if redraw_mu else mu)
                for d, lam, mu in streams
            ))

        self.dp_instances = {name: instance(s, redraw) for name, s in ladder.items()}
        self.rolling_plans = {}
        for name, (streams, eps) in rolling.items():
            # Offsets stay fixed: they decide which chunk case the plan takes.
            inst = instance(streams, False)
            start = rng.randint(1, m.schedule.lcm_period(inst)) if redraw else 1
            self.rolling_plans[name] = (inst, start, eps)
        self.two_stream = {}
        for name, (mu_d, mu_u, lam_d, lam_u) in pairs.items():
            if redraw:
                mu_d, mu_u = rng.randint(1, lam_d), rng.randint(1, lam_u)
            self.two_stream[name] = m.two_stream.TwoStreamParams(mu_d=mu_d, mu_u=mu_u, lambda_d=lam_d, lambda_u=lam_u)

    def tasks(self) -> List[Task]:
        m = self.m
        chunks = 2 if self.tiny else self.CHUNKS
        out: List[Task] = []
        for name, inst in self.dp_instances.items():
            out.append((name, lambda inst=inst: m.dp.solve(inst)))
        for name, (inst, start, eps) in self.rolling_plans.items():
            out.append((name, lambda inst=inst, start=start, eps=eps: m.rolling.generate(inst, start, chunks, eps)))
        for name, params in self.two_stream.items():
            out.append((name, lambda p=params: (m.two_stream.closed_form_schedule(p), m.dp.solve(p.instance()))))
        return out

    def summarize(self, task: str, raw) -> object:
        if task.startswith("dp-"):
            return {"avg_cost": frac(raw.avg_cost), "total_cost": raw.total_cost, "period": raw.period}
        if task.startswith("rolling-"):
            return {
                "actions": action_string(raw.actions),
                "initial_alignment": raw.initial_alignment.value,
                "chunks": [[c.case, c.cost] for c in raw.chunks],
            }
        closed, optimal = raw
        return {"closed_form": action_string(closed.actions), "dp_avg_cost": frac(optimal.avg_cost)}

    def check(self, task: str, raw) -> List[str]:
        m = self.m
        if task.startswith("dp-"):
            inst = self.dp_instances[task]
            problems = [] if m.schedule.is_feasible(raw.schedule) else ["infeasible DP schedule"]
            if Fraction(raw.total_cost, raw.period) != raw.avg_cost:
                problems.append(f"total {raw.total_cost} / period {raw.period} != avg {raw.avg_cost}")
            simulated = m.schedule.cyclic_average(inst, raw.schedule)
            if simulated != raw.avg_cost:
                problems.append(f"schedule simulates to {simulated}, DP reports {raw.avg_cost}")
            return problems
        if task.startswith("rolling-"):
            inst, start, _ = self.rolling_plans[task]
            if len(raw.actions) != sum(c.end - c.start + 1 for c in raw.chunks):
                return ["plan length differs from its chunks"]
            try:
                m.schedule.simulate(
                    lambda t: m.schedule.arrival_at(inst, start + t - 1), list(raw.actions),
                    len(raw.actions), initial_alignment=raw.initial_alignment,
                )
            except m.schedule.InfeasibleScheduleError as exc:
                return [f"infeasible plan: {exc}"]
            return []
        params = self.two_stream[task]
        closed, optimal = raw
        if not m.schedule.is_feasible(closed):
            return ["infeasible closed-form schedule"]
        values = (m.schedule.cyclic_average(params.instance(), closed), m.two_stream.lower_bound(params), optimal.avg_cost)
        if len(set(values)) != 1:
            return [f"closed form, lower bound and DP disagree: {[str(v) for v in values]}"]
        return []


class Replay(Workload):
    """A year of arrivals, bucketed per day and replayed under every policy."""

    name = "replay"
    PERIOD_MINUTES = 3
    HORIZON = 480
    SCHEDULE_FILE = "replay_schedule.json"
    # The fixed periodic schedule replayed by ``realized_periodic``: the DP
    # optimum of the generator's streams rounded to 3-minute periods.
    SCHEDULE_INSTANCE = (("D", 42, 21), ("D", 42, 42), ("D", 30, 13), ("D", 12, 2),
                         ("U", 42, 7), ("U", 42, 42), ("U", 15, 4))

    def make_inputs(self) -> None:
        m = self.m
        D, U = _directions(m)
        days = 3 if self.tiny else 365
        spec = {D: [(63, 126), (126, 126), (40, 90), (7, 35)], U: [(21, 126), (126, 126), (11, 45)]}
        dataset = m.experiment.synth_dataset(self.seed, days, spec, SIGMA)
        self.dataset = self.parse_text(m.arrivals.serialize_arrivals(dataset))
        self.days = self.dataset.days()
        self.per_day = collections.Counter(r.timestamp.date() for r in self.dataset.records)
        data = json.loads((GOLDENS / self.SCHEDULE_FILE).read_text(encoding="utf-8"))
        self.schedule = m.schedule.schedule_from_json(json.dumps(data))
        if not m.schedule.is_feasible(self.schedule):
            raise ValueError(f"{self.SCHEDULE_FILE} holds an infeasible schedule")

    def tasks(self) -> List[Task]:
        m = self.m
        D, U = _directions(m)
        h = self.HORIZON

        def replay_day(day):
            def run():
                counts = m.arrivals.bucket_to_periods(self.dataset, day, self.PERIOD_MINUTES, h)
                pol = m.policies
                return counts, (
                    pol.alternating(counts, h),
                    pol.fifo(counts, h, D), pol.fifo(counts, h, U),
                    pol.adv_fifo(counts, h, D), pol.adv_fifo(counts, h, U),
                    pol.realized_periodic(self.schedule, counts, h),
                )
            return run

        return [(day.isoformat(), replay_day(day)) for day in self.days]

    def summarize(self, task: str, raw) -> object:
        return [run.result.total_wait for run in raw[1]]

    def check(self, task: str, raw) -> List[str]:
        counts, runs = raw
        day = date.fromisoformat(task)
        problems = []
        if sum(d + u for d, u in counts) != self.per_day[day]:
            problems.append(f"bucketed {sum(d + u for d, u in counts)} arrivals, day has {self.per_day[day]}")
        for run in runs:
            problems += policy_problems(self.m, run, counts, self.HORIZON, self.schedule)
        return problems

    @classmethod
    def solve_schedule(cls, m) -> dict:
        inst = m.schedule.PeriodicInstance(tuple(
            m.schedule.StreamSpec(m.schedule.Direction(d), lam, mu) for d, lam, mu in cls.SCHEDULE_INSTANCE
        ))
        return json.loads(m.schedule.schedule_to_json(m.dp.solve(inst).schedule))


WORKLOADS: Dict[str, type] = {w.name: w for w in (Pipeline, Schedule, Replay)}
