"""SHA-256 pins of the exact schedules on seeded random instances.

Each digest covers one output, as JSON lines: ``dp.solve`` in each mode,
``rolling.windowed_optimum`` (free and fixed entry, windows of 1 to 40
periods), ``rolling.generate`` (plans of 1 to 4 chunks) and every policy run
on 30 synthetic days at 3-minute periods.  Any change to a cost, a
tie-break, an action or a handoff changes a digest.
"""

import hashlib
import json
import random

import pytest

from locksched.arrivals import bucket_to_periods
from locksched.dp import CANONICAL, PAPER_LITERAL, result_to_json_dict, solve
from locksched.experiment import synth_dataset
from locksched.policies import adv_fifo, alternating, fifo, realized_periodic
from locksched.rolling import chunk_to_json, generate, windowed_optimum
from locksched.schedule import Direction, PeriodicInstance, StreamSpec

_DIRECTIONS = (Direction.DOWN, Direction.UP)
_POSITIONS = (None, Direction.DOWN, Direction.UP)


def _instances(count=200, seed=0):
    """``count`` instances of 1 to 4 streams with lambda <= 8 (Lambda <= 840)."""
    rng = random.Random(seed)
    for _ in range(count):
        streams = []
        for _ in range(rng.randint(1, 4)):
            lam = rng.randint(1, 8)
            streams.append(StreamSpec(rng.choice(_DIRECTIONS), lam, rng.randint(1, lam)))
        yield rng, PeriodicInstance(tuple(streams))


def _solve_lines(mode):
    for _, inst in _instances():
        yield json.dumps(result_to_json_dict(solve(inst, mode)), sort_keys=True)


def _window_lines():
    for rng, inst in _instances():
        for _ in range(3):
            start = rng.randint(1, 12)
            end = start + rng.choice((0, 1, 2, rng.randint(3, 39)))
            sol = windowed_optimum(inst, start, end, rng.choice(_POSITIONS))
            yield json.dumps([start, end, sol.cost, "".join(a.value for a in sol.actions), sol.entry_alignment.value])


def _plan_lines():
    for rng, inst in _instances():
        start = rng.randint(1, 12)
        plan = generate(inst, start, rng.randint(1, 4), rng.choice((0.5, 2.0, 10.0, 50.0)), 2 * rng.randint(2, 20))
        yield json.dumps(["".join(a.value for a in plan.actions), plan.initial_alignment.value])
        yield from map(chunk_to_json, plan.chunks)


# The replay generator's streams in minutes (offset, spacing), and the same
# streams in 3-minute periods (direction, lambda, mu) for the periodic schedule.
_REPLAY_SPEC = {
    Direction.DOWN: [(63, 126), (126, 126), (40, 90), (7, 35)],
    Direction.UP: [(21, 126), (126, 126), (11, 45)],
}
_REPLAY_STREAMS = (
    (Direction.DOWN, 42, 21), (Direction.DOWN, 42, 42), (Direction.DOWN, 30, 13), (Direction.DOWN, 12, 2),
    (Direction.UP, 42, 7), (Direction.UP, 42, 42), (Direction.UP, 15, 4),
)


def _policy_lines(days=30, period_minutes=3, horizon=480):
    dataset = synth_dataset(0, days, _REPLAY_SPEC, 5.0)
    schedule = solve(PeriodicInstance(tuple(StreamSpec(*s) for s in _REPLAY_STREAMS))).schedule
    for day in dataset.days():
        counts = bucket_to_periods(dataset, day, period_minutes, horizon)
        runs = [alternating(counts, horizon)]
        for start in _DIRECTIONS:
            runs += [fifo(counts, horizon, start), adv_fifo(counts, horizon, start)]
        runs.append(realized_periodic(schedule, counts, horizon))
        for run in runs:
            result = run.result
            yield json.dumps([
                run.policy, "".join(a.value for a in run.actions), run.initial_alignment.value,
                result.total_wait, result.n_arrivals, list(result.per_period_cost),
            ])


PINS = [
    ("solve-canonical", lambda: _solve_lines(CANONICAL), "0528cdf511d245b60c75c2167cf73928e1b19b619e51e6f9ae876ca6b57baeab"),
    ("solve-paper-literal", lambda: _solve_lines(PAPER_LITERAL), "306467ade3e36afbbaf80632b7350e5a9a42c921f5bbc461828c6345273c6399"),
    ("windowed-optimum", _window_lines, "1fd5e1611a671831c6d50ae1553f05be7188b471f29177d8c884decd4b9ac61b"),
    ("generate", _plan_lines, "f380364df2c04ceb581333dba45ac771623965521de404dfa586678f8a5a4bc2"),
    ("policies", _policy_lines, "a184e01a5594dd01ac4dc0857eb3918b98b2f5645934f9c4118c5bd8e36c0d80"),
]


@pytest.mark.parametrize("lines, sha256", [pin[1:] for pin in PINS], ids=[pin[0] for pin in PINS])
def test_schedule_outputs_are_pinned(lines, sha256):
    digest = hashlib.sha256()
    for line in lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == sha256
