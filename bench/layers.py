"""Per-layer metrics derived from the spans of a traced run.

Function metrics are per pass: spans of the traced passes are divided by the
number of passes, and spans of the traced set-up are added once.  Span times
are normalised with the factor of the task they ran in, like the end-to-end
times.  Counts
with the unit ``count_computed`` are not counted by the program: they are
worked out by the benchmark from the arguments of the traced calls.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterator, List, Tuple

from spans import TRACED_NAMES, Tracer

SETUP_TASK = "setup"
CHUNK_CASES = ("gap", "cheap-window", "full-window")

Metrics = Dict[str, Tuple[float, str]]


def pass_of(task: str) -> str:
    """Task ids are ``<pass>:<task>`` in passes and ``setup`` in the set-up."""
    return task.split(":", 1)[0]


def _runs(counts: Tuple[int, ...]) -> Iterator[int]:
    length = 1
    for prev, cur in zip(counts, counts[1:]):
        if cur == prev:
            length += 1
        else:
            yield length
            length = 1
    yield length


def _nondecreasing_compositions(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _nondecreasing_compositions(total - first, parts - 1, first):
            yield (first,) + rest


def fit_candidates(n: int, k: int) -> int:
    """Candidates ``best_fit`` scores for n arrivals and up to k streams.

    The search space of the exact fitter as first benchmarked: for each
    stream budget j <= k, every non-decreasing vessel-count composition of n
    into j parts, times its anchor tuples, where anchors within a run of r
    equal counts are non-decreasing (C(n + r - 1, r) choices) and otherwise
    free (n choices each).
    """
    total = 0
    for j in range(1, min(k, n) + 1):
        for counts in _nondecreasing_compositions(n, j):
            anchors = 1
            for r in _runs(counts):
                anchors *= math.comb(n + r - 1, r)
            total += anchors
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, factors: Dict[str, float], overhead_s: float) -> Metrics:
    """``factors`` maps task ids to the normalisation applied to their times."""
    spans = tracer.spans
    scale = [factors.get(s.task, 1.0) for s in spans]
    selfs = [x * f for x, f in zip(tracer.self_times(), scale)]
    durations = [(s.end - s.start) * f for s, f in zip(spans, scale)]
    # Set-up spans count once; summing everything with them weighted by the
    # pass count and dividing at the end keeps whole counts whole.
    weight = [passes if s.task == SETUP_TASK else 1 for s in spans]

    calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    self_total: Dict[str, float] = defaultdict(float)
    notes: Dict[str, List[Tuple[int, object, str]]] = defaultdict(list)
    for span, duration, self_s, w in zip(spans, durations, selfs, weight):
        calls[span.name] += w
        total[span.name] += w * duration
        self_total[span.name] += w * self_s
        if span.note is not None:
            notes[span.name].append((w, span.note, span.task))

    def per_pass(value):
        return value // passes if isinstance(value, int) and value % passes == 0 else value / passes

    out: Metrics = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        out[f"{name}.s"] = (per_pass(total[name]), "s")
        out[f"{name}.self_s"] = (per_pass(self_total[name]), "s")

    # extract_instance reads the day's minutes once, bucket_to_periods once
    # per direction; each read scans every record of the dataset.
    scanned = sum(w * n for w, n, _ in notes["arrivals.extract_instance"])
    scanned += sum(2 * w * n for w, n, _ in notes["arrivals.bucket_to_periods"])
    out["arrivals.records_scanned"] = (per_pass(scanned), "count_computed")

    fits = notes["matching.best_fit"]
    candidates = sum(w * fit_candidates(len(minutes), k) for w, (minutes, _, k), _ in fits)
    out["matching.candidates"] = (per_pass(candidates), "count_computed")
    out["matching.us_per_candidate"] = (1e6 * _ratio(total["matching.best_fit"], candidates), "us")
    distinct = {(pass_of(task), repr(key)) for _, key, task in fits}
    fit_calls = sum(w for w, _, _ in fits)
    out["matching.distinct_fit_ratio"] = (_ratio(len(distinct), fit_calls), "ratio")

    periods = sum(w * p for w, p, _ in notes["dp.solve"])
    out["dp.periods"] = (per_pass(periods), "count")
    out["dp.us_per_period"] = (1e6 * _ratio(total["dp.solve"], periods), "us")

    # Each chunk keeps the actions of exactly one lane solve.
    lanes = sum(w * n for w, n, _ in notes["rolling.windowed_optimum"])
    out["rolling.window_solves"] = (per_pass(lanes), "count_computed")
    out["rolling.used_solve_ratio"] = (_ratio(calls["rolling.next_chunk"], lanes), "ratio")
    cases: Counter = Counter()
    for w, case, _ in notes["rolling.next_chunk"]:
        cases[case] += w
    for case in CHUNK_CASES:
        out[f"rolling.chunks.{case}"] = (per_pass(cases[case]), "count")

    simulated = sum(w * h for w, h, _ in notes["schedule.simulate"])
    out["schedule.simulated_periods"] = (per_pass(simulated), "count")
    out["schedule.ns_per_simulated_period"] = (1e9 * _ratio(total["schedule.simulate"], simulated), "ns")

    policy_ids = {i for i, s in enumerate(spans) if s.name.startswith("policies.")}
    in_policies = sum(
        w * d for s, d, w in zip(spans, durations, weight)
        if s.name == "schedule.simulate" and s.parent in policy_ids
    )
    policy_time = sum(total[n] for n in TRACED_NAMES if n.startswith("policies."))
    out["policies.simulate_share"] = (_ratio(in_policies, policy_time), "ratio")

    out["trace.overhead_s"] = (overhead_s, "s")
    return out
