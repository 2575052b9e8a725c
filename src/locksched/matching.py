"""Exact L1 fitting of anchored periodic streams to irregular arrivals.

All arithmetic is exact: periodicities are rationals T/n_i, so costs are
Fractions and ties are reproducible.  The solver enumerates vessel-count
compositions and anchor vessels, scoring each candidate with the
order-preserving (sorted-to-sorted) assignment, which is optimal for a fixed
stream set.  The search scores candidates in integers: scaled by the lcm of
a composition's counts, every anchored matching point is whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

import json

from .arrivals import MatchingInstance
from .schedule import Direction


class CountMismatchError(ValueError):
    """Stream counts do not sum to the instance size."""


@dataclass(frozen=True)
class Stream:
    """One fitted stream: matching points at mu, mu+lam, ..., mu+(count-1)*lam."""

    mu: Fraction
    lam: Fraction
    count: int

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if not 0 < self.mu <= self.lam:
            raise ValueError(f"mu must lie in (0, lambda], got mu={self.mu}, lambda={self.lam}")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class StreamSet:
    streams: Tuple[Stream, ...]
    T: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "streams", tuple(self.streams))
        for s in self.streams:
            if s.count * s.lam != self.T:
                raise ValueError(f"count*lambda must equal T: {s.count}*{s.lam} != {self.T}")

    @property
    def n(self) -> int:
        return sum(s.count for s in self.streams)


@dataclass(frozen=True)
class MatchingSolution:
    streams: StreamSet
    # assignment[j] = (stream index, occurrence index) matched to the j-th arrival
    assignment: Tuple[Tuple[int, int], ...]
    cost: Fraction


def matching_points(streams: StreamSet) -> List[Tuple[Fraction, int]]:
    """All (time, stream index) matching points, sorted; a true multiset."""
    points = []
    for i, s in enumerate(streams.streams):
        points.extend((s.mu + ell * s.lam, i) for ell in range(s.count))
    points.sort()
    return points


def assignment_cost(instance: MatchingInstance, streams: StreamSet) -> MatchingSolution:
    """Order-preserving assignment: i-th point to i-th arrival.

    This is a minimum-cost bijection for the fixed stream set (an exchange
    argument on the L1 deviations).
    """
    if streams.n != instance.n:
        raise CountMismatchError(f"streams provide {streams.n} points for {instance.n} arrivals")
    points = matching_points(streams)
    occurrence = [0] * len(streams.streams)
    assignment = []
    cost = Fraction(0)
    for arrival, (time, stream_idx) in zip(instance.arrival_minutes, points):
        cost += abs(time - arrival)
        assignment.append((stream_idx, occurrence[stream_idx]))
        occurrence[stream_idx] += 1
    return MatchingSolution(streams=streams, assignment=tuple(assignment), cost=cost)


def anchored_streams(
    instance: MatchingInstance, counts: Sequence[int], anchors: Sequence[int]
) -> StreamSet:
    """Build streams with lam_i = T/counts[i], each anchored at an arrival.

    The offset places a matching point exactly on the anchor arrival:
    mu_i = t(s_i) - j*lam_i for the largest multiple j*lam_i strictly below
    t(s_i), which keeps mu_i in (0, lam_i].
    """
    if sum(counts) != instance.n:
        raise CountMismatchError(f"counts sum to {sum(counts)}, expected {instance.n}")
    streams = []
    for count, anchor in zip(counts, anchors):
        lam = Fraction(instance.T, count)
        t_anchor = instance.arrival_minutes[anchor]
        j = math.ceil(Fraction(t_anchor) / lam) - 1  # largest j with j*lam < t_anchor
        if j < 0:
            j = 0
        streams.append(Stream(mu=t_anchor - j * lam, lam=lam, count=count))
    return StreamSet(streams=tuple(streams), T=instance.T)


def _compositions_nondecreasing(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _compositions_nondecreasing(total - first, parts - 1, first):
            yield (first,) + rest


def _anchored_points(T: int, count: int, scale: int, arrivals: Sequence[int]) -> List[List[int]]:
    """Matching points of the ``count``-stream anchored at each arrival, times ``scale``.

    Uses the anchor rule of ``anchored_streams``; ``count`` must divide
    ``scale`` so that every point is an integer.  Each list is sorted.
    """
    step = T * (scale // count)
    rows = []
    for t in arrivals:
        j = max(-(-t * count // T) - 1, 0)  # largest j with j*lam < t, clamped at 0
        first = t * scale - j * step
        rows.append(list(range(first, first + count * step, step)))
    return rows


def _least_anchors(
    tables: Sequence[List[List[int]]], counts: Tuple[int, ...], target: List[int]
) -> Tuple[int, Tuple[int, ...]]:
    """Least scaled cost and the first anchor tuple reaching it, in visit order.

    Anchors are visited lexicographically; within a run of equal counts they
    are non-decreasing, since swapping equal-count streams gives the same
    candidate.
    """
    n = len(target)
    last = len(counts) - 1
    best_cost = math.inf
    best_anchors: Tuple[int, ...] = ()

    def visit(i: int, points: List[int], anchors: Tuple[int, ...]) -> None:
        nonlocal best_cost, best_anchors
        start = anchors[-1] if i and counts[i] == counts[i - 1] else 0
        rows = tables[i]
        if i < last:
            for a in range(start, n):
                visit(i + 1, points + rows[a], anchors + (a,))
            return
        for a in range(start, n):
            pts = points + rows[a]
            pts.sort()
            cost = sum(map(abs, map(sub, pts, target)))
            if cost < best_cost:
                best_cost, best_anchors = cost, anchors + (a,)

    visit(0, [], ())
    return best_cost, best_anchors


def solve_matching(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Optimal k-stream fit by enumeration of compositions and anchors.

    The search visits non-decreasing count tuples and, within each, anchor
    tuples that are non-decreasing over equal counts.  A candidate with
    counts c is scored in integers scaled by L = lcm(c), where every
    anchored point is whole; candidates of different compositions compare
    by cross-multiplying.  Ties break on the first (counts, anchors) visited.
    """
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    T, arrivals = instance.T, instance.arrival_minutes
    best_cost, best_scale, best_counts, best_anchors = 0, 0, (), ()
    for counts in _compositions_nondecreasing(n, k):
        scale = math.lcm(*counts)
        table = {c: _anchored_points(T, c, scale, arrivals) for c in set(counts)}
        target = [a * scale for a in arrivals]
        cost, anchors = _least_anchors([table[c] for c in counts], counts, target)
        if not best_counts or cost * best_scale < best_cost * scale:
            best_cost, best_scale, best_counts, best_anchors = cost, scale, counts, anchors
    solution = assignment_cost(instance, anchored_streams(instance, best_counts, best_anchors))
    if solution.cost != Fraction(best_cost, best_scale):
        raise ArithmeticError(
            f"scaled search cost {best_cost}/{best_scale} differs from exact cost {solution.cost}"
        )
    return solution


def best_fit(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Minimum-cost fit using at most k streams.

    The exactly-k problem is not monotone in k (a perfectly periodic
    3-arrival day fits one stream at cost 0 but any two-stream decomposition
    pays for the mismatched periodicities), so reported fit quality uses the
    non-increasing envelope over stream budgets 1..k.
    """
    n = instance.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    best: Optional[MatchingSolution] = None
    for j in range(1, min(k, n) + 1):
        solution = solve_matching(instance, j)
        if best is None or solution.cost < best.cost:
            best = solution
    assert best is not None
    return best


def stream_set_to_json(streams: StreamSet, directions: Optional[Sequence[Direction]] = None) -> str:
    entries = []
    for i, s in enumerate(streams.streams):
        entry = {
            "mu": {"num": s.mu.numerator, "den": s.mu.denominator},
            "lambda": {"num": s.lam.numerator, "den": s.lam.denominator},
            "count": s.count,
        }
        if directions is not None:
            entry["direction"] = directions[i].value
        entries.append(entry)
    return json.dumps({"T": streams.T, "streams": entries})


def stream_set_from_json(text: str) -> Tuple[StreamSet, Optional[List[Direction]]]:
    data = json.loads(text)
    streams = []
    directions: Optional[List[Direction]] = [] if data["streams"] and "direction" in data["streams"][0] else None
    for entry in data["streams"]:
        streams.append(
            Stream(
                mu=Fraction(entry["mu"]["num"], entry["mu"]["den"]),
                lam=Fraction(entry["lambda"]["num"], entry["lambda"]["den"]),
                count=int(entry["count"]),
            )
        )
        if directions is not None:
            directions.append(Direction(entry["direction"]))
    return StreamSet(streams=tuple(streams), T=int(data["T"])), directions
