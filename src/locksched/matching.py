"""Exact L1 fitting of anchored periodic streams to irregular arrivals.

All arithmetic is exact: periodicities are rationals T/n_i, so costs are
Fractions and ties are reproducible.  The solver searches vessel-count
compositions and anchor vessels, scoring each candidate with the
order-preserving (sorted-to-sorted) assignment, which is optimal for a fixed
stream set.  The search scores candidates in integers: scaled by the lcm of
a composition's counts, every anchored matching point is whole.

The search is a depth-first branch-and-bound over the anchors.  Every
matching point pays at least its distance to the nearest arrival, so each
anchored row carries that sum as a lower bound, and a prefix of anchors (or
a whole composition) whose bound reaches the best cost so far is pruned.
Anchors that repeat an earlier anchor's mu give the same row and are
skipped.  The rows of one count are translates of each other, and moving a
row's c points by d changes the cost by at most c*d; so once a row of the
last stream is scored, rows whose mu lies within (cost - best) / c of it are
skipped too.  ``best_fit`` starts each stream budget's search from the best
cost of the smaller budgets.  Only candidates that strictly beat the best are
kept, so the first minimum in visit order wins, as in a full enumeration.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import json
import logging

from .arrivals import MatchingInstance
from .schedule import Direction


_log = logging.getLogger(__name__)

# An anchored row at scale ``count``: (anchor, first point, lower bound).
_Rows = List[Tuple[int, int, int]]
# A search result: (scaled cost, scale, counts, anchors).
_Found = Tuple[int, int, Tuple[int, ...], Tuple[int, ...]]


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


def _anchor_rows(T: int, count: int, arrivals: Sequence[int]) -> _Rows:
    """Each distinct anchored row of the ``count``-stream, at scale ``count``.

    Uses the anchor rule of ``anchored_streams``.  At scale ``count`` the
    period is T and every point is whole.  An anchor whose first point (so
    whose mu) equals an earlier anchor's gives the same row; it is left out,
    since every candidate using it was already visited with the earlier one.
    Each kept anchor carries its row's lower bound: the summed distance from
    each point to the nearest scaled arrival.
    """
    target = [t * count for t in arrivals]
    last = len(target) - 1
    seen = set()
    rows = []
    for a, t in enumerate(arrivals):
        j = max(-(-t * count // T) - 1, 0)  # largest j with j*lam < t, clamped at 0
        first = t * count - j * T
        if first in seen:
            continue
        seen.add(first)
        bound = 0
        for p in range(first, first + count * T, T):
            i = bisect_left(target, p)
            if i > last:
                bound += p - target[last]
            elif i and p - target[i - 1] < target[i] - p:
                bound += p - target[i - 1]
            else:
                bound += target[i] - p
        rows.append((a, first, bound))
    return rows


def _search(
    instance: MatchingInstance,
    k: int,
    cache: Dict[int, _Rows],
    incumbent: Optional[_Found] = None,
) -> Optional[_Found]:
    """The first (counts, anchors) of least cost that strictly beats ``incumbent``.

    Returns (scaled cost, scale, counts, anchors), or None when no k-stream
    candidate costs less than the incumbent.  Compositions and anchors are
    visited lexicographically, anchors non-decreasing within a run of equal
    counts (swapping equal-count streams gives the same candidate).  A
    prefix of anchors is pruned when its rows' bounds plus the least bound of
    each unplaced stream's count reach the limit: the best cost so far, which
    a composition takes from earlier ones (or the incumbent) at its own
    scale, rounded up.  A row of the last stream is also skipped when a
    scored row of that prefix proves it costs at least the limit (see
    ``leaf``).  Replacing needs a strictly smaller cost, so pruning keeps the
    first minimum.  ``cache`` holds ``_anchor_rows`` per count.
    """
    T, arrivals = instance.T, instance.arrival_minutes
    best = incumbent
    compositions_pruned = prefixes_pruned = scored = 0
    for counts in _compositions_nondecreasing(instance.n, k):
        scale = math.lcm(*counts)
        limit = math.inf if best is None else -(-best[0] * scale // best[1])
        for c in counts:
            if c not in cache:
                cache[c] = _anchor_rows(T, c, arrivals)
        least = [min(bound for _, _, bound in cache[c]) * (scale // c) for c in counts]
        if sum(least) >= limit:
            compositions_pruned += 1
            continue
        rest = [sum(least[i + 1:]) for i in range(k)]
        table = {}
        for c in set(counts):
            m = scale // c
            step = T * m
            table[c] = [
                (a, bound * m, list(range(first * m, first * m + c * step, step)))
                for a, first, bound in cache[c]
            ]
        options = [table[c] for c in counts]
        target = [t * scale for t in arrivals]
        last = k - 1
        found: Tuple[int, ...] = ()
        # The last stream's rows in the order of their first points.
        leaves = options[last]
        c_last, n_leaves = counts[last], len(leaves)
        by_first = sorted(range(n_leaves), key=lambda q: leaves[q][2][0])
        firsts = [leaves[q][2][0] for q in by_first]
        rank = [0] * n_leaves
        for r, q in enumerate(by_first):
            rank[q] = r

        def leaf(start: int, partial: int, points: List[int], anchors: Tuple[int, ...]) -> None:
            nonlocal limit, found, prefixes_pruned, scored
            dominated = [False] * n_leaves
            for pos in range(start, n_leaves):
                a, bound, row = leaves[pos]
                if dominated[pos] or partial + bound >= limit:
                    prefixes_pruned += 1
                    continue
                scored += 1
                pts = points + row
                pts.sort()
                cost = sum(map(abs, map(sub, pts, target)))
                if cost < limit:
                    limit, found = cost, anchors + (a,)
                    continue
                # Rows of one count are translates of each other, and moving
                # a row's c points by d changes the cost by at most c*d.  So
                # a row whose first point lies within (cost - limit) / c of
                # this one's costs at least the limit.
                r = rank[pos]
                reach = (cost - limit) // c_last
                up = r + 1
                while up < n_leaves and firsts[up] - firsts[r] <= reach:
                    dominated[by_first[up]] = True
                    up += 1
                down = r - 1
                while down >= 0 and firsts[r] - firsts[down] <= reach:
                    dominated[by_first[down]] = True
                    down -= 1

        def visit(i: int, start: int, partial: int, points: List[int], anchors: Tuple[int, ...]) -> None:
            nonlocal prefixes_pruned
            if i == last:
                return leaf(start, partial, points, anchors)
            same_run = counts[i + 1] == counts[i]
            for pos in range(start, len(options[i])):
                a, bound, row = options[i][pos]
                lower = partial + bound
                if lower + rest[i] >= limit:
                    prefixes_pruned += 1
                    continue
                visit(i + 1, pos if same_run else 0, lower, points + row, anchors + (a,))

        visit(0, 0, 0, [], ())
        # The closure refers to itself; dropping the name frees this
        # composition's tables now rather than at the next cycle collection.
        del visit
        if found:
            best = (limit, scale, counts, found)
    _log.debug(
        "k=%d, n=%d: %d compositions pruned, %d anchor prefixes pruned, %d candidates scored",
        k, instance.n, compositions_pruned, prefixes_pruned, scored,
        extra={
            "compositions_pruned": compositions_pruned,
            "prefixes_pruned": prefixes_pruned,
            "candidates_scored": scored,
        },
    )
    return None if best is incumbent else best


def _solution(instance: MatchingInstance, found: _Found) -> MatchingSolution:
    """Build the found candidate with ``Fraction`` arithmetic and check its cost."""
    cost, scale, counts, anchors = found
    solution = assignment_cost(instance, anchored_streams(instance, counts, anchors))
    if solution.cost != Fraction(cost, scale):
        raise ArithmeticError(
            f"scaled search cost {cost}/{scale} differs from exact cost {solution.cost}"
        )
    return solution


def solve_matching(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Optimal k-stream fit: branch-and-bound over compositions and anchors.

    A candidate with counts c is scored in integers scaled by L = lcm(c),
    where every anchored point is whole; the best cost so far is carried to
    each composition's scale.  Ties break on the first (counts, anchors)
    visited, as in a full enumeration.
    """
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    found = _search(instance, k, {})
    assert found is not None
    return _solution(instance, found)


def best_fit(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Minimum-cost fit using at most k streams.

    The exactly-k problem is not monotone in k (a perfectly periodic
    3-arrival day fits one stream at cost 0 but any two-stream decomposition
    pays for the mismatched periodicities), so reported fit quality uses the
    non-increasing envelope over stream budgets 1..k.  Each budget's search
    starts from the best cost so far and must beat it strictly, so the first
    budget reaching the least cost wins.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cache: Dict[int, _Rows] = {}
    best: Optional[_Found] = None
    for j in range(1, min(k, instance.n) + 1):
        best = _search(instance, j, cache, best) or best
    assert best is not None
    return _solution(instance, best)


def stream_set_to_json(streams: StreamSet, directions: Sequence[Direction]) -> str:
    entries = [
        {
            "mu": {"num": s.mu.numerator, "den": s.mu.denominator},
            "lambda": {"num": s.lam.numerator, "den": s.lam.denominator},
            "count": s.count,
            "direction": direction.value,
        }
        for s, direction in zip(streams.streams, directions, strict=True)
    ]
    return json.dumps({"T": streams.T, "streams": entries})
