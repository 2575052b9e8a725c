"""Exact L1 fitting of anchored periodic streams to irregular arrivals.

All arithmetic is exact: periodicities are rationals T/n_i, so costs are
Fractions and ties are reproducible.  The solver searches vessel-count
compositions and anchor vessels, scoring each candidate with the
order-preserving (sorted-to-sorted) assignment, which is optimal for a fixed
stream set.  The search scores candidates in integers: scaled by the lcm of
a composition's counts, every anchored matching point is whole.  The
winner is rebuilt from its stream set and checked in integers too.

The search is a depth-first branch-and-bound over the anchors, placing
each composition's largest-count stream first.  Every matching point pays
at least its distance to the nearest arrival, so each anchored row carries
that sum as a lower bound; the rows of one count are translates of each
other, so their bounds are one piecewise-linear function of the offset,
found for all rows in one sweep.  A prefix of anchors (or a whole
composition) is pruned when its bound exceeds the composition's best cost
so far, or reaches the best carried from earlier compositions.  Anchors
that repeat an earlier anchor's mu give the same row and are skipped.
Moving a row's c points by d changes the cost by at most c*d; so the last
stream's rows are walked in order of mu, and a scored row that misses the
best by m jumps the walk over the rows whose mu lies at most m / c past it.
``best_fit`` searches every stream budget in one pass, smallest first, with
one incumbent: a later budget or composition must beat it strictly, and a
row of its own composition that ties it replaces it when its canonical key,
the anchors in non-decreasing count order, is less.  The least key is the
candidate a full enumeration in canonical order meets first.  Each fit logs
one DEBUG record with its search counters.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from numbers import Rational
from operator import sub
from typing import Dict, Iterator, List, Sequence, Tuple

import json
import logging

from .arrivals import MatchingInstance
from .schedule import Direction, _check_int


_log = logging.getLogger(__name__)

# An anchored row at scale ``count``: (anchor, first point, lower bound).
_Rows = List[Tuple[int, int, int]]


class CountMismatchError(ValueError):
    """Stream counts do not sum to the instance size."""


@dataclass(frozen=True)
class Stream:
    """One fitted stream: matching points at mu, mu+lam, ..., mu+(count-1)*lam."""

    mu: Fraction
    lam: Fraction
    count: int

    def __post_init__(self) -> None:
        for name in ("mu", "lam"):
            value = getattr(self, name)
            if not isinstance(value, Rational) or type(value) is bool:
                raise ValueError(f"{name} must be a rational number, got {value!r}")
        _check_int("count", self.count)
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
        _check_int("T", self.T)
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


def assignment_cost(instance: MatchingInstance, streams: StreamSet) -> MatchingSolution:
    """Order-preserving assignment: i-th point to i-th arrival.

    This is a minimum-cost bijection for the fixed stream set (an exchange
    argument on the L1 deviations).  It is computed in integers: scaled by
    the lcm L of every mu and lambda denominator, each point is whole, and
    the (point, stream index, occurrence) triples sort as the points do,
    coinciding points by stream index.  The cost is the summed scaled
    distance over L.
    """
    if streams.n != instance.n:
        raise CountMismatchError(f"streams provide {streams.n} points for {instance.n} arrivals")
    scale = math.lcm(*(x.denominator for s in streams.streams for x in (s.mu, s.lam)))
    points = []
    for i, s in enumerate(streams.streams):
        first = s.mu.numerator * (scale // s.mu.denominator)
        step = s.lam.numerator * (scale // s.lam.denominator)
        points.extend((first + ell * step, i, ell) for ell in range(s.count))
    points.sort()
    cost = sum(abs(p - t * scale) for (p, _, _), t in zip(points, instance.arrival_minutes))
    assignment = tuple((i, ell) for _, i, ell in points)
    return MatchingSolution(streams=streams, assignment=assignment, cost=Fraction(cost, scale))


def anchored_streams(
    instance: MatchingInstance, counts: Sequence[int], anchors: Sequence[int]
) -> StreamSet:
    """Build streams with lam_i = T/counts[i], each anchored at an arrival.

    The offset places a matching point exactly on the anchor arrival:
    mu_i = t(s_i) - j*lam_i for the largest multiple j*lam_i strictly below
    t(s_i), which keeps mu_i in (0, lam_i].  In integers, with t = t(s_i)
    and c = counts[i]: j = ceil(t*c/T) - 1 and mu_i = (t*c - j*T)/c.
    """
    if sum(counts) != instance.n:
        raise CountMismatchError(f"counts sum to {sum(counts)}, expected {instance.n}")
    T = instance.T
    streams = []
    for count, anchor in zip(counts, anchors):
        scaled = instance.arrival_minutes[anchor] * count
        j = -(-scaled // T) - 1  # largest j with j*T < t*c
        streams.append(Stream(mu=Fraction(scaled - j * T, count), lam=Fraction(T, count), count=count))
    return StreamSet(streams=tuple(streams), T=T)


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
    period is T and every point is whole; the first point is the anchor's
    scaled arrival folded into (0, T].  An anchor whose first point (so
    whose mu) equals an earlier anchor's gives the same row; it is left out,
    since every candidate using it was already visited with the earlier one.
    Each kept anchor carries its row's lower bound: the summed distance from
    each point to the nearest scaled arrival.

    The rows are translates, so the bound is one function of the first
    point: g(f) = sum over i < count of d(f + i*T), with d the distance to
    the nearest scaled arrival.  The slope of d rises by 2 at each distinct
    arrival and falls by 2 at each midpoint between neighbours, and each
    such breakpoint, folded into (0, T], is met by one point of the row.
    So g(f) is g(0) plus its right-hand slope at 0 times f plus, for each
    folded breakpoint up to f, its slope change times the distance past it:
    one bisect per point for g(0), then two per row against the sorted
    breakpoints (doubled, so that midpoints are whole) and their prefix sums.
    """
    firsts: Dict[int, int] = {}
    for a, t in enumerate(arrivals):
        firsts.setdefault((t * count - 1) % T + 1, a)
    targets = list(dict.fromkeys([t * count for t in arrivals]))
    period = 2 * T
    rises = sorted([(2 * u - 1) % period + 1 for u in targets])
    falls = sorted([(u + v - 1) % period + 1 for u, v in zip(targets, targets[1:])])
    rise_sums = [0, *accumulate(rises)]
    fall_sums = [0, *accumulate(falls)]
    g = slope = 0  # g(0) and its right-hand slope
    for p in range(0, count * T, T):
        i = bisect_right(targets, p)
        if i == 0:
            g += targets[0] - p
            slope -= 1
        elif i == len(targets):
            g += p - targets[-1]
            slope += 1
        elif 2 * p < targets[i - 1] + targets[i]:
            g += p - targets[i - 1]
            slope += 1
        else:
            g += targets[i] - p
            slope -= 1
    rows = []
    for f, a in firsts.items():
        x = 2 * f
        i = bisect_right(rises, x)
        j = bisect_right(falls, x)
        rows.append((a, f, g + slope * f + i * x - rise_sums[i] - j * x + fall_sums[j]))
    return rows


def _search(instance: MatchingInstance, budgets: Sequence[int]) -> MatchingSolution:
    """The fit of least cost, then least key (counts, anchors), over ``budgets``.

    One pass and one incumbent ``best`` serve one fit: the compositions of
    each budget are visited in the order given, then lexicographically, and
    a later composition must beat ``best`` strictly.  Within one, the
    streams go largest count first (``counts[::-1]``) with anchors not
    increasing within a run of equal counts (swapping equal-count streams
    gives the same candidate), so the visited anchors, reversed, are the
    canonical key, and a tie replaces ``best`` when its key is less.  A
    prefix of anchors is pruned when its rows' bounds plus the least
    bound of each unplaced stream's count reach ``limit``.  The last
    stream's rows are walked in first-point order, and a scored row that
    fails jumps the walk over the rows just past it that it proves cannot
    win (see ``leaf``); "prefixes pruned" counts these rows too.  The
    winner is rebuilt from its counts and anchors alone, with
    ``anchored_streams`` and ``assignment_cost``, which work at the scale
    of the streams' own denominators, not the search's; a rebuilt cost
    that differs from the search's raises ``ArithmeticError``.
    """
    T, arrivals = instance.T, instance.arrival_minutes
    # Per count: its ``_anchor_rows``, their least bound, and the rows' first
    # points in order with the row of each.
    cache: Dict[int, tuple] = {}
    best = None  # (scaled cost, scale, counts, anchors in canonical order)
    compositions_pruned = prefixes_pruned = scored = 0
    for counts in chain.from_iterable(_compositions_nondecreasing(instance.n, k) for k in budgets):
        scale = math.lcm(*counts)
        # ``limit``: the best of earlier compositions at this scale, rounded
        # up, which must be beaten strictly; then, once a row of this
        # composition is the best, one above it, so that equal costs are
        # still scored and the least key among them wins.
        limit = math.inf if best is None else -(-best[0] * scale // best[1])
        order = counts[::-1]
        for c in order:
            if c not in cache:
                rows = _anchor_rows(T, c, arrivals)
                firsts, by_first = zip(*sorted((f, q) for q, (_, f, _) in enumerate(rows)))
                cache[c] = rows, min(bound for _, _, bound in rows), firsts, by_first
        least = [cache[c][1] * (scale // c) for c in order]
        if sum(least) >= limit:
            compositions_pruned += 1
            continue
        rest = [sum(least[i + 1:]) for i in range(len(order))]
        table = {}
        for c in set(order):
            m = scale // c
            step = T * m
            table[c] = [
                (a, bound * m, list(range(first * m, first * m + c * step, step)))
                for a, first, bound in cache[c][0]
            ]
        options = [table[c] for c in order]
        bounds = [[bound for _, bound, _ in rows] for rows in options]
        target = [t * scale for t in arrivals]
        last = len(order) - 1
        leaves, leaf_bounds = options[last], bounds[last]
        _, _, firsts, by_first = cache[counts[0]]
        n_leaves = len(firsts)

        def leaf(end: int, partial: int, points: List[int], anchors: Tuple[int, ...]) -> None:
            nonlocal best, limit, prefixes_pruned, scored
            tried = rank = 0
            while rank < n_leaves:
                pos = by_first[rank]
                rank += 1
                if pos >= end or partial + leaf_bounds[pos] >= limit:
                    continue
                tried += 1
                a, _, row = leaves[pos]
                pts = points + row
                pts.sort()
                cost = sum(map(abs, map(sub, pts, target)))
                if cost < limit:
                    key = (anchors + (a,))[::-1]
                    if best is None or (cost * best[1], key) < (best[0] * scale, best[3]):
                        best, limit = (cost, scale, counts, key), cost + 1
                    continue
                # Rows of one count are translates of each other, and moving
                # a row's c points by d changes the cost by at most c*d.  So
                # a row whose first point lies at most (cost - limit) / c past
                # this one's costs at least the limit, which lies one above
                # the best once this composition holds it: it cannot tie, and
                # the walk jumps over it.  At scale m*c the first points are
                # scaled by m, so unscaled they lie within (cost - limit) / scale.
                rank = bisect_right(firsts, firsts[rank - 1] + (cost - limit) // scale, rank)
            scored += tried
            prefixes_pruned += end - tried

        def visit(i: int, end: int, partial: int, points: List[int], anchors: Tuple[int, ...]) -> None:
            nonlocal prefixes_pruned
            if i == last:
                return leaf(end, partial, points, anchors)
            same_run = order[i + 1] == order[i]
            level, floor = bounds[i], partial + rest[i]
            tried = 0
            for pos in range(end):
                if floor + level[pos] >= limit:
                    continue
                tried += 1
                a, bound, row = options[i][pos]
                visit(i + 1, pos + 1 if same_run else len(options[i + 1]), partial + bound, points + row, anchors + (a,))
            prefixes_pruned += end - tried

        visit(0, len(options[0]), 0, [], ())
        # The closure refers to itself; dropping the name frees this
        # composition's tables now rather than at the next cycle collection.
        del visit
    _log.debug(
        "k=%d, n=%d: %d compositions pruned, %d anchor prefixes pruned, %d candidates scored",
        budgets[-1], instance.n, compositions_pruned, prefixes_pruned, scored,
        extra={
            "compositions_pruned": compositions_pruned,
            "prefixes_pruned": prefixes_pruned,
            "candidates_scored": scored,
        },
    )
    cost, scale, counts, anchors = best
    solution = assignment_cost(instance, anchored_streams(instance, counts, anchors))
    if solution.cost != Fraction(cost, scale):
        raise ArithmeticError(
            f"scaled search cost {cost}/{scale} differs from exact cost {solution.cost}"
        )
    return solution


def solve_matching(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Optimal k-stream fit: branch-and-bound over compositions and anchors.

    A candidate with counts c is scored in integers scaled by L = lcm(c),
    where every anchored point is whole; one incumbent, the best fit so far,
    is carried to each composition's scale.  A tie replaces it only with a
    less (counts, anchors) in canonical order, the first a full enumeration
    visits.  The fit logs one DEBUG record with its search counters.
    """
    _check_int("k", k)
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    return _search(instance, (k,))


def best_fit(instance: MatchingInstance, k: int) -> MatchingSolution:
    """Minimum-cost fit using at most k streams.

    The exactly-k problem is not monotone in k (a perfectly periodic
    3-arrival day fits one stream at cost 0 but any two-stream decomposition
    pays for the mismatched periodicities), so reported fit quality uses the
    non-increasing envelope over stream budgets 1..k.  The budgets are
    searched in one pass, smallest first, against one incumbent that each
    must beat strictly, so the first budget reaching the least cost wins.
    The fit logs one DEBUG record with its search counters.
    """
    _check_int("k", k, 1)
    return _search(instance, range(1, min(k, instance.n) + 1))


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
