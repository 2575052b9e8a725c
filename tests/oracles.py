"""Slow, independent references that the fast code is tested against.

``reference_solve_matching`` is the original Fraction enumerator: it builds
every candidate stream set with ``anchored_streams`` and scores it with the
sorted ``assignment_cost``.  ``oracle_min_cost_bijection`` does not use the
sorted assignment at all.  Both are test-only, so scipy and numpy are test
dependencies, not runtime ones.  ``oracle_windowed_cost`` checks the rolling
windows by simulating every process/wait sequence.  ``reference_solve`` is the
cyclic DP as nine lanes over the whole horizon, which the min-plus
``dp.solve`` must reproduce exactly.  ``brute_force_optimal`` enumerates
every cyclic action sequence of a given period and simulates each one; it
reads only the arrival pattern, so it is independent of ``dp``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterator, Optional, Tuple

from locksched.arrivals import MatchingInstance
from locksched.dp import (
    _INF,
    _SHIFT,
    _TRANSITIONS,
    ALL_STATES,
    CANONICAL,
    DEFAULT_PERIOD_CAP,
    OptimalResult,
    PeriodCapExceededError,
    _cost,
    _cyclic,
    lane,
    lane_path,
    path_actions,
    slot_costs,
)
from locksched.matching import (
    CountMismatchError,
    MatchingSolution,
    StreamSet,
    anchored_streams,
    assignment_cost,
    matching_points,
)
from locksched.schedule import (
    Action,
    Direction,
    PeriodicInstance,
    Schedule,
    arrival_at,
    arrival_pattern,
    cyclic_average,
    simulate,
)


class OracleSizeError(ValueError):
    """Instance too large for the requested oracle mode."""


def _compositions_nondecreasing(total: int, parts: int, minimum: int = 1) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _compositions_nondecreasing(total - first, parts - 1, first):
            yield (first,) + rest


def _compositions_all(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_all(total - first, parts - 1):
            yield (first,) + rest


def _anchor_tuples(counts: Tuple[int, ...], n: int, pruned: bool) -> Iterator[Tuple[int, ...]]:
    # For equal-count streams the candidate is symmetric under swapping the
    # streams, so anchors within an equal-count run are taken non-decreasing.
    def rec(i: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if i == len(counts):
            yield prefix
            return
        start = 0
        if pruned and i > 0 and counts[i] == counts[i - 1]:
            start = prefix[-1]
        for a in range(start, n):
            yield from rec(i + 1, prefix + (a,))

    yield from rec(0, ())


def reference_solve_matching(instance: MatchingInstance, k: int, prune: bool = True) -> MatchingSolution:
    """Optimal k-stream fit by enumeration of compositions and anchors.

    With ``prune`` the search visits only non-decreasing count tuples and
    multiplicity-aware anchor tuples; the unpruned search is kept for
    equivalence testing.  Ties break on the lexicographically smallest
    (counts, anchors) visited.
    """
    n = instance.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    comps = _compositions_nondecreasing(n, k) if prune else _compositions_all(n, k)
    best: Optional[MatchingSolution] = None
    for counts in comps:
        for anchors in _anchor_tuples(counts, n, prune):
            streams = anchored_streams(instance, counts, anchors)
            solution = assignment_cost(instance, streams)
            if best is None or solution.cost < best.cost:
                best = solution
    assert best is not None
    return best


def reference_best_fit(instance: MatchingInstance, k: int) -> MatchingSolution:
    """The at-most-k envelope of ``reference_solve_matching``; first minimum wins."""
    best: Optional[MatchingSolution] = None
    for j in range(1, min(k, instance.n) + 1):
        solution = reference_solve_matching(instance, j)
        if best is None or solution.cost < best.cost:
            best = solution
    assert best is not None
    return best


def oracle_min_cost_bijection(
    instance: MatchingInstance, streams: StreamSet, mode: str = "auto"
) -> Fraction:
    """Exact minimum L1 cost over all point-to-arrival bijections.

    Independent of the sorted assignment: either factorial enumeration
    (n <= 9) or an exact integer-scaled Hungarian assignment (n <= 50).
    """
    if streams.n != instance.n:
        raise CountMismatchError(f"streams provide {streams.n} points for {instance.n} arrivals")
    n = instance.n
    times = [t for t, _ in matching_points(streams)]
    if mode == "auto":
        mode = "factorial" if n <= 9 else "hungarian"
    if mode == "factorial":
        if n > 9:
            raise OracleSizeError(f"factorial oracle limited to n <= 9, got {n}")
        best = None
        for perm in permutations(range(n)):
            cost = sum(abs(times[perm[j]] - instance.arrival_minutes[j]) for j in range(n))
            if best is None or cost < best:
                best = cost
        return Fraction(best)
    if mode == "hungarian":
        if n > 50:
            raise OracleSizeError(f"hungarian oracle limited to n <= 50, got {n}")
        from scipy.optimize import linear_sum_assignment
        import numpy as np

        den = math.lcm(*(t.denominator for t in times))
        scaled = [int(t * den) for t in times]
        cost_matrix = np.array(
            [[abs(p - a * den) for p in scaled] for a in instance.arrival_minutes], dtype=np.int64
        )
        rows, cols = linear_sum_assignment(cost_matrix)
        return Fraction(int(cost_matrix[rows, cols].sum()), den)
    raise ValueError(f"unknown oracle mode {mode!r}")


def oracle_windowed_cost(instance: PeriodicInstance, t_start: int, t_end: int, entry: Direction) -> int:
    """Minimum simulated waiting in [t_start, t_end], queues empty at t_start,
    over all 2^n process/wait sequences from lock position ``entry``
    (n <= 10).  Unlike the DP, waits may repeat freely."""
    n = t_end - t_start + 1
    if not 1 <= n <= 10:
        raise OracleSizeError(f"window oracle limited to 1 <= n <= 10 periods, got {n}")
    best: Optional[int] = None
    for processes in product((False, True), repeat=n):
        alignment = entry
        actions = []
        for process in processes:
            if process:
                actions.append(Action.process(alignment))
                alignment = alignment.flip()
            else:
                actions.append(Action.WAIT)
        run = simulate(lambda u: arrival_at(instance, t_start + u - 1), actions, n, initial_alignment=entry)
        if best is None or run.total_wait < best:
            best = run.total_wait
    assert best is not None
    return best


def reference_solve(
    instance: PeriodicInstance, mode: str = CANONICAL, period_cap: int = DEFAULT_PERIOD_CAP
) -> OptimalResult:
    """The nine-lane ``solve``: eight full lanes of 8 * Lambda - 1 steps, one
    per initial state, then the winning lane again with backpointers."""
    if mode not in _SHIFT:
        raise ValueError(f"unknown mode {mode!r}")
    pattern = arrival_pattern(instance)
    lam = len(pattern)
    T = 8 * lam
    if T > period_cap:
        raise PeriodCapExceededError(T, period_cap)
    # Costs depend on t only through t mod Lambda.  Lanes start at t = 1 and
    # step through t = 2..T; the wrap-around step S -> S0 is at t = 1 again.
    arrivals = _cyclic(pattern)
    phase_costs = [slot_costs(arrivals, t, _SHIFT[mode]) for t in range(1, lam + 1)]
    steps = [phase_costs[(t - 1) % lam] for t in range(2, T + 1)]
    wrap = phase_costs[0]

    best: Optional[Tuple[int, int, int]] = None  # (total, s0_id, s_final_id)
    for s0_id in range(8):
        values, _ = lane(s0_id, steps)
        for s_id, p_id, slot in _TRANSITIONS:
            if s_id != s0_id or values[p_id] == _INF:
                continue
            total = int(values[p_id]) + _cost(wrap, slot)
            if best is None or total < best[0]:
                best = (total, s0_id, p_id)
    assert best is not None, "DP found no feasible cyclic schedule"
    total, s0_id, final_id = best

    # Re-run the winning lane with backpointers and rebuild the state path;
    # the path's last state is the cyclic predecessor of its first.
    _, back = lane(s0_id, steps, keep_back=True)
    assert back is not None
    path = lane_path(back, final_id)
    assert path[0] == s0_id
    actions = path_actions(path[-1:] + path)
    first = actions[0]
    initial_alignment = first.processes if first.processes is not None else ALL_STATES[s0_id].alignment
    schedule = Schedule(actions=actions, initial_alignment=initial_alignment)

    avg = Fraction(total, T)
    if mode == CANONICAL:
        simulated = cyclic_average(instance, schedule)
        if simulated != avg:
            raise AssertionError(
                f"reconstructed schedule simulates to {simulated}, DP value is {avg}"
            )
    return OptimalResult(
        avg_cost=avg,
        total_cost=total,
        period=T,
        schedule=schedule,
        initial_state=ALL_STATES[s0_id],
        mode=mode,
    )


class BruteForcePeriodError(ValueError):
    """Requested period too large for exhaustive enumeration."""


def brute_force_optimal(instance: PeriodicInstance, period: int) -> Fraction:
    """Exact minimum steady-state average cost over all feasible cyclic
    action sequences of the given period, by exhaustive enumeration.

    Feasible sequences have an even number of processing actions alternating
    between the sides; each candidate is simulated for two joint cycles and
    the second cycle is measured.  Independent of the DP (no single-wait
    restriction: extra waits are enumerated freely).
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if period > 14:
        raise BruteForcePeriodError(f"period {period} too large for 2^p enumeration")
    pattern = arrival_pattern(instance)
    lam = len(pattern)
    a_d = [p[0] for p in pattern]
    a_u = [p[1] for p in pattern]
    any_arrivals = any(a_d) or any(a_u)
    cycle = math.lcm(lam, period)
    horizon = 2 * cycle

    best: Optional[Fraction] = None
    if not any_arrivals:
        return Fraction(0)
    for size in range(2, period + 1, 2):
        for positions in combinations(range(period), size):
            for first_dir in (Direction.DOWN, Direction.UP):
                serve = {}
                d = first_dir
                for pos in positions:
                    serve[pos] = d
                    d = d.flip()
                total = 0
                n_d = n_u = 0
                for t in range(1, horizon + 1):
                    idx = (t - 1) % lam
                    n_d += a_d[idx]
                    n_u += a_u[idx]
                    side = serve.get((t - 1) % period)
                    if side is Direction.DOWN:
                        n_d = 0
                    elif side is Direction.UP:
                        n_u = 0
                    if t > cycle:
                        total += n_d + n_u
                avg = Fraction(total, cycle)
                if best is None or avg < best:
                    best = avg
    if best is None:
        raise BruteForcePeriodError(
            f"no feasible processing sequence of period {period} for a non-empty pattern"
        )
    return best
