"""Exhaustive finish placement for small dependence graphs.

Enumerates every *laminar* family of intervals over the node range (the
families expressible as nested/disjoint ``finish`` statements), filters to
families that cover all race edges and whose every interval is VALID, and
minimizes the simulated completion time.

This is the optimality oracle for the DP of :mod:`.placement` — Theorem 2
says Algorithm 1 is optimal, so on any small random instance the DP's cost
must equal the brute-force minimum.  Exponential; intended for ``n <= 7``.

It also keeps :func:`reference_placement`, Algorithm 1 as the plain
``O(n^3)`` triple loop: the answer-identity oracle for the shortcut DP.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .placement import (
    INF,
    PlacementSolution,
    check_graph,
    covers_all_edges,
    find_finishes,
    placement_cost,
)

Interval = Tuple[int, int]
Family = Tuple[Interval, ...]


@lru_cache(maxsize=None)
def _families(lo: int, hi: int, allow_full: bool) -> Tuple[Family, ...]:
    """All laminar families over positions ``lo..hi``.

    ``allow_full`` controls whether the interval ``(lo, hi)`` itself may
    appear (used to prevent infinitely nested duplicates).
    """
    if lo > hi:
        return ((),)
    results: List[Family] = []

    def rec(start: int, acc: Tuple[Interval, ...]) -> None:
        if start > hi:
            results.append(acc)
            return
        # Position `start` not covered by a top-level interval here.
        rec(start + 1, acc)
        # Or a top-level interval (start, e) with a nested family inside.
        for e in range(start, hi + 1):
            if (start, e) == (lo, hi) and not allow_full:
                continue
            for inner in _families(start, e, False):
                rec(e + 1, acc + ((start, e),) + inner)

    rec(lo, ())
    return tuple(results)


def enumerate_laminar_families(n: int) -> Tuple[Family, ...]:
    """Every laminar interval family over ``0..n-1`` (including empty)."""
    return _families(0, n - 1, True)


def brute_force_placement(times: Sequence[int], is_async: Sequence[bool],
                          edges: Sequence[Interval],
                          valid: Optional[Callable[[int, int], bool]] = None
                          ) -> Optional[Tuple[int, Family]]:
    """Minimum completion time over all valid covering laminar families.

    Returns ``(cost, family)`` or None when no family works.  Among
    equal-cost families, prefers the one with fewer intervals (then the
    lexicographically smallest), making the result deterministic.
    """
    n = len(times)
    best: Optional[Tuple[int, Family]] = None
    for family in enumerate_laminar_families(n):
        if not covers_all_edges(edges, family):
            continue
        if valid is not None and any(not valid(s, e) for s, e in family):
            continue
        cost = placement_cost(times, is_async, list(family))
        key = (cost, len(family), tuple(sorted(family)))
        if best is None or key < (best[0], len(best[1]),
                                  tuple(sorted(best[1]))):
            best = (cost, tuple(sorted(family)))
    return best


def _first_cross_table(n: int,
                       edges: Sequence[Tuple[int, int]]) -> List[List[int]]:
    """``table[i][k]`` = the smallest edge sink ``y > k`` over sources in
    ``i..k`` (or ``n`` if none).  ``succ(i..k) ∩ {k+1..j} != empty`` is then
    simply ``table[i][k] <= j``."""
    succs: List[List[int]] = [[] for _ in range(n)]
    for x, y in edges:
        succs[x].append(y)
    for lst in succs:
        lst.sort()

    def min_succ_gt(x: int, k: int) -> int:
        lst = succs[x]
        pos = bisect_right(lst, k)
        return lst[pos] if pos < len(lst) else n

    table = [[n] * n for _ in range(n)]
    for k in range(n):
        best = n
        for i in range(k, -1, -1):
            cand = min_succ_gt(i, k)
            if cand < best:
                best = cand
            table[i][k] = best
    return table


def reference_placement(times: Sequence[int], is_async: Sequence[bool],
                        edges: Sequence[Interval],
                        valid: Optional[Callable[[int, int], bool]] = None
                        ) -> Optional[PlacementSolution]:
    """Algorithm 1 as a plain triple loop over every ``(i, j, k)``, asking
    VALID about every crossing partition.

    The test oracle for :func:`~repro.repair.placement.solve_placement`,
    which must return the identical ``(cost, finishes, est_after)`` while
    asking VALID about a subset of these pairs.
    """
    n = check_graph(times, is_async, edges)
    if valid is None:
        valid = lambda i, k: True  # noqa: E731 - trivial default
    valid_cache: Dict[Tuple[int, int], bool] = {}

    def is_valid(i: int, k: int) -> bool:
        key = (i, k)
        cached = valid_cache.get(key)
        if cached is None:
            cached = valid(i, k)
            valid_cache[key] = cached
        return cached

    first_cross = _first_cross_table(n, edges)

    opt = [[INF] * n for _ in range(n)]
    est_after = [[INF] * n for _ in range(n)]
    part = [[-1] * n for _ in range(n)]
    fin = [[False] * n for _ in range(n)]

    for i in range(n):
        opt[i][i] = times[i]
        est_after[i][i] = 0 if is_async[i] else times[i]
        part[i][i] = i

    for s in range(2, n + 1):
        for i in range(n - s + 1):
            j = i + s - 1
            best_c = INF
            best_e = INF
            best_k = -1
            best_f = False
            row_fc = first_cross[i]
            for k in range(i, j):
                left_opt = opt[i][k]
                right_opt = opt[k + 1][j]
                if left_opt == INF or right_opt == INF:
                    continue
                if row_fc[k] > j:
                    # No dependence crosses the partition: no finish.
                    c = left_opt
                    alt = est_after[i][k] + right_opt
                    if alt > c:
                        c = alt
                    e = est_after[i][k] + est_after[k + 1][j]
                    f = False
                elif is_valid(i, k):
                    # A finish around i..k satisfies the crossing edges.
                    c = left_opt + right_opt
                    e = left_opt + est_after[k + 1][j]
                    f = True
                else:
                    continue
                if c < best_c or (c == best_c and e < best_e):
                    best_c, best_e, best_k, best_f = c, e, k, f
            opt[i][j] = best_c
            est_after[i][j] = best_e
            part[i][j] = best_k
            fin[i][j] = best_f

    if opt[0][n - 1] == INF:
        return None
    return PlacementSolution(opt[0][n - 1], find_finishes(part, fin),
                             est_after[0][n - 1])
