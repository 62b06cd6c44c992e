"""Dynamic finish placement: the interval dynamic program of Section 5.2.

Given the dependence graph of one NS-LCA (nodes in left-to-right order,
execution times ``t_i``, race edges ``(x, y)`` with ``x < y``), compute a
minimum-cost set of finish placements ``{(s, e)}`` such that every edge is
covered (``s <= x <= e < y`` for some placement) and every placement is
VALID (insertable without capturing the excluded neighbours).

This implements Algorithm 1 (the DP over ``Opt``/``Partition``/``Finish``
with the EST recurrences of Figures 12 and 13), Algorithm 3 (``FIND``,
with the recursion fixed to ``FIND(p+1, end)`` to match Algorithm 1's
``i..k / k+1..j`` split), and the optimal-substructure cases:

* no edge crosses the partition — no finish; the right part starts as
  soon as the left part's synchronous prefix is done;
* edges cross — a finish is forced around the left part (if VALID), and
  the right part starts only at the left part's completion.

Ties in cost are broken toward a smaller earliest-start-time for whatever
follows, then toward the smaller partition point — which reproduces the
paper's worked Fibonacci example (Figure 14: the finish wraps only the two
asyncs, not the preceding step).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import RepairError

INF = float("inf")

ValidFn = Callable[[int, int], bool]


class PlacementSolution:
    """Result of the DP: the optimal cost and the finish set."""

    def __init__(self, cost: float, finishes: List[Tuple[int, int]],
                 est_after: float) -> None:
        #: optimal COST(G): the earliest completion time of the whole range.
        self.cost = cost
        #: finish placements as inclusive (start, end) node-index pairs.
        self.finishes = sorted(finishes)
        #: earliest start time of a hypothetical node after the range.
        self.est_after = est_after

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlacementSolution(cost={self.cost}, finishes={self.finishes})"


def check_graph(times: Sequence[int], is_async: Sequence[bool],
                edges: Sequence[Tuple[int, int]]) -> int:
    """Validate a dependence graph; returns its node count."""
    n = len(times)
    if n == 0:
        raise RepairError("empty dependence graph")
    if len(is_async) != n:
        raise RepairError("times/is_async length mismatch")
    for x, y in edges:
        if not (0 <= x < y < n):
            raise RepairError(f"bad edge ({x}, {y}) for n={n}")
        if not is_async[x]:
            raise RepairError(f"edge source {x} is not an async node")
    return n


def find_finishes(part: List[List[int]],
                  fin: List[List[bool]]) -> List[Tuple[int, int]]:
    """Algorithm 3 (FIND) over the DP's ``Partition``/``Finish`` tables,
    with the off-by-one in the paper's listing corrected: the right
    subproblem is ``p+1..end``."""
    finishes: List[Tuple[int, int]] = []

    def find(begin: int, end: int) -> None:
        if begin >= end:
            return
        p = part[begin][end]
        find(begin, p)
        find(p + 1, end)
        if fin[begin][end]:
            finishes.append((begin, p))

    find(0, len(part) - 1)
    return finishes


def solve_placement(times: Sequence[int], is_async: Sequence[bool],
                    edges: Sequence[Tuple[int, int]],
                    valid: Optional[ValidFn] = None
                    ) -> Optional[PlacementSolution]:
    """Run Algorithm 1 + Algorithm 3.  Returns None when no valid finish
    placement covers all edges (the caller decides how to fail).

    ``valid(i, k)`` answers whether a finish may wrap nodes ``i..k``
    (0-based, inclusive) without capturing node ``i-1`` or ``k+1``;
    defaults to always-true (pure graph problems, used heavily in tests).
    It is asked only about a crossing partition that would beat the best
    candidate so far, and at most once per ``(i, k)``.

    The answer — ``(cost, finishes, est_after)`` — is exactly that of the
    verbatim triple loop (:func:`repro.repair.bruteforce.reference_placement`)
    on integer times; two exact shortcuts cut the work:

    * **Edge-free ranges.**  If ``[i, j]`` contains no edge ``(x, y)``
      with ``i <= x`` and ``y <= j``, no edge crosses any partition, so
      every ``k`` yields ``cost = max_p(S(i, p) + t_p)`` and ``est = S(i,
      j + 1)`` (``S`` = the synchronous time before ``p``): all ``k`` tie
      and the tie-break keeps ``k = i`` without a finish.  Those cells
      are filled from row ``i + 1`` alone, up to ``edge_end[i] = min{y :
      (x, y) in E, x >= i}``.
    * **Lazy VALID.**  A crossing candidate that cannot beat the current
      best cannot change the result whether it is valid or not.
    """
    n = check_graph(times, is_async, edges)
    if valid is None:
        valid = lambda i, k: True  # noqa: E731 - trivial default

    succs: List[List[int]] = [[] for _ in range(n)]
    edge_end = [n] * (n + 1)
    for x, y in edges:
        succs[x].append(y)
        if y < edge_end[x]:
            edge_end[x] = y
    for i in range(n - 1, -1, -1):
        if edge_end[i + 1] < edge_end[i]:
            edge_end[i] = edge_end[i + 1]

    # Rows are solved bottom-up (i = n-1 .. 0), each left to right, so
    # opt[i][k] (k < j) and opt[k+1][j] are final when cell (i, j) is.
    # ``*_col[j][k]`` mirrors ``*[k][j]`` for the k loop's right parts.
    opt = [[INF] * n for _ in range(n)]
    est_after = [[INF] * n for _ in range(n)]
    opt_col = [[INF] * n for _ in range(n)]
    est_col = [[INF] * n for _ in range(n)]
    part = [[i] * n for i in range(n)]
    fin = [[False] * n for _ in range(n)]
    # first_cross[k] for the current row i: the smallest edge sink y > k
    # over sources in i..k (n if none), so an edge crosses the partition
    # i..k | k+1..j exactly when first_cross[k] <= j.
    first_cross = [n] * n

    for i in range(n - 1, -1, -1):
        lo = i
        for y in sorted(succs[i]):
            # y is node i's smallest sink beyond every k in lo..y-1.
            for k in range(lo, y):
                if y < first_cross[k]:
                    first_cross[k] = y
            lo = y
        opt_i = opt[i]
        est_i = est_after[i]
        t_i = times[i]
        e_i = 0 if is_async[i] else t_i
        opt_i[i] = t_i
        est_i[i] = e_i
        if i + 1 < n:
            # Edge-free cells: the k = i no-cross case, computed exactly
            # as the full loop would compute it.
            opt_next = opt[i + 1]
            est_next = est_after[i + 1]
            for j in range(i + 1, edge_end[i]):
                c = e_i + opt_next[j]
                opt_i[j] = c if c > t_i else t_i
                est_i[j] = e_i + est_next[j]
            part_i = part[i]
            fin_i = fin[i]
            valid_i: List[Optional[bool]] = [None] * n  # VALID(i, k) memo
            fc = first_cross[i:]
            for j in range(max(i + 1, edge_end[i]), n):
                best_c = INF
                best_e = INF
                best_k = -1
                best_f = False
                opt_j = opt_col[j]
                est_j = est_col[j]
                # An infeasible part (INF opt, hence INF est) makes both c
                # and e INF, which never beats the best, so it needs no
                # separate skip.
                for k, left_opt, left_est, right_opt, right_est, cross in zip(
                        range(i, j), opt_i[i:j], est_i[i:j],
                        opt_j[i + 1:j + 1], est_j[i + 1:j + 1], fc):
                    if cross > j:
                        # No dependence crosses the partition: no finish.
                        c = left_est + right_opt
                        if left_opt > c:
                            c = left_opt
                        if c < best_c or (c == best_c
                                          and left_est + right_est < best_e):
                            best_c, best_e, best_k, best_f = \
                                c, left_est + right_est, k, False
                    else:
                        # A finish around i..k satisfies the crossing
                        # edges — if it wins and is VALID.
                        c = left_opt + right_opt
                        e = left_opt + right_est
                        if c < best_c or (c == best_c and e < best_e):
                            ok = valid_i[k]
                            if ok is None:
                                ok = valid_i[k] = valid(i, k)
                            if ok:
                                best_c, best_e, best_k, best_f = c, e, k, True
                opt_i[j] = best_c
                est_i[j] = best_e
                part_i[j] = best_k
                fin_i[j] = best_f
        for j in range(i, n):
            opt_col[j][i] = opt_i[j]
            est_col[j][i] = est_i[j]

    if opt[0][n - 1] == INF:
        return None
    return PlacementSolution(opt[0][n - 1], find_finishes(part, fin),
                             est_after[0][n - 1])


# ----------------------------------------------------------------------
# Independent cost model (shared by tests and the brute-force oracle)
# ----------------------------------------------------------------------

def is_laminar(intervals: Sequence[Tuple[int, int]]) -> bool:
    """True if every pair of intervals is nested or disjoint."""
    for a in range(len(intervals)):
        s1, e1 = intervals[a]
        for b in range(a + 1, len(intervals)):
            s2, e2 = intervals[b]
            # Only *strict* partial overlap breaks laminarity; intervals
            # sharing an endpoint but nested (e.g. (4,4) inside (4,5)) are
            # fine — they are a finish at the start of another finish.
            if s1 < s2 <= e1 < e2 or s2 < s1 <= e2 < e1:
                return False
    return True


def covers_all_edges(edges: Sequence[Tuple[int, int]],
                     intervals: Sequence[Tuple[int, int]]) -> bool:
    """Every edge (x, y) needs some (s, e) with s <= x <= e < y."""
    for x, y in edges:
        if not any(s <= x <= e < y for s, e in intervals):
            return False
    return True


def placement_cost(times: Sequence[int], is_async: Sequence[bool],
                   intervals: Sequence[Tuple[int, int]]) -> int:
    """Completion time of the node sequence under the given (laminar)
    finish placements — computed by direct simulation of the async/finish
    semantics, independently of the DP recurrences.

    Used as the ground-truth cost model: the DP's ``Opt`` must agree with
    this simulation on its own output.
    """
    if not is_laminar(intervals):
        raise RepairError(f"finish intervals are not laminar: {intervals}")
    n = len(times)
    unique = sorted(set(intervals), key=lambda iv: (iv[0], -iv[1]))

    def eval_range(lo: int, hi: int, enclosing: List[Tuple[int, int]]
                   ) -> Tuple[int, int]:
        """(sync advance, completion) of positions lo..hi, where
        ``enclosing`` are the not-yet-consumed intervals inside lo..hi."""
        clock = 0
        completion = 0
        pos = lo
        while pos <= hi:
            # The widest interval starting at pos (if any) becomes a finish.
            starting = [iv for iv in enclosing if iv[0] == pos]
            if starting:
                s, e = max(starting, key=lambda iv: iv[1])
                inner = [iv for iv in enclosing
                         if iv != (s, e) and s <= iv[0] and iv[1] <= e]
                _, comp = eval_range(s, e, inner)
                completion = max(completion, clock + comp)
                clock += comp  # finish: the parent waits
                pos = e + 1
            else:
                if is_async[pos]:
                    completion = max(completion, clock + times[pos])
                else:
                    clock += times[pos]
                    completion = max(completion, clock)
                pos += 1
        return clock, max(completion, clock)

    _, comp = eval_range(0, n - 1, unique)
    return comp
