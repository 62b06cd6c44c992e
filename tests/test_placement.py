"""The dynamic finish-placement DP (Algorithms 1-3, Figures 12-13)."""

import pytest

from repro.errors import RepairError
from repro.repair.placement import (
    covers_all_edges,
    is_laminar,
    placement_cost,
    solve_placement,
)


def solve(times, is_async, edges, valid=None):
    solution = solve_placement(times, is_async, edges, valid)
    assert solution is not None
    return solution


class TestBaseCases:
    def test_single_step(self):
        solution = solve([7], [False], [])
        assert solution.cost == 7
        assert solution.finishes == []
        assert solution.est_after == 7

    def test_single_async(self):
        solution = solve([7], [True], [])
        assert solution.cost == 7
        assert solution.est_after == 0  # the next node starts immediately

    def test_two_independent_asyncs_run_in_parallel(self):
        solution = solve([10, 20], [True, True], [])
        assert solution.cost == 20
        assert solution.finishes == []

    def test_steps_serialize(self):
        solution = solve([10, 20], [False, False], [])
        assert solution.cost == 30

    def test_async_then_step_overlap(self):
        # The step runs while the async is in flight.
        solution = solve([10, 4], [True, False], [])
        assert solution.cost == 10

    def test_empty_graph_rejected(self):
        with pytest.raises(RepairError):
            solve_placement([], [], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(RepairError):
            solve_placement([1], [True, False], [])

    def test_bad_edge_rejected(self):
        with pytest.raises(RepairError):
            solve_placement([1, 2], [True, True], [(1, 0)])

    def test_non_async_source_rejected(self):
        with pytest.raises(RepairError):
            solve_placement([1, 2], [False, True], [(0, 1)])


class TestEdgeCovering:
    def test_simple_dependence_forces_finish(self):
        solution = solve([5, 5], [True, False], [(0, 1)])
        assert solution.finishes == [(0, 0)]
        assert solution.cost == 10

    def test_finish_set_covers_every_edge(self):
        times = [4, 9, 2, 7, 3]
        is_async = [True, True, False, True, False]
        edges = [(0, 2), (1, 4), (3, 4)]
        solution = solve(times, is_async, edges)
        assert covers_all_edges(edges, solution.finishes)

    def test_cost_matches_simulation(self):
        times = [4, 9, 2, 7, 3]
        is_async = [True, True, False, True, False]
        edges = [(0, 2), (1, 4), (3, 4)]
        solution = solve(times, is_async, edges)
        assert solution.cost == placement_cost(times, is_async,
                                               solution.finishes)


class TestPaperExamples:
    def test_figure_3_4_example(self):
        # A..F with times 500,10,10,400,600,500; deps B->D, A->F, D->F.
        times = [500, 10, 10, 400, 600, 500]
        is_async = [True] * 6
        edges = [(1, 3), (0, 5), (3, 5)]
        # The CPLs the paper lists in Figure 4:
        assert placement_cost(times, is_async, [(0, 0), (1, 1), (3, 3)]) == 1510
        assert placement_cost(times, is_async, [(0, 1), (3, 3)]) == 1500
        assert placement_cost(times, is_async, [(0, 2), (3, 3)]) == 1500
        assert placement_cost(times, is_async, [(0, 4), (1, 1)]) == 1110
        solution = solve(times, is_async, edges)
        assert solution.cost <= 1110
        assert covers_all_edges(edges, solution.finishes)

    def test_section_5_2_fibonacci_example(self):
        # Vertices 1..4 = Step:5, Async1:6, Async2:10, Step:14 with
        # t = (5, 20, 15, 5) and edges (2,4), (3,4): the paper infers the
        # placement {(2, 3)} — 0-based {(1, 2)}.
        solution = solve([5, 20, 15, 5], [False, True, True, False],
                         [(1, 3), (2, 3)])
        assert solution.finishes == [(1, 2)]
        assert solution.cost == 5 + max(20, 15) + 5

    def test_figure5_scoping_example(self):
        # A1 A2 A3 A4; edges A2->A4, A3->A4; a finish around {A2, A3} only
        # is not valid (it would have to cut through the if block).
        times = [5, 5, 5, 5]
        is_async = [True] * 4

        def valid(i, k):
            return not (i == 1 and k == 2)

        solution = solve(times, is_async, [(1, 3), (2, 3)], valid)
        assert covers_all_edges([(1, 3), (2, 3)], solution.finishes)
        assert (1, 2) not in solution.finishes


class TestValidity:
    def test_unsatisfiable_returns_none(self):
        # An edge must be covered but no finish is ever valid.
        solution = solve_placement([1, 1], [True, False], [(0, 1)],
                                   valid=lambda i, k: False)
        assert solution is None

    def test_valid_fallback_to_wider_finish(self):
        # (0,0) invalid but (0,1) allowed: the DP must pick the wider wrap.
        def valid(i, k):
            return (i, k) != (0, 0)

        solution = solve([5, 5, 5], [True, True, False], [(0, 2)], valid)
        assert covers_all_edges([(0, 2)], solution.finishes)
        assert (0, 0) not in solution.finishes

    def test_valid_memoised(self):
        calls = []

        def valid(i, k):
            calls.append((i, k))
            return True

        solve([1] * 6, [True] * 6, [(0, 5), (1, 4), (2, 3)], valid)
        assert len(calls) == len(set(calls))

        # [0, 4] is edge-free: the one edge (0, 5) ends past it.  The
        # finish (0, 0) already wins, so no wider wrap (0, k) inside the
        # edge-free range can beat it and VALID is never asked about one.
        calls.clear()
        solution = solve([4, 1, 1, 1, 1, 3], [True] * 5 + [False],
                         [(0, 5)], valid)
        assert solution.finishes == [(0, 0)]
        assert calls == [(0, 0)]
        assert not {(0, 1), (0, 2), (0, 3), (0, 4)} & set(calls)


class TestChains:
    def test_serial_chain_of_dependences(self):
        n = 5
        edges = [(i, i + 1) for i in range(n - 1)]
        solution = solve([3] * n, [True] * n, edges)
        assert solution.cost == 3 * n
        assert covers_all_edges(edges, solution.finishes)

    def test_all_pairs_conflicts_serialize(self):
        n = 4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        solution = solve([2] * n, [True] * n, edges)
        assert solution.cost == 2 * n

    def test_fan_in(self):
        # Many asyncs feeding one sink: one finish around all of them.
        edges = [(i, 4) for i in range(4)]
        solution = solve([10, 20, 30, 40, 5], [True] * 4 + [False], edges)
        assert solution.cost == 45
        assert covers_all_edges(edges, solution.finishes)

    def test_independent_clusters(self):
        # Two separate source->sink islands; finishes stay local.
        times = [10, 2, 10, 2]
        is_async = [True, False, True, False]
        edges = [(0, 1), (2, 3)]
        solution = solve(times, is_async, edges)
        assert solution.cost == 24
        assert len(solution.finishes) == 2


class TestCostModel:
    def test_is_laminar_accepts_nesting(self):
        assert is_laminar([(0, 5), (1, 2), (3, 4)])
        assert is_laminar([(0, 3), (0, 1)])
        assert is_laminar([(2, 5), (3, 5)])

    def test_is_laminar_rejects_partial_overlap(self):
        assert not is_laminar([(0, 2), (1, 3)])

    def test_placement_cost_rejects_non_laminar(self):
        with pytest.raises(RepairError):
            placement_cost([1, 1, 1, 1], [True] * 4, [(0, 2), (1, 3)])

    def test_nested_finishes_cost(self):
        # finish { finish { A } B }: A joins, then B runs and joins.
        times = [10, 20]
        cost = placement_cost(times, [True, True], [(0, 1), (0, 0)])
        assert cost == 30

    def test_covers_all_edges_semantics(self):
        # (s, e) covers (x, y) iff s <= x <= e < y.
        assert covers_all_edges([(1, 3)], [(0, 2)])
        assert covers_all_edges([(1, 3)], [(1, 1)])
        assert not covers_all_edges([(1, 3)], [(1, 3)])  # e == y
        assert not covers_all_edges([(1, 3)], [(2, 2)])  # s > x
