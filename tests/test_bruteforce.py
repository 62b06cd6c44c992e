"""The exhaustive placement oracle, and DP-vs-oracle agreement."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.repair.bruteforce import (
    brute_force_placement,
    enumerate_laminar_families,
    reference_placement,
)
from repro.repair.placement import (
    covers_all_edges,
    is_laminar,
    placement_cost,
    solve_placement,
)


class TestEnumeration:
    def test_n1(self):
        families = enumerate_laminar_families(1)
        assert set(families) == {(), ((0, 0),)}

    def test_n2_count(self):
        families = enumerate_laminar_families(2)
        # {}, {(0,0)}, {(1,1)}, {(0,0),(1,1)}, {(0,1)} and its nestings.
        assert ((0, 1),) in families
        assert ((0, 0), (1, 1)) in {tuple(sorted(f)) for f in families}

    def test_all_families_are_laminar(self):
        for family in enumerate_laminar_families(4):
            assert is_laminar(list(family)), family

    def test_families_unique(self):
        families = [tuple(sorted(f)) for f in enumerate_laminar_families(3)]
        assert len(families) == len(set(families))

    def test_no_duplicate_intervals_within_family(self):
        for family in enumerate_laminar_families(4):
            assert len(set(family)) == len(family)


class TestBruteForce:
    def test_unconstrained_has_empty_placement(self):
        best = brute_force_placement([5, 5], [True, True], [])
        assert best == (5, ())

    def test_single_edge(self):
        best = brute_force_placement([5, 5], [True, False], [(0, 1)])
        assert best[0] == 10

    def test_respects_validity(self):
        best = brute_force_placement(
            [5, 5], [True, False], [(0, 1)], valid=lambda s, e: False)
        assert best is None

    def test_figure_3_4_optimum(self):
        times = [500, 10, 10, 400, 600, 500]
        best = brute_force_placement(times, [True] * 6,
                                     [(1, 3), (0, 5), (3, 5)])
        assert best[0] == 1100
        assert covers_all_edges([(1, 3), (0, 5), (3, 5)], best[1])


DP_CASES = [
    # (times, is_async, edges)
    ([5, 20, 15, 5], [False, True, True, False], [(1, 3), (2, 3)]),
    ([500, 10, 10, 400, 600, 500], [True] * 6, [(1, 3), (0, 5), (3, 5)]),
    ([3, 3, 3, 3], [True] * 4, [(0, 1), (1, 2), (2, 3)]),
    ([1, 100, 1, 100], [True, True, True, False], [(0, 3), (2, 3)]),
    ([10, 1, 10, 1, 10], [True, False, True, False, True],
     [(0, 1), (2, 4)]),
    ([7, 7, 7], [True, True, True],
     [(0, 1), (0, 2), (1, 2)]),
    ([2, 4, 8, 16, 32], [True, True, False, True, False],
     [(0, 2), (1, 4), (3, 4)]),
]


class TestDpOptimality:
    @pytest.mark.parametrize("times,is_async,edges", DP_CASES)
    def test_dp_matches_bruteforce(self, times, is_async, edges):
        solution = solve_placement(times, is_async, edges)
        oracle = brute_force_placement(times, is_async, edges)
        assert solution is not None and oracle is not None
        assert solution.cost == oracle[0]
        # And the DP's own output simulates to its claimed cost.
        assert placement_cost(times, is_async, solution.finishes) \
            == solution.cost

    @pytest.mark.parametrize("times,is_async,edges", DP_CASES)
    def test_dp_matches_bruteforce_with_validity(self, times, is_async,
                                                 edges):
        # Forbid finishes starting at node 0 — an arbitrary scope rule.
        def valid(s, e):
            return s != 0

        solution = solve_placement(times, is_async, edges, valid)
        oracle = brute_force_placement(times, is_async, edges, valid)
        assert (solution is None) == (oracle is None)
        if solution is not None:
            assert solution.cost == oracle[0]


@st.composite
def placement_graphs(draw):
    """Graphs up to n = 40 in two shapes: edge-free-heavy (a few short
    edges, as in most NS-LCA graphs) and dense (many long edges).  Small
    time ranges make cost ties, which exercise the tie-break, common."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, 40)))
    top = draw(st.sampled_from([2, 4, 30]))
    times = draw(st.lists(st.integers(min_value=0, max_value=top),
                          min_size=n, max_size=n))
    is_async = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sources = [x for x in range(n - 1) if is_async[x]]
    edges = set()
    if sources:
        dense = draw(st.booleans())
        count = draw(st.integers(0, 3 * n if dense else max(1, n // 8)))
        reach = n if dense else 3
        for _ in range(count):
            x = draw(st.sampled_from(sources))
            edges.add((x, draw(st.integers(x + 1, min(n - 1, x + reach)))))
    return times, is_async, sorted(edges)


class TestReferenceIdentity:
    """The shortcut DP returns exactly what the verbatim triple loop
    returns, and asks VALID about a subset of the reference's pairs."""

    @given(graph=placement_graphs(), salt=st.integers(0, 2 ** 16),
           reject=st.sampled_from([0, 10, 40, 90]))
    # Two crossing candidates tie on cost; only the EST tie-break picks
    # the single finish (0, 1) over (0, 0) + (1, 2).
    @example(graph=([2, 4, 2, 0], [True] * 4, [(0, 2), (1, 3)]), salt=0,
             reject=0)
    @settings(max_examples=150, deadline=None)
    def test_solution_and_valid_calls(self, graph, salt, reject):
        times, is_async, edges = graph

        def recorder(calls):
            def valid(i, k):
                calls.append((i, k))
                return hash((salt, i, k)) % 100 >= reject
            return valid

        fast_calls, reference_calls = [], []
        fast = solve_placement(times, is_async, edges, recorder(fast_calls))
        reference = reference_placement(times, is_async, edges,
                                        recorder(reference_calls))
        if reference is None:
            assert fast is None
        else:
            assert fast is not None
            assert (fast.cost, fast.finishes, fast.est_after) == \
                (reference.cost, reference.finishes, reference.est_after)
        assert len(fast_calls) == len(set(fast_calls))
        assert set(fast_calls) <= set(reference_calls)
