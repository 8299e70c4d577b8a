"""Property tests: the SolverContext path agrees with the dict path.

Every solver accepts ``context=None`` (dict-based ShortestPathCache) or a
SolverContext (lazy distance rows + vectorized reductions).  These tests
drive both paths over random seeded instances and demand identical results,
which is the correctness argument for the vectorization.
"""

import numpy as np
import pytest

from repro.core import (
    RNRCostSaving,
    ShortestPathCache,
    SolverContext,
    greedy_rnr_placement,
    route_to_nearest_replica,
    routing_cost,
)
from repro.core.algorithm1 import algorithm1
from repro.core.submodular import local_search_swap
from repro.graph import all_pairs_least_costs

from tests.core.conftest import make_line_problem, random_uncapacitated_problem
from tests.oracles.dense import build_distance_matrix

SEEDS = range(8)


@pytest.fixture(params=SEEDS)
def random_problem(request):
    return random_uncapacitated_problem(request.param)


class TestContextStructure:
    def test_distances_match_dict_all_pairs(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        costs, wmax = all_pairs_least_costs(random_problem.network.graph)
        for u in random_problem.network.nodes:
            for v in random_problem.network.nodes:
                assert ctx.distance(u, v) == pytest.approx(
                    costs[u].get(v, float("inf"))
                )
        assert ctx.w_max == pytest.approx(wmax)

    def test_requester_block_aligned_with_problem(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        for item in random_problem.catalog:
            block = ctx.requesters(item)
            expected = tuple(random_problem.requesters_of(item))
            assert block.nodes == expected
            assert block.size == len(expected)
            for s, rate in zip(block.nodes, block.rates):
                assert rate == random_problem.demand[(item, s)]

    def test_baseline_costs_are_pinned_minima(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        sp = ShortestPathCache(random_problem)
        for item in random_problem.catalog:
            block = ctx.requesters(item)
            base = ctx.baseline_costs(item)
            for s, got in zip(block.nodes, base):
                expected = min(
                    (
                        sp.distance(h, s)
                        for h in random_problem.pinned_holders(item)
                    ),
                    default=float("inf"),
                )
                assert got == pytest.approx(min(expected, ctx.w_max))

    def test_baseline_costs_returns_fresh_copy(self):
        prob = make_line_problem(cache_nodes={3: 1})
        ctx = SolverContext.from_problem(prob)
        item = prob.catalog[0]
        first = ctx.baseline_costs(item)
        first[:] = -1.0
        assert np.all(ctx.baseline_costs(item) >= 0.0)

    def test_link_cost_matches_network(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        for (u, v) in random_problem.network.edges:
            assert ctx.link_cost(u, v) == random_problem.network.cost(u, v)


class TestObjectiveEquivalence:
    def test_marginal_gains_agree(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        f_dict = RNRCostSaving(random_problem)
        f_ctx = RNRCostSaving(random_problem, context=ctx)
        cache_nodes = random_problem.network.cache_nodes()
        for item in random_problem.catalog:
            for v in cache_nodes:
                assert f_ctx.marginal_gain(v, item) == pytest.approx(
                    f_dict.marginal_gain(v, item)
                ), (v, item)

    def test_gains_agree_after_adds(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        f_dict = RNRCostSaving(random_problem)
        f_ctx = RNRCostSaving(random_problem, context=ctx)
        cache_nodes = random_problem.network.cache_nodes()
        # Grow a placement and keep checking gains stay in lockstep.
        for step, item in enumerate(random_problem.catalog[:2]):
            v = cache_nodes[step % len(cache_nodes)]
            f_dict.add(v, item)
            f_ctx.add(v, item)
            for other in random_problem.catalog:
                for w in cache_nodes:
                    assert f_ctx.marginal_gain(w, other) == pytest.approx(
                        f_dict.marginal_gain(w, other)
                    )

    def test_evaluate_agrees(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        f_dict = RNRCostSaving(random_problem)
        f_ctx = RNRCostSaving(random_problem, context=ctx)
        v = random_problem.network.cache_nodes()[0]
        pairs = [(v, random_problem.catalog[0])]
        assert f_ctx.evaluate(pairs) == pytest.approx(f_dict.evaluate(pairs))


class TestSolverEquivalence:
    def test_greedy_placement_identical(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        p_dict = greedy_rnr_placement(random_problem)
        p_ctx = greedy_rnr_placement(random_problem, context=ctx)
        assert dict(p_dict.items()) == dict(p_ctx.items())

    def test_rnr_routing_cost_identical(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        placement = greedy_rnr_placement(random_problem)
        r_dict = route_to_nearest_replica(random_problem, placement)
        r_ctx = route_to_nearest_replica(
            random_problem, placement, context=ctx
        )
        assert routing_cost(random_problem, r_ctx) == pytest.approx(
            routing_cost(random_problem, r_dict)
        )

    def test_local_search_cost_identical(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        start = greedy_rnr_placement(random_problem)
        swapped_dict = local_search_swap(
            random_problem, start.copy()
        )
        swapped_ctx = local_search_swap(
            random_problem, start.copy(), context=ctx
        )
        cost_dict = routing_cost(
            random_problem,
            route_to_nearest_replica(random_problem, swapped_dict),
        )
        cost_ctx = routing_cost(
            random_problem,
            route_to_nearest_replica(random_problem, swapped_ctx),
        )
        assert cost_ctx == pytest.approx(cost_dict)

    def test_algorithm1_cost_identical(self, random_problem):
        ctx = SolverContext.from_problem(random_problem)
        res_dict = algorithm1(random_problem)
        res_ctx = algorithm1(random_problem, context=ctx)
        assert routing_cost(
            random_problem, res_ctx.solution.routing
        ) == pytest.approx(routing_cost(random_problem, res_dict.solution.routing))

    def test_scipy_and_python_contexts_agree(self):
        # Context rows (scipy) vs the pure-python Dijkstra of the dict path.
        prob = random_uncapacitated_problem(3)
        fast = SolverContext.from_problem(prob)
        costs, _ = all_pairs_least_costs(prob.network.graph)
        slow = np.asarray(
            [[costs[u].get(v, np.inf) for v in fast.nodes] for u in fast.nodes]
        )
        np.testing.assert_allclose(fast.rows_of(fast.nodes), slow)
        p_fast = greedy_rnr_placement(prob, context=fast)
        p_slow = greedy_rnr_placement(prob)
        assert dict(p_fast.items()) == dict(p_slow.items())


class TestLazyTierEquivalence:
    """Rows computed on demand are bit-identical to a fully primed backend
    (every row materialized up front, as the dense all-pairs matrix was)
    on every solver, and to the dense oracle's rows."""

    def lazy_ctx(self, problem):
        return SolverContext.from_problem(problem)

    def dense_ctx(self, problem):
        ctx = SolverContext.from_problem(problem)
        ctx.prime_rows(ctx.nodes)
        return ctx

    def test_distance_ops_bit_identical(self, random_problem):
        dense = self.dense_ctx(random_problem)
        lazy = self.lazy_ctx(random_problem)
        oracle = build_distance_matrix(random_problem.network.graph)
        nodes = list(random_problem.network.nodes)
        for v in nodes:
            assert np.array_equal(dense.row_of(v), lazy.row_of(v))
            assert np.array_equal(lazy.row_of(v), oracle.matrix[oracle.index[v]])
        assert np.array_equal(dense.rows_of(nodes[:4]), lazy.rows_of(nodes[:4]))
        assert dense.finite_max_from(nodes[:5]) == lazy.finite_max_from(nodes[:5])
        assert dense.w_max == lazy.w_max

    def test_pinned_and_baseline_bit_identical(self, random_problem):
        dense = self.dense_ctx(random_problem)
        lazy = self.lazy_ctx(random_problem)
        for item in random_problem.catalog:
            assert np.array_equal(
                dense.pinned_min_costs(item), lazy.pinned_min_costs(item)
            )
            assert np.array_equal(
                dense.baseline_costs(item), lazy.baseline_costs(item)
            )

    def test_greedy_bit_identical(self, random_problem):
        p_dense = greedy_rnr_placement(
            random_problem, context=self.dense_ctx(random_problem)
        )
        p_lazy = greedy_rnr_placement(
            random_problem, context=self.lazy_ctx(random_problem)
        )
        assert dict(p_dense.items()) == dict(p_lazy.items())

    def test_algorithm1_bit_identical(self, random_problem):
        res_dense = algorithm1(
            random_problem, context=self.dense_ctx(random_problem)
        )
        res_lazy = algorithm1(
            random_problem, context=self.lazy_ctx(random_problem)
        )
        assert dict(res_dense.solution.placement.items()) == dict(
            res_lazy.solution.placement.items()
        )
        assert res_dense.lp_objective == res_lazy.lp_objective
        assert routing_cost(
            random_problem, res_dense.solution.routing
        ) == routing_cost(random_problem, res_lazy.solution.routing)

    def test_rnr_bit_identical(self, random_problem):
        placement = greedy_rnr_placement(random_problem)
        r_dense = route_to_nearest_replica(
            random_problem, placement, context=self.dense_ctx(random_problem)
        )
        r_lazy = route_to_nearest_replica(
            random_problem, placement, context=self.lazy_ctx(random_problem)
        )
        assert routing_cost(random_problem, r_dense) == routing_cost(
            random_problem, r_lazy
        )

    def test_from_problem_accepts_only_lazy(self):
        from repro.exceptions import InvalidProblemError
        from repro.graph.backends import LazyRowBackend

        prob = random_uncapacitated_problem(1)
        assert isinstance(SolverContext.from_problem(prob).backend, LazyRowBackend)
        for tier in ("dense", "auto"):
            with pytest.raises(InvalidProblemError):
                SolverContext.from_problem(prob, backend=tier)

    def test_prime_rows_limits_materialization(self):
        from repro.core.context import relevant_sources
        from repro.graph.backends import LazyRowBackend

        prob = random_uncapacitated_problem(2)
        ctx = self.lazy_ctx(prob)
        backend = ctx.backend
        assert isinstance(backend, LazyRowBackend)
        assert backend.materialized == 0
        ctx.prime_rows()
        assert backend.materialized == len(relevant_sources(prob))

    def test_repr_does_not_force_wmax(self):
        prob = random_uncapacitated_problem(4)
        ctx = self.lazy_ctx(prob)
        assert "w_max=<unread>" in repr(ctx)
        _ = ctx.w_max
        assert "w_max=<unread>" not in repr(ctx)
