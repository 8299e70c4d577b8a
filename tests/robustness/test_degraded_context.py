"""DegradedContext parity: derived contexts == fresh builds, bit for bit.

The failure-sweep fast path (:func:`repro.robustness.degraded.degraded_context`)
must never change a result — only how fast it is computed.  These tests
derive from parents with every distance row primed (so the repair decides
the fate of all |V| rows) and assert bit-identical rows and ``w_max`` against
``SolverContext.from_problem`` across randomized single-link, k-link, and
node failures (including disconnecting ones), and that a full
``survivability_report`` with a threaded context equals the uncontexted one
record for record.
"""

import numpy as np
import pytest

from repro.core.context import SolverContext
from repro.robustness import (
    CapacityDegradation,
    FailureScenario,
    apply_failure,
    degraded_context,
    k_link_failures,
    single_link_failures,
    single_node_failures,
    survivability_report,
)
from repro.robustness.demo import gadget_placement, gadget_problem
from tests.core.conftest import random_uncapacitated_problem


def primed_context(problem) -> SolverContext:
    ctx = SolverContext.from_problem(problem)
    ctx.prime_rows(ctx.nodes)
    return ctx


def assert_context_parity(derived: SolverContext, degraded_problem) -> None:
    fresh = SolverContext.from_problem(degraded_problem)
    assert derived.nodes == fresh.nodes
    assert np.array_equal(derived.rows_of(derived.nodes), fresh.rows_of(fresh.nodes))
    assert derived.w_max == fresh.w_max


class TestLinkFailures:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_single_link_scenario(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = primed_context(problem)
        for scenario in single_link_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)

    @pytest.mark.parametrize("seed", range(3))
    def test_sampled_double_link_scenarios(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = primed_context(problem)
        scenarios = k_link_failures(problem, 2)
        rng = np.random.default_rng(100 + seed)
        picks = rng.choice(len(scenarios), size=min(8, len(scenarios)), replace=False)
        for k in picks:
            degraded = apply_failure(problem, scenarios[int(k)])
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)


class TestNodeFailures:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_single_node_scenario(self, seed):
        problem = random_uncapacitated_problem(seed)
        parent = primed_context(problem)
        # Node 0 holds the pinned catalog; removing it leaves items with no
        # holders, which SolverContext tolerates (empty requester blocks).
        for scenario in single_node_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)

    def test_disconnecting_node_failure(self):
        # The gadget's hub removal strands requesters: distances go inf and
        # the derived context must agree exactly.
        problem = gadget_problem()
        parent = primed_context(problem)
        for scenario in single_node_failures(problem):
            degraded = apply_failure(problem, scenario)
            derived = degraded_context(parent, degraded)
            assert_context_parity(derived, degraded.problem)


class TestCapacityOnly:
    def test_capacity_scenario_shares_parent_matrix(self):
        problem = random_uncapacitated_problem(0)
        parent = primed_context(problem)
        scenario = FailureScenario(
            name="brownout", faults=(CapacityDegradation(factor=0.5),)
        )
        degraded = apply_failure(problem, scenario)
        derived = degraded_context(parent, degraded)
        assert derived.backend is parent.backend  # shared, not copied
        assert derived.problem is degraded.problem


class TestReportParity:
    @pytest.mark.parametrize("repair", [False, True])
    def test_report_with_context_is_identical(self, repair):
        problem = gadget_problem()
        placement = gadget_placement()
        scenarios = single_link_failures(problem) + single_node_failures(
            problem, exclude=("s",)
        )
        plain = survivability_report(problem, placement, scenarios, repair=repair)
        context = primed_context(problem)
        fast = survivability_report(
            problem, placement, scenarios, repair=repair, context=context
        )
        assert plain.healthy_cost == fast.healthy_cost
        assert len(plain.records) == len(fast.records)
        for a, b in zip(plain.records, fast.records):
            assert a == b

    def test_report_with_context_random_instances(self):
        for seed in range(3):
            problem = random_uncapacitated_problem(seed)
            context = primed_context(problem)
            from repro.core.submodular import greedy_rnr_placement

            placement = greedy_rnr_placement(problem, context=context)
            scenarios = single_link_failures(problem)
            plain = survivability_report(
                problem, placement, scenarios, repair=True
            )
            fast = survivability_report(
                problem, placement, scenarios, repair=True, context=context
            )
            assert plain.records == fast.records
