"""Derive solver contexts for degraded instances from the healthy parent.

A failure sweep evaluates hundreds of closely related instances: each
scenario removes a handful of links or nodes from one healthy topology.
Rebuilding a :class:`~repro.core.context.SolverContext` per scenario
recomputes every distance row a recovery reads, although a single link
removal typically perturbs only the rows whose shortest paths crossed it.

:func:`degraded_context` instead *repairs* the parent's distance backend
through :meth:`repro.graph.backends.LazyRowBackend.repair`: memoized rows
the failure cannot have touched are carried over, dirtied rows are dropped
and recompute on demand against the degraded CSR.  The derived context is
bit-identical to ``SolverContext.from_problem(degraded.problem)`` — parity
is asserted in ``tests/robustness/test_degraded_context.py`` and
``tests/robustness/test_scale_resilience.py`` — so it can be threaded
through recovery and reporting without changing any result, only the
wall-clock, and without ever materializing O(|V|²) state.

A derived context is valid exactly when the degraded instance was produced
by :func:`repro.robustness.faults.apply_failure` from the parent context's
own problem: the faults must be pure removals or capacity scalings (link
costs unchanged), and the surviving node order must be the parent order
minus the failed nodes (``graph.copy()`` + removals preserves insertion
order, so this holds by construction).  When the node orders cannot be
matched the function falls back to a fresh backend rather than guessing.

**Chaining (failure timelines).**  Because the only requirement is
"``degraded`` was produced by ``apply_failure`` from the parent's problem",
a derived context can itself serve as the parent of the next derivation:
the timeline controller (:mod:`repro.robustness.controller`) composes
``degraded_context`` child-on-child across consecutive failure events, each
step repairing only the rows the new faults touched.  The chain is
*failure-monotone*: repairs add elements back, which ``repair`` cannot
express, so a repair event recomposes the surviving fault set from the
healthy root context instead (:func:`rebuild_context` is the from-scratch
twin both parity tests compare against).
"""

from __future__ import annotations

from repro.core.context import SolverContext
from repro.exceptions import InvalidNetworkError
from repro.graph.backends import LazyRowBackend
from repro.robustness.faults import DegradedProblem

__all__ = ["degraded_context", "rebuild_context"]


def degraded_context(parent: SolverContext, degraded: DegradedProblem) -> SolverContext:
    """A :class:`SolverContext` for ``degraded.problem``, derived from ``parent``.

    The parent must be the context of the healthy instance the scenario was
    applied to.  Capacity-only scenarios (no removed links or nodes) share
    the parent's distance backend outright; removals repair it
    incrementally.  Falls back to a fresh backend when the surviving node
    order cannot be aligned with the parent's (never the case for instances
    produced by :func:`~repro.robustness.faults.apply_failure`).
    """
    graph = degraded.problem.network.graph
    if not degraded.failed_links and not degraded.failed_nodes:
        # Capacity degradation only: link costs — and therefore every
        # distance — are untouched, so the parent backend is shared.
        if parent.nodes == tuple(graph.nodes):
            return SolverContext(degraded.problem, backend=parent.backend)
        return SolverContext.from_problem(degraded.problem)
    removed_edges = [
        (u, v, parent.link_cost(u, v))
        for (u, v) in sorted(degraded.failed_links, key=repr)
        if u in parent.node_index and v in parent.node_index
    ]
    try:
        repaired = parent.backend.repair(
            graph,
            removed_edges=removed_edges,
            removed_nodes=tuple(degraded.failed_nodes),
        )
    except InvalidNetworkError:
        repaired = LazyRowBackend(graph)
    return SolverContext(degraded.problem, backend=repaired)


def rebuild_context(degraded: DegradedProblem) -> SolverContext:
    """Full-rebuild twin of :func:`degraded_context` (fresh build, no reuse).

    The baseline the incremental path is measured — and parity-tested —
    against: ``degraded_context(parent, degraded)`` must equal
    ``rebuild_context(degraded)`` bit-for-bit in every derived quantity.
    """
    return SolverContext.from_problem(degraded.problem)
