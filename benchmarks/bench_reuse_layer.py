"""Solver-state reuse layer: derived contexts, LP templates, shm broadcast.

Not a figure of the paper — the acceptance bench for the reuse layer built
on top of its solvers.  Three independent measurements:

1. **Degraded-context sweep** — a Deltacom single-link failure sweep with
   one parent :class:`~repro.core.context.SolverContext` threaded through
   ``survivability_report`` (incremental lazy-row repair + vectorized
   recovery) against the per-scenario-rebuild path.  The reports must match
   record for record and the reuse path must be >= 5x faster.
2. **FC-FR template sweep** — capacity scenarios solved by patching one
   frozen LP (:class:`~repro.core.fcfr.FCFRTemplate`) against re-assembling
   and re-solving from scratch; costs must be bit-identical.
3. **Broadcast payload** — the per-pool pickle payload of a shared-memory
   row-store handle must stay an order of magnitude below the all-rows
   O(|V|^2) block it replaces.

Every measurement lands in ``BENCH_reuse_layer.json`` for CI artifact
comparison; parity failures fail the bench, not just the numbers.
"""

import pickle
import time

from repro.core import FCFRTemplate, solve_fcfr
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.core.submodular import greedy_rnr_placement
from repro.experiments import ScenarioConfig, build_scenario, format_sweep
from repro.graph import LazyRowBackend, deltacom
from repro.graph.shm import RowsBroadcast, graph_signature
from repro.robustness import single_link_failures, survivability_report

SWEEP_SCENARIOS = 40
SPEEDUP_FLOOR = 5.0


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_degraded_context_sweep(benchmark, report, bench_json):
    scenario = build_scenario(
        ScenarioConfig(
            seed=0, topology="deltacom", num_videos=5, link_capacity_fraction=None
        )
    )
    problem = scenario.problem
    context = SolverContext.from_problem(problem)
    placement = greedy_rnr_placement(problem, context=context)
    scenarios = single_link_failures(problem)[:SWEEP_SCENARIOS]

    def run():
        rebuild, rebuild_seconds = _timed(
            lambda: survivability_report(problem, placement, scenarios, repair=True)
        )
        reuse, reuse_seconds = _timed(
            lambda: survivability_report(
                problem, placement, scenarios, repair=True, context=context
            )
        )
        return rebuild, rebuild_seconds, reuse, reuse_seconds

    rebuild, rebuild_seconds, reuse, reuse_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = rebuild_seconds / reuse_seconds
    identical = (
        rebuild.healthy_cost == reuse.healthy_cost
        and rebuild.records == reuse.records
    )
    rows = [
        {"variant": "per-scenario rebuild", "seconds": rebuild_seconds},
        {"variant": "derived contexts (reuse)", "seconds": reuse_seconds},
    ]
    report(
        "reuse_degraded_sweep",
        format_sweep(
            rows,
            ["variant", "seconds"],
            title=(
                f"Deltacom single-link sweep, {len(scenarios)} scenarios, "
                f"repair on — speedup {speedup:.2f}x"
            ),
        ),
    )
    bench_json(
        "reuse_layer",
        {
            "degraded_sweep": {
                "topology": "deltacom",
                "scenarios": len(scenarios),
                "rebuild_seconds": rebuild_seconds,
                "reuse_seconds": reuse_seconds,
                "speedup": speedup,
                "reports_identical": identical,
            }
        },
    )
    assert identical, "context-threaded sweep changed the survivability report"
    assert speedup >= SPEEDUP_FLOOR, (
        f"derived-context sweep only {speedup:.2f}x faster "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def _rescaled(problem: ProblemInstance, factor: float) -> ProblemInstance:
    network = problem.network.copy()
    for (u, v), cap in problem.network.capacities().items():
        if cap != float("inf"):
            network.set_link_capacity(u, v, cap * factor)
    return ProblemInstance(
        network=network,
        catalog=problem.catalog,
        demand=dict(problem.demand),
        item_sizes=dict(problem.item_sizes) if problem.item_sizes else None,
        pinned=frozenset(problem.pinned),
    )


def test_fcfr_template_capacity_sweep(benchmark, report, bench_json):
    scenario = build_scenario(ScenarioConfig(seed=0, num_videos=4))
    problem = scenario.problem
    finite = {
        e: c
        for e, c in problem.network.capacities().items()
        if c != float("inf")
    }
    factors = [1.0, 0.9, 0.8, 0.7]

    def run():
        def fresh_sweep():
            return [solve_fcfr(_rescaled(problem, f)).cost for f in factors]

        def template_sweep():
            template = FCFRTemplate(problem)
            return [
                template.solve(
                    link_capacities={e: c * f for e, c in finite.items()}
                ).cost
                for f in factors
            ]

        fresh, fresh_seconds = _timed(fresh_sweep)
        patched, template_seconds = _timed(template_sweep)
        return fresh, fresh_seconds, patched, template_seconds

    fresh, fresh_seconds, patched, template_seconds = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = fresh_seconds / template_seconds
    rows = [
        {"variant": "fresh assembly per scenario", "seconds": fresh_seconds},
        {"variant": "frozen template, patched rhs", "seconds": template_seconds},
    ]
    report(
        "reuse_fcfr_template",
        format_sweep(
            rows,
            ["variant", "seconds"],
            title=(
                f"FC-FR capacity sweep, {len(factors)} scenarios — "
                f"speedup {speedup:.2f}x, costs identical: {fresh == patched}"
            ),
        ),
    )
    bench_json(
        "reuse_fcfr_template",
        {
            "scenarios": len(factors),
            "fresh_seconds": fresh_seconds,
            "template_seconds": template_seconds,
            "speedup": speedup,
            "costs_identical": fresh == patched,
            "costs": patched,
        },
    )
    # Patching may only change speed, never the answer.
    assert fresh == patched


def test_broadcast_payload(report, bench_json):
    graph = deltacom().graph
    backend = LazyRowBackend(graph)
    backend.ensure_rows(range(len(backend)))
    store = backend.row_store()
    with RowsBroadcast(store, backend.nodes, graph_signature(graph)) as broadcast:
        handle_bytes = len(pickle.dumps(broadcast.handle))
        block_bytes = len(pickle.dumps(store.block))
    report(
        "reuse_broadcast_payload",
        format_sweep(
            [
                {"payload": "pickled row block", "bytes": block_bytes},
                {"payload": "pickled shm handle", "bytes": handle_bytes},
            ],
            ["payload", "bytes"],
            title=f"Deltacom (|V|={len(backend)}) per-pool broadcast payload",
        ),
    )
    bench_json(
        "broadcast_payload",
        {
            "topology": "deltacom",
            "nodes": len(backend),
            "block_nbytes": int(store.block.nbytes),
            "pickled_block_bytes": block_bytes,
            "pickled_handle_bytes": handle_bytes,
        },
    )
    # The O(|V|^2) payload never crosses a pool boundary — only the handle.
    assert handle_bytes < store.block.nbytes / 10
