"""Scale gate: lazy distance rows + cluster-decomposed solving.

Three measurements back ROADMAP item 3 ("10k nodes without the dense
O(|V|²) wall") and are written to one ``BENCH_scale_decomposition.json``:

1. **Backend tiers** — wall time and tracemalloc peak of building the dense
   all-pairs matrix (the parity oracle of ``tests/oracles/dense.py``) vs.
   priming a :class:`LazyRowBackend` with exactly the
   rows a solve consults (cache nodes + pinned holders + requesters), on
   PoP/core/edge hierarchies of growing size.  Gate: at the largest size
   the lazy build peaks below 10% of the dense peak, and the primed rows
   are bit-identical to the dense matrix rows.
2. **End-to-end decomposed solve** — :func:`repro.core.decomposed_solve`
   runs Algorithm 1 per cluster and composes a feasible global solution on
   the largest hierarchy.  Gate: it completes, the composed solution is
   feasible, and the cost is finite.
3. **Optimality gap** — on mid-size topologies where the exact Algorithm 1
   is still tractable, the decomposed cost of the bench's instances stays
   within 20% above exact (often *below*, since Algorithm 1 is itself
   (1 - 1/e)-approximate).  This is a gate on these instances, not a
   general bound: DESIGN.md §5.10 lists seeded instances up to +97%.

``SCALE_BENCH_SIZES`` (comma-separated node counts, default
``1000,5000,10000``) reduces the sweep for CI smoke runs: the gates then
apply to the largest size actually measured.
"""

import os
import time
import tracemalloc

import numpy as np

from repro.core import (
    ProblemInstance,
    check_feasibility,
    decomposed_solve,
    decomposition_gap,
    pin_full_catalog,
)
from repro.core.context import relevant_sources
from repro.graph import (
    CacheNetwork,
    LazyRowBackend,
    deltacom,
    pop_core_edge_hierarchy,
    tinet,
)
from repro.experiments import format_sweep
from tests.oracles.dense import build_distance_matrix

#: Gap gate on the bench's instances (tests/core/test_decomposed.py asserts
#: the same threshold on one instance); not a general bound, see DESIGN.md §5.10.
GAP_BOUND = 0.20
#: Acceptance: lazy peak memory below this fraction of the dense peak.
LAZY_PEAK_FRACTION = 0.10

DEFAULT_SIZES = (1000, 5000, 10000)


def bench_sizes() -> tuple[int, ...]:
    raw = os.environ.get("SCALE_BENCH_SIZES", "")
    if not raw.strip():
        return DEFAULT_SIZES
    return tuple(int(tok) for tok in raw.split(",") if tok.strip())


def scale_problem(n_total: int) -> ProblemInstance:
    """A cache-placement instance on a hierarchy of ~``n_total`` nodes.

    ``(n_core, 9, 10)`` gives exactly ``100 * n_core`` nodes; caches sit on
    a sample of PoPs, demand comes from a sample of edge leaves, and the
    whole catalog is pinned at the highest-degree core node (the origin).
    """
    n_core = max(2, n_total // 100)
    net = pop_core_edge_hierarchy(n_core, 9, 10, seed=0)
    nodes = list(net.nodes)
    pops = [v for v in nodes if str(v).startswith("p")]
    leaves = [v for v in nodes if str(v).startswith("e")]
    origin = max(
        (v for v in nodes if str(v).startswith("c")),
        key=lambda v: (net.undirected_degree(v), str(v)),
    )
    rng = np.random.default_rng(0)
    cache_nodes = [pops[i] for i in rng.choice(len(pops), size=min(150, len(pops)), replace=False)]
    items = [f"it{k}" for k in range(20)]
    demand = {}
    requesters = rng.choice(len(leaves), size=min(250, len(leaves)), replace=False)
    for s in requesters:
        for it in rng.choice(items, size=2, replace=False):
            demand[(str(it), leaves[int(s)])] = float(rng.uniform(0.5, 2.0))
    capped = CacheNetwork(net.graph, {v: 4.0 for v in cache_nodes})
    return ProblemInstance(
        network=capped,
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [origin]),
    )


def _traced(fn, *args):
    """(value, seconds, tracemalloc peak bytes) of ``fn(*args)``."""
    tracemalloc.start()
    start = time.perf_counter()
    value = fn(*args)
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return value, seconds, peak


def _prime_lazy(graph, scope):
    backend = LazyRowBackend(graph)
    backend.ensure_rows(backend.index[v] for v in scope)
    return backend


def test_backend_tiers_and_decomposed_solve(benchmark, report, bench_json):
    sizes = bench_sizes()

    def run():
        tier_rows = []
        parity_checked = 0
        for n_total in sizes:
            problem = scale_problem(n_total)
            graph = problem.network.graph
            n = graph.number_of_nodes()
            scope = relevant_sources(problem)

            dm, dense_seconds, dense_peak = _traced(build_distance_matrix, graph)
            lazy, lazy_seconds, lazy_peak = _traced(_prime_lazy, graph, scope)

            # bit-parity of every primed row against the dense matrix
            for v in scope[:50]:
                i = lazy.index[v]
                assert np.array_equal(lazy.row(i), dm.matrix[i]), v
                parity_checked += 1
            tier_rows.append(
                {
                    "nodes": n,
                    "scope_rows": len(scope),
                    "dense_seconds": round(dense_seconds, 3),
                    "dense_peak_mb": round(dense_peak / 2**20, 1),
                    "lazy_seconds": round(lazy_seconds, 3),
                    "lazy_peak_mb": round(lazy_peak / 2**20, 1),
                    "peak_ratio": round(lazy_peak / dense_peak, 4),
                }
            )
            del dm, lazy

        largest = max(sizes)
        problem = scale_problem(largest)
        t0 = time.perf_counter()
        dec = decomposed_solve(problem, seed=0, parallel=True)
        solve_seconds = time.perf_counter() - t0
        feas = check_feasibility(problem, dec.solution)
        solve_row = {
            "nodes": problem.network.num_nodes,
            "n_clusters": dec.partition.n_clusters,
            "clusters_solved": len(dec.reports),
            "cost": round(dec.cost, 4),
            "feasible": feas.feasible,
            "ran_parallel": dec.ran_parallel,
            "seconds": round(solve_seconds, 2),
        }

        gap_rows = []
        sweep_prob = None
        sweep_exact = float("nan")
        for name, factory in [("tinet", tinet), ("deltacom", deltacom)]:
            net = factory()
            nodes = list(net.nodes)
            rng = np.random.default_rng(7)
            items = [f"it{k}" for k in range(6)]
            demand = {}
            for it in items:
                for s in rng.choice(len(nodes), size=10, replace=False):
                    demand[(it, nodes[int(s)])] = float(rng.uniform(0.5, 2.0))
            prob = ProblemInstance(
                network=CacheNetwork(net.graph, {v: 2.0 for v in nodes}),
                catalog=tuple(items),
                demand=demand,
                pinned=pin_full_catalog(items, [nodes[0]]),
            )
            gap = decomposition_gap(prob, seed=0)
            gap_rows.append(
                {
                    "topology": name,
                    "nodes": net.num_nodes,
                    "n_clusters": gap.n_clusters,
                    "exact_cost": round(gap.exact_cost, 4),
                    "decomposed_cost": round(gap.decomposed_cost, 4),
                    "relative_gap": round(gap.relative_gap, 4),
                }
            )
            if name == "deltacom":
                sweep_prob, sweep_exact = prob, gap.exact_cost

        # Gap-vs-speed frontier: sweep the cluster count around the
        # default heuristic (~sqrt(|V|)/2) on the largest mid-size
        # topology.  More clusters = smaller sub-LPs (faster) but more
        # boundary stitching (worse gap) — the frontier documents the
        # trade so callers can tune n_clusters deliberately.
        sweep_rows = []
        for k in (2, 4, 6, 8, 12, 16):
            t0 = time.perf_counter()
            dec = decomposed_solve(sweep_prob, n_clusters=k, seed=0)
            secs = time.perf_counter() - t0
            sweep_rows.append(
                {
                    "n_clusters": k,
                    "decomposed_cost": round(dec.cost, 4),
                    "relative_gap": round((dec.cost - sweep_exact) / sweep_exact, 4),
                    "seconds": round(secs, 3),
                }
            )
        return tier_rows, solve_row, gap_rows, sweep_rows, parity_checked

    tier_rows, solve_row, gap_rows, sweep_rows, parity_checked = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    report(
        "scale_decomposition",
        format_sweep(
            tier_rows,
            [
                "nodes",
                "scope_rows",
                "dense_seconds",
                "dense_peak_mb",
                "lazy_seconds",
                "lazy_peak_mb",
                "peak_ratio",
            ],
            title="Distance tiers: dense all-pairs vs lazy consulted rows",
        )
        + "\n\n"
        + format_sweep(
            [solve_row],
            list(solve_row),
            title="End-to-end cluster-decomposed Algorithm 1 (largest size)",
        )
        + "\n\n"
        + format_sweep(
            gap_rows,
            list(gap_rows[0]),
            title=f"Decomposition gap vs exact Algorithm 1 (bound {GAP_BOUND:.0%})",
        )
        + "\n\n"
        + format_sweep(
            sweep_rows,
            list(sweep_rows[0]),
            title="Cluster-count frontier on deltacom (gap vs speed)",
        ),
    )
    bench_json(
        "scale_decomposition",
        {
            "sizes": list(sizes),
            "tiers": tier_rows,
            "decomposed_solve": solve_row,
            "gaps": gap_rows,
            "cluster_sweep": sweep_rows,
            "gap_bound": GAP_BOUND,
            "lazy_peak_fraction_bound": LAZY_PEAK_FRACTION,
            "parity_rows_checked": parity_checked,
        },
    )

    # --- gates -------------------------------------------------------
    assert parity_checked > 0
    largest_tier = max(tier_rows, key=lambda r: r["nodes"])
    if largest_tier["nodes"] >= 5000:
        # the 10% bound is a scale property: the consulted-row scope is
        # O(demand), so the ratio falls as 1/|V| — reduced CI sweeps only
        # check the tier ordering
        assert largest_tier["peak_ratio"] < LAZY_PEAK_FRACTION, largest_tier
    else:
        assert largest_tier["lazy_peak_mb"] < largest_tier["dense_peak_mb"]
    assert solve_row["feasible"], solve_row
    assert np.isfinite(solve_row["cost"]) and solve_row["cost"] > 0
    for row in gap_rows:
        assert row["relative_gap"] <= GAP_BOUND, row
    # The frontier must contain at least one in-bound point (the default
    # heuristic sits inside the swept range); extreme counts may exceed it.
    assert min(r["relative_gap"] for r in sweep_rows) <= GAP_BOUND, sweep_rows
