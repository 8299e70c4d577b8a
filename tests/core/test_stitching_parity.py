"""One-pass stitching equals the per-cluster scan it replaced.

:func:`~repro.core.decomposed.scan_clusters` reads the graph's links once
for every cluster ``resolve_clusters`` and ``decomposed_solve`` stitch.
For every cluster of TiNet, Deltacom and a 1k-node hierarchy, healthy and
degraded, the sub-instance it yields must equal the one the old
per-cluster scan (:mod:`tests.oracles.stitching`) builds: the same links
with the same data in the same order, the same boundary, pinned set and
demand.
"""

import numpy as np
import pytest

from repro.core import ProblemInstance, partition_graph, pin_full_catalog
from repro.core.decomposed import (
    cluster_subproblem,
    restrict_partition,
    scan_clusters,
)
from repro.graph import CacheNetwork, deltacom, tinet
from repro.graph.backends import LazyRowBackend
from repro.robustness import (
    FailureScenario,
    LinkFailure,
    NodeFailure,
    apply_failure,
    canonical_links,
    hierarchy_problem,
)
from tests.oracles import stitching


def embedded_problem(factory, seed: int = 7) -> ProblemInstance:
    net = factory()
    nodes = list(net.nodes)
    items = [f"it{k}" for k in range(5)]
    rng = np.random.default_rng(seed)
    demand = {}
    for it in items:
        for s in rng.choice(len(nodes), size=8, replace=False):
            demand[(it, nodes[int(s)])] = float(rng.uniform(0.5, 2.0))
    return ProblemInstance(
        network=CacheNetwork(net.graph, {v: 2.0 for v in nodes}),
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [nodes[0]]),
    )


PROBLEMS = {
    "tinet": lambda: embedded_problem(tinet),
    "deltacom": lambda: embedded_problem(deltacom),
    "hierarchy1k": lambda: hierarchy_problem(
        1000, n_items=20, n_caches=150, n_requesters=250, seed=0
    ),
}


def degrade(problem: ProblemInstance, seed: int) -> ProblemInstance:
    """Three link failures and one node failure, never at a pinned holder."""
    rng = np.random.default_rng(seed)
    holders = {v for (v, _i) in problem.pinned}
    links = canonical_links(problem)
    faults = [
        LinkFailure(*links[int(k)])
        for k in rng.choice(len(links), size=3, replace=False)
    ]
    nodes = [v for v in problem.network.nodes if v not in holders]
    faults.append(NodeFailure(nodes[int(rng.integers(len(nodes)))]))
    return apply_failure(problem, FailureScenario("stitch", tuple(faults))).problem


def assert_same_instance(got, want) -> None:
    if want is None:
        assert got is None
        return
    assert list(got.network.graph.nodes) == list(want.network.graph.nodes)
    assert list(got.network.graph.edges(data=True)) == list(
        want.network.graph.edges(data=True)
    )
    assert got.pinned == want.pinned
    assert list(got.demand.items()) == list(want.demand.items())
    assert got.catalog == want.catalog
    assert got.item_sizes == want.item_sizes
    assert {v: got.network.cache_capacity(v) for v in got.network.nodes} == {
        v: want.network.cache_capacity(v) for v in want.network.nodes
    }


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
def test_one_pass_equals_per_cluster_scan(name, degraded):
    healthy = PROBLEMS[name]()
    partition = partition_graph(healthy.network, seed=0)
    problem = degrade(healthy, seed=3) if degraded else healthy
    graph = problem.network.graph
    part = restrict_partition(partition, graph.nodes)
    lazy = LazyRowBackend(graph)
    holders = sorted({v for (v, _i) in problem.pinned}, key=repr)
    rows = {h: lazy.row(lazy.index[h]) for h in holders}

    scans = scan_clusters(graph, part, range(part.n_clusters))
    stitched = 0
    for cid in range(part.n_clusters):
        scan = scans[cid]
        assert scan.boundary == stitching.boundary_nodes(graph, part, cid)
        want = stitching.cluster_subproblem(problem, part, cid, rows, lazy.index)
        # the batched scan and the standalone one-cluster scan alike
        assert_same_instance(
            cluster_subproblem(problem, part, cid, rows, lazy.index, scan), want
        )
        assert_same_instance(
            cluster_subproblem(problem, part, cid, rows, lazy.index), want
        )
        stitched += want is not None
    assert stitched >= 2
