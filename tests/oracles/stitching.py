"""Per-cluster stitching oracle: the scan the one-pass stitching replaced.

``cluster_subproblem`` used to read the graph's links twice for every
cluster it stitched: once for the cluster's own links and once more for its
boundary nodes.  :func:`repro.core.decomposed.scan_clusters` now collects
both for every stitched cluster in a single pass.  This module keeps the
old per-cluster version so ``tests/core/test_stitching_parity.py`` can
check the two stitch every cluster identically.
"""

from __future__ import annotations

import math

import networkx as nx

from repro.core.decomposed import ClusterPartition, _origin_node
from repro.core.problem import ProblemInstance
from repro.graph.network import CAPACITY, COST, CacheNetwork


def boundary_nodes(graph: nx.DiGraph, partition: ClusterPartition, cid: int) -> list:
    """Cluster members with at least one link crossing the cluster edge."""
    out = set()
    for u, v in graph.edges:
        cu, cv = partition.labels[u], partition.labels[v]
        if cu == cid and cv != cid:
            out.add(u)
        elif cv == cid and cu != cid:
            out.add(v)
    return sorted(out, key=repr)


def cluster_subproblem(problem, partition, cid, holder_rows, node_index):
    """The sub-instance of one cluster, scanning the graph for it alone."""
    members = partition.clusters[cid]
    member_set = set(members)
    demand = {
        (i, s): r for (i, s), r in problem.demand.items() if s in member_set
    }
    if not demand:
        return None
    items = sorted({i for (i, _s) in demand}, key=repr)
    item_set = set(items)

    graph = problem.network.graph
    sub = nx.DiGraph()
    sub.add_nodes_from(members)
    for u, v, data in graph.edges(data=True):
        if u in member_set and v in member_set:
            sub.add_edge(
                u,
                v,
                **{
                    COST: float(data.get(COST, 1.0)),
                    CAPACITY: float(data.get(CAPACITY, math.inf)),
                },
            )

    pinned = {
        (v, i) for (v, i) in problem.pinned if v in member_set and i in item_set
    }
    boundary = boundary_nodes(graph, partition, cid)
    for item in items:
        external = sorted(
            (
                h
                for h in problem.pinned_holders(item)
                if h not in member_set and h in holder_rows
            ),
            key=repr,
        )
        if not external:
            continue
        rows = [holder_rows[h] for h in external]
        origin = _origin_node(item)
        attached = False
        for b in boundary:
            j = node_index[b]
            cost = min(float(row[j]) for row in rows)
            if math.isfinite(cost):
                sub.add_edge(origin, b, **{COST: cost, CAPACITY: math.inf})
                attached = True
        if attached:
            pinned.add((origin, item))

    caps = {v: problem.network.cache_capacity(v) for v in members}
    sizes = (
        None
        if problem.item_sizes is None
        else {i: problem.item_sizes[i] for i in items}
    )
    return ProblemInstance(
        network=CacheNetwork(sub, caps),
        catalog=tuple(items),
        demand=demand,
        item_sizes=sizes,
        pinned=frozenset(pinned),
    )
