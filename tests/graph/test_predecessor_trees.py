"""Predecessor trees recorded with the distance rows, on tie-heavy graphs.

:meth:`LazyRowBackend.ensure_rows` sweeps its sources once, batched, with
``return_predecessors=True``; the path oracle backtracks those trees instead
of sweeping a serving holder a second time.  Unit-cost grids and
PoP/core/edge hierarchies have many equal-cost shortest paths, so they are
where a tree that depends on how it was computed would show.  These tests
pin that:

- batched rows and trees equal single-source sweeps (and the rows equal a
  sweep that records no trees);
- :meth:`LazyRowBackend.repair` carries no tree, and paths out of a
  repaired child equal a fresh backend's on the degraded graph.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import dijkstra

from repro.core.rnr import PredecessorPathCache
from repro.graph import pop_core_edge_hierarchy
from repro.graph.backends import LazyRowBackend, RowStore
from repro.graph.network import COST


def unit_grid(rows: int, cols: int) -> nx.DiGraph:
    graph = nx.DiGraph()
    for u, v in nx.grid_2d_graph(rows, cols).edges:
        graph.add_edge(u, v, **{COST: 1.0})
        graph.add_edge(v, u, **{COST: 1.0})
    return graph


def unit_hierarchy(n_core: int, seed: int = 0) -> nx.DiGraph:
    return pop_core_edge_hierarchy(n_core, 4, 5, seed=seed).graph


def single_source(backend: LazyRowBackend, i: int):
    dist, pred = dijkstra(
        backend.csgraph, directed=True, indices=i, return_predecessors=True
    )
    return dist, pred


def assert_trees_match_single_source(backend: LazyRowBackend, sources) -> None:
    backend.ensure_rows(sources)
    plain = dijkstra(backend.csgraph, directed=True, indices=sorted(set(sources)))
    for k, i in enumerate(sorted(set(sources))):
        dist, pred = single_source(backend, i)
        assert np.array_equal(backend.row(i), dist)
        assert np.array_equal(backend.row(i), plain[k])
        assert np.array_equal(backend.tree(i), pred)


class TestBatchedTrees:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 9),
        cols=st.integers(2, 9),
        picks=st.lists(st.integers(0, 80), min_size=1, max_size=12),
    )
    def test_grid_batch_equals_single_source(self, rows, cols, picks):
        backend = LazyRowBackend(unit_grid(rows, cols))
        n = len(backend)
        assert_trees_match_single_source(backend, [p % n for p in picks])

    @pytest.mark.parametrize("seed", range(3))
    def test_hierarchy_batch_equals_single_source(self, seed):
        backend = LazyRowBackend(unit_hierarchy(3, seed=seed))
        rng = np.random.default_rng(seed)
        sources = rng.choice(len(backend), size=40, replace=False).tolist()
        assert_trees_match_single_source(backend, sources)

    def test_batches_in_any_order_give_the_same_trees(self):
        graph = unit_grid(7, 7)
        one, many = LazyRowBackend(graph), LazyRowBackend(graph)
        one.ensure_rows(range(len(one)))
        for i in reversed(range(len(many))):
            many.ensure_rows([i, (i * 7) % len(many)])
        for i in range(len(one)):
            assert np.array_equal(one.tree(i), many.tree(i))
            assert np.array_equal(one.row(i), many.row(i))

    def test_trees_are_read_only_and_absent_for_stored_rows(self):
        graph = unit_grid(4, 4)
        parent = LazyRowBackend(graph)
        parent.ensure_rows([0, 5])
        tree = parent.tree(5)
        assert not tree.flags.writeable
        assert parent.tree(1) is None  # never swept
        store = parent.row_store()
        attached = LazyRowBackend(graph, store=RowStore(store.row_ids, store.block))
        assert attached.materialized == 2
        assert attached.tree(0) is None and attached.tree(5) is None
        # the oracle sweeps a stored row's source itself, to the same paths
        a, b = PredecessorPathCache(parent), PredecessorPathCache(attached)
        for t in range(len(parent)):
            assert a.path_by_index(5, t) == b.path_by_index(5, t)


def _degrade(graph: nx.DiGraph, rng, n_links: int, n_nodes: int):
    """A degraded copy plus the removal triples and the dead nodes.

    Links die one direction at a time: on a bipartite unit-cost grid one
    direction of every link is tight in every row, so a two-way removal
    would leave no row to carry.
    """
    nodes = list(graph.nodes)
    picked = rng.choice(len(nodes), size=n_nodes, replace=False)
    dead = [nodes[int(k)] for k in picked]
    links = [(u, v) for u, v in graph.edges if u not in dead and v not in dead]
    degraded = graph.copy()
    triples = []
    for k in rng.choice(len(links), size=n_links, replace=False):
        u, v = links[int(k)]
        triples.append((u, v, float(graph[u][v][COST])))
        degraded.remove_edge(u, v)
    degraded.remove_nodes_from(dead)
    return degraded, triples, dead


GRAPHS = {
    "grid": lambda: unit_grid(8, 8),
    "hierarchy": lambda: unit_hierarchy(3, seed=1),
}


def assert_repair_paths_equal_fresh(graph, degraded, triples, dead):
    """Repair a fully swept parent; the child's paths equal a fresh build's."""
    parent = LazyRowBackend(graph)
    parent.ensure_rows(range(len(parent)))
    child = parent.repair(degraded, removed_edges=triples, removed_nodes=dead)
    carried = child.materialized
    assert all(child.tree(i) is None for i in range(len(child)))
    fresh = LazyRowBackend(degraded)
    fresh.ensure_rows(range(len(fresh)))
    mine, theirs = PredecessorPathCache(child), PredecessorPathCache(fresh)
    for s in range(len(fresh)):
        for t in np.flatnonzero(np.isfinite(fresh.row(s))).tolist():
            assert mine.path_by_index(s, t) == theirs.path_by_index(s, t)
    # rows the child recomputes come with their trees again
    child.ensure_rows(range(len(child)))
    for i in range(len(child)):
        if child.tree(i) is not None:
            assert np.array_equal(child.tree(i), fresh.tree(i))
    return carried


class TestRepairCarriesNoTree:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("seed", range(4))
    def test_random_removals(self, name, seed):
        graph = GRAPHS[name]()
        rng = np.random.default_rng(seed)
        degraded, triples, dead = _degrade(
            graph, rng, n_links=int(rng.integers(1, 4)), n_nodes=seed % 2
        )
        assert_repair_paths_equal_fresh(graph, degraded, triples, dead)

    def test_carried_rows_have_no_tree(self):
        graph = unit_grid(8, 8)
        degraded, triples, dead = _degrade(
            graph, np.random.default_rng(0), n_links=1, n_nodes=0
        )
        carried = assert_repair_paths_equal_fresh(graph, degraded, triples, dead)
        assert 0 < carried < len(graph)
