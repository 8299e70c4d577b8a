"""LazyRowBackend.repair parity: carried rows == fresh degraded rows, bit for bit.

A memoized row is carried into the degraded backend only when no removed
edge could have lain on one of its shortest paths; everything else is
dropped and recomputes on demand against the degraded CSR.  Either way every row must equal a fresh
``LazyRowBackend(degraded_graph)`` build exactly — these tests sweep random
link and node removals over embedded mid-size topologies and assert the
bit-parity, the carry behaviour, and the node-order contract.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidNetworkError
from repro.graph import abovenet, abvt, tinet
from repro.graph.backends import LazyRowBackend
from repro.graph.network import COST

TOPOLOGIES = [abovenet, abvt, tinet]


def _remove_links(graph, picks):
    """Degraded copy of ``graph`` minus ``picks`` + the removal triples."""
    degraded = graph.copy()
    triples = []
    for u, v in picks:
        for a, b in ((u, v), (v, u)):
            if degraded.has_edge(a, b):
                triples.append((a, b, float(graph[a][b][COST])))
                degraded.remove_edge(a, b)
    return degraded, triples


def _assert_full_parity(repaired, degraded_graph):
    fresh = LazyRowBackend(degraded_graph)
    assert repaired.nodes == fresh.nodes
    n = len(fresh.nodes)
    idx = np.arange(n, dtype=np.intp)
    assert np.array_equal(repaired.rows(idx), fresh.rows(idx))


class TestLinkRemovals:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_random_link_removals_bit_identical(self, factory, seed):
        graph = factory().graph
        backend = LazyRowBackend(graph)
        rng = np.random.default_rng(seed)
        nodes = list(graph.nodes)
        # memoize a representative subset of rows before the failure
        warm = rng.choice(len(nodes), size=min(10, len(nodes)), replace=False)
        backend.ensure_rows(int(k) for k in warm)
        links = sorted(
            {(min(u, v, key=repr), max(u, v, key=repr)) for u, v in graph.edges},
            key=repr,
        )
        picks = [links[int(k)] for k in
                 rng.choice(len(links), size=3, replace=False)]
        degraded, triples = _remove_links(graph, picks)
        repaired = backend.repair(degraded, removed_edges=triples)
        _assert_full_parity(repaired, degraded)

    def test_unaffected_rows_are_carried_affected_dropped(self):
        graph = abovenet().graph
        backend = LazyRowBackend(graph)
        n = len(backend.nodes)
        backend.ensure_rows(range(n))
        u, v = next(iter(graph.edges))
        degraded, triples = _remove_links(graph, [(u, v)])
        repaired = backend.repair(degraded, removed_edges=triples)
        # some rows survive the carry; the affected ones were dropped, so the
        # child cannot carry everything on a connected topology
        assert 0 < repaired.materialized < n
        # carried exactly the rows whose shortest paths could not have used
        # the removed edge: src -> a -> b -> dst never ties the optimum
        for i in range(n):
            row = backend.row(i)
            affected = False
            for a, b, w in triples:
                lhs = row[backend.index[a]] + w + backend.row(backend.index[b])
                if np.any(np.isfinite(lhs) & (lhs == row)):
                    affected = True
                    break
            assert (i in repaired._rows) == (not affected), (i, affected)
        _assert_full_parity(repaired, degraded)

    def test_empty_parent_repairs_to_fresh_backend(self):
        graph = abvt().graph
        backend = LazyRowBackend(graph)  # nothing memoized
        u, v = next(iter(graph.edges))
        degraded, triples = _remove_links(graph, [(u, v)])
        repaired = backend.repair(degraded, removed_edges=triples)
        assert repaired.materialized == 0
        _assert_full_parity(repaired, degraded)


class TestNodeRemovals:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_node_removal_bit_identical(self, factory):
        graph = factory().graph
        backend = LazyRowBackend(graph)
        backend.ensure_rows(range(min(12, len(backend.nodes))))
        dead = list(graph.nodes)[3]
        triples = []
        for a, b in list(graph.in_edges(dead)) + list(graph.out_edges(dead)):
            triples.append((a, b, float(graph[a][b][COST])))
        degraded = graph.copy()
        degraded.remove_node(dead)
        repaired = backend.repair(
            degraded, removed_edges=triples, removed_nodes=(dead,)
        )
        assert dead not in repaired.index
        _assert_full_parity(repaired, degraded)
        # carried rows must be column-subset to the surviving order
        for row_idx in repaired._rows:
            assert repaired._rows[row_idx].shape == (len(repaired.nodes),)

    def test_node_order_mismatch_raises(self):
        import networkx as nx

        graph = abovenet().graph
        backend = LazyRowBackend(graph)
        # same nodes and edges, different insertion order: carried rows
        # would be silently mis-indexed, so repair must refuse
        reordered = nx.DiGraph()
        reordered.add_nodes_from(reversed(list(graph.nodes)))
        reordered.add_edges_from(graph.edges(data=True))
        with pytest.raises(InvalidNetworkError):
            backend.repair(reordered, removed_edges=[])
