"""Distance rows of the lazy backend against the dict all-pairs oracle.

:class:`~repro.graph.backends.LazyRowBackend` is the only distance store;
these tests pin its row semantics (unreachable ``inf``, zero diagonal,
zero-cost and parallel edges, read-only rows, ``w_max`` conventions, node
order) against :func:`repro.graph.all_pairs_least_costs`, the pure-python
Dijkstra.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidNetworkError
from repro.graph import LazyRowBackend, abovenet, all_pairs_least_costs


def diamond() -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_edge("s", "a", cost=1.0)
    g.add_edge("s", "b", cost=4.0)
    g.add_edge("a", "t", cost=1.0)
    g.add_edge("b", "t", cost=1.0)
    g.add_edge("a", "b", cost=1.0)
    return g


def dist(backend: LazyRowBackend, u, v) -> float:
    return backend.distance(backend.index[u], backend.index[v])


def all_rows(backend: LazyRowBackend) -> np.ndarray:
    return backend.rows(np.arange(len(backend), dtype=np.intp))


class TestBuild:
    def test_matches_dict_all_pairs_on_diamond(self):
        g = diamond()
        backend = LazyRowBackend(g)
        costs, wmax = all_pairs_least_costs(g)
        for u in g.nodes:
            for v in g.nodes:
                assert dist(backend, u, v) == pytest.approx(costs[u].get(v, math.inf))
        assert backend.w_max() == pytest.approx(wmax)

    def test_unreachable_pairs_are_inf(self):
        g = diamond()
        g.add_node("island")
        backend = LazyRowBackend(g)
        assert dist(backend, "s", "island") == math.inf
        assert dist(backend, "island", "s") == math.inf
        assert dist(backend, "island", "island") == 0.0

    def test_diagonal_is_zero(self):
        assert np.all(np.diag(all_rows(LazyRowBackend(diamond()))) == 0.0)

    def test_zero_cost_edges_survive(self):
        # A zero-weight edge must count as an edge, not as "no edge"
        # (the classic scipy csr_matrix pitfall).
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.0)
        g.add_edge("b", "c", cost=3.0)
        backend = LazyRowBackend(g)
        assert dist(backend, "a", "b") == 0.0
        assert dist(backend, "a", "c") == 3.0

    def test_parallel_duplicate_edges_keep_minimum(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=5.0)
        g.add_edge("a", "b", cost=2.0)  # overwrites in DiGraph
        assert dist(LazyRowBackend(g), "a", "b") == 2.0

    def test_negative_weight_raises(self):
        g = nx.DiGraph()
        g.add_edge(1, 2, cost=-1.0)
        with pytest.raises(InvalidNetworkError):
            LazyRowBackend(g)

    def test_matrix_is_read_only(self):
        row = LazyRowBackend(diamond()).row(0)
        with pytest.raises(ValueError):
            row[0] = 99.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_dict_on_random_graphs(self, seed):
        g = nx.gnp_random_graph(10, 0.3, seed=seed, directed=True)
        for u, v in g.edges:
            g.edges[u, v]["cost"] = ((u * 7 + v * 13 + seed) % 19) + 1.0
        backend = LazyRowBackend(g)
        costs, wmax = all_pairs_least_costs(g)
        for u in g.nodes:
            row = costs[u]
            for v in g.nodes:
                assert dist(backend, u, v) == pytest.approx(row.get(v, math.inf))
        assert backend.w_max() == pytest.approx(wmax)

    def test_scipy_and_python_paths_agree(self):
        # scipy rows vs the pure-python Dijkstra of all_pairs_least_costs.
        g = abovenet().graph
        backend = LazyRowBackend(g)
        costs, _ = all_pairs_least_costs(g)
        expected = np.asarray(
            [[costs[u].get(v, math.inf) for v in backend.nodes] for u in backend.nodes]
        )
        np.testing.assert_allclose(all_rows(backend), expected)


class TestAccessors:
    def test_row_and_column_slices(self):
        g = diamond()
        backend = LazyRowBackend(g)
        rows = all_rows(backend)
        row = backend.row(backend.index["s"])
        col = rows[:, backend.index["t"]]
        for v in g.nodes:
            assert row[backend.index[v]] == dist(backend, "s", v)
            assert col[backend.index[v]] == dist(backend, v, "t")

    def test_to_dict_matches_all_pairs_shape(self):
        g = diamond()
        backend = LazyRowBackend(g)
        costs, _ = all_pairs_least_costs(g)
        as_dict = {
            u: {
                v: float(d)
                for v, d in zip(backend.nodes, backend.row(i))
                if math.isfinite(d)
            }
            for i, u in enumerate(backend.nodes)
        }
        assert set(as_dict) == set(costs)
        for u in costs:
            # all_pairs omits unreachable targets; the finite row entries
            # mirror that.
            assert as_dict[u] == pytest.approx(costs[u])

    def test_len_and_contains(self):
        backend = LazyRowBackend(diamond())
        assert len(backend) == 4
        assert "s" in backend.index
        assert "zz" not in backend.index

    def test_unknown_node_raises(self):
        backend = LazyRowBackend(diamond())
        with pytest.raises(KeyError):
            dist(backend, "s", "zz")

    def test_wmax_small_costs_kept(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.25)
        assert LazyRowBackend(g).w_max() == 0.25

    def test_wmax_degenerates_to_one(self):
        # All-zero costs (and single-node graphs) floor w_max at 1.0,
        # matching all_pairs_least_costs.
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=0.0)
        assert LazyRowBackend(g).w_max() == 1.0
        lone = nx.DiGraph()
        lone.add_node("x")
        assert LazyRowBackend(lone).w_max() == 1.0

    def test_explicit_node_order_is_respected(self):
        g = diamond()
        order = ("t", "b", "a", "s")
        backend = LazyRowBackend(g, nodes=order)
        assert backend.nodes == order
        assert backend.distance(backend.index["s"], backend.index["t"]) == 2.0
