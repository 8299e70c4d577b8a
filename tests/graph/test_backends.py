"""Lazy distance rows: bit-parity with the dense oracle, laziness, stores."""

import math

import numpy as np
import pytest

from repro.graph import (
    LazyRowBackend,
    RowStore,
    abovenet,
    abvt,
    all_pairs_least_costs,
    deltacom,
    line_topology,
    random_topology,
    tinet,
    tree_topology,
)
from tests.oracles.dense import build_distance_matrix

TOPOLOGIES = [abovenet, abvt, tinet, deltacom, lambda: line_topology(7),
              lambda: tree_topology(2, 3), lambda: random_topology(40, seed=3)]


class DenseRows:
    """The dense oracle behind the backend's row interface."""

    def __init__(self, graph) -> None:
        self.dm = build_distance_matrix(graph)
        self.nodes = self.dm.nodes

    def row(self, i: int) -> np.ndarray:
        return self.dm.matrix[i]

    def rows(self, idx: np.ndarray) -> np.ndarray:
        return self.dm.matrix[np.asarray(idx, dtype=np.intp)]

    def distance(self, i: int, j: int) -> float:
        return float(self.dm.matrix[i, j])

    def finite_max_rows(self, idx: np.ndarray) -> float:
        rows = self.rows(idx)
        finite = rows[np.isfinite(rows)]
        return float(finite.max()) if finite.size else 0.0

    def w_max(self) -> float:
        return self.dm.w_max()


def backends_for(net):
    graph = net.graph
    return DenseRows(graph), LazyRowBackend(graph)


class TestBitParity:
    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_rows_bit_identical(self, factory):
        dense, lazy = backends_for(factory())
        n = len(dense.nodes)
        assert lazy.nodes == dense.nodes
        for i in range(n):
            d, l = dense.row(i), lazy.row(i)
            # bitwise equality, not approx: same CSR, same Dijkstra
            assert np.array_equal(d, l), f"row {i} differs"
            assert d.tobytes() == l.tobytes()

    @pytest.mark.parametrize("factory", TOPOLOGIES)
    def test_reductions_bit_identical(self, factory):
        dense, lazy = backends_for(factory())
        n = len(dense.nodes)
        idx = np.arange(0, n, 2, dtype=np.intp)
        assert dense.finite_max_rows(idx) == lazy.finite_max_rows(idx)
        assert dense.w_max() == lazy.w_max()

    def test_distance_and_stacked_rows(self):
        dense, lazy = backends_for(tinet())
        idx = np.asarray([4, 0, 17], dtype=np.intp)
        assert np.array_equal(dense.rows(idx), lazy.rows(idx))
        assert dense.distance(3, 40) == lazy.distance(3, 40)

    def test_python_fallback_matches_scipy(self):
        # scipy rows vs the pure-python Dijkstra of all_pairs_least_costs.
        net = abvt()
        scipy_rows = LazyRowBackend(net.graph)
        costs, _ = all_pairs_least_costs(net.graph)
        for i, u in enumerate(scipy_rows.nodes):
            py_row = [costs[u].get(v, math.inf) for v in scipy_rows.nodes]
            assert np.allclose(scipy_rows.row(i), py_row)


class TestLaziness:
    def test_only_consulted_rows_materialize(self):
        lazy = LazyRowBackend(deltacom().graph)
        assert lazy.materialized == 0
        lazy.row(5)
        lazy.rows(np.asarray([5, 9, 11], dtype=np.intp))
        assert lazy.materialized == 3

    def test_wmax_does_not_retain_rows(self):
        net = tinet()
        lazy = LazyRowBackend(net.graph)
        lazy.row(2)
        w = lazy.w_max()
        assert lazy.materialized == 1  # sweep streamed, nothing retained
        assert w == build_distance_matrix(net.graph).w_max()

    def test_rows_are_read_only(self):
        lazy = LazyRowBackend(abvt().graph)
        row = lazy.row(0)
        with pytest.raises((ValueError, RuntimeError)):
            row[0] = 99.0


class TestRowStore:
    def test_round_trip_through_store(self):
        net = tinet()
        lazy = LazyRowBackend(net.graph)
        lazy.ensure_rows([1, 8, 30])
        store = lazy.row_store()
        assert len(store) == 3
        reloaded = LazyRowBackend(net.graph, store=store)
        assert reloaded.materialized == 3
        for i in (1, 8, 30):
            assert np.array_equal(reloaded.row(i), lazy.row(i))
        # rows outside the store still compute on demand
        assert np.array_equal(reloaded.row(4), lazy.row(4))

    def test_store_shape_validated(self):
        with pytest.raises(ValueError):
            RowStore(np.asarray([0, 1]), np.zeros((3, 5)))
        with pytest.raises(ValueError):
            LazyRowBackend(
                abvt().graph,
                store=RowStore(np.asarray([0]), np.zeros((1, 4))),
            )
