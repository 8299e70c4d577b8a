"""Parity tests: repaired distance rows vs. fresh builds, every row primed.

The reuse layer's correctness hinges on :meth:`LazyRowBackend.repair`
producing rows *bit-identical* to a fresh backend on the degraded graph.
Here every parent row is materialized before the failure — the fully
primed backend the dense all-pairs matrix used to be — so the repair
decides the fate of all |V| rows at once.  Randomized single-link, k-link,
and node failures (including ones that disconnect the graph) are compared
against both a fresh :class:`LazyRowBackend` and the dense oracle
(:mod:`tests.oracles.dense`) with exact checks (inf == inf, no tolerances).
Partially materialized parents (only the rows a recovery reads) and a
cross-check against :func:`repro.graph.all_pairs_least_costs` (the
pure-python Dijkstra) complete the suite.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidNetworkError
from repro.graph import LazyRowBackend, all_pairs_least_costs
from tests.oracles.dense import build_distance_matrix


def random_graph(seed: int, n: int = 12, p: float = 0.3) -> nx.DiGraph:
    rng = np.random.default_rng(seed)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                g.add_edge(u, v, cost=float(rng.uniform(0.5, 10.0)))
    return g


def primed(g: nx.DiGraph) -> LazyRowBackend:
    """A backend with every row materialized (the old dense tier)."""
    backend = LazyRowBackend(g)
    backend.ensure_rows(range(len(backend)))
    return backend


def all_rows(backend: LazyRowBackend) -> np.ndarray:
    return backend.rows(np.arange(len(backend), dtype=np.intp))


def assert_bit_identical(repaired: LazyRowBackend, degraded: nx.DiGraph):
    fresh = LazyRowBackend(degraded)
    oracle = build_distance_matrix(degraded)
    assert repaired.nodes == fresh.nodes == oracle.nodes
    # The child's CSR is the fresh build's, array for array (so predecessor
    # trees, and with them reconstructed paths, agree too).
    for attr in ("indptr", "indices", "data"):
        got, want = getattr(repaired.csgraph, attr), getattr(fresh.csgraph, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    rows = all_rows(repaired)
    assert np.array_equal(rows, all_rows(fresh))
    assert np.array_equal(rows, oracle.matrix), (
        np.argwhere(~np.isclose(rows, oracle.matrix, equal_nan=True))
    )
    # w_max feeds the submodular oracle's saturation cap.
    assert repaired.w_max() == fresh.w_max() == oracle.w_max()


def remove_edges(g: nx.DiGraph, edges):
    removed = []
    for (u, v) in edges:
        removed.append((u, v, float(g[u][v]["cost"])))
        g.remove_edge(u, v)
    return removed


def repair(parent: LazyRowBackend, degraded: nx.DiGraph, removed, dead=()):
    return parent.repair(degraded, removed_edges=removed, removed_nodes=dead)


class TestSingleLink:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_single_link_bit_identical(self, seed):
        g = random_graph(seed)
        parent = primed(g)
        rng = np.random.default_rng(1000 + seed)
        edges = list(g.edges)
        target = edges[int(rng.integers(len(edges)))]
        degraded = g.copy()
        removed = remove_edges(degraded, [target])
        assert_bit_identical(repair(parent, degraded, removed), degraded)

    def test_every_single_link_on_one_topology(self):
        g = random_graph(3, n=8, p=0.35)
        parent = primed(g)
        for target in list(g.edges):
            degraded = g.copy()
            removed = remove_edges(degraded, [target])
            assert_bit_identical(repair(parent, degraded, removed), degraded)

    def test_disconnecting_bridge_goes_inf(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=1.0)
        g.add_edge("b", "c", cost=2.0)
        g.add_edge("c", "b", cost=2.0)
        parent = primed(g)
        degraded = g.copy()
        removed = remove_edges(degraded, [("a", "b")])
        repaired = repair(parent, degraded, removed)
        assert_bit_identical(repaired, degraded)
        assert repaired.distance(repaired.index["a"], repaired.index["c"]) == math.inf


class TestKLink:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3])
    def test_random_k_link_bit_identical(self, seed, k):
        g = random_graph(seed, n=14)
        parent = primed(g)
        rng = np.random.default_rng(2000 + 10 * seed + k)
        edges = list(g.edges)
        picks = rng.choice(len(edges), size=min(k, len(edges)), replace=False)
        degraded = g.copy()
        removed = remove_edges(degraded, [edges[int(i)] for i in picks])
        assert_bit_identical(repair(parent, degraded, removed), degraded)


class TestNodeFailure:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_node_removal_bit_identical(self, seed):
        g = random_graph(seed, n=12)
        parent = primed(g)
        rng = np.random.default_rng(3000 + seed)
        dead = int(rng.integers(g.number_of_nodes()))
        degraded = g.copy()
        removed = remove_edges(degraded, [e for e in g.edges if dead in e])
        degraded.remove_node(dead)
        assert_bit_identical(repair(parent, degraded, removed, (dead,)), degraded)

    def test_articulation_node_disconnects(self):
        # line a -> m -> b: removing m strands a from b entirely.
        g = nx.DiGraph()
        g.add_edge("a", "m", cost=1.0)
        g.add_edge("m", "b", cost=1.0)
        g.add_edge("b", "m", cost=1.0)
        g.add_edge("m", "a", cost=1.0)
        parent = primed(g)
        degraded = g.copy()
        removed = remove_edges(degraded, [e for e in g.edges if "m" in e])
        degraded.remove_node("m")
        repaired = repair(parent, degraded, removed, ("m",))
        assert_bit_identical(repaired, degraded)
        assert repaired.distance(repaired.index["a"], repaired.index["b"]) == math.inf

    def test_incident_edges_need_not_be_listed(self):
        # a -> m -> b (cost 2) beats a -> b (cost 5); dropping m without
        # listing its edges must still invalidate a's row.
        g = nx.DiGraph()
        g.add_edge("a", "m", cost=1.0)
        g.add_edge("m", "b", cost=1.0)
        g.add_edge("a", "b", cost=5.0)
        parent = primed(g)
        degraded = g.copy()
        degraded.remove_node("m")
        repaired = repair(parent, degraded, [], ("m",))
        assert_bit_identical(repaired, degraded)
        assert repaired.distance(repaired.index["a"], repaired.index["b"]) == 5.0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_node_removal_unlisted_edges(self, seed):
        g = random_graph(seed, n=12)
        parent = primed(g)
        dead = int(np.random.default_rng(4000 + seed).integers(g.number_of_nodes()))
        degraded = g.copy()
        degraded.remove_node(dead)
        assert_bit_identical(repair(parent, degraded, [], (dead,)), degraded)


class TestAffectedSources:
    def test_unflagged_rows_truly_unchanged(self):
        # The affected-row test may over-flag, never under-flag: every row
        # the repair carries over must be identical in a full rebuild.
        for seed in range(6):
            g = random_graph(seed, n=10)
            parent = primed(g)
            rng = np.random.default_rng(4000 + seed)
            edges = list(g.edges)
            target = edges[int(rng.integers(len(edges)))]
            degraded = g.copy()
            removed = remove_edges(degraded, [target])
            child = repair(parent, degraded, removed)
            carried = child.row_store().row_ids
            fresh = build_distance_matrix(degraded)
            assert np.array_equal(child.rows(carried), fresh.matrix[carried])
            assert np.array_equal(parent.rows(carried), fresh.matrix[carried])

    def test_edge_off_every_shortest_path_flags_nothing(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=1.0)
        g.add_edge("a", "c", cost=100.0)  # never on a shortest path
        g.add_edge("b", "c", cost=1.0)
        parent = primed(g)
        degraded = g.copy()
        removed = remove_edges(degraded, [("a", "c")])
        child = repair(parent, degraded, removed)
        assert child.materialized == parent.materialized == 3


class TestGuards:
    def test_node_order_mismatch_raises(self):
        g = random_graph(0, n=6)
        parent = primed(g)
        shuffled = nx.DiGraph()
        shuffled.add_nodes_from(reversed(list(g.nodes)))
        shuffled.add_edges_from(g.edges(data=True))
        with pytest.raises(InvalidNetworkError):
            repair(parent, shuffled, [])

    def test_unlisted_removal_raises(self):
        g = random_graph(2, n=8)
        parent = primed(g)
        degraded = g.copy()
        u, v = list(g.edges)[0]
        degraded.remove_edge(u, v)
        with pytest.raises(InvalidNetworkError):
            repair(parent, degraded, [])

    def test_empty_after_removing_everything(self):
        g = nx.DiGraph()
        g.add_edge("a", "b", cost=1.0)
        parent = primed(g)
        repaired = repair(parent, nx.DiGraph(), [("a", "b", 1.0)], ("a", "b"))
        assert len(repaired) == 0
        assert repaired.materialized == 0
        assert all_rows(repaired).shape == (0, 0)

    def test_pure_dijkstra_backend_matches(self):
        # Repaired rows against the pure-python Dijkstra of the dict oracle.
        g = random_graph(5, n=9)
        parent = primed(g)
        rng = np.random.default_rng(7)
        edges = list(g.edges)
        target = edges[int(rng.integers(len(edges)))]
        degraded = g.copy()
        removed = remove_edges(degraded, [target])
        repaired = repair(parent, degraded, removed)
        costs, _ = all_pairs_least_costs(degraded)
        for u in degraded.nodes:
            row = repaired.row(repaired.index[u])
            for v in degraded.nodes:
                assert row[repaired.index[v]] == pytest.approx(
                    costs[u].get(v, math.inf)
                )


class TestPartialSources:
    """Partially materialized parents: only the rows asked for ever exist.

    A failure recovery reads cache and pinned rows only; a lazy child
    computes exactly the rows it is asked for, so no row outside the
    requested set is ever materialized, carried or stale.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_requested_rows_bit_identical_rest_nan(self, seed):
        g = random_graph(seed)
        parent = LazyRowBackend(g)
        rng = np.random.default_rng(seed)
        wanted = sorted(int(j) for j in rng.choice(len(parent), 4, replace=False))
        parent.ensure_rows(wanted)
        edges = list(g.edges)
        removed = remove_edges(
            g, [edges[int(j)] for j in rng.choice(len(edges), 3, replace=False)]
        )
        child = repair(parent, g, removed)
        fresh = build_distance_matrix(g)
        assert np.array_equal(child.rows(np.asarray(wanted)), fresh.matrix[wanted])
        # Unrequested rows are never materialized, so never silently stale.
        assert set(child.row_store().row_ids.tolist()) == set(wanted)
        assert not np.isnan(child.row_store().block).any()

    def test_chained_partial_repairs_stay_exact(self):
        # A partially materialized child may parent further repairs while
        # the requested sources shrink — the timeline controller's usage
        # (cache/pinned rows only shrink as nodes fail).
        g = random_graph(3)
        parent = LazyRowBackend(g)
        sources = list(parent.nodes)[:5]
        parent.ensure_rows(parent.index[v] for v in sources)
        edges = list(g.edges)
        first = remove_edges(g, edges[:2])
        step1 = repair(parent, g, first)
        step1.ensure_rows(step1.index[v] for v in sources)
        second = remove_edges(g, [e for e in list(g.edges)[:2]])
        shrunk = sources[:3]
        step2 = repair(step1, g, second)
        fresh = build_distance_matrix(g)
        for v in shrunk:
            assert np.array_equal(step2.row(step2.index[v]), fresh.matrix[fresh.index[v]])
        assert step2.materialized <= len(sources)

    def test_unknown_source_nodes_ignored(self):
        from repro.core.context import SolverContext
        from tests.core.conftest import random_uncapacitated_problem

        problem = random_uncapacitated_problem(1)
        ctx = SolverContext.from_problem(problem)
        first = ctx.nodes[0]
        ctx.prime_rows(["not-a-node", first])
        assert ctx.backend.materialized == 1
        fresh = build_distance_matrix(problem.network.graph)
        assert np.array_equal(ctx.row_of(first), fresh.matrix[fresh.index[first]])


@st.composite
def messy_digraphs(draw):
    """Random digraphs with zero-cost edges, self-loops, parallel edges
    (later duplicates overwrite earlier ones in a DiGraph) and unreachable
    pairs, plus a removal plan over their edges and nodes."""
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 7.0]),
            ),
            max_size=3 * n,
        )
    )
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        g.add_edge(u, v, cost=w)
    edge_list = list(g.edges)
    drop = draw(st.lists(st.sampled_from(edge_list), unique=True)) if edge_list else []
    dead = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=2))
    return g, drop, dead


class TestRandomProperty:
    @settings(max_examples=60, deadline=None)
    @given(messy_digraphs())
    def test_rows_and_repair_match_oracle(self, case):
        g, drop, dead = case
        backend = primed(g)
        assert np.array_equal(all_rows(backend), build_distance_matrix(g).matrix)
        assert backend.w_max() == build_distance_matrix(g).w_max()
        degraded = g.copy()
        doomed = set(drop) | {e for e in g.edges if e[0] in dead or e[1] in dead}
        removed = remove_edges(degraded, [e for e in g.edges if e in doomed])
        degraded.remove_nodes_from(dead)
        assert_bit_identical(repair(backend, degraded, removed, tuple(dead)), degraded)
