"""Lazily computed distance rows: the one distance store every solver reads.

Every Section 4 solver consumes the least costs ``w_{v->s}`` through a
handful of row-oriented operations — a single ``d(source, target)``
lookup, one full row ``d(source, ·)``, a stack of rows for a holder set,
and two reductions (finite max over rows, the global bound ``w_max``).
:class:`LazyRowBackend` provides exactly those: it computes **only the rows
actually consulted** (cache nodes, pinned holders, requesters) with a
batched ``scipy.sparse.csgraph.dijkstra`` over one CSR adjacency, memoizes
them, and never materializes the O(|V|²) matrix.  Priming every row gives
the all-pairs matrix row by row; the rows are bit-identical to a dense
all-pairs sweep over the same CSR (asserted against the dense oracle in
``tests/graph/test_backends.py``).

A backend's materialized rows can be exported once into shared memory
(:meth:`LazyRowBackend.row_store` + :class:`repro.graph.shm.RowsBroadcast`)
and attached zero-copy by pool workers — workers start with the scope rows
mapped read-only and fall back to local computation only for rows outside
the store.

Every row the backend sweeps comes with its Dijkstra predecessor tree,
from the same batched call; path reconstruction
(:class:`repro.core.rnr.PredecessorPathCache`) reads it instead of sweeping
the source a second time.

After link or node failures, :meth:`LazyRowBackend.repair` derives the
degraded graph's backend, carrying every memoized row the removals cannot
have touched (never a tree); the others recompute on demand.

``w_max`` (the paper's bound on pairwise costs) deserves a note: it is
reproduced *exactly* by streaming the full Dijkstra sweep in bounded-memory
chunks without retaining the rows — max is order-independent, so the value
equals the max over a dense matrix bit-for-bit while memory stays
O(chunk · |V|).  The sweep runs only when ``w_max`` is actually read
(greedy/local-search baselines); Algorithm 1 takes its bound from
``finite_max_from`` over candidate sources and never pays it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.exceptions import InvalidNetworkError
from repro.graph.network import COST

Node = Hashable

__all__ = [
    "LazyRowBackend",
    "RowStore",
]

#: Rows per chunk of the streamed ``w_max`` sweep (memory = chunk * |V| * 12:
#: float64 rows plus their int32 predecessor trees).
_WMAX_CHUNK = 256


def _sparse_adjacency(
    graph: nx.DiGraph,
    nodes: Sequence[Node],
    index: dict[Node, int],
    weight: str,
):
    """Adjacency of ``graph`` as a scipy CSR matrix, O(|V| + |E|) memory.

    Structurally identical (indptr/indices/data) to what
    ``csgraph_from_dense(dense_adjacency, null_value=inf)`` used to produce
    — including the explicit zero-weight diagonal standing in for
    ``fill_diagonal(adj, 0.0)`` — so every ``csgraph`` routine consuming it
    returns bit-identical distances and predecessors, without the O(|V|²)
    dense staging array that was fatal at 10k nodes.
    """
    n = len(nodes)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, v, edge in graph.edges(data=True):
        w = float(edge.get(weight, 1.0))
        if w < 0:
            raise InvalidNetworkError(f"negative weight on ({u!r}, {v!r})")
        i, j = index[u], index[v]
        if i != j:  # self-loops collapse into the zero diagonal below
            rows.append(i)
            cols.append(j)
            data.append(w)
    rows.extend(range(n))
    cols.extend(range(n))
    data.extend([0.0] * n)
    adj = csr_matrix(
        (
            np.asarray(data, dtype=np.float64),
            (np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)),
        ),
        shape=(n, n),
    )
    adj.sort_indices()
    return adj


class RowStore:
    """Materialized distance rows as one shm-shareable block.

    ``row_ids[k]`` is the source index of ``block[k]``.  The block is what
    :class:`~repro.graph.shm.RowsBroadcast` exports and what workers attach
    read-only; a :class:`LazyRowBackend` built on an attached store serves
    those rows zero-copy.
    """

    def __init__(self, row_ids: np.ndarray, block: np.ndarray) -> None:
        self.row_ids = np.asarray(row_ids, dtype=np.intp)
        self.block = block
        if self.block.ndim != 2 or len(self.row_ids) != self.block.shape[0]:
            raise ValueError("row_ids must index the block's rows")

    def __len__(self) -> int:
        return len(self.row_ids)


class LazyRowBackend:
    """Compute-and-memoize distance rows on demand; never the full matrix.

    Parameters
    ----------
    graph:
        The network graph; the CSR adjacency is built once (O(|V| + |E|)).
    nodes:
        Row/column order (defaults to graph insertion order).
    store:
        Optional preloaded :class:`RowStore` (typically attached from a
        shared-memory broadcast); its rows are served as read-only views
        without any computation or copying.

    Memoized rows are capped only by what callers touch: solvers consult
    cache-node, pinned-holder and requester rows, which is O(relevant)
    instead of O(|V|).
    """

    def __init__(
        self,
        graph: nx.DiGraph,
        *,
        weight: str = COST,
        nodes: Sequence[Node] | None = None,
        store: RowStore | None = None,
    ) -> None:
        order = tuple(graph.nodes if nodes is None else nodes)
        index = {v: k for k, v in enumerate(order)}
        self._init(order, index, _sparse_adjacency(graph, order, index, weight), weight)
        if store is not None:
            n = len(self.nodes)
            if store.block.shape[1] != n:
                raise ValueError(
                    f"row store has {store.block.shape[1]} columns, graph has "
                    f"{n} nodes"
                )
            for k, i in enumerate(store.row_ids):
                self._rows[int(i)] = store.block[k]

    def _init(self, nodes, index, csgraph, weight: str) -> None:
        self.nodes: tuple[Node, ...] = nodes
        self.index: dict[Node, int] = index
        #: CSR adjacency the rows are swept over (shared with path oracles).
        self.csgraph = csgraph
        self._weight = weight
        self._rows: dict[int, np.ndarray] = {}
        #: Predecessor trees of the rows this backend swept itself.
        self._trees: dict[int, np.ndarray] = {}
        self._w_max: float | None = None

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def materialized(self) -> int:
        """Number of rows currently memoized (tests/benchmarks)."""
        return len(self._rows)

    # ------------------------------------------------------------------
    # Row computation
    # ------------------------------------------------------------------

    def _compute_rows(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh rows for ``sources`` and their predecessor trees, one batched
        Dijkstra sweep."""
        rows, trees = dijkstra(
            self.csgraph, directed=True, indices=sources, return_predecessors=True
        )
        rows = np.atleast_2d(rows)
        rows[np.arange(len(sources)), sources] = 0.0
        return rows, np.atleast_2d(trees)

    def ensure_rows(self, idx: Iterable[int]) -> None:
        """Materialize any missing rows, with their predecessor trees, in one
        batched sweep.

        The trees cost one int32 array per row and no second Dijkstra: scipy
        records them while it settles each source, and they equal the trees
        of single-source calls over the same CSR.  :meth:`tree` serves them.
        """
        missing = sorted({int(i) for i in idx} - self._rows.keys())
        if not missing:
            return
        rows, trees = self._compute_rows(np.asarray(missing, dtype=np.intp))
        for k, i in enumerate(missing):
            row, tree = rows[k], trees[k]
            row.setflags(write=False)
            tree.setflags(write=False)
            self._rows[i] = row
            self._trees[i] = tree

    def tree(self, i: int) -> np.ndarray | None:
        """Predecessor tree of source ``i`` (scipy convention, ``-9999`` at
        the source and at unreachable nodes), or ``None`` when this backend
        did not sweep the row itself (carried by :meth:`repair` or loaded
        from a :class:`RowStore`)."""
        return self._trees.get(int(i))

    def row(self, i: int) -> np.ndarray:
        i = int(i)
        row = self._rows.get(i)
        if row is None:
            self.ensure_rows((i,))
            row = self._rows[i]
        return row

    def rows(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.intp)
        self.ensure_rows(idx.tolist())
        if idx.size == 0:
            return np.empty((0, len(self.nodes)), dtype=np.float64)
        return np.stack([self._rows[int(i)] for i in idx])

    def distance(self, i: int, j: int) -> float:
        return float(self.row(i)[j])

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------

    def finite_max_rows(self, idx: np.ndarray) -> float:
        rows = self.rows(idx)
        finite = rows[np.isfinite(rows)]
        return float(finite.max()) if finite.size else 0.0

    def w_max(self) -> float:
        """Global max finite pairwise cost, floored at 1.0.

        Streams the full Dijkstra sweep in chunks of ``_WMAX_CHUNK`` rows,
        reducing the max and discarding each chunk — bit-identical to the
        max over a dense all-pairs matrix (max is order-independent) at
        O(chunk · |V|) memory.  Computed once, then cached.
        """
        if self._w_max is None:
            n = len(self.nodes)
            top = 0.0
            for start in range(0, n, _WMAX_CHUNK):
                chunk = np.arange(start, min(start + _WMAX_CHUNK, n), dtype=np.intp)
                # Serve memoized rows from the cache; compute the rest
                # transiently without retaining them.
                cached = [i for i in chunk.tolist() if i in self._rows]
                fresh = np.asarray(
                    [i for i in chunk.tolist() if i not in self._rows],
                    dtype=np.intp,
                )
                for i in cached:
                    row = self._rows[i]
                    finite = row[np.isfinite(row)]
                    if finite.size:
                        top = max(top, float(finite.max()))
                if fresh.size:
                    rows, _ = self._compute_rows(fresh)
                    finite = rows[np.isfinite(rows)]
                    if finite.size:
                        top = max(top, float(finite.max()))
            self._w_max = top if top > 0 else 1.0
        return self._w_max

    # ------------------------------------------------------------------
    # Incremental repair (failure sweeps)
    # ------------------------------------------------------------------

    def repair(
        self,
        degraded_graph: nx.DiGraph,
        *,
        removed_edges: Sequence[tuple[Node, Node, float]],
        removed_nodes: Sequence[Node] = (),
    ) -> "LazyRowBackend":
        """A backend for ``degraded_graph``, reusing unaffected memoized rows.

        ``removed_edges`` lists every directed edge deleted from this
        backend's graph as ``(u, v, weight)`` triples, and
        ``removed_nodes`` lists deleted nodes.  Edges incident to a removed
        node are read from this backend's CSR, so they need not be listed
        (:func:`repro.robustness.faults.apply_failure` records them anyway;
        listing them twice is harmless).  A memoized row is carried into the
        child unless some removed edge is *tight* in it:
        ``row[u] + w == row[v]`` with ``row[u]`` finite.  Dijkstra's
        distance of ``v`` is the minimum over its in-edges of
        ``dist[p] + w`` (computed exactly so, in floating point), so an edge
        that is not tight never sets a distance, and removing only such
        edges leaves the row unchanged bit for bit.  The test may over-flag
        a row an equal-cost surviving edge still covers (it recomputes
        equal).  Carried rows are shared read-only, column-subset onto the
        surviving node order under node removals; flagged (and
        never-computed) rows are simply absent and recompute lazily against
        the degraded CSR, so the child is bit-identical to a fresh
        ``LazyRowBackend(degraded_graph)`` on every operation.  The child's
        CSR is this one with the removed entries masked out (the arrays a
        fresh build makes, without iterating the degraded graph's edges),
        and no Dijkstra runs here.  ``w_max`` is not carried (the parent's
        value may hinge on removed elements); the child re-streams it on
        first read.  No predecessor tree is carried either: a removed edge
        that is not tight leaves the distances unchanged but can still
        change the order in which Dijkstra settles equal-cost ties, so a
        carried tree might differ from a fresh one.

        Raises
        ------
        InvalidNetworkError
            ``degraded_graph``'s node order is not this backend's order
            minus ``removed_nodes`` (carried rows would be misindexed), or
            it lost an edge that is neither listed in ``removed_edges`` nor
            incident to a removed node.
        """
        dead = set(removed_nodes)
        node_list = tuple(v for v in self.nodes if v not in dead)
        if node_list != tuple(degraded_graph.nodes):
            raise InvalidNetworkError(
                "degraded graph nodes do not match the backend order minus "
                "removed nodes; build a fresh LazyRowBackend instead"
            )
        # Every entry of this CSR as (tail, head); entries are sorted by
        # (tail, head), so masking them keeps the order.
        n = len(self.nodes)
        csr = self.csgraph
        tail = np.repeat(np.arange(n, dtype=np.intp), np.diff(csr.indptr))
        head = csr.indices.astype(np.intp)
        alive = np.ones(n, dtype=bool)
        alive[[self.index[v] for v in dead if v in self.index]] = False
        # The removed edges: the listed ones plus every entry touching a dead
        # node, never the zero diagonal standing in for self-loops.
        gone = ~(alive[tail] & alive[head])
        keys = tail * n + head  # increasing
        listed = np.asarray(
            [
                self.index[u] * n + self.index[v]
                for (u, v, _w) in removed_edges
                if u in self.index and v in self.index
            ],
            dtype=np.intp,
        )
        pos = np.minimum(np.searchsorted(keys, listed), len(keys) - 1)
        gone[pos[keys[pos] == listed]] = True
        gone &= tail != head
        # The child's CSR is this one minus the removed edges and the dead
        # nodes' diagonals, renumbered onto the survivors: the same arrays
        # _sparse_adjacency builds from degraded_graph.
        kept = ~gone & alive[tail]
        new_id = np.cumsum(alive) - 1
        m = len(node_list)
        indptr = np.zeros(m + 1, dtype=csr.indptr.dtype)
        np.cumsum(np.bincount(new_id[tail[kept]], minlength=m), out=indptr[1:])
        indices = new_id[head[kept]].astype(csr.indices.dtype)
        child = LazyRowBackend.__new__(LazyRowBackend)
        child._init(
            node_list,
            {v: k for k, v in enumerate(node_list)},
            csr_matrix((csr.data[kept], indices, indptr), shape=(m, m)),
            self._weight,
        )
        # One diagonal per survivor plus every edge that is not a self-loop.
        edges = len(degraded_graph.edges) - nx.number_of_selfloops(degraded_graph)
        if child.csgraph.nnz != edges + m:
            raise InvalidNetworkError(
                "degraded graph edges are not this graph's minus the removed "
                "edges; build a fresh LazyRowBackend instead"
            )
        ids = [i for i in self._rows if alive[i]]
        if not ids:
            return child
        # One vectorized tight test over every memoized row, reading only
        # the removed edges' endpoint columns.
        g = int(gone.sum())
        cols = np.concatenate((tail[gone], head[gone]))
        ends = np.stack([self._rows[i][cols] for i in ids])
        via = ends[:, :g] + csr.data[gone]  # cost source -> u -> (u, v)
        tight = (np.isfinite(via) & (via == ends[:, g:])).any(axis=1)
        keep = np.flatnonzero(alive)
        for i, dirty in zip(ids, tight.tolist()):
            if dirty:
                continue
            row = self._rows[i]
            if dead:
                row = row[keep]  # column subset onto the survivors
                row.setflags(write=False)
            child._rows[child.index[self.nodes[i]]] = row
        return child

    # ------------------------------------------------------------------
    # Shared-memory export
    # ------------------------------------------------------------------

    def row_store(self) -> RowStore:
        """Snapshot of every materialized row as one contiguous block.

        The block is a fresh copy (safe to hand to
        :class:`~repro.graph.shm.RowsBroadcast`, which copies it into the
        segment); row order follows ascending source index for determinism.
        """
        ids = sorted(self._rows)
        n = len(self.nodes)
        block = np.empty((len(ids), n), dtype=np.float64)
        for k, i in enumerate(ids):
            block[k] = self._rows[i]
        return RowStore(np.asarray(ids, dtype=np.intp), block)

    def __repr__(self) -> str:
        return (
            f"LazyRowBackend(|V|={len(self.nodes)}, "
            f"materialized={len(self._rows)})"
        )
