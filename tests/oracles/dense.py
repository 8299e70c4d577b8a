"""Dense all-pairs least costs: the parity reference for the row backend.

One ``scipy.sparse.csgraph.dijkstra`` sweep over every source of the same
CSR adjacency :class:`~repro.graph.backends.LazyRowBackend` uses, kept as a
full ``float64`` matrix.  Tests and the ``benchmarks/`` gates compare lazy
rows, repaired backends and their memory footprint against it; no solver
path uses it.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.graph.backends import _sparse_adjacency
from repro.graph.network import COST

Node = Hashable


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs least costs as a dense matrix plus node index maps.

    ``matrix[i, j]`` is the least cost of a ``nodes[i] -> nodes[j]`` path
    (``inf`` when unreachable); row/column order follows ``nodes``.
    """

    nodes: tuple[Node, ...]
    matrix: np.ndarray
    index: dict[Node, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.index:
            object.__setattr__(
                self, "index", {v: k for k, v in enumerate(self.nodes)}
            )

    def __len__(self) -> int:
        return len(self.nodes)

    def distance(self, source: Node, target: Node) -> float:
        """Least cost ``source -> target`` (``inf`` if unreachable)."""
        return float(self.matrix[self.index[source], self.index[target]])

    def w_max(self) -> float:
        """Maximum finite pairwise cost, floored at 1.0 (paper convention)."""
        finite = self.matrix[np.isfinite(self.matrix)]
        if finite.size == 0:
            return 1.0
        top = float(finite.max())
        return top if top > 0 else 1.0


def build_distance_matrix(
    graph: nx.DiGraph,
    *,
    weight: str = COST,
    nodes: Sequence[Node] | None = None,
) -> DistanceMatrix:
    """The dense all-pairs least-cost matrix of a directed graph.

    ``nodes`` fixes the row/column order (defaults to graph insertion
    order).
    """
    node_list: tuple[Node, ...] = tuple(graph.nodes if nodes is None else nodes)
    index = {v: k for k, v in enumerate(node_list)}
    n = len(node_list)
    if n == 0:
        return DistanceMatrix(nodes=(), matrix=np.zeros((0, 0), dtype=np.float64))
    csgraph = _sparse_adjacency(graph, node_list, index, weight)
    matrix = dijkstra(csgraph, directed=True)
    np.fill_diagonal(matrix, 0.0)
    matrix.setflags(write=False)
    return DistanceMatrix(nodes=node_list, matrix=matrix, index=index)
