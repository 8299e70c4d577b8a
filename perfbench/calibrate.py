"""A fixed reference kernel: how fast the machine runs right now.

The shared host this benchmark was built on switches between a fast and a
slow state every few minutes, and in the slow state every set-up and call
takes 1.6-2.2 times as long, CPU time included.  The kernel below measures
that state.  It touches nothing of ``repro``, so no change to the program
moves it; its inputs are fixed, so on one machine only the machine's speed
moves it.  Its five parts are the kinds of work the workloads spend their
time in: interpreted dict and heap code, networkx graph code, a scipy
shortest-path sweep, a HiGHS LP and a numpy sort.
"""

from __future__ import annotations

import heapq
import time

import networkx as nx
import numpy as np
from scipy.optimize import linprog
from scipy.sparse import random as sparse_random
from scipy.sparse.csgraph import dijkstra

#: CPU seconds ``measure()`` took in the host's fast state: the median of
#: 40 runs on a 2-vCPU Xeon VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1,
#: networkx 3.6.1).  Scaled times read as CPU seconds on that machine in
#: that state.
REFERENCE_S = 0.0829


def _inputs():
    rng = np.random.default_rng(20240611)
    graph = nx.gnm_random_graph(600, 2400, seed=3)
    for u, v in graph.edges:
        graph.edges[u, v]["weight"] = float(rng.integers(1, 20))
    sparse = sparse_random(600, 600, density=0.01, random_state=1, format="csr")
    lp_a = sparse_random(120, 200, density=0.1, random_state=2).toarray() + 0.01
    lp_c = rng.random(200)
    keys = rng.random(2_000_000)
    return graph, sparse, lp_a, lp_c, keys


_GRAPH, _SPARSE, _LP_A, _LP_C, _KEYS = _inputs()


def _python() -> None:
    counts: dict[int, int] = {}
    heap: list[int] = []
    for i in range(36_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
        heapq.heappush(heap, (i * 7919) % 10007)
    while heap:
        heapq.heappop(heap)


def _networkx() -> None:
    for source in range(0, 600, 50):
        nx.single_source_dijkstra_path_length(_GRAPH, source)


def _paths() -> None:
    dijkstra(_SPARSE, indices=range(200))


def _lp() -> None:
    linprog(_LP_C, A_ub=-_LP_A, b_ub=-_LP_A.sum(axis=1) * 0.3, bounds=(0, 1),
            method="highs")


def _numpy() -> None:
    np.sort(_KEYS)


def measure() -> float:
    """CPU seconds of one run of the kernel."""
    start = time.process_time()
    for part in (_python, _networkx, _paths, _lp, _numpy):
        part()
    return time.process_time() - start
