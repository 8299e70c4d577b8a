"""Golden solver outputs pinned bit-for-bit across the distance refactor.

``golden_parity.json`` was recorded on the two-tier code, where these
mid-size instances ran on the dense all-pairs matrix (with the dense and
lazy timeline reports asserted equal at recording time).  The single lazy
tier must reproduce every value exactly:

- the :class:`~repro.robustness.controller.TimelineReport` of a seeded
  failure timeline on AboveNet and TiNet (the dense/lazy parity topologies
  of ``benchmarks/bench_scale_resilience.py``);
- a Deltacom ``survivability_report`` over 40 single-link failures with
  repair, on derived degraded contexts;
- one Algorithm 1 solve (cost, LP objective, ``w_max`` and the integral
  placement) on a Deltacom 12-item Zipf instance;
- the :class:`~repro.robustness.controller.TimelineReport` of a seeded
  failure timeline on a 1k-node PoP/core/edge hierarchy replayed with a
  cluster partition, so every re-optimization runs the cluster-local path
  (boundary stitching, per-cluster Algorithm 1, RNR over the full graph).
  This entry was recorded on the lazy tier, before the one-pass stitching
  and the backend's predecessor trees, which must leave it unchanged.

Values are compared in :func:`canonical` form: floats as ``float.hex``
strings, dataclasses reduced to their compared fields (the same fields
``==`` uses), containers in deterministic order.  Regenerate only when a
behaviour change is intended::

    PYTHONPATH=src python -m tests.oracles.golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from repro.core import ProblemInstance, pin_full_catalog
from repro.core.algorithm1 import algorithm1
from repro.core.context import SolverContext
from repro.core.decomposed import partition_graph
from repro.core.evaluation import routing_cost
from repro.core.submodular import greedy_rnr_placement
from repro.experiments import ScenarioConfig, build_scenario
from repro.experiments.scenarios import build_zipf_scenario
from repro.graph import CacheNetwork, abovenet, tinet
from repro.robustness import (
    RecoveryPolicy,
    TimelineConfig,
    canonical_links,
    generate_timeline,
    hierarchy_problem,
    replay_timeline,
    single_link_failures,
    survivability_report,
)
from repro.robustness.chaos import random_placement

GOLDEN_PATH = Path(__file__).with_name("golden_parity.json")

#: Mid-size topologies whose timeline reports are pinned.
PARITY_TOPOLOGIES = {"abovenet": abovenet, "tinet": tinet}


def canonical(obj):
    """Exact, JSON-serializable form of a solver output."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.compare
        }
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, dict):
        return sorted(([canonical(k), canonical(v)] for k, v in obj.items()), key=repr)
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(x) for x in obj), key=repr)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def event_timeline(problem, *, horizon: float, target_events: int, seed: int):
    """A seeded timeline regenerated (halving MTBF) until dense enough.

    Also the timeline generator of ``benchmarks/bench_scale_resilience.py``.
    """
    links = canonical_links(problem)
    link_mtbf = max(1.0, len(links) * horizon / max(1, target_events))
    for _ in range(8):
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=horizon,
                link_mtbf=link_mtbf,
                link_mttr=horizon / 12.0,
                node_mtbf=4.0 * link_mtbf,
                node_mttr=horizon / 8.0,
                flap_probability=0.2,
                flap_mttr=0.05,
            ),
            seed=seed,
            name=f"scale:{seed}",
        )
        if len(timeline) >= target_events:
            return timeline
        link_mtbf /= 2.0
    return timeline


def midsize_problem(factory, seed: int) -> ProblemInstance:
    """Five items, eight seeded requesters each, one pinned origin."""
    net = factory()
    nodes = list(net.nodes)
    rng = np.random.default_rng(seed)
    items = [f"it{k}" for k in range(5)]
    demand = {}
    for it in items:
        for s in rng.choice(len(nodes), size=min(8, len(nodes)), replace=False):
            demand[(it, nodes[int(s)])] = round(float(rng.uniform(0.5, 2.0)), 3)
    return ProblemInstance(
        network=CacheNetwork(net.graph, {v: 2.0 for v in nodes}),
        catalog=tuple(items),
        demand=demand,
        pinned=pin_full_catalog(items, [nodes[0]]),
    )


def timeline_report(name: str):
    """Replay of the pinned timeline on one parity topology."""
    prob = midsize_problem(PARITY_TOPOLOGIES[name], seed=3)
    placement = random_placement(np.random.default_rng(4), prob)
    timeline = event_timeline(prob, horizon=30.0, target_events=25, seed=11)
    return replay_timeline(
        prob,
        placement.copy(),
        timeline,
        RecoveryPolicy(detection_delay=0.2),
        context=SolverContext.from_problem(prob),
    )


def deltacom_survivability():
    """The 40-scenario Deltacom sweep of ``bench_reuse_layer.py``."""
    problem = build_scenario(
        ScenarioConfig(
            seed=0, topology="deltacom", num_videos=5, link_capacity_fraction=None
        )
    ).problem
    context = SolverContext.from_problem(problem)
    placement = greedy_rnr_placement(problem, context=context)
    scenarios = single_link_failures(problem)[:40]
    return survivability_report(
        problem, placement, scenarios, repair=True, context=context
    )


def deltacom_algorithm1() -> dict:
    """Algorithm 1 on the Deltacom 12-item Zipf instance of seed 1."""
    problem = build_zipf_scenario(
        topology="deltacom",
        num_items=12,
        alpha=0.8,
        total_rate=500.0,
        cache_capacity=4.0,
        link_capacity_fraction=None,
        seed=1,
    ).problem
    result = algorithm1(problem, context=SolverContext.from_problem(problem))
    return {
        "cost": routing_cost(problem, result.solution.routing),
        "lp_objective": result.lp_objective,
        "w_max": result.w_max,
        "placement": dict(result.solution.placement.items()),
    }


def hierarchy_timeline_report():
    """Cluster-local replay of a seeded timeline on a 1k-node hierarchy.

    The reduced-size twin of the ``replay-hier10k`` benchmark workload
    (same instance shape, placement and policy; ``bench_scale_resilience.py``
    replays the same timeline at 1k nodes).
    """
    problem = hierarchy_problem(
        1000, n_items=20, n_caches=150, n_requesters=250, seed=0
    )
    placement = random_placement(np.random.default_rng(1), problem)
    timeline = event_timeline(problem, horizon=60.0, target_events=40, seed=1000)
    return replay_timeline(
        problem,
        placement.copy(),
        timeline,
        RecoveryPolicy(detection_delay=0.25, min_dwell=6.0, repair=False),
        context=SolverContext.from_problem(problem),
        partition=partition_graph(problem.network, seed=0),
    )


def compute_golden() -> dict:
    return {
        "timeline": {
            name: canonical(timeline_report(name)) for name in PARITY_TOPOLOGIES
        },
        "survivability": canonical(deltacom_survivability()),
        "algorithm1": canonical(deltacom_algorithm1()),
        "hierarchy1k": canonical(hierarchy_timeline_report()),
    }


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
