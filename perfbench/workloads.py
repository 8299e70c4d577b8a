"""The benchmark's three workloads (see README.md for why each was chosen).

Each workload has the same shape, driven by ``run.py``:

- ``setup(seed)`` builds every input from the workload seed, timed as
  ``setup_s`` (``setups_per_call`` times before every call);
- ``warmup_calls`` untimed calls of instance 0 come first; then
  ``instances`` distinct inputs are called in order, twice over, and
  repeated while the run's time lasts;
- ``call(state, i, observer)`` is the timed call into the program; it runs
  on a fresh set-up, so no call reuses rows a lazy context memoized before;
- ``check(state, i, result)`` verifies the output and returns an
  :class:`Outcome`;
- ``verify(state, first)`` is the untimed verification pass over the first
  result of every instance;
- ``summarize(first, records)`` turns the first outcomes into the served
  fraction, the cost and the workload's own named metrics.

Seeds: instance ``i`` of a run with workload seed ``s`` uses seed
``s + 1000 * i``, so instance 0 is the workload seed itself.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from repro.core.algorithm1 import algorithm1
from repro.core.context import SolverContext
from repro.core.decomposed import partition_graph
from repro.core.evaluation import check_feasibility, routing_cost
from repro.core.rnr import route_to_nearest_replica
from repro.experiments import ScenarioConfig, build_scenario
from repro.experiments.algorithms import greedy
from repro.experiments.scenarios import build_zipf_scenario
from repro.robustness import (
    RecoveryPolicy,
    TimelineConfig,
    canonical_links,
    generate_timeline,
    hierarchy_problem,
    replay_timeline,
    replay_timeline_streaming,
)
from repro.robustness.chaos import InvariantChecker, random_placement
from repro.serving import ServingConfig

#: Relative tolerance of the plan-cost re-route check.
COST_RTOL = 1e-9
#: Width of the compound-Poisson checks on the streamed aggregates.
SIGMAS = 6.0


def instance_seed(seed: int, i: int) -> int:
    return seed + 1000 * i


@dataclass
class Outcome:
    """Checked result of one call."""

    #: Operations the call performed (solves; events + actions; segments).
    ops: int
    failures: list[str] = field(default_factory=list)
    #: Value compared across repeated calls of one instance (determinism).
    fingerprint: object = None
    #: Named outputs the runner turns into metrics.
    values: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# plan-deltacom: Algorithm 1 from scratch (LP (7) dominates)
# ----------------------------------------------------------------------


class PlanDeltacom:
    name = "plan-deltacom"
    call_name = "plan_solve_s"
    instances = 3
    setups_per_call = 5
    #: The first solve in a process runs about 10% slower than its repeat.
    warmup_calls = 1
    controller = False

    def setup(self, seed: int):
        return [
            build_zipf_scenario(
                topology="deltacom",
                num_items=12,
                alpha=0.8,
                total_rate=500.0,
                cache_capacity=4.0,
                link_capacity_fraction=None,
                seed=instance_seed(seed, i),
            ).problem
            for i in range(self.instances)
        ]

    def call(self, problems, i, observer):
        problem = problems[i]
        return algorithm1(problem, context=SolverContext.from_problem(problem))

    def check(self, problems, i, result) -> Outcome:
        problem = problems[i]
        solution = result.solution
        failures = []
        feasibility = check_feasibility(problem, solution)
        if not feasibility.feasible:
            failures.append(f"infeasible: {feasibility.violations[:3]}")
        fractions = {r: solution.routing.served_fraction(r) for r in problem.demand}
        served = sum(
            rate * min(1.0, fractions[r]) for r, rate in problem.demand.items()
        ) / problem.total_demand
        short = sum(f < 1.0 - 1e-9 for f in fractions.values())
        if short:
            failures.append(f"{short} requests not fully served")
        cost = routing_cost(problem, solution.routing)
        rerouted = routing_cost(
            problem,
            route_to_nearest_replica(
                problem,
                solution.placement,
                context=SolverContext.from_problem(problem),
            ),
        )
        if not math.isclose(cost, rerouted, rel_tol=COST_RTOL):
            failures.append(f"plan cost {cost!r} != RNR re-route cost {rerouted!r}")
        return Outcome(
            ops=1,
            failures=failures,
            fingerprint=(cost, solution.placement.as_set()),
            values={"cost": cost, "served_fraction": served},
        )

    def verify(self, problems, first) -> Outcome:
        return Outcome(ops=0)

    def summarize(self, first: list[Outcome], records) -> dict:
        cost = statistics.fmean(o.values["cost"] for o in first)
        return {
            "served_fraction": statistics.fmean(
                o.values["served_fraction"] for o in first
            ),
            "cost": cost,
            "named": {"plan_cost": (cost, "cost")},
        }


# ----------------------------------------------------------------------
# replay-hier10k: failure timeline on a 10k-node hierarchy (glue code)
# ----------------------------------------------------------------------


def event_timeline(problem, *, horizon: float, target_events: int, seed: int):
    """A seeded timeline, regenerated with halved MTBF until dense enough.

    The same generator as ``_event_timeline`` in
    ``benchmarks/bench_scale_resilience.py``; keep the two in step.  It is
    copied because that helper is private to a pytest benchmark module, and
    this copy raises instead of returning a timeline with too few events.
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
            name=f"hier10k:{seed}",
        )
        if len(timeline) >= target_events:
            return timeline
        link_mtbf /= 2.0
    raise RuntimeError(f"no {target_events}-event timeline for seed {seed}")


@dataclass
class ReplayState:
    problem: object
    placement: object
    timeline: object
    policy: RecoveryPolicy
    partition: object
    context: SolverContext


class ReplayHier10k:
    name = "replay-hier10k"
    call_name = "replay_s"
    instances = 1
    setups_per_call = 1
    #: A replay is 12-15 s and its first call is no slower than the second.
    warmup_calls = 0
    controller = True
    #: Events the seeded timeline must at least carry.
    min_events = 200

    def setup(self, seed: int) -> ReplayState:
        problem = hierarchy_problem(10000, n_items=20, n_caches=150, n_requesters=250)
        return ReplayState(
            problem=problem,
            placement=random_placement(np.random.default_rng(1), problem),
            timeline=event_timeline(
                problem, horizon=60.0, target_events=self.min_events, seed=seed
            ),
            policy=RecoveryPolicy(detection_delay=0.25, min_dwell=6.0, repair=False),
            partition=partition_graph(problem.network, seed=0),
            context=SolverContext.from_problem(problem, backend="lazy"),
        )

    def call(self, state: ReplayState, i, observer):
        return self._replay(state, state.context, observer)

    def _replay(self, state: ReplayState, context, observer):
        return replay_timeline(
            state.problem,
            state.placement.copy(),
            state.timeline,
            state.policy,
            context=context,
            partition=state.partition,
            observer=observer,
        )

    def check(self, state: ReplayState, i, report) -> Outcome:
        failures = []
        if report.events != len(state.timeline.events):
            failures.append(
                f"{report.events} events processed of {len(state.timeline.events)}"
            )
        return Outcome(
            ops=report.events + report.reoptimizations,
            failures=failures,
            fingerprint=report,
            values=_report_values(report),
        )

    def verify(self, state: ReplayState, first) -> Outcome:
        """Strict invariant replay; its report must equal the timed one."""
        checker = InvariantChecker(strict=True)
        context = SolverContext.from_problem(state.problem, backend="lazy")
        report = self._replay(state, context, checker)
        failures = list(checker.violations)
        if report != first[0]:
            failures.append("verification replay report differs from timed replay")
        return Outcome(ops=report.events + report.reoptimizations, failures=failures)

    def summarize(self, first: list[Outcome], records) -> dict:
        availability = statistics.fmean(o.values["availability"] for o in first)
        cost = statistics.fmean(o.values["cost_integral"] for o in first)
        return {
            "served_fraction": availability,
            "cost": cost,
            "named": {
                "replay_availability": (availability, "fraction"),
                "replay_cost_integral": (cost, "cost*time"),
            },
        }


def _report_values(report) -> dict:
    return {
        "availability": report.availability,
        "cost_integral": report.cost_integral,
        "events": report.events,
        "reoptimizations": report.reoptimizations,
        "reroutes_avoided": report.reroutes_avoided,
        "deferrals": report.deferrals,
    }


# ----------------------------------------------------------------------
# serve-deltacom-faults: request streaming through a fault timeline
# ----------------------------------------------------------------------


@dataclass
class ServeState:
    seed: int
    problem: object
    placement: object
    timeline: object
    policy: RecoveryPolicy
    rate_scale: float


class ServeDeltacomFaults:
    name = "serve-deltacom-faults"
    call_name = "streaming call"
    instances = 2
    setups_per_call = 10
    #: The first streaming call is no slower than the later ones.
    warmup_calls = 0
    controller = True
    #: Expected Poisson arrivals streamed per call.
    arrivals = 20_000_000
    #: The fault timeline is fixed (322 events); the workload seed drives
    #: the request streams, one per instance.
    timeline_seed = 7

    def setup(self, seed: int) -> ServeState:
        scenario = build_scenario(
            ScenarioConfig(
                topology="deltacom",
                num_videos=5,
                cache_capacity=4,
                link_capacity_fraction=None,
                num_edge_nodes=5,
                seed=0,
            )
        )
        problem = scenario.problem
        timeline = generate_timeline(
            problem,
            TimelineConfig(
                horizon=50.0,
                link_mtbf=60.0,
                link_mttr=3.0,
                node_mtbf=300.0,
                node_mttr=6.0,
                flap_probability=0.2,
                flap_mttr=0.05,
                exclude_nodes=(scenario.origin,),
            ),
            seed=self.timeline_seed,
            name="deltacom-serving-timeline",
        )
        return ServeState(
            seed=seed,
            problem=problem,
            placement=greedy(scenario).placement,
            timeline=timeline,
            policy=RecoveryPolicy(detection_delay=0.5, flap_backoff=0.25, max_retries=2),
            rate_scale=self.arrivals / (problem.total_demand * timeline.horizon),
        )

    def call(self, state: ServeState, i, observer):
        return replay_timeline_streaming(
            state.problem,
            state.placement,
            state.timeline,
            state.policy,
            config=ServingConfig(
                horizon=state.timeline.horizon, seed=instance_seed(state.seed, i)
            ),
            rate_scale=state.rate_scale,
            observer=observer,
        )

    def check(self, state: ServeState, i, streamed) -> Outcome:
        failures = []
        for label, got, want, var in (
            ("generated", streamed.generated, streamed.expected_generated,
             streamed.expected_generated),
            ("served", streamed.served, streamed.expected_served,
             streamed.expected_served),
            ("delivered cost", streamed.delivered_cost, streamed.expected_cost,
             streamed.cost_variance),
        ):
            if abs(got - want) > SIGMAS * math.sqrt(var):
                failures.append(
                    f"{label} {got:.6g} outside {SIGMAS:g} sigma of {want:.6g}"
                )
        analytic = streamed.analytic
        values = _report_values(analytic)
        values.update(generated=streamed.generated, served=streamed.served)
        return Outcome(
            ops=analytic.events + analytic.reoptimizations + len(streamed.segments),
            failures=failures,
            fingerprint=(
                analytic,
                streamed.generated,
                streamed.served,
                streamed.delivered_cost,
            ),
            values=values,
        )

    def verify(self, state: ServeState, first) -> Outcome:
        """The analytic side must equal a plain ``replay_timeline``."""
        plain = replay_timeline(
            state.problem, state.placement, state.timeline, state.policy
        )
        failures = [
            f"instance {i}: analytic side != replay_timeline"
            for i, streamed in enumerate(first)
            if streamed.analytic != plain
        ]
        return Outcome(ops=plain.events + plain.reoptimizations, failures=failures)

    def summarize(self, first: list[Outcome], records) -> dict:
        served = sum(o.values["served"] for o in first)
        generated = sum(o.values["generated"] for o in first)
        rps = statistics.median(
            r.outcome.values["generated"] / r.wall for r in records if r.outcome
        )
        return {
            "served_fraction": served / generated,
            "cost": statistics.fmean(o.values["cost_integral"] for o in first),
            "named": {
                "serve_rps": (rps, "req/s"),
                "serve_served_fraction": (served / generated, "fraction"),
            },
        }


WORKLOADS = {
    w.name: w for w in (PlanDeltacom(), ReplayHier10k(), ServeDeltacomFaults())
}
