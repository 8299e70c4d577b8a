"""Span tracing for the traced run, recorded from outside the program.

The benchmark does not edit ``src/``: it wraps the public functions of each
``repro.*`` layer for the length of a traced pass and restores them after.
Modules import names with ``from x import f``, so a function is replaced in
every loaded ``repro.*`` namespace that holds the same object; methods are
replaced on their class.

Each span records its name, start, end and parent (from a stack) in memory;
``Tracer.spans`` is written out by the runner when the run ends.  A span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (span name, defining module, attribute or ``Class.method``).
#: The span name is the layer module without ``repro.`` plus the function.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("flow.lp.solve", "repro.flow.lp", "LPBuilder.solve"),
    ("flow.lp.solve", "repro.flow.lp", "LPTemplate.solve"),
    ("core.algorithm1.algorithm1", "repro.core.algorithm1", "algorithm1"),
    ("core.pipage.pipage_round", "repro.core.pipage", "pipage_round"),
    ("core.submodular.local_search_swap", "repro.core.submodular", "local_search_swap"),
    ("core.rnr.route_to_nearest_replica", "repro.core.rnr", "route_to_nearest_replica"),
    ("core.decomposed.resolve_clusters", "repro.core.decomposed", "resolve_clusters"),
    ("core.decomposed.cluster_subproblem", "repro.core.decomposed", "cluster_subproblem"),
    ("core.decomposed.partition_graph", "repro.core.decomposed", "partition_graph"),
    ("core.context.from_problem", "repro.core.context", "SolverContext.from_problem"),
    ("graph.backends.repair", "repro.graph.backends", "LazyRowBackend.repair"),
    ("robustness.faults.apply_failure", "repro.robustness.faults", "apply_failure"),
    ("robustness.degraded.degraded_context", "repro.robustness.degraded", "degraded_context"),
    ("robustness.recovery.cluster_local_recover", "repro.robustness.recovery", "cluster_local_recover"),
    ("robustness.recovery.recover", "repro.robustness.recovery", "recover"),
    ("serving.tables.compile_tables", "repro.serving.tables", "compile_tables"),
    ("serving.degraded.degrade_tables", "repro.serving.degraded", "degrade_tables"),
    ("serving.engine.generate_requests", "repro.serving.engine", "generate_requests"),
    ("serving.engine.serve_batch", "repro.serving.engine", "serve_batch"),
)

#: Span names in report order (``flow.lp.solve`` covers both LP classes).
SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _count_lp(tracer: "Tracer", args, result) -> None:
    tracer.counts["flow.lp.columns"] += args[0].num_variables
    report = result.report
    tracer.counts["flow.lp.attempts"] += report.num_attempts if report else 1


def _count_requests(tracer: "Tracer", args, result) -> None:
    tracer.counts["serving.engine.requests"] += len(result)


#: Counters taken from a wrapped call's arguments and result.
_AFTER = {
    "flow.lp.solve": _count_lp,
    "serving.engine.generate_requests": _count_requests,
}


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span, in start order.
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, start, None, parent])
        frame = [len(self.spans) - 1, 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[frame[0]][2] = end
            duration = end - start
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def count_rows(self, fn):
        """Wrap ``LazyRowBackend.ensure_rows`` to count rows it memoizes."""

        @functools.wraps(fn)
        def counted(backend, idx):
            before = backend.materialized
            fn(backend, idx)
            self.counts["graph.backends.rows_materialized"] += (
                backend.materialized - before
            )

        return counted


#: Module-name prefixes whose namespaces get the wrapped functions: the
#: program's layers and the benchmark's own workload module.
NAMESPACES = ("repro", "workloads")


@contextmanager
def installed(tracer: Tracer):
    """Route every target through ``tracer`` for the ``with`` body."""
    undo: list[tuple[object, str, object]] = []

    def replace(owner, attr, new) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    replace(cls, method, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    replace(cls, method, tracer.wrap(name, raw))
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(name, original)
            for loaded in list(sys.modules.values()):
                if loaded is None or not loaded.__name__.startswith(NAMESPACES):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        replace(loaded, key, traced)
        backends = importlib.import_module("repro.graph.backends")
        lazy = backends.LazyRowBackend
        replace(lazy, "ensure_rows", tracer.count_rows(lazy.__dict__["ensure_rows"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
