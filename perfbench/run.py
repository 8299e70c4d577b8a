#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-deltacom --seed 0 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the run times set-up and the workload's calls in CPU seconds
scaled to a reference machine speed (``calibrate.py``), checks every
output, runs an untimed verification pass while a fresh process measures
peak memory, and prints the end-to-end metrics.  With ``--trace 1`` it
runs the calls once untraced and once with every layer wrapped in spans,
and prints the per-layer metrics.  The last line of standard output is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the full
result, with the environment and, for traced runs, every span, is written
to ``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Thread-pool variables pinned before numpy/scipy load.  One thread each:
#: the numbers then measure the program, not the scheduler, and the memory
#: probe can run beside the verification pass without oversubscribing.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Seconds a memory probe may take before it is killed.
PROBE_TIMEOUT = 150.0


@dataclass
class CallRecord:
    instance: int
    wall: float
    cpu: float  # process CPU seconds: the wall time less any time the host took away
    outcome: object  # workloads.Outcome, or None when the call raised
    gaps: object  # Gaps, or None


class Gaps:
    """Controller observer: wall-clock marks of every callback."""

    def __init__(self) -> None:
        self.marks: list[tuple[str, float]] = []

    def __call__(self, phase, now, controller, detail) -> None:
        self.marks.append((phase, time.perf_counter()))

    def after(self, phase: str) -> list[float]:
        """Seconds from the previous callback to each ``phase`` callback."""
        return [
            t - prev
            for (_, prev), (p, t) in zip(self.marks, self.marks[1:])
            if p == phase
        ]


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ops: int, failures: list[str], label: str) -> None:
        if not ops and not failures:
            return
        ops = max(1, ops)
        self.attempted += ops
        if failures:
            # A failed check condemns every operation of the call it checked.
            self.failed += ops
            self.messages.extend(f"{label}: {f}" for f in failures)


def pin_thread_pools() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def commit() -> str:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def run_call(wl, state, i: int, tally: Tally, label: str):
    """Time and check one call.  Returns ``(record, result)``."""
    gaps = Gaps() if wl.controller else None
    gc.collect()  # no call pays for the garbage of the one before
    cpu, start = time.process_time(), time.perf_counter()
    try:
        result = wl.call(state, i, gaps)
    except Exception:
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        tally.add(1, [traceback.format_exc(limit=3)], label)
        return CallRecord(i, wall, cpu, None, gaps), None
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    outcome = wl.check(state, i, result)
    tally.add(outcome.ops, outcome.failures, label)
    return CallRecord(i, wall, cpu, outcome, gaps), result


def timed_calls(wl, seed: int, seconds: float, tally: Tally):
    """Call every instance twice over, then repeat while ``seconds`` allow.

    ``wl.warmup_calls`` untimed calls come first, outside the run's time.
    Each call gets ``wl.setups_per_call`` timed set-ups just before it and
    runs on the last one.  Spreading the set-ups over the run, instead of
    timing them all at its start, lets their median average over the same
    stretch of machine load as the calls.  Every repeat must reproduce its
    instance's first output exactly, so the second pass always runs.  After
    it, a repeat starts only if the same instance's last wall time still
    fits, so slow calls do not overrun the run.  Set-ups and calls are
    timed in process CPU seconds (see ``CallRecord.cpu``); the run's length
    is kept in wall seconds.  The reference kernel runs once before the
    first call and once after every call.  Returns the set-up times of
    each call, the call records, the kernel times, the last state and each
    instance's first result (kept for the verification pass).
    """
    for w in range(wl.warmup_calls):
        run_call(wl, wl.setup(seed), 0, tally, f"warm-up {w}")
    kernel_s()  # warms the kernel up
    kernel = [kernel_s()]
    setups: list[list[float]] = []
    records: list[CallRecord] = []
    first: list = []
    first_print: list = []
    last_wall: dict[int, float] = {}
    start = time.perf_counter()
    n = 0
    while True:
        i = n % wl.instances
        if n >= 2 * wl.instances:
            if time.perf_counter() - start + last_wall[i] > seconds:
                break
        setups.append([])
        for _ in range(wl.setups_per_call):
            t0 = time.process_time()
            state = wl.setup(seed)
            setups[-1].append(time.process_time() - t0)
        record, result = run_call(wl, state, i, tally, f"call {n} (instance {i})")
        records.append(record)
        kernel.append(kernel_s())
        last_wall[i] = record.wall
        if n < wl.instances:
            first.append(result)
            first_print.append(record.outcome.fingerprint if record.outcome else None)
        elif record.outcome and record.outcome.fingerprint != first_print[i]:
            tally.add(0, ["repeat call differs from the first"], f"call {n}")
        n += 1
    return setups, records, kernel, state, first


def kernel_s() -> float:
    """CPU seconds of one run of the reference kernel (``calibrate.py``)."""
    from calibrate import measure

    return measure()


def scaled(setups, records, kernel) -> tuple[list[float], list[float]]:
    """Set-up and call CPU times at the reference speed.

    Call ``n`` and its set-ups ran between kernel runs ``n`` and ``n + 1``;
    they are scaled by ``REFERENCE_S`` over the mean of those two.
    """
    from calibrate import REFERENCE_S

    setup_out: list[float] = []
    call_out: list[float] = []
    for n, record in enumerate(records):
        factor = REFERENCE_S / ((kernel[n] + kernel[n + 1]) / 2)
        setup_out.extend(t * factor for t in setups[n])
        call_out.append(record.cpu * factor)
    return setup_out, call_out


@contextmanager
def probe(workload: str, seed: int, kind: str):
    """A fresh process measuring one set-up plus one call; killed on exit."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe", kind],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def probe_result(proc: subprocess.Popen) -> float:
    out, err = proc.communicate(timeout=PROBE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"memory probe failed ({proc.returncode}):\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def run_probe(wl, seed: int, kind: str) -> float:
    """Peak memory in MB of one set-up plus one call of instance 0."""
    if kind == "tracemalloc":
        tracemalloc.start()
    state = wl.setup(seed)
    wl.call(state, 0, Gaps() if wl.controller else None)
    if kind == "tracemalloc":
        return tracemalloc.get_traced_memory()[1] / 2**20
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def pooled(records, phase: str) -> list[float]:
    return [g for r in records if r.gaps for g in r.gaps.after(phase)]


def end_to_end(wl, args, tally: Tally) -> tuple[dict, dict]:
    setups, records, kernel, state, first = timed_calls(wl, args.seed, args.seconds, tally)
    with probe(wl.name, args.seed, "rss") as memory:
        try:
            outcome = wl.verify(state, first)
            tally.add(outcome.ops, outcome.failures, "verification")
        except Exception:
            tally.add(1, [traceback.format_exc(limit=3)], "verification")
        rss = probe_result(memory)

    firsts = [r.outcome for r in records[: wl.instances]]
    if None in firsts:
        raise RuntimeError("a first call raised:\n" + "\n".join(tally.messages))
    setup_times, calls = scaled(setups, records, kernel)
    setup_cpu = [t for per_call in setups for t in per_call]
    cpus = [r.cpu for r in records]
    walls = [r.wall for r in records]
    summary = wl.summarize(firsts, records)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "call_s": (statistics.median(calls), "s"),
        "served_fraction": (summary["served_fraction"], "fraction"),
        "peak_rss_mb": (rss, "MB"),
    }
    print(f"reference kernel {statistics.median(kernel):.6g} s CPU "
          f"(median of {len(kernel)})")
    print(f"setup_s {metrics['setup_s'][0]:.6g} s at the reference speed "
          f"(median of {len(setup_times)}; {statistics.median(setup_cpu):.6g} s CPU here)")
    print(f"call_s ({wl.call_name}) {metrics['call_s'][0]:.6g} s at the reference speed "
          f"(median of {len(calls)}, max {max(calls):.6g})")
    print(f"call here {statistics.median(cpus):.6g} s CPU, {statistics.median(walls):.6g} s wall "
          f"(medians of {len(walls)}, wall max {max(walls):.6g})")
    samples = {"setup_s": setup_times, "call_s": calls, "setup_cpu_s": setup_cpu,
               "call_cpu_s": cpus, "call_wall_s": walls, "kernel_s": kernel}
    if wl.controller:
        samples["reopt_s"] = reopts = pooled(records, "action")
        print(f"reopt_s {statistics.median(reopts):.6g} s (median of {len(reopts)})")
    for name, (value, unit) in summary["named"].items():
        print(f"{name} {value:.6g} {unit}")
    print(f"peak_rss_mb {rss:.6g} MB (fresh process)")
    return metrics, {"named": summary["named"], "samples": samples}


def per_layer(wl, args, tally: Tally) -> tuple[dict, dict]:
    from spans import SPAN_NAMES, Tracer, installed

    # Untraced pass: the base of the overhead ratio.  Each call of both
    # passes runs on a fresh set-up, after the warm-up, as in the timed runs.
    for w in range(wl.warmup_calls):
        run_call(wl, wl.setup(args.seed), 0, tally, f"warm-up {w}")
    kernel_s()  # warms the kernel up
    kernel = [kernel_s()]
    plain = [
        run_call(wl, wl.setup(args.seed), i, tally, f"untraced {i}")
        for i in range(wl.instances)
    ]

    kernel.append(kernel_s())
    tracer = Tracer()
    traced: list = []
    results: list = []
    with installed(tracer):
        for i in range(wl.instances):
            gaps = Gaps() if wl.controller else None
            with tracer.span("setup"):
                state = wl.setup(args.seed)
            gc.collect()
            cpu, start = time.process_time(), time.perf_counter()
            with tracer.span("call"):
                result = wl.call(state, i, gaps)
            traced.append(CallRecord(
                i, time.perf_counter() - start, time.process_time() - cpu, None, gaps))
            results.append(result)
    for record, result, (base, _) in zip(traced, results, plain):
        record.outcome = wl.check(state, record.instance, result)
        tally.add(record.outcome.ops, record.outcome.failures, f"traced {record.instance}")
        if base.outcome and record.outcome.fingerprint != base.outcome.fingerprint:
            tally.add(0, ["traced output differs from untraced"], f"traced {record.instance}")
    del results
    kernel.append(kernel_s())

    with probe(wl.name, args.seed, "tracemalloc") as memory:
        tm = probe_result(memory)

    traced_wall = sum(r.wall for r in traced)
    plain_wall = sum(r.wall for r, _ in plain)
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0), "count")
    lp_calls = tracer.calls.get("flow.lp.solve", 0)
    attempts = tracer.counts["flow.lp.attempts"]
    metrics["flow.lp.attempts"] = (attempts, "count")
    metrics["flow.lp.attempts_per_solve"] = (attempts / lp_calls if lp_calls else 0.0, "ratio")
    metrics["flow.lp.columns"] = (tracer.counts["flow.lp.columns"], "count")
    metrics["flow.lp.solve.wall_share"] = (
        tracer.self_s.get("flow.lp.solve", 0.0) / traced_wall, "ratio")
    metrics["graph.backends.rows_materialized"] = (
        tracer.counts["graph.backends.rows_materialized"], "count")
    metrics["serving.engine.requests"] = (tracer.counts["serving.engine.requests"], "count")
    values = [r.outcome.values for r in traced]
    for key in ("events", "reoptimizations", "reroutes_avoided", "deferrals"):
        metrics[f"robustness.controller.{key}"] = (sum(v.get(key, 0) for v in values), "count")
    events = metrics["robustness.controller.events"][0]
    metrics["robustness.controller.reroutes_avoided_per_event"] = (
        metrics["robustness.controller.reroutes_avoided"][0] / events if events else 0.0,
        "ratio")
    event_gaps = pooled(traced, "event")
    if event_gaps:
        q = statistics.quantiles(event_gaps, n=100)
        p50, p95 = statistics.median(event_gaps), q[94]
    else:
        p50 = p95 = 0.0
    reopt_gaps = pooled(traced, "action")
    metrics["robustness.controller.event_p50_s"] = (p50, "s")
    metrics["robustness.controller.event_p95_s"] = (p95, "s")
    metrics["robustness.controller.reopt_p50_s"] = (
        statistics.median(reopt_gaps) if reopt_gaps else 0.0, "s")
    metrics["other.self_s"] = (
        tracer.self_s.get("setup", 0.0) + tracer.self_s.get("call", 0.0), "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    metrics["memory.tracemalloc_peak_mb"] = (tm, "MB")
    metrics["machine.kernel_s"] = (statistics.median(kernel), "s")
    metrics["quality.cost"] = (wl.summarize([r.outcome for r in traced], traced)["cost"], "cost")

    print(f"traced wall {traced_wall:.6g} s vs untraced {plain_wall:.6g} s "
          f"(overhead x{traced_wall / plain_wall:.4f}, {len(tracer.spans)} spans)")
    for name in SPAN_NAMES:
        if tracer.calls.get(name):
            print(f"  {name:45s} self {tracer.self_s[name]:10.4f} s  calls {tracer.calls[name]}")
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    spans = [[n, s - origin, e - origin, p] for n, s, e, p in tracer.spans]
    return metrics, {"spans": spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=("rss", "tracemalloc"),
                        help="internal: measure memory of one set-up + call")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    pin_thread_pools()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps(run_probe(wl, args.seed, args.probe)))
        return 0

    env = environment(args.seed)
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    tally = Tally()
    if args.trace:
        metrics, extra = per_layer(wl, args, tally)
    else:
        metrics, extra = end_to_end(wl, args, tally)
    for message in tally.messages:
        print(f"CHECK FAILED {message}")
    print(f"error_rate {tally.failed / max(1, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")

    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    saved = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(
        {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "env": env, **result, **extra,
         "failures": tally.messages}))
    print(f"saved {saved.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
