#!/usr/bin/env python3
"""Per-layer diff of two sets of traced runs.

    python3 perfbench/diff.py BEFORE AFTER

``BEFORE`` and ``AFTER`` are traced result files written by
``run.py --trace 1`` (``perfbench/out/<workload>-seed<n>-trace1.json``) or
directories holding them, e.g. the parent's and the change's ``out/``.
Several files of one workload are reduced to the median of each metric.
For every workload present on both sides it prints every per-layer metric
before and after, the ratio after/before, and the ratio's base: a self
time is shown with its share of the traced time, a per-call ratio with
the call count it divides by.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: Ratio metrics and the count each one divides by.
BASES = {
    "flow.lp.attempts_per_solve": "flow.lp.solve.calls",
    "flow.lp.solve.wall_share": "trace.wall_s",
    "robustness.controller.reroutes_avoided_per_event": "robustness.controller.events",
    "trace.overhead": "trace.untraced_wall_s",
}


def load(path: Path) -> dict[str, dict[str, float]]:
    """``{workload: {metric: median value}}`` over the traced results."""
    files = sorted(path.glob("*-trace1.json")) if path.is_dir() else [path]
    runs: dict[str, dict[str, list[float]]] = {}
    for file in files:
        data = json.loads(file.read_text())
        if data.get("trace") != 1:
            continue
        per = runs.setdefault(data["workload"], {})
        for name, metric in data["metrics"].items():
            per.setdefault(name, []).append(metric["value"])
    return {
        wl: {name: statistics.median(vals) for name, vals in metrics.items()}
        for wl, metrics in runs.items()
    }


def traced_s(metrics: dict) -> float:
    """Seconds the traced set-ups and calls cover: the sum of all self times.

    Self times partition the root spans, so this counts set-up spans such
    as ``partition_graph`` as well as the calls ``trace.wall_s`` sums.
    """
    return sum(v for k, v in metrics.items() if k.endswith(".self_s"))


def base_of(name: str, before: dict, after: dict) -> str:
    if name.endswith(".self_s"):
        return (
            f"share of traced time {before[name] / traced_s(before):.1%} -> "
            f"{after[name] / traced_s(after):.1%}"
        )
    key = BASES.get(name)
    if key is None:
        return ""
    return f"base {key} {before[key]:g} -> {after[key]:g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    common = sorted(set(before) & set(after))
    if not common:
        print("no workload has traced runs on both sides", file=sys.stderr)
        return 1
    for wl in common:
        b, a = before[wl], after[wl]
        print(f"\n== {wl}")
        print(f"{'metric':52s} {'before':>12s} {'after':>12s} {'ratio':>8s}  base")
        for name in b:
            if name not in a:
                continue
            ratio = f"{a[name] / b[name]:.3f}" if b[name] else "-"
            print(f"{name:52s} {b[name]:12.6g} {a[name]:12.6g} {ratio:>8s}  "
                  f"{base_of(name, b, a)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
