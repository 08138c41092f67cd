#!/usr/bin/env python
"""Anchor differential suite: ``--fidelity auto`` vs the default DES.

Runs every registered experiment twice under the same installed seed —
once at the default ``des`` tier (no fidelity policy, the byte-exact
reference) and once under ``--fidelity auto`` (the batched fast path
from ``repro.sim.fidelity``) — and checks that the fast path is
observationally equivalent:

* **anchors** — same checks, same verdicts.  Every paper anchor that
  holds at ``des`` must hold at ``auto`` (and vice versa: the fast
  path must not accidentally "fix" a missed anchor — that would mean
  it changed the physics, not just the execution strategy).
* **series** — same figure lines, same sweep points, every y value
  within ``DECLARED_TOLERANCE`` relative error (plus a small absolute
  slack for values near zero).

Engagement is reported per experiment from the ``fidelity.*`` counters
(regions batched, descriptors synthesized vs simulated, fallbacks), so
a silently-never-engaging fast path is visible rather than trivially
"equivalent".  Exit status is non-zero on any mismatch::

    PYTHONPATH=src python scripts/check_fidelity_equivalence.py           # full suite
    PYTHONPATH=src python scripts/check_fidelity_equivalence.py --quick   # CI-sized
    PYTHONPATH=src python scripts/check_fidelity_equivalence.py fig2 fig11

The full suite covers all EXPERIMENTS.md anchors; ``--quick`` runs the
same experiments at quick sweep resolution (quick runs are
transient-dominated, so expect engagement mostly from sync and
software-baseline sweep points).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Tuple

from repro.config import RunConfig, using
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import all_experiments, run_experiment
from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics
from repro.sim.fidelity import DECLARED_TOLERANCE

#: Absolute slack added to the relative-tolerance comparison so series
#: whose true value is ~0 (e.g. a ratio that rounds to 0.0) do not
#: demand impossible relative precision.
ABS_SLACK = 1e-9

FIDELITY_COUNTERS = (
    "fidelity.regions_batched",
    "fidelity.descriptors_batched",
    "fidelity.descriptors_des",
    "fidelity.fallbacks",
)


def _run(exp_id: str, quick: bool, mode: str) -> Tuple[ExperimentResult, Dict[str, float]]:
    """One experiment run under a fresh seed + metrics registry."""
    registry = MetricsRegistry()
    install_metrics(registry)
    try:
        with using(RunConfig(fidelity=mode)):
            result = run_experiment(exp_id, quick=quick)
    finally:
        uninstall_metrics()
    counters = {name: registry.counter(name).value for name in FIDELITY_COUNTERS}
    return result, counters


def _close(a: float, b: float, tolerance: float) -> bool:
    return abs(a - b) <= tolerance * max(abs(a), abs(b)) + ABS_SLACK


def compare(
    des: ExperimentResult, auto: ExperimentResult, tolerance: float
) -> List[str]:
    """Human-readable mismatch list (empty == equivalent)."""
    problems: List[str] = []

    des_anchors = {a.name: a for a in des.anchors}
    auto_anchors = {a.name: a for a in auto.anchors}
    if sorted(des_anchors) != sorted(auto_anchors):
        problems.append(
            f"anchor sets differ: des={sorted(des_anchors)} auto={sorted(auto_anchors)}"
        )
    for name in sorted(set(des_anchors) & set(auto_anchors)):
        if des_anchors[name].holds != auto_anchors[name].holds:
            problems.append(
                f"anchor {name!r}: des holds={des_anchors[name].holds} "
                f"(measured {des_anchors[name].measured}) but auto "
                f"holds={auto_anchors[name].holds} "
                f"(measured {auto_anchors[name].measured})"
            )

    if sorted(des.series) != sorted(auto.series):
        problems.append(
            f"series sets differ: des={sorted(des.series)} auto={sorted(auto.series)}"
        )
    for label in sorted(set(des.series) & set(auto.series)):
        ds, au = des.series[label], auto.series[label]
        if ds.xs != au.xs:
            problems.append(f"series {label!r}: x grids differ")
            continue
        for (x, dy), (_x, ay) in zip(ds.points, au.points):
            if not _close(dy, ay, tolerance):
                problems.append(
                    f"series {label!r} @ x={x:g}: des={dy!r} auto={ay!r} "
                    f"(rel err {abs(dy - ay) / max(abs(dy), abs(ay), ABS_SLACK):.4f} "
                    f"> {tolerance})"
                )
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to check (default: the full registry)",
    )
    parser.add_argument("--quick", action="store_true", help="quick sweep resolution")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DECLARED_TOLERANCE,
        help="relative tolerance for series y values",
    )
    parser.add_argument(
        "--max-failures",
        type=int,
        default=10,
        help="mismatch lines printed per experiment",
    )
    args = parser.parse_args(argv)

    exp_ids = args.experiments or all_experiments()
    failed: List[str] = []
    total_anchors = 0
    for exp_id in exp_ids:
        start = time.perf_counter()
        des, _des_counters = _run(exp_id, args.quick, "des")
        auto, counters = _run(exp_id, args.quick, "auto")
        elapsed = time.perf_counter() - start
        problems = compare(des, auto, args.tolerance)
        total_anchors += len(des.anchors)
        engagement = (
            f"regions={counters['fidelity.regions_batched']:.0f} "
            f"batched={counters['fidelity.descriptors_batched']:.0f} "
            f"des={counters['fidelity.descriptors_des']:.0f} "
            f"fallbacks={counters['fidelity.fallbacks']:.0f}"
        )
        verdict = "PASS" if not problems else "FAIL"
        print(
            f"[{verdict}] {exp_id:10s} anchors={len(des.anchors):2d} "
            f"series={len(des.series):3d} {engagement}  ({elapsed:.1f}s)"
        )
        if problems:
            failed.append(exp_id)
            for line in problems[: args.max_failures]:
                print(f"         {line}")
            if len(problems) > args.max_failures:
                print(f"         ... and {len(problems) - args.max_failures} more")

    print(
        f"\n{len(exp_ids) - len(failed)}/{len(exp_ids)} experiments equivalent, "
        f"{total_anchors} anchors checked at tolerance {args.tolerance}"
    )
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
