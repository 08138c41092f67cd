#!/usr/bin/env python
"""Fidelity-tier benchmark: batched fast path vs full per-event DES.

Measures descriptors/second through ``repro.workloads.microbench`` with
the default ``des`` tier versus ``--fidelity auto`` (the cross-validated
batched fast path from ``repro.sim.fidelity`` / ``repro.sim.batch``) on
two arms:

* ``large_homogeneous`` — long closed-loop sweeps (thousands of
  iterations per worker, the regime the ROADMAP's datacenter-traffic
  item lives in).  Steady state dominates, the pilot is amortized away,
  and the batched tier must deliver **>= 10x** (hard gate, geomean).
* ``quick_equivalent`` — the closed-loop shapes ``run all --quick``
  executes (sync QD1 DSA sweeps, table-1 operations, the software
  baseline arm) at quick's modal measurement length of 30 iterations.
  Here the pilot is a large fraction of the run, so the honest ceiling
  is ``iterations / pilot`` (~2.3x at 30); the gate is **>= 2x**
  (geomean over shapes where a pilot plan exists).  Quick's *async*
  QD32 shapes are shorter than one completion wave, so the planner
  refuses them and they run full DES — that fallback is gated too, at
  **>= 0.9x** (refusal must cost nothing; it short-circuits before any
  pilot work).

Every (shape, tier) pair also cross-checks accuracy: auto must match
des throughput, mean latency, and p99 latency within
``DECLARED_TOLERANCE`` (the same bound the anchor differential suite
``scripts/check_fidelity_equivalence.py`` enforces), and the default
``des`` tier is byte-identical by construction (it never consults the
fidelity module).  Results are written as JSON (default
``BENCH_fidelity.json``)::

    PYTHONPATH=src python scripts/bench_fidelity.py --out BENCH_fidelity.json

Methodology: each (shape, tier) pair runs ``--repeats`` times with a
freshly installed default seed and the best run wins (minimum wall
time); descriptors/sec counts completed work descriptors (batch members
included) over wall time, identical logical work on both arms.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple

from _bench_common import base_parser, best_of, gate_exit, geomean, write_json
from repro.dsa.opcodes import Opcode
from repro.config import RunConfig, using
from repro.sim.fidelity import DECLARED_TOLERANCE, FidelityPolicy, plan_closed_loop
from repro.workloads.microbench import (
    MicrobenchConfig,
    run_dsa_microbench,
    run_software_microbench,
)

KB = 1024

#: (name, runner kind, config, inner sweep count).  ``inner`` repeats
#: the run back-to-back inside the timed region — quick mode executes
#: dozens of such points per figure, and a multi-millisecond timed
#: region is what makes the sub-millisecond shapes measurable.
#: ``large_homogeneous`` is the >=10x arm; ``quick_equivalent``
#: mirrors the run-all-quick closed-loop shapes at quick's modal 30
#: iterations (see module docstring).
ARMS = {
    "large_homogeneous": [
        ("sync_memmove_64k", "dsa", MicrobenchConfig(transfer_size=64 * KB, queue_depth=1, iterations=4000), 1),
        ("async_memmove_64k_qd32", "dsa", MicrobenchConfig(transfer_size=64 * KB, queue_depth=32, iterations=4000), 1),
        ("async_memmove_4k_qd32", "dsa", MicrobenchConfig(transfer_size=4 * KB, queue_depth=32, iterations=4000), 1),
    ],
    "quick_equivalent": [
        ("sync_memmove_64k", "dsa", MicrobenchConfig(transfer_size=64 * KB, queue_depth=1, iterations=30), 8),
        ("sync_memmove_4k", "dsa", MicrobenchConfig(transfer_size=4 * KB, queue_depth=1, iterations=30), 8),
        ("sync_crcgen_4k", "dsa", MicrobenchConfig(opcode=Opcode.CRCGEN, transfer_size=4 * KB, queue_depth=1, iterations=30), 8),
        ("sync_fill_4k", "dsa", MicrobenchConfig(opcode=Opcode.FILL, transfer_size=4 * KB, queue_depth=1, iterations=30), 8),
        ("sync_compare_4k", "dsa", MicrobenchConfig(opcode=Opcode.COMPARE, transfer_size=4 * KB, queue_depth=1, iterations=30), 8),
        ("software_memmove_64k", "sw", MicrobenchConfig(transfer_size=64 * KB, queue_depth=1, iterations=30), 100),
        ("async_memmove_64k_qd32", "dsa", MicrobenchConfig(transfer_size=64 * KB, queue_depth=32, iterations=30), 4),
    ],
}

_RUNNERS = {"dsa": run_dsa_microbench, "sw": run_software_microbench}


def _measure(kind: str, cfg: MicrobenchConfig, mode: Optional[str], repeats: int, inner: int):
    """Best-of-N wall time for one (shape, tier); returns (BestRun, result).

    The timed region runs ``inner`` identically-seeded sweeps
    back-to-back; the reported result is the last sweep's (all are
    deterministic replicas).
    """
    runner = _RUNNERS[kind]

    def run(_context) -> object:
        result = None
        for _ in range(inner):
            with using(RunConfig(fidelity=mode or "des")):
                result = runner(cfg)
        return result

    best = best_of(repeats, run)
    return best, best.value


def _rel(after: float, before: float) -> float:
    if before == 0.0:
        return abs(after)
    return abs(after - before) / abs(before)


def _accuracy(des, auto) -> Tuple[dict, float]:
    """Relative auto-vs-des error on the headline result metrics."""
    errors = {
        "throughput": _rel(auto.throughput, des.throughput),
        "mean_latency": _rel(auto.mean_latency_ns, des.mean_latency_ns),
        "p99_latency": _rel(auto.latency.percentile(99.0), des.latency.percentile(99.0)),
    }
    return {k: round(v, 6) for k, v in errors.items()}, max(errors.values())


def main(argv=None):
    parser = base_parser(__doc__.splitlines()[0], "BENCH_fidelity.json", repeats_default=3)
    parser.add_argument(
        "--target-large", type=float, default=10.0, help="hard geomean gate, large arm"
    )
    parser.add_argument(
        "--target-quick",
        type=float,
        default=2.0,
        help="hard geomean gate, quick arm (shapes where a pilot plan exists)",
    )
    parser.add_argument(
        "--min-fallback",
        type=float,
        default=0.9,
        help="hard per-shape gate for shapes the planner refuses (no-harm)",
    )
    args = parser.parse_args(argv)

    policy = FidelityPolicy.for_mode("auto")
    arms = {}
    worst_error = 0.0
    gates = {}
    for arm_name, shapes in ARMS.items():
        rows = {}
        engaged_speedups = []
        fallback_ok = True
        for name, kind, cfg, inner in shapes:
            planned = kind == "sw" or (
                plan_closed_loop(cfg.iterations, cfg.queue_depth, policy) is not None
            )
            des_best, des_result = _measure(kind, cfg, None, args.repeats, inner)
            auto_best, auto_result = _measure(kind, cfg, "auto", args.repeats, inner)
            des_dps = des_result.operations * inner / des_best.seconds
            auto_dps = auto_result.operations * inner / auto_best.seconds
            speedup = auto_dps / des_dps
            errors, worst = _accuracy(des_result, auto_result)
            worst_error = max(worst_error, worst)
            if planned:
                engaged_speedups.append(speedup)
            else:
                fallback_ok = fallback_ok and speedup >= args.min_fallback
            rows[name] = {
                "descriptors": des_result.operations,
                "iterations": cfg.iterations,
                "queue_depth": cfg.queue_depth,
                "planned": planned,
                "des_descriptors_per_sec": round(des_dps),
                "auto_descriptors_per_sec": round(auto_dps),
                "des_best_s": round(des_best.seconds, 4),
                "auto_best_s": round(auto_best.seconds, 4),
                "speedup": round(speedup, 3),
                "rel_errors": errors,
            }
            print(
                f"{arm_name:17s} {name:24s} des {des_dps/1e3:8.1f} k desc/s   "
                f"auto {auto_dps/1e3:8.1f} k desc/s   x{speedup:7.2f}"
                f"{'' if planned else '  (fallback)'}   err {worst:.4f}"
            )
        overall = geomean(engaged_speedups)
        target = args.target_large if arm_name == "large_homogeneous" else args.target_quick
        gates[arm_name] = overall >= target and fallback_ok
        arms[arm_name] = {
            "shapes": rows,
            "speedup_geomean": round(overall, 3),
            "target": target,
            "fallback_no_harm": fallback_ok,
        }
        print(f"{arm_name}: geomean x{overall:.2f} (target x{target})")

    accuracy_ok = worst_error <= DECLARED_TOLERANCE
    ok = all(gates.values()) and accuracy_ok
    write_json(
        args.out,
        {
            "benchmark": "repro.sim fidelity tiers (auto batched fast path vs full DES)",
            "repeats": args.repeats,
            "arms": arms,
            "worst_rel_error": round(worst_error, 6),
            "declared_tolerance": DECLARED_TOLERANCE,
            "accuracy_pass": accuracy_ok,
            "min_fallback": args.min_fallback,
            "pass": ok,
        },
    )
    print(
        f"{'PASS' if ok else 'FAIL'}  worst rel error {worst_error:.5f} "
        f"(tolerance {DECLARED_TOLERANCE}) -> {args.out}"
    )
    return gate_exit(ok, args.require)


if __name__ == "__main__":
    sys.exit(main())
