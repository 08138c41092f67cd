#!/usr/bin/env python3
"""Host-time benchmark of the DSA simulator: end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 20 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  Each run:

1. times the workload's set-up in ``SETUP_PROBES`` fresh interpreters
   (``setup_s`` is their median; skipped with ``--trace 1``);
2. repeats the workload's unit of simulated work, untraced, for
   ``--seconds`` (at least once), checking every unit's outputs and
   that every unit reproduces the same ``sim_digest``;
3. with ``--trace 1``, runs one more unit with layer spans
   (``perfbench/spans.py``), checks that it reproduces the digest too,
   and writes a bounded raw span sample under ``.perfbench/``.

The metric names and units printed are those listed in
``BENCHMARK.json``: its ``end_to_end`` metrics with ``--trace 0`` and
its ``per_layer`` metrics with ``--trace 1``.  The last line of standard
output is one JSON object; the exit code is non-zero when any check
fails.

Times (``*_s``, ``*_per_s``) are host time in *reference seconds*: raw
host seconds scaled by a calibration loop run around every timed
segment (``perfbench/meter.py``), so that a shared host's drifting speed
does not read as a code change.  The raw host seconds and the loop's
median time are printed too.  ``model.*`` and
``traffic.drop_frac``/``traffic.p99_us`` are simulated results, which a
speed-only change must leave identical.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

_WQ_COUNTER = re.compile(r"dsa\d+\.wq\d+\.(enqueued|rejected)")
_RUNTIME_CALLS = ("runtime.prepare_descriptor", "runtime.submit", "runtime.wait_for")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: repro's DEFAULT_SEED)")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


# -- provenance ----------------------------------------------------------------

def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    """The checked-out commit, when the tree is a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unknown"


def provenance(args, meter) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "code_sha": code_fingerprint(),
        "calibration_s": statistics.median(meter.samples),
    }


# -- measurement ---------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> list:
    """``(reference, host)`` set-up seconds from fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        reference_s, host_s = done.stdout.split()[-2:]
        times.append((float(reference_s), float(host_s)))
    return times


def timed_units(workload, meter, seconds: int) -> list:
    """Repeat untraced units while the next one fits in ``seconds``."""
    units = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        unit = workload.unit(meter)
        units.append(unit)
        if time.perf_counter() + unit.host_s > deadline:
            return units


def traced_unit(workload, meter):
    """One unit under layer spans; returns it with the recorder and counts."""
    from perfbench.spans import SpanRecorder, instrument

    recorder = SpanRecorder()
    gc.collect()
    with instrument(recorder) as inst:
        def rooted(run):
            with recorder.span(f"{workload.root_layer}.unit", workload.root_layer):
                return run()

        meter.wrap = rooted
        try:
            unit = workload.unit(meter)
        finally:
            meter.wrap = None
    if inst.patched:
        raise RuntimeError("span instrumentation was not fully restored")
    return unit, recorder, inst.events


# -- metrics -------------------------------------------------------------------

def tally(units, traced=None):
    """``(attempted, failed)`` over every unit of a run.

    A unit that does not reproduce the first unit's ``sim_digest`` fails
    as a whole: repetition and tracing must leave the model unperturbed.
    """
    checked = units + ([traced] if traced is not None else [])
    reference = units[0].digest
    attempted = sum(u.attempted for u in checked)
    failed = sum(u.attempted if u.digest != reference else u.failed for u in checked)
    return attempted, failed


def end_to_end(units, setup_times) -> dict:
    return {
        "wall_s": statistics.median(u.wall_s for u in units),
        "setup_s": statistics.median(reference for reference, _host in setup_times),
        "desc_per_s": statistics.median(u.descriptors / u.wall_s for u in units),
        "req_per_s": statistics.median(u.requests / u.wall_s for u in units),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(units, traced, recorder, events: int) -> dict:
    """Per-layer metrics; those a workload does not exercise read 0."""
    desc = max(traced.descriptors, 1)
    calls = recorder.calls
    counters = traced.counters
    wq = {"enqueued": 0.0, "rejected": 0.0}
    for key, value in counters.items():
        match = _WQ_COUNTER.fullmatch(key)
        if match:
            wq[match.group(1)] += value
    hits = sum(v for k, v in counters.items() if k.endswith(".atc.hits"))
    misses = sum(v for k, v in counters.items() if k.endswith(".atc.misses"))
    attempted, failed = tally(units, traced)
    metrics = {
        "sim.events": events,
        "sim.events_per_desc": events / desc,
        "sim.resumes_per_desc": calls["resume"] / desc,
        "dsa.descriptors": traced.descriptors,
        "dsa.atc.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "dsa.enqcmd_accept_frac": (
            wq["enqueued"] / (wq["enqueued"] + wq["rejected"]) if wq["enqueued"] else 0.0
        ),
        "mem.flows_per_desc": (
            calls["mem.MemorySystem.read_flow"] + calls["mem.MemorySystem.write_flow"]
        ) / desc,
        "mem.translations_per_desc": calls["mem.Iommu.translate"] / desc,
        "runtime.calls_per_desc": sum(calls[name] for name in _RUNTIME_CALLS) / desc,
        "obs.calls_per_desc": sum(
            count for name, count in calls.items() if name.startswith("obs.")
        ) / desc,
        "trace.overhead": traced.wall_s / statistics.median(u.wall_s for u in units),
        "fail_frac": failed / attempted,
        "model.gbps": 0.0,
        "model.p99_ns": 0.0,
        "traffic.drop_frac": 0.0,
        "traffic.p99_us": 0.0,
        "traffic.retries_per_req": 0.0,
    }
    metrics.update(units[0].model)
    for layer, share in recorder.shares().items():
        metrics[f"{layer}.self_share"] = share
    for exp_id in units[0].exp_wall:
        metrics[f"exp.{exp_id}.wall_s"] = statistics.median(u.exp_wall[exp_id] for u in units)
    return metrics


def select(metrics: dict, declared: list) -> dict:
    """The declared metrics, in order; undeclared workload metrics read 0."""
    return {
        m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in declared
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    from repro.sim.rng import DEFAULT_SEED

    from perfbench.meter import SpeedMeter
    from perfbench.workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = DEFAULT_SEED

    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = WORKLOADS[args.workload](args.seed)
    meter = SpeedMeter()
    units = timed_units(workload, meter, args.seconds)
    digests = " ".join(sorted({u.digest for u in units}))
    if args.trace:
        traced, recorder, events = traced_unit(workload, meter)
        attempted, failed = tally(units, traced)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write_sample(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        metrics = select(per_layer(units, traced, recorder, events), spec["per_layer"])
        print(f"perfbench sim_digest {args.workload} untraced={digests} "
              f"traced={traced.digest} units={len(units)}")
    else:
        attempted, failed = tally(units)
        metrics = select(end_to_end(units, setup_times), spec["end_to_end"])
        print(f"perfbench sim_digest {args.workload} {digests} units={len(units)}")
        print("perfbench host_s " + json.dumps({
            "wall_s": statistics.median(u.host_s for u in units),
            "setup_s": statistics.median(host for _reference, host in setup_times),
        }))
    print("perfbench provenance " + json.dumps(provenance(args, meter)))
    for name, entry in metrics.items():
        print(f"perfbench metric {name} {entry['value']:.6g} {entry['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
