"""The benchmark's three workloads, each driven through public ``repro`` APIs.

A workload is timed in *units*: one unit is a fixed amount of simulated
work, built by :meth:`setup` outside the timed region, executed inside
it, and checked and hashed afterwards.  Times are reference seconds
from a :class:`~perfbench.meter.SpeedMeter`.  The unit's ``digest`` hashes its simulated outputs only, so
a repeat unit, a traced unit, or a unit on a faster simulator must
reproduce it exactly.

* ``paper-quick`` — every registered experiment with ``quick=True``,
  serial and without the result cache: what a reproducer runs, and the
  only workload that checks paper anchors.
* ``closed-loop-256k`` — one dsa-perf-micros closed loop of 256 KB
  MEMMOVE at QD 32 on a dedicated WQ; per-page translation and link
  flows dominate, so memory-layer work shows most here.
* ``open-loop-serving`` — 256 bursty tenants of ~8 KB requests at 1.1x
  one device's capacity on a shared WQ; the only workload where
  ``repro.traffic`` and SLO accounting do real work.
"""

from __future__ import annotations

import hashlib
import json
import re
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List

from repro.dsa.config import DeviceConfig, WqMode
from repro.dsa.opcodes import Opcode
from repro.experiments import all_experiments, get_experiment, run_experiment
from repro.fleet import set_default_fleet, set_default_placement
from repro.obs import MetricsRegistry, install_metrics, set_default_hist_backend, uninstall_metrics
from repro.platform import spr_platform
from repro.sim.calendar import set_default_calendar
from repro.sim.fidelity import install_fidelity
from repro.sim.rng import install_seed
from repro.traffic import SizeDist, TrafficProfile, drive_profile, dsa_capacity, make_tenants
from repro.traffic.tiers import set_default_tier, set_default_traffic
from repro.workloads.microbench import MicrobenchConfig, run_dsa_microbench

KB = 1024

#: Quick-mode anchors per experiment.  An experiment that raises counts
#: all of its anchors as missed (they were never checked).
QUICK_ANCHORS = {
    "table1": 1, "table2": 3, "fig2": 3, "fig3": 4, "fig4": 1, "fig5": 4,
    "fig6": 3, "fig7": 2, "fig8": 1, "fig9": 3, "fig10": 4, "fig11": 4,
    "fig12": 3, "fig13": 3, "fig14": 2, "fig15": 3, "fig16": 4, "fig17": 5,
    "fig19": 2, "fig21": 6, "faults": 4, "cbdma": 2, "ablations": 4,
    "guidelines": 6, "traffic-crossover": 4, "traffic-qos": 4,
    "traffic-retry": 4, "fleet-scaling": 5,
}

_COMPLETED = re.compile(r"dsa\d+\.descriptors_completed")


def pin_defaults(seed: int) -> None:
    """Set every process-global run default explicitly (the CLI defaults).

    Nothing from the environment (``REPRO_JOBS``) or an earlier workload
    in the same process can then change what a unit simulates.
    """
    install_seed(seed)
    set_default_calendar("heap")
    install_fidelity("des")
    set_default_tier("small")
    set_default_traffic("default")
    set_default_placement("round-robin")
    set_default_fleet(None)
    set_default_hist_backend("auto")


def digest(payload) -> str:
    """Stable hash of simulated outputs (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sum_counters(snapshots) -> Dict[str, float]:
    """Key-wise sum of metrics snapshots (meaningful for counters)."""
    total: Dict[str, float] = {}
    for snapshot in snapshots:
        for key, value in snapshot.items():
            total[key] = total.get(key, 0.0) + float(value)
    return total


@dataclass
class Unit:
    """One checked unit of simulated work and its host time."""

    #: Reference seconds (see perfbench.meter) and raw host seconds.
    wall_s: float
    host_s: float
    attempted: int
    failed: int
    #: Simulated DSA work descriptors completed.
    descriptors: int
    #: Workload requests: one experiment, one closed-loop descriptor, or
    #: one tenant request.
    requests: int
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)
    #: Modelled results (simulated time), by per-layer metric name.
    model: Dict[str, float] = field(default_factory=dict)
    #: Per-experiment reference seconds (paper-quick only).
    exp_wall: Dict[str, float] = field(default_factory=dict)


class Workload:
    name = ""
    #: Layer of the entry point a unit calls (the traced run's root span).
    root_layer = "other"

    def __init__(self, seed: int):
        self.seed = seed
        pin_defaults(seed)

    def setup(self) -> None:
        """Build the next unit's inputs (outside the timed region)."""

    def run(self):
        raise NotImplementedError

    def summarize(self, output, host_s: float, wall_s: float) -> Unit:
        raise NotImplementedError

    def unit(self, meter) -> Unit:
        """Set up, time (with ``meter``) and check one unit."""
        self.setup()
        output, host_s, wall_s = meter.timed(self.run)
        return self.summarize(output, host_s, wall_s)


class PaperQuick(Workload):
    name = "paper-quick"
    root_layer = "exp"

    def setup(self) -> None:
        for exp_id in all_experiments():
            get_experiment(exp_id)
        self.registry = MetricsRegistry()

    def unit(self, meter) -> Unit:
        """Each experiment is timed (and calibrated) on its own."""
        self.setup()
        install_metrics(self.registry)
        outcomes = []
        try:
            for exp_id in all_experiments():
                outcomes.append((exp_id, *meter.timed(partial(_run_quick, exp_id))))
        finally:
            uninstall_metrics()
        return summarize_experiments(outcomes)


def _run_quick(exp_id: str):
    try:
        return run_experiment(exp_id, quick=True)
    except Exception:
        traceback.print_exc()
        return None


def summarize_experiments(outcomes) -> Unit:
    """Anchor accounting and digest for ``(exp_id, result, host_s, wall_s)``.

    ``result`` is None for an experiment that raised.
    """
    attempted = failed = 0
    payload = []
    for exp_id, result, _host, _wall in outcomes:
        if result is None:
            missed = QUICK_ANCHORS.get(exp_id, 1)
            attempted += missed
            failed += missed
            payload.append([exp_id, "raised"])
            continue
        attempted += len(result.anchors)
        failed += sum(1 for anchor in result.anchors if not anchor.holds)
        payload.append([
            exp_id,
            [[label, series.points] for label, series in sorted(result.series.items())],
            [[a.name, a.measured, a.holds] for a in result.anchors],
            sorted(result.metrics.items()),
        ])
    counters = sum_counters(r.metrics for _i, r, _h, _w in outcomes if r is not None)
    return Unit(
        wall_s=sum(wall for _i, _r, _h, wall in outcomes),
        host_s=sum(host for _i, _r, host, _w in outcomes),
        attempted=attempted,
        failed=failed,
        descriptors=int(sum(v for k, v in counters.items() if _COMPLETED.fullmatch(k))),
        requests=len(outcomes),
        digest=digest(payload),
        counters=counters,
        exp_wall={exp_id: wall for exp_id, _r, _h, wall in outcomes},
    )


class ClosedLoop256k(Workload):
    name = "closed-loop-256k"
    root_layer = "workloads"
    #: Descriptors per unit: ~1.5 s of host time at ~1.3k desc/s.
    ITERATIONS = 2000

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cfg = MicrobenchConfig(
            opcode=Opcode.MEMMOVE,
            transfer_size=256 * KB,
            queue_depth=32,
            iterations=self.ITERATIONS,
            wq_mode=WqMode.DEDICATED,
            wq_size=32,
        )

    def setup(self) -> None:
        cfg = self.cfg
        self.registry = MetricsRegistry()
        install_metrics(self.registry)
        try:
            # The same platform run_dsa_microbench builds for itself:
            # one device pinned to socket 0, one DWQ, one engine.
            self.platform = spr_platform(
                n_devices=1,
                device_config=DeviceConfig.single(
                    wq_size=cfg.wq_size, n_engines=cfg.engines_per_group, mode=cfg.wq_mode
                ),
                socket_of=lambda _index: 0,
            )
        finally:
            uninstall_metrics()
        # Correctness tap on this one device: keep every descriptor
        # submitted so its completion status can be checked afterwards.
        self.submitted: List = []
        device = self.platform.driver.devices["dsa0"]
        submit = device.submit
        submitted = self.submitted

        def tapped_submit(descriptor, *args, **kwargs):
            submitted.append(descriptor)
            return submit(descriptor, *args, **kwargs)

        device.submit = tapped_submit

    def run(self):
        return run_dsa_microbench(self.cfg, self.platform)

    def summarize(self, result, host_s: float, wall_s: float) -> Unit:
        cfg = self.cfg
        bad = sum(1 for d in self.submitted if not d.completion.status.is_success)
        # Every descriptor submitted must complete successfully, and the
        # loop must move exactly operations x size bytes.
        bad += cfg.iterations - len(self.submitted)
        if result.payload_bytes != result.operations * cfg.transfer_size:
            bad = max(bad, 1)
        counters = self.registry.snapshot()
        latency = result.latency
        outputs = {
            "operations": result.operations,
            "payload_bytes": result.payload_bytes,
            "elapsed_ns": result.elapsed_ns,
            "latency": [latency.mean] + [latency.percentile(p) for p in (50.0, 99.0, 99.9)],
            "enqcmd_retries": result.enqcmd_retries,
            "metrics": sorted(counters.items()),
        }
        return Unit(
            wall_s=wall_s,
            host_s=host_s,
            attempted=cfg.iterations,
            failed=min(bad, cfg.iterations),
            descriptors=int(counters.get("dsa0.descriptors_completed", 0)),
            requests=len(self.submitted),
            digest=digest(outputs),
            counters=counters,
            model={"model.gbps": result.throughput, "model.p99_ns": latency.percentile(99.0)},
        )


class OpenLoopServing(Workload):
    name = "open-loop-serving"
    root_layer = "traffic"
    #: Requests per unit: ~1.5 s of host time at ~4k req/s.
    REQUESTS = 6000
    TENANTS = 256

    def __init__(self, seed: int):
        super().__init__(seed)
        self.profile = TrafficProfile(
            name="perfbench-serving",
            tenants=make_tenants(
                "t",
                self.TENANTS,
                1.1 * dsa_capacity(8 * KB),
                arrival="bursty",
                cv2=9.0,
                sizes=SizeDist(kind="lognormal", size=8 * KB, sigma=0.7),
            ),
        )
        self.profile.validate()

    def setup(self) -> None:
        self.registry = MetricsRegistry()

    def run(self):
        install_metrics(self.registry)
        try:
            return drive_profile(self.profile, self.REQUESTS)
        except RuntimeError:
            # drive_profile raises on a conservation break or a short run.
            traceback.print_exc()
            return None
        finally:
            uninstall_metrics()

    def summarize(self, output, host_s: float, wall_s: float) -> Unit:
        requests = self.REQUESTS
        if output is None:
            return Unit(wall_s, host_s, requests, requests, 0, requests, "conservation-broken")
        generator, totals = output
        offered = totals["offered"]
        lost = abs(offered - totals["completed"] - totals["dropped"]) + abs(requests - offered)
        accountant = generator.accountant
        hist = accountant.cohort_hist("default")
        percentiles = [hist.percentile(p) for p in (50.0, 99.0, 99.9)] if len(hist) else []
        counters = self.registry.snapshot()
        return Unit(
            wall_s=wall_s,
            host_s=host_s,
            attempted=requests,
            failed=min(lost, requests),
            descriptors=int(sum(v for k, v in counters.items() if _COMPLETED.fullmatch(k))),
            requests=offered,
            digest=digest({
                "totals": sorted(totals.items()),
                "percentiles": percentiles,
                "metrics": sorted(counters.items()),
            }),
            counters=counters,
            model={
                "traffic.drop_frac": totals["dropped"] / offered,
                "traffic.p99_us": (percentiles[1] / 1000.0) if percentiles else 0.0,
                "traffic.retries_per_req": totals["retries"] / offered,
            },
        )


WORKLOADS = {w.name: w for w in (PaperQuick, ClosedLoop256k, OpenLoopServing)}
