"""traffic-retry — ENQCMD retry storms under shared-WQ fan-in.

The paper's shared-mode caution (§3.3, G2): ENQCMD is non-posted, so a
full SWQ turns every submitter into a retry loop, and the damage scales
with how many tenants share the queue.  This experiment holds the WQ
small (16 entries) and sweeps *fan-in* — how many bursty tenants share
it — with per-tenant rate fixed, so aggregate load grows with the
tenant count: a handful of tenants submit politely, a full fleet
pushes the queue into a retry storm with backoff, shed requests, and a
blown-up tail.

This is also the showcase for per-submitter retry attribution
(``<owner>.wq<id>.source.<tenant>.enqcmd_retries``): the per-source
counters must sum exactly to the aggregate WQ counter, which is checked
as an anchor here and gated in ``scripts/bench_traffic.py``.

Tier scaling (``--tier``): fan-in steps are fractions of the tier's
tenant count; the request budget is split over sweep points.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import Table
from repro.config import active_config
from repro.dsa.config import DeviceConfig, WqMode
from repro.experiments.base import ExperimentResult
from repro.fleet import DEFAULT_FLEET
from repro.traffic.loadgen import drive_profile
from repro.traffic.profile import (
    SizeDist,
    TrafficProfile,
    dsa_capacity,
    make_tenants,
)
from repro.traffic.tiers import active_tier

KB = 1024
SIZE = 8 * KB
WQ_SIZE = 16
ENGINES = 4
CV2 = 9.0
#: Per-tenant rate is pinned so aggregate rho = 1.25 * (fan_in / tier
#: tenants): the full fleet overcommits the device by 25%.
FULL_FLEET_RHO = 1.25


def _drive(fan_in: int, per_tenant_rate: float, requests: int) -> dict:
    profile = TrafficProfile(
        name=f"retry-{fan_in}",
        tenants=make_tenants(
            "t",
            fan_in,
            fan_in * per_tenant_rate,
            arrival="bursty",
            cv2=CV2,
            sizes=SizeDist(kind="fixed", size=SIZE),
            max_retries=8,
        ),
    )
    generator, totals = drive_profile(
        profile,
        requests,
        device_config=DeviceConfig.single(
            wq_size=WQ_SIZE, n_engines=ENGINES, mode=WqMode.SHARED
        ),
        arrival_override=active_config().traffic,
        # The retry storm is calibrated against ONE 16-entry SWQ; a
        # --fleet topology would spread the fan-in and dissolve the
        # backpressure the anchors measure, so the layout is pinned.
        fleet=DEFAULT_FLEET,
    )
    snapshot = generator.platform.metrics_snapshot()
    aggregate = snapshot.get("dsa0.wq0.enqcmd_retries", 0.0)
    per_source = sum(
        value
        for name, value in snapshot.items()
        if name.startswith("dsa0.wq0.source.") and name.endswith(".enqcmd_retries")
    )
    account = generator.accountant
    completed = totals["completed"]
    return {
        "retries_per_req": totals["retries"] / totals["offered"],
        "dropped": totals["dropped"],
        "p999": account.cohort_percentile("default", 99.9) if completed else 0.0,
        "aggregate_retries": aggregate,
        "per_source_retries": per_source,
        "sources_seen": sum(
            1
            for name in snapshot
            if name.startswith("dsa0.wq0.source.") and name.endswith(".enqcmd_retries")
        ),
    }


def run(quick: bool = False) -> ExperimentResult:
    tier = active_tier()
    result = ExperimentResult(
        exp_id="traffic-retry",
        title="SWQ retry storms scale with tenant fan-in",
        description=(
            f"Bursty (cv2={CV2:.0f}) tenants share one {WQ_SIZE}-entry SWQ; "
            "per-tenant rate is fixed, so fan-in is also aggregate load "
            f"({tier.name} tier: {tier.requests} requests, up to "
            f"{tier.tenants} tenants)."
        ),
    )
    fleet = tier.tenants
    fan_ins = (
        [max(2, fleet // 16), fleet] if quick else [max(2, fleet // 16), max(4, fleet // 4), fleet]
    )
    per_tenant_rate = FULL_FLEET_RHO * dsa_capacity(SIZE, engines=ENGINES) / fleet
    requests = max(400, tier.requests // len(fan_ins))

    runs = {}
    retry_series = Series(label="retries-per-request")
    p999_series = Series(label="p999-ns")
    table = Table(
        "Fan-in sweep — retries, drops, tail",
        ["Tenants", "Retries/req", "Dropped", "p999 (ns)"],
    )
    for fan_in in fan_ins:
        runs[fan_in] = _drive(fan_in, per_tenant_rate, requests)
        retry_series.add(fan_in, runs[fan_in]["retries_per_req"])
        p999_series.add(fan_in, runs[fan_in]["p999"])
        table.add_row(
            str(fan_in),
            f"{runs[fan_in]['retries_per_req']:.3f}",
            str(runs[fan_in]["dropped"]),
            f"{runs[fan_in]['p999']:.0f}",
        )
    result.add_series(retry_series)
    result.add_series(p999_series)
    result.tables.append(table)

    low, full = fan_ins[0], fan_ins[-1]
    result.check(
        "retry rate explodes with fan-in",
        "shared-queue pressure grows with submitter count (G2)",
        f"{runs[low]['retries_per_req']:.3f} retries/req at {low} tenants vs "
        f"{runs[full]['retries_per_req']:.3f} at {full}",
        runs[full]["retries_per_req"] > 5.0 * max(runs[low]["retries_per_req"], 1e-6)
        and runs[full]["retries_per_req"] > 0.5,
    )
    result.check(
        "bounded retries shed load only under storm",
        "the retry budget never trips at low fan-in",
        f"dropped: {runs[low]['dropped']} at {low} tenants, "
        f"{runs[full]['dropped']} at {full}",
        runs[low]["dropped"] == 0 and runs[full]["dropped"] > 0,
    )
    result.check(
        "per-source retries sum to the WQ aggregate",
        "attribution is exact: every retry is booked to a tenant",
        f"{runs[full]['per_source_retries']:.0f} across "
        f"{runs[full]['sources_seen']} sources vs aggregate "
        f"{runs[full]['aggregate_retries']:.0f}",
        all(
            point["per_source_retries"] == point["aggregate_retries"]
            for point in runs.values()
        )
        and runs[full]["sources_seen"] > 1,
    )
    result.check(
        "the storm blows up the tail",
        "retry/backoff queueing multiplies p999",
        f"p999 {runs[low]['p999']:.0f} ns at {low} tenants vs "
        f"{runs[full]['p999']:.0f} ns at {full}",
        runs[full]["p999"] > 3.0 * runs[low]["p999"],
    )
    return result
