"""traffic-qos — WQ priorities isolate tenant cohorts under overload.

Two tenant cohorts share one DSA: a latency-sensitive **hi** cohort on
SWQ 0 (priority 15) and a best-effort **lo** cohort on SWQ 1 (priority
1), both queues in *one group* feeding the same four engines — the §3.4
QoS configuration, where the group arbiter's weighted round-robin is
what separates the classes (put each WQ in its own group and they
simply partition the engines instead).

The sweep raises aggregate offered load through the device's planning
capacity.  Below saturation both cohorts meet their SLOs; past it the
arbiter gives the hi cohort its 15/16 weight share, so hi tails stay
flat while the lo cohort eats the queueing, retries, and drops — but
smooth WRR still guarantees lo a 1/16 floor, so it degrades rather
than starves.

Tier scaling (``--tier``): the tenant fleet is the tier's tenant count
split evenly across cohorts; the request budget is split over sweep
points.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import Table
from repro.config import active_config
from repro.dsa.config import DeviceConfig, EngineConfig, GroupConfig, WqConfig, WqMode
from repro.experiments.base import ExperimentResult
from repro.traffic.loadgen import drive_profile
from repro.traffic.profile import (
    SizeDist,
    Slo,
    TrafficProfile,
    dsa_capacity,
    make_tenants,
)
from repro.traffic.tiers import active_tier

KB = 1024
SIZE = 16 * KB
ENGINES = 4
HI_PRIORITY, LO_PRIORITY = 15, 1
#: Both cohorts declare the *same* contract — priority alone decides
#: who keeps it.  250 us clears the hi cohort's structural worst case
#: (full 64-entry WQ drain at 15/16 weight plus a capped backoff run,
#: ~120 us) while a squeezed lo queue at 1/16 weight sails past it.
HI_SLO = Slo(p99_ns=250_000.0)
LO_SLO = Slo(p99_ns=250_000.0)


def qos_device_config() -> DeviceConfig:
    """Two SWQs (priority 15 vs 1) sharing one group of 4 engines."""
    return DeviceConfig(
        wqs=(
            WqConfig(wq_id=0, size=64, mode=WqMode.SHARED, priority=HI_PRIORITY),
            WqConfig(wq_id=1, size=64, mode=WqMode.SHARED, priority=LO_PRIORITY),
        ),
        engines=tuple(EngineConfig(i) for i in range(ENGINES)),
        groups=(GroupConfig(0, wq_ids=(0, 1), engine_ids=tuple(range(ENGINES))),),
    )


def _drive(load: float, tenants_per_cohort: int, requests: int) -> dict:
    capacity = dsa_capacity(SIZE, engines=ENGINES)
    cohort_rate = 0.5 * load * capacity
    sizes = SizeDist(kind="fixed", size=SIZE)
    profile = TrafficProfile(
        name=f"qos-{load:.2f}",
        tenants=make_tenants(
            "hi",
            tenants_per_cohort,
            cohort_rate,
            cohort="hi",
            sizes=sizes,
            wq_id=0,
            qos_priority=HI_PRIORITY,
            slo=HI_SLO,
        )
        + make_tenants(
            "lo",
            tenants_per_cohort,
            cohort_rate,
            cohort="lo",
            sizes=sizes,
            wq_id=1,
            qos_priority=LO_PRIORITY,
            slo=LO_SLO,
        ),
    )
    generator, _ = drive_profile(
        profile,
        requests,
        device_config=qos_device_config(),
        arrival_override=active_config().traffic,
    )
    account = generator.accountant
    point = {}
    for cohort in ("hi", "lo"):
        stats = account.cohort_stats(cohort)
        completed = stats["completed"]
        windows = stats["windows"]
        point[cohort] = {
            "p99": account.cohort_percentile(cohort, 99.0) if completed else 0.0,
            "p999": account.cohort_percentile(cohort, 99.9) if completed else 0.0,
            "offered": stats["offered"],
            "completed": completed,
            "dropped": stats["dropped"],
            "violation_windows": stats["violation_windows"],
            "violation_frac": stats["violation_windows"] / windows if windows else 0.0,
        }
    return point


def run(quick: bool = False) -> ExperimentResult:
    tier = active_tier()
    result = ExperimentResult(
        exp_id="traffic-qos",
        title="QoS under overload: WQ priorities isolate tenant cohorts",
        description=(
            "hi (priority 15) and lo (priority 1) SWQs share one group of "
            f"{ENGINES} engines; aggregate load sweeps through capacity "
            f"({tier.name} tier: {tier.requests} requests, {tier.tenants} tenants)."
        ),
    )
    loads = [0.5, 1.3] if quick else [0.5, 0.9, 1.3]
    requests = max(400, tier.requests // len(loads))
    tenants_per_cohort = max(4, tier.tenants // 2)

    runs = {}
    table = Table(
        "QoS sweep — per-cohort p999 (ns) and drops",
        ["Load", "hi p999", "lo p999", "hi drops", "lo drops", "hi viol.", "lo viol."],
    )
    hi_series, lo_series = Series(label="hi-p999"), Series(label="lo-p999")
    for load in loads:
        runs[load] = _drive(load, tenants_per_cohort, requests)
        hi_series.add(load, runs[load]["hi"]["p999"])
        lo_series.add(load, runs[load]["lo"]["p999"])
        table.add_row(
            f"{load:.1f}x",
            f"{runs[load]['hi']['p999']:.0f}",
            f"{runs[load]['lo']['p999']:.0f}",
            str(runs[load]["hi"]["dropped"]),
            str(runs[load]["lo"]["dropped"]),
            str(runs[load]["hi"]["violation_windows"]),
            str(runs[load]["lo"]["violation_windows"]),
        )
    result.add_series(hi_series)
    result.add_series(lo_series)
    result.tables.append(table)

    low, top = loads[0], loads[-1]
    result.check(
        "both cohorts meet their SLOs below saturation",
        "an unsaturated device needs no prioritization",
        f"at {low:.1f}x: hi {runs[low]['hi']['violation_windows']} / "
        f"lo {runs[low]['lo']['violation_windows']} violation windows",
        runs[low]["hi"]["violation_windows"] == 0
        and runs[low]["lo"]["violation_windows"] == 0,
    )
    result.check(
        "overload lands on the lo cohort's tail",
        "WRR gives hi its 15/16 share; lo eats the queueing (§3.4)",
        f"at {top:.1f}x: lo p999 {runs[top]['lo']['p999']:.0f} vs "
        f"hi p999 {runs[top]['hi']['p999']:.0f} ns",
        runs[top]["lo"]["p999"] > 3.0 * runs[top]["hi"]["p999"],
    )
    result.check(
        "hi cohort keeps its SLO through overload",
        "hi attainment stays >= 99% of windows while lo breaks materially",
        f"violation fraction at {top:.1f}x: hi "
        f"{100 * runs[top]['hi']['violation_frac']:.2f}% vs lo "
        f"{100 * runs[top]['lo']['violation_frac']:.2f}%",
        runs[top]["hi"]["violation_frac"] < 0.01
        and runs[top]["lo"]["violation_frac"] > 0.05,
    )
    lo_top = runs[top]["lo"]
    result.check(
        "smooth WRR degrades lo without starving it",
        "priority 1 still earns a 1/16 dispatch floor",
        f"lo completed {lo_top['completed']} of {lo_top['offered']} offered",
        lo_top["completed"] > 0.2 * lo_top["offered"],
    )
    return result
