"""traffic-crossover — open-loop serving: DSA vs CPU across size and load.

The paper's crossover story (§4.1, Fig 2) retold under open-loop
multi-tenant traffic instead of a closed loop: a tenant fleet offers
the same request stream to the DSA path (SWQ ENQCMD with bounded
retry/backoff) and to the CPU service pool (2 workers on the calibrated
software kernels), and the deliverable is *tail latency and goodput*
rather than throughput.

Two sweeps:

* **size** at a fixed moderate load (half the weaker path's planning
  capacity): small requests pay DSA's fixed offload cost (ENQCMD +
  dispatch + PE setup) and the CPU wins the tail; large requests hit
  the CPU's bandwidth wall and DSA wins.
* **load** at 16 KiB, as a multiple of the CPU pool's capacity: past
  saturation the CPU's bounded backlog sheds hard while the deeper
  128-entry SWQ keeps absorbing, so DSA degrades gracefully where the
  CPU falls off a cliff.

Scale comes from the active tier (``--tier``): the tier's request
budget is split evenly over sweep points, and the tenant fleet size
scales with the tier (see docs/TRAFFIC.md).
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import Table
from repro.config import active_config
from repro.experiments.base import ExperimentResult
from repro.traffic.loadgen import drive_profile
from repro.traffic.profile import (
    SizeDist,
    TrafficProfile,
    cpu_capacity,
    dsa_capacity,
    make_tenants,
)
from repro.traffic.tiers import active_tier

KB = 1024
CPU_CORES = 2
LOAD_SIZE = 16 * KB
#: Bounded CPU backlog: small enough that a 1.2x overload sheds within
#: the small tier's per-point request budget instead of parking the
#: excess in an ever-growing queue.
CPU_QUEUE_LIMIT = 32


def _drive(size: int, rate: float, target: str, tenants: int, requests: int) -> dict:
    """One sweep point: a tenant fleet offering ``rate`` to one path."""
    profile = TrafficProfile(
        name=f"crossover-{target}-{size}",
        tenants=make_tenants(
            "t",
            tenants,
            rate,
            sizes=SizeDist(kind="fixed", size=size),
            target=target,
        ),
        cpu_cores=CPU_CORES,
        cpu_queue_limit=CPU_QUEUE_LIMIT,
    )
    generator, totals = drive_profile(
        profile, requests, arrival_override=active_config().traffic
    )
    account = generator.accountant
    completed = totals["completed"]
    elapsed = generator.platform.env.now
    return {
        "p50": account.cohort_percentile("default", 50.0) if completed else 0.0,
        "p99": account.cohort_percentile("default", 99.0) if completed else 0.0,
        "completed": completed,
        "dropped": totals["dropped"],
        "drop_frac": totals["dropped"] / totals["offered"],
        "goodput": completed / elapsed if elapsed else 0.0,
    }


def run(quick: bool = False) -> ExperimentResult:
    tier = active_tier()
    result = ExperimentResult(
        exp_id="traffic-crossover",
        title="Open-loop serving crossover: DSA SWQ vs CPU pool",
        description=(
            "Multi-tenant open-loop traffic offered to the DSA path and the "
            f"{CPU_CORES}-core CPU pool across request size and load "
            f"({tier.name} tier: {tier.requests} requests, {tier.tenants} tenants)."
        ),
    )
    sizes = [1 * KB, 64 * KB] if quick else [1 * KB, 4 * KB, 16 * KB, 64 * KB]
    loads = [0.3, 1.2] if quick else [0.3, 0.6, 0.9, 1.2]
    # Tier budget split over every (point, path) run in both sweeps.
    n_runs = 2 * (len(sizes) + len(loads))
    requests = max(200, tier.requests // n_runs)
    tenants = max(8, tier.tenants // 8)

    runs = {}
    size_table = Table(
        "Size sweep at half capacity — p99 latency (ns)",
        ["Size", "CPU p99", "DSA p99", "CPU goodput (req/us)", "DSA goodput (req/us)"],
    )
    for target in ("cpu", "dsa0"):
        series = Series(label=f"{target}-size-p99")
        for size in sizes:
            rate = 0.5 * min(
                dsa_capacity(size), cpu_capacity(size, cores=CPU_CORES)
            )
            runs[(target, "size", size)] = _drive(size, rate, target, tenants, requests)
            series.add(size, runs[(target, "size", size)]["p99"])
        result.add_series(series)
    for size in sizes:
        cpu, dsa = runs[("cpu", "size", size)], runs[("dsa0", "size", size)]
        size_table.add_row(
            f"{size // KB} KiB",
            f"{cpu['p99']:.0f}",
            f"{dsa['p99']:.0f}",
            f"{1e3 * cpu['goodput']:.2f}",
            f"{1e3 * dsa['goodput']:.2f}",
        )
    result.tables.append(size_table)

    cpu_cap = cpu_capacity(LOAD_SIZE, cores=CPU_CORES)
    load_table = Table(
        f"Load sweep at {LOAD_SIZE // KB} KiB (x CPU capacity) — drops and p99",
        ["Load", "CPU drop %", "DSA drop %", "CPU p99", "DSA p99"],
    )
    for target in ("cpu", "dsa0"):
        series = Series(label=f"{target}-load-dropfrac")
        for load in loads:
            runs[(target, "load", load)] = _drive(
                LOAD_SIZE, load * cpu_cap, target, tenants, requests
            )
            series.add(load, runs[(target, "load", load)]["drop_frac"])
        result.add_series(series)
    for load in loads:
        cpu, dsa = runs[("cpu", "load", load)], runs[("dsa0", "load", load)]
        load_table.add_row(
            f"{load:.1f}x",
            f"{100 * cpu['drop_frac']:.1f}",
            f"{100 * dsa['drop_frac']:.1f}",
            f"{cpu['p99']:.0f}",
            f"{dsa['p99']:.0f}",
        )
    result.tables.append(load_table)

    small, large = sizes[0], sizes[-1]
    result.check(
        "CPU wins the tail at small sizes",
        "fixed offload cost dominates small requests (G1)",
        f"at {small}B: CPU p99 {runs[('cpu', 'size', small)]['p99']:.0f} vs "
        f"DSA p99 {runs[('dsa0', 'size', small)]['p99']:.0f} ns",
        runs[("cpu", "size", small)]["p99"] < runs[("dsa0", "size", small)]["p99"],
    )
    result.check(
        "DSA wins the tail at large sizes",
        "the CPU's per-core bandwidth wall binds first",
        f"at {large}B: DSA p99 {runs[('dsa0', 'size', large)]['p99']:.0f} vs "
        f"CPU p99 {runs[('cpu', 'size', large)]['p99']:.0f} ns",
        runs[("dsa0", "size", large)]["p99"] < runs[("cpu", "size", large)]["p99"],
    )
    top = loads[-1]
    cpu_top, dsa_top = runs[("cpu", "load", top)], runs[("dsa0", "load", top)]
    result.check(
        "overload sheds on the CPU path first",
        "the bounded CPU backlog drops past saturation; the SWQ absorbs",
        f"at {top:.1f}x: CPU drops {100 * cpu_top['drop_frac']:.1f}% vs "
        f"DSA {100 * dsa_top['drop_frac']:.1f}%",
        cpu_top["drop_frac"] > 0.05 and dsa_top["drop_frac"] < cpu_top["drop_frac"],
    )
    result.check(
        "DSA goodput holds at overload",
        "offloaded completions keep flowing past CPU saturation",
        f"at {top:.1f}x: DSA completed {dsa_top['completed']} vs "
        f"CPU {cpu_top['completed']}",
        dsa_top["completed"] >= cpu_top["completed"],
    )
    return result
