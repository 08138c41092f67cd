"""repro.traffic — open-loop multi-tenant serving mode.

Declares tenants (:mod:`~repro.traffic.profile`), drives them over SWQs
and a CPU pool (:mod:`~repro.traffic.loadgen`), accounts per-tenant
SLOs at constant memory (:mod:`~repro.traffic.slo`), and scales runs
through the small/medium/large tier table (:mod:`~repro.traffic.tiers`).
See docs/TRAFFIC.md.
"""

from repro.traffic.loadgen import CpuServicePool, LoadGenerator, drive_profile
from repro.traffic.profile import (
    SIZE_STREAM_BASE,
    SizeDist,
    Slo,
    TenantSpec,
    TrafficProfile,
    cpu_capacity,
    dsa_capacity,
    make_tenants,
)
from repro.traffic.slo import SloAccountant, TenantAccount
from repro.traffic.tiers import (
    TIERS,
    TRAFFIC_MODES,
    ScaleTier,
    active_tier,
    set_default_tier,
    set_default_traffic,
    tier_names,
)

__all__ = [
    "CpuServicePool",
    "LoadGenerator",
    "drive_profile",
    "SIZE_STREAM_BASE",
    "SizeDist",
    "Slo",
    "TenantSpec",
    "TrafficProfile",
    "cpu_capacity",
    "dsa_capacity",
    "make_tenants",
    "SloAccountant",
    "TenantAccount",
    "TIERS",
    "TRAFFIC_MODES",
    "ScaleTier",
    "active_tier",
    "set_default_tier",
    "set_default_traffic",
    "tier_names",
]
