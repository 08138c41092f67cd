"""Scale tiers for the traffic serving mode (SCALE_THRESHOLDS style).

The traffic experiments are the first part of the reproduction whose
interesting regime is *production scale* — hundreds to thousands of
tenants, millions of requests — which no CI budget can afford on every
push.  Instead of quietly shrinking the workload, the scale is an
explicit, documented contract: a small tier that anchors in tier-1 CI,
a medium tier for local calibration, and a large tier a nightly job
runs at the full ~2M-request scale.  ``docs/TRAFFIC.md`` carries the
same table with expected timings.

The tier name (``--tier``) and the ``--traffic`` arrival-process
override (force every tenant to Poisson/bursty/diurnal arrivals) are
fields of :class:`repro.config.RunConfig`; experiments read
:func:`active_tier` and ``active_config().traffic`` — no threading
through ``run(quick=...)`` signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.config import TRAFFIC_MODES, active_config, update

__all__ = [
    "ScaleTier",
    "TIERS",
    "TRAFFIC_MODES",
    "tier_names",
    "set_default_tier",
    "active_tier",
    "set_default_traffic",
]


@dataclass(frozen=True)
class ScaleTier:
    """One row of the scale-threshold table.

    ``requests`` is the total arrival budget *per traffic experiment*
    (split across that experiment's sweep points); ``tenants`` is the
    tenant population the profiles scale to.  ``expected_wall_s`` is
    the documented per-experiment wall-clock guidance the nightly job's
    timeout is derived from — a contract, not a benchmark result.
    """

    name: str
    requests: int
    tenants: int
    expected_wall_s: float
    use_case: str

    def validate(self) -> None:
        if self.requests < 1 or self.tenants < 1:
            raise ValueError(f"tier {self.name}: requests and tenants must be >= 1")


#: The scale-threshold table, keyed by :data:`repro.config.TIER_NAMES`.
#: Keep in sync with docs/TRAFFIC.md.
TIERS: Dict[str, ScaleTier] = {
    "small": ScaleTier(
        name="small",
        requests=10_000,
        tenants=128,
        expected_wall_s=30.0,
        use_case="tier-1 CI: anchor-checked on every push",
    ),
    "medium": ScaleTier(
        name="medium",
        requests=200_000,
        tenants=512,
        expected_wall_s=300.0,
        use_case="local calibration / memory-envelope baseline",
    ),
    "large": ScaleTier(
        name="large",
        requests=2_000_000,
        tenants=2048,
        expected_wall_s=3000.0,
        use_case="nightly job: production-scale tails at constant memory",
    ),
}


def tier_names() -> Tuple[str, ...]:
    return tuple(TIERS)


def set_default_tier(name: str) -> None:
    """Set the run's scale tier (the CLI's ``--tier``)."""
    update(tier=name)


def active_tier() -> ScaleTier:
    """The active tier's row of the table."""
    return TIERS[active_config().tier]


def set_default_traffic(mode: str) -> None:
    """Set the run's arrival override (the CLI's ``--traffic``)."""
    update(traffic=mode)
