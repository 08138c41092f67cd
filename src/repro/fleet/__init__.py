"""Fleet-scale multi-device scheduling with failover.

Generalizes the DML layer's single-list round robin into a scheduler
over a ``sockets × devices_per_socket`` device fleet: pluggable
placement policies (:mod:`repro.fleet.policy`), driver-notified device
loss with re-route accounting (:mod:`repro.fleet.scheduler`), the
``--fleet`` topology knob (:mod:`repro.fleet.topology`), and the
closed-loop measurement harness (:mod:`repro.fleet.harness`) the
``fleet-scaling`` experiment and ``scripts/bench_fleet.py`` drive.
"""

from repro.fleet.harness import FleetConfig, FleetResult, run_fleet
from repro.fleet.policy import (
    POLICIES,
    LeastLoadedPolicy,
    NumaLocalPolicy,
    PlacementPolicy,
    RoundRobinPolicy,
    make_policy,
    policy_names,
)
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.topology import (
    DEFAULT_FLEET,
    FleetSpec,
    active_fleet,
    parse_fleet,
    set_default_fleet,
    set_default_placement,
)

__all__ = [
    "FleetConfig",
    "FleetResult",
    "run_fleet",
    "PlacementPolicy",
    "RoundRobinPolicy",
    "NumaLocalPolicy",
    "LeastLoadedPolicy",
    "POLICIES",
    "policy_names",
    "make_policy",
    "FleetScheduler",
    "FleetSpec",
    "DEFAULT_FLEET",
    "parse_fleet",
    "set_default_fleet",
    "set_default_placement",
    "active_fleet",
]
