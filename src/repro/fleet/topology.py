"""The ``--fleet`` topology knob.

``--fleet SxD --placement P`` are fields of
:class:`repro.config.RunConfig`; fleet-aware layers (the traffic
``drive_profile`` harness, the ``fleet-scaling`` experiment) read them
as one :class:`FleetSpec` via :func:`active_fleet` — no threading
through ``run(quick=...)`` signatures.

A :class:`FleetSpec` is the parameterized topology SCALE-Sim-style
sweeps expand: ``sockets × devices_per_socket`` DSA instances plus the
placement policy name the scheduler instantiates per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import active_config, parse_fleet, update
from repro.fleet.policy import POLICIES

__all__ = [
    "FleetSpec",
    "DEFAULT_FLEET",
    "parse_fleet",
    "set_default_fleet",
    "set_default_placement",
    "active_fleet",
]


@dataclass(frozen=True)
class FleetSpec:
    """One fleet topology: how many devices, where, and how placed."""

    sockets: int = 1
    devices_per_socket: int = 1
    placement: str = "round-robin"

    def __post_init__(self) -> None:
        if self.sockets < 1:
            raise ValueError(f"sockets must be >= 1, got {self.sockets}")
        if self.devices_per_socket < 1:
            raise ValueError(
                f"devices_per_socket must be >= 1, got {self.devices_per_socket}"
            )
        if self.placement not in POLICIES:
            raise ValueError(
                f"unknown placement policy {self.placement!r}; "
                f"choose from {sorted(POLICIES)}"
            )

    @property
    def n_devices(self) -> int:
        return self.sockets * self.devices_per_socket

    @property
    def is_default(self) -> bool:
        """True for the single-device topology (anchors stay byte-identical)."""
        return self == DEFAULT_FLEET

    def key(self) -> str:
        """Stable string form (``"2x4:numa-local"``) for cache salting."""
        return f"{self.sockets}x{self.devices_per_socket}:{self.placement}"

    def socket_of_device(self, index: int) -> int:
        """Home socket of device ``dsa{index}`` (grouped by socket)."""
        return index // self.devices_per_socket


#: The single-device topology every existing experiment anchors against.
DEFAULT_FLEET = FleetSpec()


def set_default_fleet(spec: Optional[str]) -> None:
    """Set the run's fleet topology (the CLI's ``--fleet``).

    ``None`` or ``"1x1"`` restores the default single-device topology.
    The placement policy set earlier is preserved.
    """
    update(fleet="1x1" if spec is None else spec)


def set_default_placement(name: str) -> None:
    """Set the run's placement policy (``--placement``)."""
    update(placement=name)


def active_fleet() -> FleetSpec:
    """The active config's topology and placement as one spec."""
    config = active_config()
    sockets, devices = parse_fleet(config.fleet)
    return FleetSpec(sockets, devices, config.placement)
