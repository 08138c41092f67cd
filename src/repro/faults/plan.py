"""Fault plans: declarative descriptions of what to inject, where.

The paper's §4.3 and Appendix B identify page faults as the dominant
failure mode of DSA offload — BLOCK_ON_FAULT stalls the engine for the
full fault-service latency, BOF=0 hands software a partially completed
descriptor — and the guidelines (G5) follow directly: touch or pin
pages before offloading.  Reproducing those corner paths on purpose
requires *deterministic* fault injection, which is what a
:class:`FaultPlan` describes:

* **page faults** — per-page-translation probability and/or scripted
  virtual addresses, each minor (page-cache resident) or major (backing
  store) with its own service latency;
* **ATC shoot-downs** — flush the device translation cache every N
  translations (TLB-shootdown / unmap traffic from the owning process);
* **SWQ congestion bursts** — bounce ENQCMD submissions as if the
  shared queue were full, in configurable bursts;
* **device resets** — transient disable windows during which dispatched
  descriptors abort with ``DEVICE_DISABLED``.

Every stochastic choice draws from streams derived from a single seed
(``None`` resolves to the run seed, ``RunConfig.seed``), so a
``--jobs N`` run injects exactly the same faults as a serial one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class FaultKind(enum.Enum):
    """Service class of an injected page fault."""

    MINOR = "minor"  # page resident, just needs a mapping (no IO)
    MAJOR = "major"  # page must be read from backing store


@dataclass(frozen=True)
class FaultPlan:
    """One experiment's (or test's) injection schedule."""

    #: Seed for every injection stream; ``None`` uses the installed
    #: run seed so serial and parallel runs inject identically.
    seed: Optional[int] = None

    # -- page faults -------------------------------------------------------
    #: Probability that any single page translation is turned into a
    #: fault (drawn once per device translation of that page).
    page_fault_rate: float = 0.0
    #: Of the injected faults, the fraction serviced as *major* faults.
    major_fault_fraction: float = 0.0
    #: When True a given (PASID, page) faults at most once — the model
    #: of "software touched the page after the first fault"; when False
    #: every translation redraws (sustained fault pressure).
    fault_once_per_page: bool = False
    #: Virtual addresses whose containing page faults on its next
    #: translation, once each (scripted offsets for regression tests).
    scripted_vas: Tuple[int, ...] = ()
    #: OS service time of an injected minor fault (ns); matches the
    #: IOMMU's recoverable-fault latency by default.
    minor_fault_ns: float = 15_000.0
    #: OS service time of an injected major fault (ns).
    major_fault_ns: float = 250_000.0

    # -- ATC shoot-downs ---------------------------------------------------
    #: Flush the device ATC every N translations (0 disables).
    atc_shootdown_every: int = 0

    # -- SWQ congestion ----------------------------------------------------
    #: Probability that an ENQCMD to a shared WQ is bounced with a
    #: retry status regardless of actual occupancy.
    swq_reject_rate: float = 0.0
    #: Consecutive rejections per congestion burst (>= 1).
    swq_burst_length: int = 1

    # -- transient device resets -------------------------------------------
    #: Simulation times (ns) at which the device goes down transiently.
    device_reset_at: Tuple[float, ...] = ()
    #: Length of each reset window: descriptors dispatched inside
    #: ``[t, t + window)`` abort with ``DEVICE_DISABLED``.
    device_reset_window_ns: float = 10_000.0

    def validate(self) -> None:
        if not 0.0 <= self.page_fault_rate <= 1.0:
            raise ValueError(f"page_fault_rate must be in [0, 1]: {self.page_fault_rate}")
        if not 0.0 <= self.major_fault_fraction <= 1.0:
            raise ValueError(
                f"major_fault_fraction must be in [0, 1]: {self.major_fault_fraction}"
            )
        if self.minor_fault_ns < 0 or self.major_fault_ns < 0:
            raise ValueError("fault service latencies must be non-negative")
        if self.atc_shootdown_every < 0:
            raise ValueError(f"atc_shootdown_every must be >= 0: {self.atc_shootdown_every}")
        if not 0.0 <= self.swq_reject_rate <= 1.0:
            raise ValueError(f"swq_reject_rate must be in [0, 1]: {self.swq_reject_rate}")
        if self.swq_burst_length < 1:
            raise ValueError(f"swq_burst_length must be >= 1: {self.swq_burst_length}")
        if self.device_reset_window_ns <= 0:
            raise ValueError(
                f"device_reset_window_ns must be positive: {self.device_reset_window_ns}"
            )
        if any(t < 0 for t in self.device_reset_at):
            raise ValueError("device_reset_at times must be non-negative")
        if any(va < 0 for va in self.scripted_vas):
            raise ValueError("scripted_vas must be non-negative addresses")

    @property
    def injects_anything(self) -> bool:
        """False for the all-zero plan (injection fully disabled)."""
        return bool(
            self.page_fault_rate > 0.0
            or self.scripted_vas
            or self.atc_shootdown_every > 0
            or self.swq_reject_rate > 0.0
            or self.device_reset_at
        )

    def service_latency_ns(self, kind: FaultKind) -> float:
        return self.major_fault_ns if kind is FaultKind.MAJOR else self.minor_fault_ns
