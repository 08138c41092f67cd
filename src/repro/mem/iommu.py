"""IOMMU model: device-side address translation and page-fault service.

DSA's shared-virtual-memory support (paper §3.2, F1) rests on the
IOMMU: the device's ATC sends translation requests tagged with a PASID;
on an IOTLB miss the IOMMU walks the process page table, and on an
unmapped page it raises a recoverable page fault serviced by the OS.
The three cost tiers (IOTLB hit, table walk, page fault) are what this
model provides.  :meth:`Iommu.translate` walks a batch of pages (the
device ATC's misses for one range) in one pass and books its counters
once; translating one page is the one-element case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.mem.pagetable import PageTable
from repro.mem.tlb import Tlb


@dataclass(frozen=True)
class IommuParams:
    """Latency parameters of the translation path (ns)."""

    iotlb_entries: int = 256
    iotlb_hit_latency: float = 10.0
    #: Added on top of the page-table's own walk latency.
    walk_overhead: float = 30.0
    #: OS service time for a recoverable (ATS) page fault.
    page_fault_latency: float = 15_000.0


class Iommu:
    """Translation agent shared by all devices on a socket."""

    def __init__(self, params: IommuParams = IommuParams()):
        self.params = params
        self._tables: Dict[int, PageTable] = {}
        self._iotlbs: Dict[int, Tlb] = {}
        self.translations = 0
        self.page_faults = 0
        self._m_translations = None
        self._m_iotlb_misses = None
        self._m_page_faults = None

    def attach_metrics(self, registry, prefix: str = "iommu") -> None:
        """Publish live counters into ``registry`` under ``prefix``.

        The IOMMU is constructed clock-free, so the owning
        :class:`~repro.mem.system.MemorySystem` wires metrics in after
        the fact (see ``docs/OBSERVABILITY.md`` for the names).
        """
        self._m_translations = registry.counter(f"{prefix}.translations")
        self._m_iotlb_misses = registry.counter(f"{prefix}.iotlb_misses")
        self._m_page_faults = registry.counter(f"{prefix}.page_faults")

    def attach(self, pasid: int, table: PageTable) -> None:
        """Register a process address space (PASID) with the IOMMU."""
        if pasid in self._tables:
            raise ValueError(f"PASID {pasid} already attached")
        self._tables[pasid] = table
        self._iotlbs[pasid] = Tlb(self.params.iotlb_entries, table.page_size)

    def detach(self, pasid: int) -> None:
        self._tables.pop(pasid, None)
        self._iotlbs.pop(pasid, None)

    def is_attached(self, pasid: int) -> bool:
        return pasid in self._tables

    def table(self, pasid: int) -> PageTable:
        """The page table attached under ``pasid``; KeyError if none."""
        table = self._tables.get(pasid)
        if table is None:
            raise KeyError(f"PASID {pasid} not attached to IOMMU")
        return table

    def walk_latency(self, table: PageTable) -> float:
        """An IOTLB miss: the lookup, the walk overhead and the table walk."""
        params = self.params
        return params.iotlb_hit_latency + params.walk_overhead + table.walk_latency

    def fault_latency(self, table: PageTable, service_fault: bool = True) -> float:
        """A faulting page: the walk, plus the OS fault service when serviced.

        An unserviced (BOF=0) fault is only discovered, so it costs the
        walk alone.
        """
        latency = self.walk_latency(table)
        if service_fault:
            latency += self.params.page_fault_latency
        return latency

    def translate(
        self, pasid: int, vpns: Sequence[int], service_fault: bool = True
    ) -> Tuple[float, List[int]]:
        """Walk the IOTLB and page table for pages ``vpns`` in order.

        Returns ``(latency of vpns[0], the vpns that faulted)``; every
        other page costs an IOTLB hit, a walk (:meth:`walk_latency`) or
        a fault (:meth:`fault_latency`).  Translating one page is the
        one-element case.  A page faults when it is not yet mapped
        (e.g. a non-prefaulted buffer).  With ``service_fault`` (the
        default, matching BLOCK_ON_FAULT=1) the OS services the fault
        inline: the page is mapped, the full fault latency is charged,
        and the IOTLB is filled.  With ``service_fault=False`` (the
        BOF=0 path) the walk stops at the first fault, which is only
        *discovered*: the walk latency is charged, the page stays
        unmapped, and nothing is cached — so a later retry after
        software touches the page faults no more.

        Counters are booked once per call, not once per page.
        """
        table = self.table(pasid)
        if not vpns:
            return 0.0, []
        mapping = table._mapping
        # A cached translation is always mapped (pages are never
        # unmapped), so only IOTLB misses can fault.
        hits, walked = self._iotlbs[pasid].access(
            vpns, None if service_fault else mapping
        )
        faulted = [vpn for vpn in walked if vpn not in mapping]
        if not walked or walked[0] != vpns[0]:
            first_latency = self.params.iotlb_hit_latency
        elif faulted and faulted[0] == vpns[0]:
            first_latency = self.fault_latency(table, service_fault)
        else:
            first_latency = self.walk_latency(table)
        if service_fault:
            page = table.page_size
            for vpn in faulted:
                # The OS services the fault: demand-map the page.
                table.translate(vpn * page)
        self.translations += hits + len(walked)
        if self._m_translations is not None:
            self._m_translations.add(hits + len(walked))
            self._m_iotlb_misses.add(len(walked))
        if faulted:
            self.page_faults += len(faulted)
            if self._m_page_faults is not None:
                self._m_page_faults.add(len(faulted))
        return first_latency, faulted
