"""Device-side address translation cache (ATC).

DSA caches translations locally and falls back to the socket IOMMU on
a miss (paper §3.2).  Entries are keyed by (PASID, virtual page), so
multiple processes share the device without flushes between them (F1).

A descriptor's operand is translated as one range walk: a single pass
over the range's pages against the ATC's LRU, then one batched
:meth:`~repro.mem.iommu.Iommu.translate` call for the pages that
missed, in order.  Only the first page sits on the critical path; the
rest are translated while data streams (Fig 8), unless they fault.
Translating one address is the walk's one-page case.

The ATC is also the natural choke point for deterministic fault
injection (``repro.faults``): inside the same pass every page consults
the active injector, which may turn it into a page fault (minor or
major) or trigger an ATC shoot-down, before the cache lookup runs.
With no injector installed those checks are a single ``None`` test.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.faults.inject import active_injector
from repro.mem.iommu import Iommu

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry


class DeviceAtc:
    """LRU cache of (pasid, vpn) → translation, backed by the IOMMU.

    When the owning device passes a metrics registry, hits and misses
    are also published live as ``<name>.hits`` / ``<name>.misses``;
    injected faults and shoot-downs appear lazily as
    ``<name>.injected_faults`` / ``<name>.shootdowns`` the first time
    one fires, so fault-free runs publish no extra names.
    """

    def __init__(
        self,
        iommu: Iommu,
        entries: int = 128,
        hit_latency: float = 8.0,
        metrics: Optional["MetricsRegistry"] = None,
        name: str = "atc",
    ):
        if entries < 1:
            raise ValueError(f"ATC entries must be >= 1, got {entries}")
        self.iommu = iommu
        self.entries = entries
        self.hit_latency = hit_latency
        self.name = name
        self._cache: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._metrics = metrics
        self._m_hits = metrics.counter(f"{name}.hits") if metrics else None
        self._m_misses = metrics.counter(f"{name}.misses") if metrics else None

    def __len__(self) -> int:
        return len(self._cache)

    def _count(self, suffix: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"{self.name}.{suffix}").add()

    def translate(
        self, pasid: int, va: int, service_fault: bool = True
    ) -> Tuple[float, bool]:
        """Translate one address; ``(latency_ns, faulted)``.

        The one-page case of the range walk: ``service_fault=False``
        models a BOF=0 engine, for which a faulting page is *discovered*
        (walk latency charged) but not serviced — the mapping is not
        created and nothing is cached, so software can touch the page
        and resubmit the remainder.
        """
        latency, faults, _fault_va = self._walk(pasid, va, 1, service_fault)
        return latency, faults > 0

    def translate_range(self, pasid: int, va: int, size: int) -> Tuple[float, int]:
        """Translate a whole transfer's pages in one range walk.

        Returns ``(critical_path_latency, faults)``.  Only the first
        page's translation sits on the critical path; subsequent pages
        are translated while data streams (the reason huge pages barely
        move throughput, Fig 8).  A page fault anywhere stalls the
        engine for its full service time, so every faulting page's
        latency is added.  Pages are looked up in the ATC in address
        order; the misses go to the IOMMU as one batched walk.
        """
        if size <= 0:
            return 0.0, 0
        latency, faults, _fault_va = self._walk(pasid, va, size, True)
        return latency, faults

    def translate_range_partial(
        self, pasid: int, va: int, size: int
    ) -> Tuple[float, int, Optional[int]]:
        """Translate pages until the first fault (BOF=0 semantics).

        Returns ``(critical_path_latency, faults, fault_va)``.  Walks
        the same page sequence as :meth:`translate_range` but stops at
        the first faulting page: that fault is only discovered (walk
        latency on the critical path), the page is left unmapped and
        uncached, and ``fault_va`` is the base address of the faulting
        page (clamped to ``va`` for the first page).  On a fault-free
        range the latency, cache state, and IOMMU state are identical
        to :meth:`translate_range`.
        """
        if size <= 0:
            return 0.0, 0, None
        return self._walk(pasid, va, size, False)

    def _walk(
        self, pasid: int, va: int, size: int, service_fault: bool
    ) -> Tuple[float, int, Optional[int]]:
        """One pass over the pages of ``[va, va+size)``; ``size > 0``.

        Returns ``(critical_path_latency, faults, fault_va)``.  Each
        page consults the active injector (shoot-down, then injected
        fault) and then the ATC's LRU, exactly as page-at-a-time
        translation did; the ATC misses, in order, go to
        :meth:`Iommu.translate` once.  The IOMMU walk changes nothing
        the ATC pass reads (a BOF=0 walk maps no page), so the split
        preserves every cache, table and counter.  A BOF=0 walk
        stops at its first faulting page: an injected fault, or else an
        ATC miss whose page is unmapped.
        """
        iommu = self.iommu
        table = iommu.table(pasid)
        page = table.page_size
        first_vpn = va // page
        injector = active_injector()
        cache = self._cache
        entries = self.entries
        mapping = table._mapping
        misses: List[int] = []
        injected: Dict[int, float] = {}
        fault_vpn = None
        hits = 0
        for vpn in range(first_vpn, (va + size - 1) // page + 1):
            key = (pasid, vpn)
            if injector is not None:
                if injector.shootdown_due():
                    cache.clear()
                    self._count("shootdowns")
                kind = injector.page_fault(pasid, vpn * page, page)
                if kind is not None:
                    # Injected fault: the stale/absent translation forces
                    # a walk that misses; drop any cached entry for the
                    # page.  The IOMMU itself is not consulted.
                    cache.pop(key, None)
                    self._count("injected_faults")
                    if not service_fault:
                        injected[vpn] = self.hit_latency + iommu.fault_latency(
                            table, False
                        )
                        fault_vpn = vpn
                        break
                    injected[vpn] = self.hit_latency + (
                        iommu.walk_latency(table) + injector.service_latency_ns(kind)
                    )
                    if len(cache) >= entries:
                        cache.popitem(last=False)
                    cache[key] = True
                    continue
            if key in cache:
                cache.move_to_end(key)
                hits += 1
                continue
            misses.append(vpn)
            if not service_fault and vpn not in mapping:
                # Unserviced fault: the page stays unmapped, so caching
                # the (absent) translation would be wrong.
                fault_vpn = vpn
                break
            if len(cache) >= entries:
                cache.popitem(last=False)
            cache[key] = True
        missed = len(misses) + len(injected)
        self.hits += hits
        self.misses += missed
        if self._m_hits is not None:
            self._m_hits.add(hits)
            self._m_misses.add(missed)
        first_latency, faulted = iommu.translate(pasid, misses, service_fault)
        hit_latency = self.hit_latency
        if misses and misses[0] == first_vpn:
            critical = hit_latency + first_latency
        elif first_vpn in injected:
            critical = injected[first_vpn]
        else:
            critical = hit_latency
        if fault_vpn is not None:
            # BOF=0: an injected and a discovered fault cost the same walk.
            if fault_vpn == first_vpn:
                return critical, 1, va
            stall = hit_latency + iommu.fault_latency(table, False)
            return critical + stall, 1, fault_vpn * page
        faults = len(injected) + len(faulted)
        if faults:
            # Every fault stalls the engine: add each later faulting
            # page's latency, in page order.
            serviced = hit_latency + iommu.fault_latency(table)
            for vpn in sorted(chain(faulted, injected)):
                if vpn != first_vpn:
                    critical += injected.get(vpn, serviced)
        return critical, faults, None

    def flush(self) -> None:
        """Drop every cached translation (ATC shoot-down / device reset)."""
        self._cache.clear()

    def invalidate_pasid(self, pasid: int) -> None:
        for key in [k for k in self._cache if k[0] == pasid]:
            del self._cache[key]

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
