"""LRU translation lookaside buffer: the IOMMU's per-PASID IOTLB.

A bounded LRU map from virtual page number to translation, with
hit/miss counting.  :meth:`Tlb.access` is its one operation: it looks
up a batch of pages in order (the IOMMU hands it one range's pages at
a time) and fills each miss.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, List, Optional, Sequence, Tuple


class Tlb:
    """Bounded LRU cache of virtual-page translations."""

    def __init__(self, entries: int, page_size: int):
        if entries < 1:
            raise ValueError(f"entries must be >= 1, got {entries}")
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        self.entries = entries
        self.page_size = page_size
        self._cache: "OrderedDict[int, bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._cache)

    def access(
        self, vpns: Sequence[int], fillable: Optional[Container[int]] = None
    ) -> Tuple[int, List[int]]:
        """Look up ``vpns`` in order; returns ``(hits, missed vpns)``.

        A hit refreshes the page's LRU position.  A miss is filled,
        evicting the least recently used entry when full.  With
        ``fillable``, a miss outside it ends the walk unfilled: it is
        the last page returned, and later pages are not looked up.
        Counters are booked once per call.
        """
        cache = self._cache
        entries = self.entries
        missed: List[int] = []
        hits = 0
        for vpn in vpns:
            if vpn in cache:
                cache.move_to_end(vpn)
                hits += 1
                continue
            missed.append(vpn)
            if fillable is not None and vpn not in fillable:
                break
            if len(cache) >= entries:
                cache.popitem(last=False)
            cache[vpn] = True
        self.hits += hits
        self.misses += len(missed)
        return hits, missed

    def invalidate_all(self) -> None:
        self._cache.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
