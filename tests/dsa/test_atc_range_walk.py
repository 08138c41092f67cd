"""Differential test: the ATC range walk against page-at-a-time translation.

``DeviceAtc`` translates a descriptor's operand as one range walk (one
ATC pass, one batched IOMMU walk).  The oracle below is the page-at-a-
time logic it replaced (including the one-page IOTLB lookup and fill),
kept verbatim apart from taking the ATC, the IOMMU and the IOTLB as
arguments.  Both are driven through the same random sequences
of ranges, and every observable — returned tuples, LRU order of both
caches, page-table mappings, counters and the metrics snapshot — must
match exactly.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.dsa.atc import DeviceAtc
from repro.faults.inject import FaultInjector, active_injector, injection
from repro.faults.plan import FaultPlan
from repro.mem.iommu import Iommu, IommuParams
from repro.mem.pagetable import PAGE_2M, PAGE_4K, PageTable
from repro.obs.metrics import MetricsRegistry

PASIDS = (1, 2)


# -- oracle: page-at-a-time translation ------------------------------------------


def oracle_tlb_lookup(tlb, va):
    vpn = va // tlb.page_size
    if vpn in tlb._cache:
        tlb._cache.move_to_end(vpn)
        tlb.hits += 1
        return True
    tlb.misses += 1
    return False


def oracle_tlb_fill(tlb, va):
    vpn = va // tlb.page_size
    if vpn in tlb._cache:
        tlb._cache.move_to_end(vpn)
        return
    if len(tlb._cache) >= tlb.entries:
        tlb._cache.popitem(last=False)
    tlb._cache[vpn] = True


def oracle_iommu_translate(iommu, pasid, va, service_fault=True):
    table = iommu._tables.get(pasid)
    if table is None:
        raise KeyError(f"PASID {pasid} not attached to IOMMU")
    iommu.translations += 1
    if iommu._m_translations is not None:
        iommu._m_translations.add()
    iotlb = iommu._iotlbs[pasid]
    if oracle_tlb_lookup(iotlb, va):
        return iommu.params.iotlb_hit_latency, False
    if iommu._m_iotlb_misses is not None:
        iommu._m_iotlb_misses.add()
    latency = iommu.params.iotlb_hit_latency + iommu.params.walk_overhead
    mapped_before = table.is_mapped(va)
    faulted = not mapped_before
    if faulted:
        iommu.page_faults += 1
        if iommu._m_page_faults is not None:
            iommu._m_page_faults.add()
        if not service_fault:
            return latency + table.walk_latency, True
    _pa, _minor = table.translate(va)
    latency += table.walk_latency
    if faulted:
        latency += iommu.params.page_fault_latency
    oracle_tlb_fill(iotlb, va)
    return latency, faulted


def oracle_atc_translate(atc, pasid, va, service_fault=True):
    page_size = atc.iommu._tables[pasid].page_size
    injector = active_injector()
    if injector is not None and injector.shootdown_due():
        atc.flush()
        atc._count("shootdowns")
    key = (pasid, va // page_size)
    if injector is not None:
        kind = injector.page_fault(pasid, va, page_size)
        if kind is not None:
            atc._cache.pop(key, None)
            atc.misses += 1
            if atc._m_misses is not None:
                atc._m_misses.add()
            atc._count("injected_faults")
            walk = (
                atc.iommu.params.iotlb_hit_latency
                + atc.iommu.params.walk_overhead
                + atc.iommu._tables[pasid].walk_latency
            )
            if not service_fault:
                return atc.hit_latency + walk, True
            latency = walk + injector.service_latency_ns(kind)
            if len(atc._cache) >= atc.entries:
                atc._cache.popitem(last=False)
            atc._cache[key] = True
            return atc.hit_latency + latency, True
    if key in atc._cache:
        atc._cache.move_to_end(key)
        atc.hits += 1
        if atc._m_hits is not None:
            atc._m_hits.add()
        return atc.hit_latency, False
    atc.misses += 1
    if atc._m_misses is not None:
        atc._m_misses.add()
    latency, faulted = oracle_iommu_translate(atc.iommu, pasid, va, service_fault)
    if faulted and not service_fault:
        return atc.hit_latency + latency, True
    if len(atc._cache) >= atc.entries:
        atc._cache.popitem(last=False)
    atc._cache[key] = True
    return atc.hit_latency + latency, faulted


def oracle_translate_range(atc, pasid, va, size):
    if size <= 0:
        return 0.0, 0
    page = atc.iommu._tables[pasid].page_size
    critical, first_fault = oracle_atc_translate(atc, pasid, va)
    faults = int(first_fault)
    cursor = (va // page + 1) * page
    while cursor < va + size:
        latency, faulted = oracle_atc_translate(atc, pasid, cursor)
        if faulted:
            critical += latency
            faults += 1
        cursor += page
    return critical, faults


def oracle_translate_range_partial(atc, pasid, va, size):
    if size <= 0:
        return 0.0, 0, None
    page = atc.iommu._tables[pasid].page_size
    critical, first_fault = oracle_atc_translate(atc, pasid, va, service_fault=False)
    if first_fault:
        return critical, 1, va
    cursor = (va // page + 1) * page
    while cursor < va + size:
        latency, faulted = oracle_atc_translate(atc, pasid, cursor, service_fault=False)
        if faulted:
            return critical + latency, 1, cursor
        cursor += page
    return critical, 0, None


# -- harness ---------------------------------------------------------------------


def build_world(page_size, atc_entries, iotlb_entries, prefaulted):
    registry = MetricsRegistry()
    # Latencies that are not whole numbers, so that summing page stalls
    # in a different order would change the float result.
    iommu = Iommu(
        IommuParams(
            iotlb_entries=iotlb_entries,
            iotlb_hit_latency=10.3,
            walk_overhead=30.7,
            page_fault_latency=15_000.1,
        )
    )
    iommu.attach_metrics(registry)
    for pasid in PASIDS:
        table = PageTable(page_size)
        for va, size in prefaulted:
            table.map_range(va, size)
        iommu.attach(pasid, table)
    atc = DeviceAtc(iommu, entries=atc_entries, hit_latency=8.1, metrics=registry, name="atc")
    return atc, registry


def observe(atc, registry):
    iommu = atc.iommu
    return {
        "atc_cache": list(atc._cache),
        "atc_counts": (atc.hits, atc.misses),
        "iommu_counts": (iommu.translations, iommu.page_faults),
        "iotlbs": {p: (list(t._cache), t.hits, t.misses) for p, t in iommu._iotlbs.items()},
        "tables": {
            p: (dict(t._mapping), t.minor_faults, t._next_frame)
            for p, t in iommu._tables.items()
        },
        "metrics": registry.snapshot(),
    }


def run_ops(atc, injector, ops, range_walk):
    results = []
    with injection(injector) if injector is not None else contextlib.nullcontext():
        for pasid, va, size, bof in ops:
            if range_walk:
                if bof:
                    results.append(atc.translate_range(pasid, va, size))
                else:
                    results.append(atc.translate_range_partial(pasid, va, size))
            elif bof:
                results.append(oracle_translate_range(atc, pasid, va, size))
            else:
                results.append(oracle_translate_range_partial(atc, pasid, va, size))
    return results


capacities = st.one_of(st.integers(1, 8), st.just(128))


@st.composite
def scenarios(draw):
    page = draw(st.sampled_from((PAGE_4K, PAGE_2M)))
    span = 24 * page  # addresses stay within a small window so pages repeat
    prefaulted = draw(
        st.lists(
            st.tuples(st.integers(0, span - 1), st.integers(1, 6 * page)), max_size=3
        )
    )
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(PASIDS),
                st.integers(0, span - 1),
                st.one_of(st.just(0), st.integers(1, 10 * page)),
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        )
    )
    plan = draw(
        st.one_of(
            st.none(),
            st.builds(
                FaultPlan,
                seed=st.integers(0, 2**16),
                page_fault_rate=st.sampled_from((0.05, 0.2, 0.5)),
                atc_shootdown_every=st.integers(1, 12),
                major_fault_fraction=st.sampled_from((0.0, 0.5)),
                fault_once_per_page=st.booleans(),
                minor_fault_ns=st.just(14_999.3),
                major_fault_ns=st.just(250_000.7),
            ),
        )
    )
    return page, draw(capacities), draw(capacities), prefaulted, ops, plan


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_range_walk_matches_page_at_a_time(scenario):
    page, atc_entries, iotlb_entries, prefaulted, ops, plan = scenario
    worlds = []
    for range_walk in (False, True):
        atc, registry = build_world(page, atc_entries, iotlb_entries, prefaulted)
        injector = FaultInjector(plan) if plan is not None else None
        results = run_ops(atc, injector, ops, range_walk)
        worlds.append((results, observe(atc, registry)))
    (want_results, want_state), (got_results, got_state) = worlds
    assert got_results == want_results
    assert got_state == want_state


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((PAGE_4K, PAGE_2M)),
    capacities,
    capacities,
    st.lists(st.tuples(st.sampled_from(PASIDS), st.integers(0, 2**33), st.booleans())),
)
def test_single_page_translate_matches_oracle(page, atc_entries, iotlb_entries, calls):
    """``DeviceAtc.translate`` and ``Iommu.translate`` are the one-page case."""
    oracle, oracle_registry = build_world(page, atc_entries, iotlb_entries, [(0, 4 * page)])
    atc, registry = build_world(page, atc_entries, iotlb_entries, [(0, 4 * page)])
    for pasid, va, via_atc in calls:
        if via_atc:
            assert atc.translate(pasid, va) == oracle_atc_translate(oracle, pasid, va)
        else:
            latency, faulted = atc.iommu.translate(pasid, [va // page])
            assert (latency, bool(faulted)) == oracle_iommu_translate(
                oracle.iommu, pasid, va
            )
    assert observe(atc, registry) == observe(oracle, oracle_registry)


@pytest.mark.parametrize(
    "call",
    [
        lambda atc: atc.translate_range(7, 0, 4096),
        lambda atc: atc.translate_range_partial(7, 0, 4096),
        lambda atc: atc.translate(7, 0),
    ],
)
def test_unattached_pasid_names_the_pasid(call):
    atc, _registry = build_world(PAGE_4K, 4, 4, [])
    with pytest.raises(KeyError, match="PASID 7 not attached to IOMMU"):
        call(atc)
