"""Software baseline kernels (glibc / ISA-L class) — cost + behaviour.

The paper's baselines are "highly optimized software libraries"
(§4.1): glibc ``memcpy``, ISA-L CRC32, AVX-512 compare/fill.  Each
kernel is modelled as::

    time(size) = base + size / bandwidth(location)

with separate streaming bandwidths for DRAM-resident and LLC-resident
data, calibrated per kernel so the paper's crossovers land where
published (sync ~4 KB, async ~256 B; DESIGN.md §3).  Software kernels
also *pollute the LLC* — running one allocates its streams into the
cache, which is the entire mechanism behind Figs 12 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.dsa.opcodes import Opcode
from repro.mem.cache import SharedLLC


@dataclass(frozen=True)
class SwKernelParams:
    """Cost model of one software kernel on one core."""

    base_ns: float
    dram_bandwidth: float  # GB/s, streams resident in DRAM
    llc_bandwidth: float  # GB/s, streams resident in the LLC
    #: Bytes of LLC the kernel allocates per payload byte (pollution).
    cache_footprint_factor: float = 1.0

    def time(self, size: int, in_llc: bool = False) -> float:
        if size < 0:
            raise ValueError(f"negative size: {size}")
        bandwidth = self.llc_bandwidth if in_llc else self.dram_bandwidth
        return self.base_ns + size / bandwidth


#: Calibrated single-core kernels (cold data unless noted).
DEFAULT_KERNELS: Dict[Opcode, SwKernelParams] = {
    # glibc memcpy: ~12 GB/s single-core DRAM-to-DRAM copy (cold data,
    # caches flushed between iterations as in §4.1); reads and writes
    # both allocate -> 2 bytes of LLC per byte copied.
    Opcode.MEMMOVE: SwKernelParams(60.0, 12.0, 45.0, cache_footprint_factor=2.0),
    # Two separate destination streams.
    Opcode.DUALCAST: SwKernelParams(55.0, 8.0, 30.0, cache_footprint_factor=3.0),
    # Allocating (regular store) fill.
    Opcode.FILL: SwKernelParams(30.0, 11.0, 50.0, cache_footprint_factor=1.0),
    # memcmp streams two sources.
    Opcode.COMPARE: SwKernelParams(40.0, 7.0, 35.0, cache_footprint_factor=2.0),
    Opcode.COMPARE_PATTERN: SwKernelParams(35.0, 13.0, 55.0, cache_footprint_factor=1.0),
    # ISA-L CRC32 (PCLMULQDQ): compute-capable beyond DRAM speed.
    Opcode.CRCGEN: SwKernelParams(50.0, 13.0, 22.0, cache_footprint_factor=1.0),
    Opcode.COPY_CRC: SwKernelParams(60.0, 9.0, 18.0, cache_footprint_factor=2.0),
    # Word-wise diff of two buffers.
    Opcode.CREATE_DELTA: SwKernelParams(60.0, 6.5, 25.0, cache_footprint_factor=2.0),
    Opcode.APPLY_DELTA: SwKernelParams(50.0, 10.0, 40.0, cache_footprint_factor=1.0),
    # Software DIF: CRC16 per block plus copy.
    Opcode.DIF_CHECK: SwKernelParams(55.0, 9.0, 16.0, cache_footprint_factor=1.0),
    Opcode.DIF_INSERT: SwKernelParams(60.0, 8.0, 14.0, cache_footprint_factor=2.0),
    Opcode.DIF_STRIP: SwKernelParams(55.0, 9.0, 16.0, cache_footprint_factor=2.0),
    Opcode.DIF_UPDATE: SwKernelParams(65.0, 7.0, 13.0, cache_footprint_factor=2.0),
    Opcode.CACHE_FLUSH: SwKernelParams(30.0, 28.0, 60.0, cache_footprint_factor=0.0),
}

#: Non-temporal (streaming-store) fill: no allocation, higher bandwidth.
NT_FILL = SwKernelParams(30.0, 20.0, 20.0, cache_footprint_factor=0.0)


class SoftwareKernels:
    """The software counterpart library used by every baseline."""

    def __init__(self, kernels: Optional[Dict[Opcode, SwKernelParams]] = None):
        self.kernels = dict(DEFAULT_KERNELS)
        if kernels:
            self.kernels.update(kernels)

    def params(self, opcode: Opcode) -> SwKernelParams:
        if opcode not in self.kernels:
            raise KeyError(f"no software kernel for {opcode!r}")
        return self.kernels[opcode]

    def time(self, opcode: Opcode, size: int, in_llc: bool = False) -> float:
        """Execution time (ns) of the software kernel on one core."""
        return self.params(opcode).time(size, in_llc=in_llc)

    def memcpy_ns(self, size: int, in_llc: bool = False) -> float:
        return self.time(Opcode.MEMMOVE, size, in_llc=in_llc)

    def memset_ns(self, size: int, in_llc: bool = False, non_temporal: bool = False) -> float:
        if non_temporal:
            return NT_FILL.time(size, in_llc=in_llc)
        return self.time(Opcode.FILL, size, in_llc=in_llc)

    def memcmp_ns(self, size: int, in_llc: bool = False) -> float:
        return self.time(Opcode.COMPARE, size, in_llc=in_llc)

    def pollute(
        self,
        llc: SharedLLC,
        agent: str,
        opcode: Opcode,
        size: int,
        now: float = 0.0,
        max_occupancy: Optional[float] = None,
    ) -> float:
        """Charge the kernel's LLC allocation (the Fig 12/13 mechanism)."""
        footprint = self.params(opcode).cache_footprint_factor * size
        if footprint <= 0:
            return 0.0
        return llc.touch(agent, footprint, max_occupancy=max_occupancy, now=now)

    def throughput(self, opcode: Opcode, size: int, in_llc: bool = False) -> float:
        """Payload GB/s of back-to-back kernel invocations."""
        return size / self.time(opcode, size, in_llc=in_llc)
