"""Operation codes and descriptor flags (paper Table 1).

The numeric values follow the Intel DSA architecture specification's
operation encodings so that descriptors dumped from tests read like the
real thing.
"""

from __future__ import annotations

import enum


class Opcode(enum.IntEnum):
    """DSA operation types supported by this model (Table 1)."""

    NOOP = 0x00
    BATCH = 0x01
    DRAIN = 0x02
    MEMMOVE = 0x03
    FILL = 0x04
    COMPARE = 0x05
    COMPARE_PATTERN = 0x06
    CREATE_DELTA = 0x07
    APPLY_DELTA = 0x08
    DUALCAST = 0x09
    CRCGEN = 0x10
    COPY_CRC = 0x11
    DIF_CHECK = 0x12
    DIF_INSERT = 0x13
    DIF_STRIP = 0x14
    DIF_UPDATE = 0x15
    CACHE_FLUSH = 0x20

    @property
    def reads_source(self) -> bool:
        return self not in (Opcode.NOOP, Opcode.DRAIN, Opcode.FILL, Opcode.CACHE_FLUSH)

    @property
    def writes_destination(self) -> bool:
        return self in (
            Opcode.MEMMOVE,
            Opcode.FILL,
            Opcode.CREATE_DELTA,
            Opcode.APPLY_DELTA,
            Opcode.DUALCAST,
            Opcode.COPY_CRC,
            Opcode.DIF_INSERT,
            Opcode.DIF_STRIP,
            Opcode.DIF_UPDATE,
        )

    @property
    def dual_source(self) -> bool:
        """Operations reading two source streams."""
        return self in (Opcode.COMPARE, Opcode.CREATE_DELTA)


class DescriptorFlags(enum.IntFlag):
    """Subset of descriptor flag bits the model honours."""

    NONE = 0
    #: Request a completion record write (almost always set).
    REQUEST_COMPLETION = 1 << 0
    #: Cache control: steer destination writes into the LLC (G3).
    CACHE_CONTROL = 1 << 1
    #: Fence: wait for prior descriptors in the batch before starting.
    FENCE = 1 << 2
    #: Block on page fault instead of partial completion.
    BLOCK_ON_FAULT = 1 << 3
    #: Raise an interrupt on completion (vs. polled record only).
    COMPLETION_INTERRUPT = 1 << 4


#: Plain-int masks for the flag tests on the per-descriptor path.
#: ``IntFlag.__and__`` runs through the enum machinery (about 1.5 µs a
#: test); ``int(flags) & MASK`` is a plain int operation.
FLAG_CACHE_CONTROL = int(DescriptorFlags.CACHE_CONTROL)
FLAG_FENCE = int(DescriptorFlags.FENCE)
FLAG_BLOCK_ON_FAULT = int(DescriptorFlags.BLOCK_ON_FAULT)


#: Transfer-size ceiling per descriptor (DSA spec allows 2^32-1; the
#: utility default is far smaller, this is the model's sanity bound).
MAX_TRANSFER_SIZE = 2**31

#: Maximum descriptors a batch descriptor may reference.
MAX_BATCH_SIZE = 1024

#: Fill/compare-pattern patterns are 8 bytes wide.
PATTERN_BYTES = 8

#: Operations whose partial progress is a usable prefix: software may
#: resume them from ``bytes_completed`` after a BOF=0 page fault.
#: Result-accumulating operations (compare, CRC, delta, DIF) must be
#: restarted from offset 0 instead (DSA spec §"partial completion").
RESUMABLE_OPCODES = frozenset({Opcode.MEMMOVE, Opcode.FILL, Opcode.DUALCAST})
