"""Processing engine: the unit that executes work descriptors.

The PE splits descriptor handling into a *serial* stage (dispatch +
descriptor-unit setup, one descriptor at a time) and a *pipelined* data
stage (translation, memory reads, fabric streaming, destination
writes) that overlaps across up to ``read_buffers_per_engine``
descriptors.  This split is what produces the paper's two regimes:

* synchronous offload pays the whole chain per descriptor (the ~4 KB
  crossover of Fig 2a and the break-even of Fig 6a);
* asynchronous offload amortizes everything but the serial stage, so a
  single PE saturates the 30 GB/s fabric at moderate sizes (Figs 3, 4)
  and small transfers scale with more PEs (Fig 7).

Each PE is one callback state machine driven straight off the event
calendar (no generator process, no spawn per descriptor): the serial
stage steps dispatch → setup → read-buffer grant, and each granted
descriptor's :class:`_DataPhase` steps translate → source read → flows
→ write tail → completion write.  Two consecutive delays share one
calendar entry only when no shared state is read or written between
them — translate → source read, and write tail → completion write —
scheduled at ``(now + a) + b`` so every timestamp is bit-identical to
two chained timeouts.  Joins (batch, FENCE, DRAIN) are
:class:`_CountDown` s.  See docs/ARCHITECTURE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.dsa.opcodes import FLAG_FENCE, Opcode, RESUMABLE_OPCODES
from repro.dsa import ops as functional
from repro.faults.inject import active_injector
from repro.mem.address import AddressSpace, Buffer
from repro.mem.system import SAME_NODE_TURNAROUND_NS, TierKind
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dsa.device import DsaDevice
    from repro.dsa.group import Group


@dataclass
class IoDemand:
    """Byte movement a descriptor asks of the memory system.

    Entries are ``(buffer, va, nbytes)``: ``va`` is the descriptor's
    operand address, which may sit *inside* ``buffer`` — a resumed
    BOF=0 clone starts at the fault offset, so translation must cover
    ``[va, va + nbytes)``, not the containing buffer's base.
    """

    reads: List[Tuple[Buffer, int, int]] = field(default_factory=list)
    writes: List[Tuple[Buffer, int, int]] = field(default_factory=list)

    @property
    def read_bytes(self) -> int:
        return sum(nbytes for _buf, _va, nbytes in self.reads)

    @property
    def write_bytes(self) -> int:
        return sum(nbytes for _buf, _va, nbytes in self.writes)

    @property
    def port_bytes(self) -> int:
        """Fabric demand: the larger of the two directions."""
        return max(self.read_bytes, self.write_bytes)


class UnmappedOperand(KeyError):
    """An operand address that no buffer of the descriptor's PASID holds."""

    def __init__(self, va: int):
        super().__init__(f"no buffer contains address {va:#x}")
        self.va = va


def io_demand(work: WorkDescriptor, space: AddressSpace) -> IoDemand:
    """Resolve a descriptor's buffers and compute its byte movement.

    Raises :class:`UnmappedOperand` naming the first operand address
    that resolves to no buffer.
    """
    demand = IoDemand()
    op, size = work.opcode, work.size

    def resolve(va: int) -> Buffer:
        try:
            return space.buffer_at(va)
        except KeyError:
            raise UnmappedOperand(va) from None

    def read(va: int, nbytes: int) -> None:
        if nbytes > 0:
            demand.reads.append((resolve(va), va, nbytes))

    def write(va: int, nbytes: int) -> None:
        if nbytes > 0:
            demand.writes.append((resolve(va), va, nbytes))

    if op in (Opcode.NOOP, Opcode.DRAIN, Opcode.CACHE_FLUSH):
        return demand
    if op in (Opcode.MEMMOVE, Opcode.COPY_CRC):
        read(work.src, size)
        write(work.dst, size)
    elif op is Opcode.DUALCAST:
        read(work.src, size)
        write(work.dst, size)
        write(work.dst2, size)
    elif op is Opcode.FILL:
        write(work.dst, size)
    elif op in (Opcode.COMPARE, Opcode.CREATE_DELTA):
        read(work.src, size)
        read(work.src2, size)
        if op is Opcode.CREATE_DELTA:
            # Delta size is data-dependent; charge an eighth of the
            # source as a representative record (one entry per ~8 chunks).
            write(work.dst, max(1, size // 8))
    elif op is Opcode.APPLY_DELTA:
        read(work.src, max(1, work.delta_size))
        read(work.dst, size)
        write(work.dst, size)
    elif op in (Opcode.COMPARE_PATTERN, Opcode.CRCGEN, Opcode.DIF_CHECK):
        read(work.src, size)
    elif op in (Opcode.DIF_INSERT, Opcode.DIF_STRIP, Opcode.DIF_UPDATE):
        read(work.src, size)
        write(work.dst, size)
    else:  # pragma: no cover - exhaustiveness guard
        raise NotImplementedError(f"no IO profile for {op!r}")
    return demand


class _CountDown:
    """Join on a set of in-flight data phases (replaces ``all_of``).

    ``pending`` counts phases not yet retired; :meth:`wait` parks one
    continuation that runs the moment the last of them retires.
    """

    __slots__ = ("pending", "_then")

    def __init__(self):
        self.pending = 0
        self._then: Optional[Callable[[], None]] = None

    def wait(self, then: Callable[[], None]) -> None:
        """Run ``then`` once nothing is pending — right away if nothing is."""
        if self.pending:
            self._then = then
        else:
            then()

    def retire(self) -> None:
        self.pending -= 1
        if not self.pending and self._then is not None:
            then, self._then = self._then, None
            then()


class ProcessingEngine:
    """One PE: serial descriptor unit + pipelined data movers."""

    def __init__(self, device: "DsaDevice", group: "Group", engine_id: int):
        self.device = device
        self.group = group
        self.engine_id = engine_id
        self.env: Environment = device.env
        timing = device.timing
        buffers = group.config.read_buffers_per_engine or timing.read_buffers_per_engine
        self.read_buffers = Resource(self.env, capacity=buffers)
        self.descriptors_processed = 0
        self.agent = f"{device.name}.pe{engine_id}"
        self._m_data_phases = self.env.metrics.counter(f"{self.agent}.data_phases")
        # Serial-stage state: the WQ descriptor being dispatched, the
        # work descriptor being set up, and the batch being admitted.
        self._descriptor = None
        self._work: Optional[WorkDescriptor] = None
        self._batch: Optional[BatchDescriptor] = None
        self._members: Optional[Iterator[WorkDescriptor]] = None
        self._batch_phases: Optional[_CountDown] = None
        #: Every data phase in flight on this PE (what DRAIN waits on).
        self._phases = _CountDown()
        # Like a process start: the first arbiter request is made once
        # the calendar runs, not at construction.
        self.env.timeout(0.0).callbacks.append(self._next)

    # -- serial stage -----------------------------------------------------------
    def _next(self, _event=None) -> None:
        """The serial stage is idle: ask the arbiter for a WQ descriptor."""
        self.group.arbiter.get().callbacks.append(self._dispatch)

    def _dispatch(self, event: Event) -> None:
        descriptor = event.value
        descriptor.times.dispatched = self.env.now
        self._descriptor = descriptor
        self.env.timeout(self.device.timing.dispatch_ns).callbacks.append(self._dispatched)

    def _dispatched(self, _event) -> None:
        descriptor = self._descriptor
        if not self.device.enabled:
            # The driver disabled the device between enqueue and
            # dispatch (its WQ drain raced this arbiter pop).
            self._abort_reset(descriptor, counter="disable_aborts")
            return
        injector = active_injector()
        if injector is not None and injector.device_reset(self.env.now):
            self._abort_reset(descriptor)
            return
        if isinstance(descriptor, BatchDescriptor):
            self._start_batch(descriptor)
        else:
            self._admit(descriptor)

    def _abort_reset(self, descriptor, counter: str = "reset_aborts") -> None:
        """Transient reset or driver disable: abort mid-flight, drop the ATC.

        Software sees ``DEVICE_DISABLED`` in the completion record and
        is expected to resubmit from scratch (the recovery layer treats
        it as retryable with ``bytes_completed = 0``).
        """
        self.device.atc.flush()
        descriptor.completion.status = StatusCode.DEVICE_DISABLED
        descriptor.completion.bytes_completed = 0
        self.env.metrics.counter(f"{self.device.name}.{counter}").add()
        if self.env.tracer.enabled and descriptor.trace_track >= 0:
            self.env.tracer.instant(
                self.env.now, "device_reset", "execute", self.agent, descriptor.trace_track
            )
        self._write_completion(descriptor, then=self._next)

    def _write_completion(self, descriptor, then: Optional[Callable[[], None]]) -> None:
        """Write ``descriptor``'s record after ``completion_write_ns``, then ``then()``."""
        env = self.env

        def written(_event) -> None:
            descriptor.times.completed = env.now
            self.device._complete(descriptor)
            if then is not None:
                then()

        env.timeout(self.device.timing.completion_write_ns).callbacks.append(written)

    def _start_batch(self, batch: BatchDescriptor) -> None:
        """Batch unit: fetch the descriptor array, then stream it (F2)."""
        timing = self.device.timing
        invalid = batch.validate()
        if invalid is not None:
            batch.completion.status = invalid
            self._write_completion(batch, then=self._next)
            return
        fetch = (
            timing.batch_fetch_base_ns
            + timing.batch_fetch_per_descriptor_ns * len(batch.descriptors)
        )
        tracer = self.env.tracer
        if tracer.enabled and batch.trace_track >= 0:
            tracer.complete(
                self.env.now,
                fetch,
                "batch_fetch",
                "batch",
                self.agent,
                batch.trace_track,
                {"descriptors": len(batch.descriptors)},
            )
        self._batch = batch
        self._members = iter(batch.descriptors)
        self._batch_phases = _CountDown()
        self.env.timeout(fetch).callbacks.append(self._admit_member)

    def _admit_member(self, _event=None) -> None:
        batch = self._batch
        work = next(self._members, None)
        if work is not None:
            work.dispatch_weight = batch.dispatch_weight
            self._admit(work)
            return
        # The engine moves on to the next WQ descriptor; the batch
        # completion is written once every member has retired.
        phases = self._batch_phases
        self._batch = self._batch_phases = None
        phases.wait(partial(self._finish_batch, batch))
        self._next()

    def _finish_batch(self, batch: BatchDescriptor) -> None:
        failed = sum(1 for d in batch.descriptors if not d.completion.status.is_success)
        batch.completion.status = StatusCode.BATCH_FAILED if failed else StatusCode.SUCCESS
        batch.completion.bytes_completed = len(batch.descriptors) - failed
        self._write_completion(batch, then=None)

    def _admit(self, work: WorkDescriptor) -> None:
        """Serial stage: descriptor-unit setup, then a read buffer."""
        self._work = work
        self.env.timeout(self.device.timing.pe_setup_ns).callbacks.append(self._set_up)

    def _set_up(self, _event) -> None:
        work = self._work
        invalid = work.validate()
        if invalid is not None:
            work.completion.status = invalid
            self._write_completion(work, then=self._admitted)
            return
        if work.opcode is Opcode.DRAIN:
            # Drain: complete only after everything already dispatched
            # to this engine has finished.
            self._phases.wait(self._drained)
            return
        if self._batch_phases is not None and int(work.flags) & FLAG_FENCE:
            self._batch_phases.wait(self._request_buffer)
            return
        self._request_buffer()

    def _drained(self) -> None:
        self._work.completion.status = StatusCode.SUCCESS
        self._write_completion(self._work, then=self._admitted)

    def _request_buffer(self) -> None:
        # Stall when the pipeline is full; an uncontended grant costs
        # no calendar entry.
        if self.read_buffers.try_acquire():
            self._launch()
        else:
            self.read_buffers.request().callbacks.append(self._launch)

    def _launch(self, _event=None) -> None:
        """Hand the work descriptor to a data phase; free the serial stage."""
        phase = _DataPhase(self, self._work, self._batch_phases)
        self._phases.pending += 1
        if self._batch_phases is not None:
            self._batch_phases.pending += 1
        self._admitted()
        phase.start()

    def _admitted(self) -> None:
        """Serial stage done with one work descriptor: next member or WQ pop."""
        if self._batch is not None:
            self._admit_member()
        else:
            self._next()

    def _build_flows(self, work: WorkDescriptor, demand: IoDemand):
        """Create the bandwidth flows for one descriptor's data."""
        device = self.device
        env = self.env
        memsys = device.memsys
        llc = memsys.llc
        flows: List[Event] = []
        port_bytes = float(demand.port_bytes)
        write_tail = 0.0

        read_nodes = set()
        for buffer, _va, nbytes in demand.reads:
            if buffer.in_llc:
                continue  # LLC sources don't touch the memory links
            read_nodes.add(buffer.node)
            flows.append(memsys.read_flow(buffer.node, nbytes, device.socket))

        for buffer, _va, nbytes in demand.writes:
            if work.cache_control or buffer.in_llc:
                # G3: allocate the destination into the LLC directly.
                llc.touch(device.agent, nbytes, io=False, now=env.now)
                write_tail = max(write_tail, llc.write_latency)
            elif llc.leaky:
                # Leaky-DMA regime: writes spill to DRAM and the write
                # path stalls the engine (Fig 10's per-device drop).
                port_bytes += nbytes * (device.timing.leaky_write_amplification - 1.0)
                flows.append(memsys.write_flow(buffer.node, nbytes, device.socket))
                write_tail = max(
                    write_tail,
                    memsys.write_latency(
                        buffer.node,
                        device.socket,
                        same_node_as_read=buffer.node in read_nodes,
                    ),
                )
            else:
                # Default DDIO path: absorbed by the LLC's IO ways.
                # Non-DRAM destinations (CXL, PMEM) must still reach
                # their medium, so their write links throttle the flow.
                llc.touch(device.agent, nbytes, io=True, now=env.now)
                node = memsys.node(buffer.node)
                if node.kind is not TierKind.DRAM:
                    flows.append(memsys.write_flow(buffer.node, nbytes, device.socket))
                    write_tail = max(
                        write_tail, memsys.write_latency(buffer.node, device.socket)
                    )
                else:
                    penalty = SAME_NODE_TURNAROUND_NS if buffer.node in read_nodes else 0.0
                    hop, _remote = memsys.topology.crossing_cost(device.socket, buffer.node)
                    write_tail = max(write_tail, llc.write_latency + penalty + hop)

        if port_bytes > 0:
            flows.append(device.port.transfer(port_bytes, weight=work.dispatch_weight))
        return flows, write_tail


class _DataPhase:
    """One descriptor's pipelined data stage, stepped by calendar callbacks.

    Holds a read buffer from grant to retirement.  ``demand`` is the
    descriptor's byte movement — or, after a BOF=0 fault, only the head
    before the faulting page (``fault = (offset, va)``).
    """

    __slots__ = (
        "pe", "work", "batch_phases", "space", "demand", "homes", "fault",
        "traced", "flows_left", "write_tail",
    )

    def __init__(self, pe: ProcessingEngine, work: WorkDescriptor,
                 batch_phases: Optional[_CountDown]):
        self.pe = pe
        self.work = work
        self.batch_phases = batch_phases
        self.homes: Tuple[int, ...] = ()
        self.fault: Optional[Tuple[int, int]] = None

    def start(self) -> None:
        """Resolve operands and translate them (at grant time)."""
        pe = self.pe
        device = pe.device
        env = pe.env
        work = self.work
        tracer = env.tracer
        traced = self.traced = tracer.enabled and work.trace_track >= 0
        agent, track = pe.agent, work.trace_track
        now = env.now
        if traced:
            tracer.begin(now, "translate", "translate", agent, track)
        space = self.space = device.space_for(work.pasid)
        try:
            demand = io_demand(work, space)
        except UnmappedOperand as unmapped:
            # Address not mapped in this PASID's space: the IOMMU
            # reports an unrecoverable translation fault.
            work.completion.status = StatusCode.PAGE_FAULT
            work.completion.fault_address = unmapped.va
            if traced:
                tracer.instant(now, "unmapped_address", "translate", agent, track)
                tracer.end(now, "translate", "translate", agent, track)
            env.timeout(device.timing.completion_write_ns).callbacks.append(self._written)
            return
        # Remote-socket operands translate at their home socket's
        # IOMMU: a UPI round trip plus queueing behind other remote
        # translations (fleet platforms only — see
        # MemorySystem.ats_acquire).
        memsys = device.memsys
        if memsys.model_ats_contention and memsys.topology.sockets > 1:
            homes = {
                memsys.topology.socket_of(buffer.node)
                for buffer, _va, _nbytes in demand.reads + demand.writes
            }
            homes.discard(device.socket)
            self.homes = tuple(sorted(homes))
        ats_ns = memsys.ats_acquire(device.socket, self.homes) if self.homes else 0.0
        translate_ns, total_faults = self._translate(demand)
        translate_ns += ats_ns
        translated = now + translate_ns
        if traced:
            self._trace_translated(translated, total_faults)
        if self.homes:
            # The remote ATS slot is held for the translation window
            # only: its release is shared state, so it gets its own entry.
            env.timeout(translate_ns).callbacks.append(self._translated)
        else:
            self._execute(translated, translate_ns != 0.0)

    def _translate(self, demand: IoDemand) -> Tuple[float, int]:
        """ATC/IOMMU lookups; returns ``(critical-path ns, BOF=1 faults)``.

        The first page is on the critical path.  Page faults stall for
        their full service time (BOF=1) or abort the descriptor with a
        partial completion (BOF=0): then only the head before the
        faulting page moves, and software touches the page and resubmits
        the rest (paper §4.3).  Sets ``demand`` (and ``fault``).
        """
        work = self.work
        atc = self.pe.device.atc
        operands = demand.reads + demand.writes
        translate_ns = 0.0
        total_faults = 0
        if work.block_on_fault:
            for _buffer, va, nbytes in operands:
                latency, faults = atc.translate_range(work.pasid, va, nbytes)
                translate_ns = max(translate_ns, latency)
                total_faults += faults
        else:
            fault_offset = None
            fault_va = None
            for _buffer, va, nbytes in operands:
                latency, faults, first_fault = atc.translate_range_partial(
                    work.pasid, va, nbytes
                )
                translate_ns = max(translate_ns, latency)
                if faults:
                    offset = min(nbytes, max(0, first_fault - va))
                    if fault_offset is None or offset < fault_offset:
                        fault_offset = offset
                        fault_va = first_fault
            if fault_offset is not None:
                self.fault = (fault_offset, fault_va)
                demand = IoDemand(
                    reads=[(b, va, min(n, fault_offset)) for b, va, n in demand.reads],
                    writes=[(b, va, min(n, fault_offset)) for b, va, n in demand.writes],
                ) if fault_offset else IoDemand()
        self.demand = demand
        return translate_ns, total_faults

    def _trace_translated(self, translated: float, total_faults: int) -> None:
        """Close the translate span at ``translated``; open the execute span."""
        work = self.work
        tracer = self.pe.env.tracer
        agent, track = self.pe.agent, work.trace_track
        if self.fault is None:
            tracer.end(
                translated, "translate", "translate", agent, track,
                {"faults": total_faults} if total_faults else None,
            )
            tracer.begin(
                translated, "execute", "execute", agent, track,
                {"opcode": work.opcode.name, "size": work.size},
            )
            return
        fault_offset, fault_va = self.fault
        tracer.instant(translated, "page_fault", "translate", agent, track, {"va": fault_va})
        tracer.end(translated, "translate", "translate", agent, track)
        if fault_offset:
            tracer.begin(
                translated, "execute", "execute", agent, track,
                {"opcode": work.opcode.name, "partial": fault_offset},
            )

    def _translated(self, _event) -> None:
        self.pe.device.memsys.ats_release(self.homes)
        self._execute(self.pe.env.now, False)

    def _execute(self, translated: float, clock_behind: bool) -> None:
        """Schedule the data movement; translation ends at ``translated``.

        ``clock_behind``: the translation delay is still owed (it is
        fused with the source-read latency into one entry).
        """
        pe = self.pe
        device = pe.device
        timing = device.timing
        work = self.work
        if work.opcode is Opcode.CACHE_FLUSH:
            flushed = translated + work.size / timing.cache_flush_bandwidth
            pe.env.timeout_at(flushed + timing.completion_write_ns).callbacks.append(
                self._finish
            )
            return
        # Source access latency (critical path, once per descriptor).
        read_ns = 0.0
        for buffer, _va, _nbytes in self.demand.reads:
            read_ns = max(
                read_ns,
                device.memsys.read_latency(buffer.node, device.socket, in_llc=buffer.in_llc),
            )
        if clock_behind or read_ns:
            pe.env.timeout_at(translated + read_ns).callbacks.append(self._stream)
        else:
            self._stream()

    def _stream(self, _event=None) -> None:
        flows, self.write_tail = self.pe._build_flows(self.work, self.demand)
        if not flows:
            self._streamed()
            return
        self.flows_left = len(flows)
        for flow in flows:
            flow.callbacks.append(self._flow_done)

    def _flow_done(self, _event) -> None:
        self.flows_left -= 1
        if not self.flows_left:
            self._streamed()

    def _streamed(self) -> None:
        """Every flow drained: the write tail and the completion write remain."""
        env = self.pe.env
        tail_end = env.now + self.write_tail
        if self.traced and self.fault is not None and self.fault[0]:
            env.tracer.end(tail_end, "execute", "execute", self.pe.agent, self.work.trace_track)
        env.timeout_at(tail_end + self.pe.device.timing.completion_write_ns).callbacks.append(
            self._finish
        )

    def _finish(self, _event) -> None:
        """Completion-write time: the byte operation, then the record."""
        pe = self.pe
        env = pe.env
        work = self.work
        fault = self.fault
        # The real byte operation runs only when every buffer is backed.
        buffers = [buf for buf, _va, _n in self.demand.reads + self.demand.writes]
        backed = bool(buffers) and all(buffer.backed for buffer in buffers)
        if fault is None:
            if backed:
                functional.execute(work, self.space)
            else:
                work.completion.status = StatusCode.SUCCESS
                work.completion.bytes_completed = work.size
            if self.traced:
                status = None
                if work.opcode is not Opcode.CACHE_FLUSH:
                    status = {"status": work.completion.status.name}
                env.tracer.end(env.now, "execute", "execute", pe.agent, work.trace_track, status)
        else:
            fault_offset, fault_va = fault
            if backed and work.opcode in RESUMABLE_OPCODES:
                functional.execute(work.clone_range(0, fault_offset), self.space)
            work.completion.status = StatusCode.PAGE_FAULT
            work.completion.bytes_completed = fault_offset
            work.completion.fault_address = fault_va
            env.metrics.counter(f"{pe.device.name}.partial_completions").add()
        self._written(None)

    def _written(self, _event) -> None:
        """The completion record is written: publish it and retire."""
        pe = self.pe
        self.work.times.completed = pe.env.now
        pe.device._complete(self.work)
        pe.read_buffers.release()
        pe.descriptors_processed += 1
        pe._m_data_phases.add()
        if self.batch_phases is not None:
            self.batch_phases.retire()
        pe._phases.retire()
