"""On-device work queues (dedicated and shared).

A WQ holds submitted descriptors until the group arbiter dispatches
them.  The submission contract mirrors hardware:

* **DWQ** — software owns the queue and must track occupancy; writing a
  descriptor into a full DWQ is a software bug and raises
  :class:`~repro.dsa.errors.SubmissionError`.
* **SWQ** — ENQCMD returns a retry status when the queue is full;
  :meth:`WorkQueue.submit` returns ``False`` and the submitter retries.

Observability: each queue keeps a time-weighted occupancy gauge and
enqueue/reject counters under ``<owner>.wq<id>.*`` in the environment's
metrics registry, and opens a ``queue`` span on the descriptor's trace
track from enqueue until the arbiter dispatches it.

Per-submitter attribution: SWQs are *shared* — hundreds of tenants can
ENQCMD into one queue, and a global reject/retry count cannot say who
a retry storm is punishing.  :meth:`WorkQueue.submit` takes an optional
``source`` tag and :meth:`WorkQueue.record_retries` is the one place
retry counters are named, so both the aggregate family
(``<owner>.wq<id>.enqcmd_retries`` / ``.rejected``) and the per-source
family (``<owner>.wq<id>.source.<tag>.enqcmd_retries`` / ``.rejected``)
stay on the OBSERVABILITY.md naming convention instead of being
re-derived by every submitter.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple, Union, TYPE_CHECKING

from repro.dsa.config import WqConfig, WqMode
from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.errors import SubmissionError
from repro.faults.inject import active_injector
from repro.sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import Counter

Descriptor = Union[WorkDescriptor, BatchDescriptor]


class WorkQueue:
    """Bounded descriptor queue with an enqueue notification hook."""

    __slots__ = (
        "env",
        "config",
        "name",
        "_items",
        "on_enqueue",
        "enqueued",
        "rejected",
        "_m_occupancy",
        "_m_enqueued",
        "_m_rejected",
        "_m_lazy",
    )

    def __init__(self, env: Environment, config: WqConfig, owner: str = "dsa"):
        config.validate()
        self.env = env
        self.config = config
        self.name = f"{owner}.wq{config.wq_id}"
        # deque: pop() drains from the head; list.pop(0) made large-WQ
        # drains quadratic.
        self._items: Deque[Descriptor] = deque()
        #: Set by the owning group; fired on every successful enqueue.
        self.on_enqueue: Optional[Callable[["WorkQueue"], None]] = None
        self.enqueued = 0
        self.rejected = 0
        metrics = env.metrics
        self._m_occupancy = metrics.gauge(f"{self.name}.occupancy")
        self._m_enqueued = metrics.counter(f"{self.name}.enqueued")
        self._m_rejected = metrics.counter(f"{self.name}.rejected")
        #: Counters registered on first use (see :meth:`_counter`), so a
        #: queue that never rejects or retries publishes none of them.
        self._m_lazy: Dict[Tuple[Optional[str], str], Counter] = {}

    @property
    def wq_id(self) -> int:
        return self.config.wq_id

    @property
    def mode(self) -> WqMode:
        return self.config.mode

    @property
    def priority(self) -> int:
        return self.config.priority

    @property
    def size(self) -> int:
        return self.config.size

    @property
    def occupancy(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.config.size

    @property
    def is_empty(self) -> bool:
        return not self._items

    def submit(self, descriptor: Descriptor, source: Optional[str] = None) -> bool:
        """Enqueue one descriptor; semantics depend on the WQ mode.

        ``source`` tags the submitter (a tenant, a core, a runtime
        layer) so rejects are attributable per submitter on a shared
        queue; ``None`` keeps the aggregate-only accounting.
        """
        if self.config.mode is WqMode.SHARED:
            injector = active_injector()
            if injector is not None and injector.swq_reject():
                # Injected congestion: bounce the ENQCMD as if full.
                self.rejected += 1
                self._m_rejected.add()
                self._counter(None, "injected_rejects").add()
                if source is not None:
                    self._counter(source, "rejected").add()
                return False
        if self.is_full:
            self.rejected += 1
            self._m_rejected.add()
            if source is not None:
                self._counter(source, "rejected").add()
            if self.config.mode is WqMode.DEDICATED:
                raise SubmissionError(
                    f"MOVDIR64B to full DWQ {self.wq_id} "
                    f"({self.occupancy}/{self.size} entries) — software must "
                    "track DWQ credits"
                )
            return False  # ENQCMD retry indication
        descriptor.times.submitted = self.env.now
        self._items.append(descriptor)
        self.enqueued += 1
        self._m_enqueued.add()
        self._m_occupancy.update(self.env.now, len(self._items))
        tracer = self.env.tracer
        if tracer.enabled:
            if descriptor.trace_track < 0:
                descriptor.trace_track = tracer.next_track()
            tracer.begin(
                self.env.now, "queued", "queue", self.name, descriptor.trace_track
            )
        if self.on_enqueue is not None:
            self.on_enqueue(self)
        return True

    def record_retries(self, retries: int, source: Optional[str] = None) -> None:
        """Book ``retries`` failed ENQCMDs against this queue.

        The canonical naming choke point for the retry metric family:
        submitters (``repro.runtime.submit``, the traffic load
        generator) call this instead of assembling
        ``<owner>.wq<id>.enqcmd_retries`` strings themselves, and a
        ``source`` tag adds the per-submitter series alongside the
        aggregate.  Zero-retry submissions are free — no counter is
        created.
        """
        if retries <= 0:
            return
        self._counter(None, "enqcmd_retries").add(retries)
        if source is not None:
            self._counter(source, "enqcmd_retries").add(retries)

    def _counter(self, source: Optional[str], leaf: str) -> Counter:
        """``<name>.<leaf>``, or ``<name>.source.<source>.<leaf>``.

        Looked up once per name and kept, so a reject or retry costs a
        dict hit rather than a name build and a registry lookup.
        """
        counter = self._m_lazy.get((source, leaf))
        if counter is None:
            if source is None:
                name = f"{self.name}.{leaf}"
            else:
                name = f"{self.name}.source.{source}.{leaf}"
            counter = self._m_lazy[source, leaf] = self.env.metrics.counter(name)
        return counter

    def pop(self) -> Descriptor:
        """Remove and return the head descriptor (arbiter only)."""
        if not self._items:
            raise RuntimeError(f"pop from empty WQ {self.wq_id}")
        descriptor = self._items.popleft()
        self._m_occupancy.update(self.env.now, len(self._items))
        tracer = self.env.tracer
        if tracer.enabled and descriptor.trace_track >= 0:
            tracer.end(
                self.env.now, "queued", "queue", self.name, descriptor.trace_track
            )
        return descriptor
