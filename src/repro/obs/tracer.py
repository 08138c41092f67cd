"""Event tracing against the simulated clock.

The tracer records *spans* (begin/end pairs) and *instant* events that
components emit while a simulation runs: descriptor lifecycle phases,
translation stalls, waits.  The design goals, in order:

1. **Near-zero cost when disabled.**  Model code holds the tracer in a
   local and checks one attribute (``tracer.enabled``) before building
   argument dicts; the disabled tracer is the :data:`NULL_TRACER`
   singleton whose record methods are pure no-ops.
2. **Simulated time, not wall time.**  Every record method takes the
   timestamp explicitly (callers pass ``env.now``), so one tracer can
   be shared by several :class:`~repro.sim.engine.Environment`
   instances without owning any clock.
3. **Chrome-trace-shaped.**  Events map 1:1 onto the Chrome/Perfetto
   trace-event format (phases ``B``/``E``/``X``/``i``); the exporter in
   :mod:`repro.obs.export` only reshapes, it never infers.

Tracks
------
Spans that belong to one logical timeline (one descriptor's lifecycle,
one core's host-side work) share a *track* — an integer that becomes
the Chrome ``tid``.  Per-descriptor tracks come from
:meth:`Tracer.next_track`; the runtime stamps the track id onto the
descriptor (``descriptor.trace_track``) so device-side components can
keep emitting on the same timeline.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: One recorded event: (phase, ts_ns, name, category, agent, track, args).
#: ``phase`` follows the Chrome trace-event letters: "B" begin, "E" end,
#: "X" complete (with duration stored in args under "_dur"), "i" instant.
TraceRecord = Tuple[str, float, str, str, str, int, Optional[Dict[str, Any]]]

#: Track used for events that belong to no particular timeline.
DEFAULT_TRACK = 0


class Tracer:
    """Append-only in-memory recorder of trace events."""

    __slots__ = ("enabled", "events", "_tracks")

    def __init__(self) -> None:
        self.enabled = True
        self.events: List[TraceRecord] = []
        self._tracks = 0

    def __len__(self) -> int:
        return len(self.events)

    def next_track(self) -> int:
        """A fresh track id (one logical timeline, e.g. one descriptor)."""
        self._tracks += 1
        return self._tracks

    def absorb(self, events: List[TraceRecord]) -> int:
        """Fold records from another tracer in, remapping its track ids.

        The parallel runner collects each worker's event list and folds
        them into the parent tracer here.  Workers number their tracks
        independently from 1, so non-default tracks are shifted past
        every id this tracer has handed out; :data:`DEFAULT_TRACK` stays
        0.  Returns the number of records absorbed.
        """
        offset = self._tracks
        highest = 0
        append = self.events.append
        for phase, ts, name, cat, agent, track, args in events:
            if track:
                if track > highest:
                    highest = track
                track += offset
            append((phase, ts, name, cat, agent, track, args))
        self._tracks = offset + highest
        return len(events)

    # -- record methods --------------------------------------------------
    def begin(
        self,
        ts: float,
        name: str,
        cat: str,
        agent: str = "sim",
        track: int = DEFAULT_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Open a span.  Close it with :meth:`end` (same agent+track)."""
        self.events.append(("B", ts, name, cat, agent, track, args))

    def end(
        self,
        ts: float,
        name: str,
        cat: str,
        agent: str = "sim",
        track: int = DEFAULT_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Close the innermost open span on ``(agent, track)``."""
        self.events.append(("E", ts, name, cat, agent, track, args))

    def complete(
        self,
        ts: float,
        dur: float,
        name: str,
        cat: str,
        agent: str = "sim",
        track: int = DEFAULT_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a finished span ``[ts, ts+dur]`` in one event."""
        merged = dict(args) if args else {}
        merged["_dur"] = dur
        self.events.append(("X", ts, name, cat, agent, track, merged))

    def instant(
        self,
        ts: float,
        name: str,
        cat: str,
        agent: str = "sim",
        track: int = DEFAULT_TRACK,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point-in-time occurrence (fault, retry, drop)."""
        self.events.append(("i", ts, name, cat, agent, track, args))

    def clear(self) -> None:
        self.events.clear()

    # -- streaming-reader surface ----------------------------------------
    @property
    def spilled_records(self) -> int:
        """Records no longer held in memory (0 for the in-memory tracer)."""
        return 0

    @property
    def spilled_bytes(self) -> int:
        return 0

    def iter_records(self) -> Iterator[TraceRecord]:
        """All records in recording order, without copying the store.

        Exporters iterate this instead of touching :attr:`events` so the
        same code path serves both the in-memory tracer and
        :class:`RingTracer` (which interleaves disk shards with its
        ring).
        """
        return iter(self.events)


class RingTracer(Tracer):
    """Bounded-memory tracer: a ring of recent records, shards on disk.

    Records accumulate in an in-memory buffer of at most ``capacity``
    entries; each time the buffer fills, the whole segment is spilled as
    one JSONL shard (``shard-00000.jsonl``, ``shard-00001.jsonl``, …)
    under ``spill_dir`` and the buffer restarts empty.  Memory is
    therefore O(capacity) regardless of run length, while
    :meth:`iter_records` still replays the *complete* record stream —
    shards first (parsed one line at a time), then the live tail — so
    the Chrome-trace exporter never materializes the spilled part.

    ``spill_dir`` defaults to a fresh temporary directory; call
    :meth:`cleanup` (or :meth:`clear`) when the trace has been exported.
    Args dicts are serialized with ``default=str``, so a stray non-JSON
    value degrades to its string form instead of losing the record.
    """

    __slots__ = ("capacity", "spill_dir", "_owns_spill_dir", "_shards", "_spilled", "_spilled_bytes")

    #: Default ring capacity (records) for ``--trace-buffer``-less use.
    DEFAULT_CAPACITY = 1 << 18

    def __init__(self, capacity: int = DEFAULT_CAPACITY, spill_dir: Optional[str] = None):
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = int(capacity)
        self._owns_spill_dir = spill_dir is None
        self.spill_dir = (
            tempfile.mkdtemp(prefix="repro-trace-") if spill_dir is None else str(spill_dir)
        )
        self._shards: List[str] = []
        self._spilled = 0
        self._spilled_bytes = 0

    def __len__(self) -> int:
        return self._spilled + len(self.events)

    @property
    def spilled_records(self) -> int:
        return self._spilled

    @property
    def spilled_bytes(self) -> int:
        return self._spilled_bytes

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    def _flush_segment(self) -> None:
        os.makedirs(self.spill_dir, exist_ok=True)
        path = os.path.join(self.spill_dir, f"shard-{len(self._shards):05d}.jsonl")
        dumps = json.dumps
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.events:
                fh.write(dumps(record, default=str))
                fh.write("\n")
            self._spilled_bytes += fh.tell()
        self._shards.append(path)
        self._spilled += len(self.events)
        self.events.clear()

    def _append(self, record: TraceRecord) -> None:
        self.events.append(record)
        if len(self.events) >= self.capacity:
            self._flush_segment()

    # The four record methods are re-implemented (not wrapped) so the
    # traced hot path stays one call deep, same as the base tracer.
    def begin(self, ts, name, cat, agent="sim", track=DEFAULT_TRACK, args=None) -> None:  # noqa: D102
        self._append(("B", ts, name, cat, agent, track, args))

    def end(self, ts, name, cat, agent="sim", track=DEFAULT_TRACK, args=None) -> None:  # noqa: D102
        self._append(("E", ts, name, cat, agent, track, args))

    def complete(self, ts, dur, name, cat, agent="sim", track=DEFAULT_TRACK, args=None) -> None:  # noqa: D102
        merged = dict(args) if args else {}
        merged["_dur"] = dur
        self._append(("X", ts, name, cat, agent, track, merged))

    def instant(self, ts, name, cat, agent="sim", track=DEFAULT_TRACK, args=None) -> None:  # noqa: D102
        self._append(("i", ts, name, cat, agent, track, args))

    def absorb(self, events: List[TraceRecord]) -> int:
        """Same contract as :meth:`Tracer.absorb`, routed through the ring."""
        offset = self._tracks
        highest = 0
        append = self._append
        for phase, ts, name, cat, agent, track, args in events:
            if track:
                if track > highest:
                    highest = track
                track += offset
            append((phase, ts, name, cat, agent, track, args))
        self._tracks = offset + highest
        return len(events)

    def iter_records(self) -> Iterator[TraceRecord]:
        loads = json.loads
        for path in self._shards:
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    phase, ts, name, cat, agent, track, args = loads(line)
                    yield (phase, ts, name, cat, agent, track, args)
        yield from self.events

    def clear(self) -> None:
        self.events.clear()
        for path in self._shards:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._shards.clear()
        self._spilled = 0
        self._spilled_bytes = 0

    def cleanup(self) -> None:
        """Delete shards (and the spill dir, when this tracer made it)."""
        self.clear()
        if self._owns_spill_dir:
            try:
                os.rmdir(self.spill_dir)
            except OSError:
                pass


class NullTracer(Tracer):
    """Disabled tracer: every record method is a pure no-op.

    Hot paths pay one attribute check (``tracer.enabled``) and, when
    they skip the check for argument-free calls, one empty method call.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()
        self.enabled = False

    def begin(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def end(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def complete(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass

    def instant(self, *args: Any, **kwargs: Any) -> None:  # noqa: D102
        pass


#: Shared disabled tracer; the default for every new Environment.
NULL_TRACER = NullTracer()

_installed: Tracer = NULL_TRACER


def install_tracer(tracer: Tracer) -> None:
    """Make ``tracer`` the default for Environments created afterwards.

    This is how the CLI turns on tracing without threading a tracer
    through every experiment: experiments build their own platforms and
    environments, and each new Environment picks up the installed
    tracer.  Install :data:`NULL_TRACER` (or call
    :func:`uninstall_tracer`) to turn tracing back off.
    """
    global _installed
    _installed = tracer


def uninstall_tracer() -> None:
    global _installed
    _installed = NULL_TRACER


def installed_tracer() -> Tracer:
    """The tracer new Environments default to (NULL_TRACER when off)."""
    return _installed
