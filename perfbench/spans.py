"""Layer spans for the traced benchmark run.

The traced run measures where host time goes without editing the
simulator: :func:`instrument` wraps, at run time, the public entry
points at each layer boundary (plus every generator handed to
``Environment.process``) so that each call or process resume becomes a
span.  A span's *self time* is its duration minus the time its child
spans cover; self times are summed per layer in memory, and only a
bounded sample of raw spans is kept for writing out.

Layers are the ``repro`` sub-packages.  A span belongs to the layer
that defines the wrapped function or generator, so a resume of a
``repro.dsa.engine`` process is ``dsa`` time even when ``repro.sim``
dispatched it.  The kernel's own time is the ``Environment.run`` span
minus everything it dispatched.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Every layer a span can be booked to; ``other`` takes the remaining
#: ``repro`` modules (platform, cbdma, analysis, faults, ...) and the
#: benchmark's own code.
LAYERS = (
    "sim", "dsa", "mem", "runtime", "traffic", "obs",
    "workloads", "cpu", "fleet", "exp", "other",
)

_PACKAGE_LAYER = {layer: layer for layer in LAYERS}
_PACKAGE_LAYER["experiments"] = "exp"

#: Raw spans kept for the trace file (the first ones of the run).
SAMPLE_LIMIT = 4096

#: ``(module, class or None, attribute)`` entry points wrapped as spans.
#: A ``None`` class means a module-level generator function: every
#: ``repro`` module that imported it by name is patched too.
BOUNDARIES: Tuple[Tuple[str, Optional[str], str], ...] = (
    ("repro.sim.engine", "Environment", "run"),
    ("repro.dsa.device", "DsaDevice", "submit"),
    ("repro.dsa.wq", "WorkQueue", "submit"),
    ("repro.dsa.wq", "WorkQueue", "pop"),
    ("repro.dsa.atc", "DeviceAtc", "translate_range"),
    ("repro.mem.iommu", "Iommu", "translate"),
    ("repro.mem.system", "MemorySystem", "read_flow"),
    ("repro.mem.system", "MemorySystem", "write_flow"),
    ("repro.mem.link", "FairShareLink", "transfer"),
    # The link's wake-up is a kernel-dispatched callback, not a process:
    # without this span its flow bookkeeping would read as kernel time.
    ("repro.mem.link", "FairShareLink", "_wake"),
    ("repro.runtime.submit", None, "prepare_descriptor"),
    ("repro.runtime.submit", None, "submit"),
    ("repro.runtime.wait", None, "wait_for"),
    ("repro.traffic.slo", "SloAccountant", "offered"),
    ("repro.traffic.slo", "SloAccountant", "dropped"),
    ("repro.traffic.slo", "SloAccountant", "completed"),
    # Counter.add and Gauge.update are left out: they are a few
    # bytecodes each, so a span around them would mostly time itself.
    ("repro.obs.streaming", "StreamingHistogram", "add"),
    ("repro.obs.metrics", "HistogramMetric", "add"),
)

#: Span name of a process resume (one ``send``/``throw`` of its generator).
RESUME = "resume"


def layer_of(module: str) -> str:
    """Layer owning dotted module ``module`` (``repro.dsa.wq`` -> ``dsa``)."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return "other"
    return _PACKAGE_LAYER.get(parts[1], "other")


class SpanRecorder:
    """Nested spans folded into per-layer self time as they close.

    ``clock`` returns integer nanoseconds; tests pass a fake one.  Each
    open span is ``[start, child_ns]`` on a stack: closing it books
    ``duration - child_ns`` to its layer and adds its whole duration to
    the parent's ``child_ns``.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 sample_limit: int = SAMPLE_LIMIT):
        self.clock = clock
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Counter = Counter()
        self.sample_limit = sample_limit
        self.samples: List[dict] = []
        self._stack: List[list] = []
        self._origin = clock()

    def enter(self) -> list:
        frame = [self.clock(), 0, -1]
        if len(self.samples) < self.sample_limit:
            # Reserve the sample slot now so children can name their parent.
            frame[2] = len(self.samples)
            self.samples.append({})
        self._stack.append(frame)
        return frame

    def exit(self, name: str, layer: str, desc: Optional[int] = None) -> None:
        end = self.clock()
        start, child_ns, slot = self._stack.pop()
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            parent_slot = parent[2]
        else:
            parent_slot = -1
        if slot >= 0:
            record = {
                "name": name, "layer": layer, "start_ns": start - self._origin,
                "dur_ns": duration, "parent": parent_slot,
            }
            if desc is not None:
                record["desc"] = desc
            self.samples[slot] = record

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        self.enter()
        try:
            yield
        finally:
            self.exit(name, layer)

    def shares(self) -> Dict[str, float]:
        """Each layer's share of all recorded self time (sums to 1)."""
        total = sum(self.self_ns.values())
        return {layer: (ns / total if total else 0.0) for layer, ns in self.self_ns.items()}

    def write_sample(self, path: str) -> None:
        """Write the bounded raw span sample as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.samples:
                if record:
                    out.write(json.dumps(record) + "\n")


def _descriptor_id(args) -> Optional[int]:
    """Identity of the first descriptor-like argument, for raw samples."""
    for arg in args:
        if hasattr(arg, "completion") and hasattr(arg, "opcode"):
            return id(arg)
    return None


class TracedGenerator:
    """Generator stand-in: every ``send``/``throw`` is one span.

    Works both as a process body (``Process`` only needs ``send`` and
    ``throw``) and under ``yield from``, which also uses ``__next__``
    and ``close``.
    """

    __slots__ = ("_gen", "_rec", "_name", "_layer", "_desc")

    def __init__(self, gen, recorder: SpanRecorder, name: str, layer: str,
                 desc: Optional[int] = None):
        self._gen = gen
        self._rec = recorder
        self._name = name
        self._layer = layer
        self._desc = desc

    @property
    def __name__(self) -> str:
        return self._gen.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        rec = self._rec
        rec.enter()
        try:
            return self._gen.send(value)
        finally:
            rec.exit(self._name, self._layer, self._desc)

    def throw(self, *exc):
        rec = self._rec
        rec.enter()
        try:
            return self._gen.throw(*exc)
        finally:
            rec.exit(self._name, self._layer, self._desc)

    def close(self):
        return self._gen.close()


def _generator_layer(gen) -> str:
    frame = getattr(gen, "gi_frame", None)
    if frame is None:
        return "other"
    return layer_of(frame.f_globals.get("__name__", ""))


class Instrumentation:
    """The patched state of one traced run; :meth:`restore` undoes it."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.patched: List[Tuple[object, str, object]] = []
        #: Calendar entries scheduled, summed over every environment run.
        self.events = 0
        self._seen_seq: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def _set(self, owner, attr: str, value) -> None:
        self.patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------
    def _wrap_call(self, fn, name: str, layer: str):
        rec = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = rec.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit(name, layer, _descriptor_id(args) if frame[2] >= 0 else None)

        return wrapper

    def _wrap_generator_function(self, fn, name: str, layer: str):
        rec = self.recorder
        resume = name + ".resume"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[name] += 1
            sampling = len(rec.samples) < rec.sample_limit
            desc = _descriptor_id(args) if sampling else None
            return TracedGenerator(fn(*args, **kwargs), rec, resume, layer, desc)

        return wrapper

    def _wrap_run(self, fn):
        rec = self.recorder
        seen = self._seen_seq

        @functools.wraps(fn)
        def run(env, *args, **kwargs):
            rec.enter()
            try:
                return fn(env, *args, **kwargs)
            finally:
                rec.exit("sim.Environment.run", "sim")
                # The calendar's tie-break sequence number is the only
                # count of scheduled events an Environment keeps.
                self.events += env._seq - seen.get(env, 0)
                seen[env] = env._seq

        return run

    def _wrap_process(self, fn):
        rec = self.recorder

        @functools.wraps(fn)
        def process(env, generator, name: str = ""):
            if hasattr(generator, "gi_frame"):
                generator = TracedGenerator(
                    generator, rec, RESUME, _generator_layer(generator)
                )
            return fn(env, generator, name)

        return process

    def install(self) -> None:
        from repro.sim.engine import Environment

        self._set(Environment, "process", self._wrap_process(Environment.process))
        for module_name, class_name, attr in BOUNDARIES:
            module = importlib.import_module(module_name)
            layer = layer_of(module_name)
            if class_name is None:
                original = getattr(module, attr)
                wrapper = self._wrap_generator_function(original, f"{layer}.{attr}", layer)
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and loaded is not None:
                        if getattr(loaded, attr, None) is original:
                            self._set(loaded, attr, wrapper)
                continue
            owner = getattr(module, class_name)
            original = getattr(owner, attr)
            name = f"{layer}.{class_name}.{attr}"
            if attr == "run" and class_name == "Environment":
                self._set(owner, attr, self._wrap_run(original))
            else:
                self._set(owner, attr, self._wrap_call(original, name, layer))


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[Instrumentation]:
    """Patch every boundary for the duration of the block, then restore."""
    inst = Instrumentation(recorder)
    try:
        inst.install()
        yield inst
    finally:
        inst.restore()
