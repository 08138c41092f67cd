"""Fidelity tiers: policy, steady-state detection, and analytical bounds.

At millions of descriptors, per-event simulation is the wall (see
ROADMAP.md).  This module provides the *decision* layer of the tiered
executor: a :class:`FidelityPolicy` selects between full per-event DES
(``des``, the default — byte-identical to not having this module at
all), a cross-validated batched fast path (``auto``), and an aggressive
analytical mode (``analytical``).

The fast path never replaces the DES wholesale.  A closed-loop
microbench run is split into

* a **pilot** region simulated event-by-event — ramp-up (queue fill,
  cold ATC), one steady **window**, and a drain **guard** so the window
  is never contaminated by the tail where refill has stopped — and
* a **batched** region: the remaining homogeneous iterations, advanced
  in one analytical step from the window's measured per-completion gap
  (see :mod:`repro.sim.batch`).

Steady state is *detected*, not assumed: :class:`SteadyStateDetector`
records every pilot completion and the window qualifies only when
completion rate and latency are stable across **two consecutive
windows**.  Alignment matters: at queue depth Q the fair-share port
drains completions in periodic waves of Q (a decelerating cascade that
repeats exactly per refill), so per-gap CV — and even a half-window
split that cuts mid-wave — reports huge drift in perfect steady state.
A window that is an integer multiple of Q compares like with like and
sees the true wave-to-wave drift.  WQ occupancy stability falls out of
the same check: in a closed loop the queue level is a function of the
completion rate, so a drifting occupancy shows up as rate drift.  The extrapolated rate is
additionally cross-checked against :func:`analytical_rate_bound`, a
closed-form upper bound from the bottleneck resource (engine serial
stage, fabric port bandwidth); a measured rate above the bound means
the window was not what we thought, and the caller falls back to full
DES.

Transients always take the DES: fault injection installed, shared
platforms (another workload may perturb steady state), too few
iterations to amortize a pilot.  The active mode is
:attr:`repro.config.RunConfig.fidelity`, which the runner activates
around every experiment, so serial and ``--jobs N`` runs tier
identically.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.config import active_config, update, using

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (platform imports sim)
    from repro.dsa.opcodes import Opcode
    from repro.platform import Platform

#: Relative tolerance the batched tier is validated to versus full DES
#: (throughput, mean/percentile latency, elapsed time).  The anchor
#: differential suite (``scripts/check_fidelity_equivalence.py``) and
#: ``scripts/bench_fidelity.py`` both gate on this value.
DECLARED_TOLERANCE = 0.05


class FidelityMode(enum.Enum):
    """How aggressively the executor may leave per-event simulation."""

    #: Full per-event DES.  Byte-identical to builds without the tier.
    DES = "des"
    #: Batch steady-state regions, cross-validated: strict drift and
    #: rate-bound gates, fall back to DES whenever they fail.
    AUTO = "auto"
    #: Loose gates + closed-form paths where available; best-effort
    #: accuracy for interactive exploration, never used for anchors.
    ANALYTICAL = "analytical"


@dataclass(frozen=True)
class FidelityPolicy:
    """Frozen knob set for one fidelity mode (see :meth:`for_mode`)."""

    mode: FidelityMode = FidelityMode.DES
    #: Completions to discard before the measurement window (at least
    #: this many; the plan widens it to the queue depth so the pipeline
    #: and ATC are warm).  Deliberately small: a ramp that turns out
    #: too short makes the windows disagree, which the drift gates
    #: catch — the cost of optimism is a fallback, never a wrong batch.
    min_ramp: int = 2
    #: Window bounds: the plan rounds ``min_window`` up to a multiple
    #: of the queue depth (completion waves have period Q — see module
    #: docstring) and refuses to batch past ``window_cap``.
    min_window: int = 3
    window_cap: int = 128
    #: Minimum iterations the batch must replace for the pilot to pay.
    min_batched: int = 8
    #: Max relative drift of the completion rate between the two
    #: consecutive measurement windows for them to count as steady.
    max_rate_drift: float = 0.05
    #: Same for mean latency.
    max_latency_drift: float = 0.10
    #: Max *mean* elementwise gap disagreement between the two windows,
    #: relative to the mean gap.  Window *means* alias when the true
    #: completion period is a multiple kQ of the queue depth (k > 1):
    #: two adjacent Q-sized windows can agree on their sum while both
    #: sample an unrepresentative phase of the longer wave.  Comparing
    #: the wave *shape* gap-by-gap rejects exactly those streams.
    max_wave_drift: float = 0.05
    #: Measured rate may exceed the closed-form bound by at most this
    #: factor (covers the bound's own approximations) before the
    #: window is rejected.
    rate_guard: float = 1.25

    @classmethod
    def for_mode(cls, mode: "FidelityMode | str") -> "FidelityPolicy":
        """Default policy for a mode (accepts the CLI string)."""
        mode = FidelityMode(mode)
        if mode is FidelityMode.ANALYTICAL:
            return cls(
                mode=mode,
                min_ramp=2,
                min_window=2,
                min_batched=4,
                max_rate_drift=0.50,
                max_latency_drift=1.00,
                max_wave_drift=1.00,
                rate_guard=2.0,
            )
        return cls(mode=mode)

    @property
    def batching_enabled(self) -> bool:
        return self.mode is not FidelityMode.DES


# -- closed-loop pilot planning -----------------------------------------------


@dataclass(frozen=True)
class ClosedLoopPlan:
    """Split of one closed-loop run into pilot-DES + batched regions.

    The pilot measures **two** consecutive windows of ``window``
    completions each (drift is their disagreement), so it simulates
    ``ramp + 2·window + guard`` iterations.
    """

    ramp: int     # completions discarded before the windows
    window: int   # completions per measurement window (two are taken)
    guard: int    # trailing completions kept so the windows precede drain
    batched: int  # iterations advanced analytically

    @property
    def pilot_iterations(self) -> int:
        return self.ramp + 2 * self.window + self.guard

    @property
    def window_start(self) -> int:
        """First completion index (0-based) inside the first window."""
        return self.ramp


def plan_closed_loop(
    iterations: int, queue_depth: int, policy: FidelityPolicy
) -> Optional[ClosedLoopPlan]:
    """Plan the pilot/batched split, or None when batching cannot pay.

    The window is ``min_window`` rounded up to a whole number of
    completion waves (period = queue depth); a depth beyond
    ``window_cap`` is not batched at all.  The guard equals the queue
    depth: once fewer than ``queue_depth`` iterations remain, refill
    stops and the loop is draining, so the windows must end at least
    ``queue_depth`` completions before the pilot's last one to measure
    genuine steady state.
    """
    if not policy.batching_enabled:
        return None
    ramp = max(policy.min_ramp, queue_depth)
    waves = max(1, -(-policy.min_window // queue_depth))
    window = queue_depth * waves
    if window > policy.window_cap:
        return None
    guard = queue_depth
    batched = iterations - (ramp + 2 * window + guard)
    if batched < policy.min_batched:
        return None
    return ClosedLoopPlan(ramp=ramp, window=window, guard=guard, batched=batched)


# -- steady-state detection ---------------------------------------------------


@dataclass(frozen=True)
class WorkerWindow:
    """Measured steady region (two windows) of one completion stream."""

    gap_ns: float               # mean inter-completion gap over both windows
    latencies: List[float]      # both windows' per-unit latency samples
    rate_drift: float           # |window-1 gap - window-2 gap| / gap
    latency_drift: float        # |window-1 mean - window-2 mean| / mean
    wave_drift: float           # mean elementwise gap disagreement / gap

    def is_steady(self, policy: FidelityPolicy) -> bool:
        return (
            self.rate_drift <= policy.max_rate_drift
            and self.latency_drift <= policy.max_latency_drift
            and self.wave_drift <= policy.max_wave_drift
        )


class SteadyStateDetector:
    """Per-worker completion recorder for a pilot run.

    The workload's completion path calls :meth:`on_complete` once per
    unit; :meth:`window_of` then extracts the planned window and its
    drift statistics.  Pilots are small (tens of completions per
    worker), so recording everything is cheaper than being clever.
    """

    def __init__(self, n_workers: int):
        self.n_workers = n_workers
        self._times: List[List[float]] = [[] for _ in range(n_workers)]
        self._latencies: List[List[float]] = [[] for _ in range(n_workers)]

    def on_complete(self, worker: int, now: float, latency: float) -> None:
        self._times[worker].append(now)
        self._latencies[worker].append(latency)

    def completions(self, worker: int) -> int:
        return len(self._times[worker])

    def window_of(self, worker: int, start: int, window: int) -> Optional[WorkerWindow]:
        """Stats over two consecutive windows, or None if unformable.

        Compares window ``[start, start+window)`` against
        ``[start+window, start+2·window)``.  Gaps need a timestamp
        *before* the first window completion, so ``start`` must be
        >= 1 (the plan's ramp guarantees it).
        """
        times = self._times[worker]
        lats = self._latencies[worker]
        mid = start + window
        end = start + 2 * window
        if start < 1 or window < 1 or end > len(times):
            return None
        span = times[end - 1] - times[start - 1]
        if span <= 0.0:
            return None
        gap = span / (2 * window)
        first = (times[mid - 1] - times[start - 1]) / window
        second = (times[end - 1] - times[mid - 1]) / window
        rate_drift = abs(first - second) / gap
        # Wave-shape agreement: gap i of window 1 vs gap i of window 2,
        # averaged over the window (the mean, not the max: single-gap
        # jitter within a genuinely periodic cascade is harmless, while
        # a stream periodic at k·Q (k > 1) disagrees on *most* gaps
        # even when the window means alias to equality).
        wave_drift = sum(
            abs((times[start + i] - times[start + i - 1]) - (times[mid + i] - times[mid + i - 1]))
            for i in range(window)
        ) / (window * gap)
        region_lats = lats[start:end]
        mean_lat = sum(region_lats) / len(region_lats)
        if mean_lat > 0.0:
            first_lat = sum(region_lats[:window]) / window
            second_lat = sum(region_lats[window:]) / window
            latency_drift = abs(first_lat - second_lat) / mean_lat
        else:
            latency_drift = 0.0
        return WorkerWindow(
            gap_ns=gap,
            latencies=region_lats,
            rate_drift=rate_drift,
            latency_drift=latency_drift,
            wave_drift=wave_drift,
        )


# -- closed-form bounds -------------------------------------------------------


def estimated_port_bytes(opcode: "Opcode", size: int) -> int:
    """Fabric-port demand of one descriptor (max of the two directions).

    Mirrors :func:`repro.dsa.engine.io_demand` shape-wise without
    resolving buffers; used only for the rate-bound cross-check, never
    for accounting.
    """
    from repro.dsa.opcodes import Opcode

    reads = size if opcode.reads_source else 0
    if opcode.dual_source:
        reads += size
    writes = size if opcode.writes_destination else 0
    if opcode is Opcode.DUALCAST:
        writes += size
    return max(reads, writes)


def analytical_rate_bound(platform: "Platform", opcode: "Opcode", size: int) -> float:
    """Upper bound on aggregate descriptors/ns from the bottleneck resource.

    Two candidate bottlenecks, the binding one wins:

    * the serial per-descriptor stage (arbiter dispatch + PE descriptor
      unit), parallel across all configured engines;
    * the per-device fabric port, shared fairly, at the descriptor's
      port-byte demand.

    It deliberately ignores ATC misses, IOMMU walks, and memory-tier
    latency — those only slow descriptors down, so the true rate can
    only be *below* this bound.  Returns ``inf`` when no device is
    registered (nothing to bound).
    """
    serial_rate = 0.0
    port_rate = 0.0
    port_bytes = estimated_port_bytes(opcode, size)
    devices = platform.driver.devices.values()
    for device in devices:
        timing = device.timing
        n_engines = sum(len(group.engines) for group in device.groups.values())
        serial_ns = timing.dispatch_ns + timing.pe_setup_ns
        if serial_ns > 0:
            serial_rate += n_engines / serial_ns
        if port_bytes > 0:
            port_rate += timing.fabric_bandwidth / port_bytes
    if not serial_rate:
        return float("inf")
    if port_bytes > 0:
        return min(serial_rate, port_rate)
    return serial_rate


# -- run-mode readers ---------------------------------------------------------

#: One policy object per mode, so repeated reads return the same object.
_POLICIES = {mode.value: FidelityPolicy.for_mode(mode) for mode in FidelityMode}


def _mode_of(policy_or_mode: "FidelityPolicy | FidelityMode | str") -> str:
    if isinstance(policy_or_mode, FidelityPolicy):
        mode = policy_or_mode.mode.value
        if policy_or_mode != _POLICIES[mode]:
            raise ValueError(f"a run mode takes the default {mode!r} policy, not a custom one")
        return mode
    return FidelityMode(policy_or_mode).value


def install_fidelity(policy_or_mode: "FidelityPolicy | FidelityMode | str") -> FidelityPolicy:
    """Set the run's fidelity mode; returns its policy.

    Accepts a :class:`FidelityPolicy` (a mode's default one), a
    :class:`FidelityMode`, or the CLI mode string.  Installing ``des``
    disables batching.
    """
    return _POLICIES[update(fidelity=_mode_of(policy_or_mode)).fidelity]


def active_fidelity() -> Optional[FidelityPolicy]:
    """The policy workloads should consult, or None when batching is off.

    Returns ``None`` for the ``des`` mode, so call sites need a single
    check and the default stays byte-identical to a build without the
    tier.
    """
    mode = active_config().fidelity
    return None if mode == "des" else _POLICIES[mode]


@contextlib.contextmanager
def fidelity(policy_or_mode: "FidelityPolicy | FidelityMode | str") -> Iterator[FidelityPolicy]:
    """Scoped mode: restores the previous run mode on exit."""
    config = replace(active_config(), fidelity=_mode_of(policy_or_mode))
    with using(config):
        yield _POLICIES[config.fidelity]
