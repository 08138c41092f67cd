"""Differential test: the callback request path against generator processes.

:class:`~repro.traffic.loadgen.LoadGenerator` drives each request as a
chain of calendar callbacks.  :class:`ProcessLoadGenerator` below is a
frozen copy of the earlier request path, where each DSA request (and
each CPU request's wait) ran as its own generator process and the CPU
pool's workers were generator processes too.  Both must simulate the
same thing: for random tenant mixes (Poisson and bursty arrivals, retry
budgets and backoffs, small SWQs, CPU-target and QoS-pinned tenants, a
2x2 fleet and a mid-run device disable) the accountant totals, every
tenant's percentiles, the metrics snapshot and the final clock must be
identical.
"""

from collections import deque
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dsa.config import DeviceConfig, EngineConfig, GroupConfig, WqConfig, WqMode
from repro.dsa.descriptor import WorkDescriptor
from repro.dsa.errors import StatusCode
from repro.fleet import FleetSpec
from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics
from repro.platform import fleet_platform, spr_platform
from repro.sim.engine import Event
from repro.sim.rng import DEFAULT_SEED, install_seed
from repro.traffic import LoadGenerator, SizeDist, TenantSpec, TrafficProfile, dsa_capacity

KB = 1024
ENGINES = 2


class ProcessCpuPool:
    """Frozen copy of the CPU pool whose workers were generator processes."""

    def __init__(self, env, kernels, cores, queue_limit, name):
        self.env = env
        self.kernels = kernels
        self.queue_limit = queue_limit
        self._queue = deque()
        self._idle = []
        self.shed = 0
        self.served = 0
        self._m_shed = env.metrics.counter(f"{name}.shed")
        self._m_depth = env.metrics.gauge(f"{name}.depth")
        for _ in range(cores):
            env.process(self._worker(), name=f"{name}.worker")

    def try_submit(self, opcode, size, in_llc=False):
        if len(self._queue) >= self.queue_limit:
            self.shed += 1
            self._m_shed.add()
            return None
        done = Event(self.env)
        self._queue.append((self.kernels.time(opcode, size, in_llc=in_llc), done))
        self._m_depth.update(self.env.now, len(self._queue))
        if self._idle:
            self._idle.pop().succeed(None)
        return done

    def _worker(self):
        env = self.env
        while True:
            while not self._queue:
                wake = Event(env)
                self._idle.append(wake)
                yield wake
            service_ns, done = self._queue.popleft()
            self._m_depth.update(env.now, len(self._queue))
            yield env.timeout(service_ns)
            self.served += 1
            done.succeed(env.now)


class ProcessLoadGenerator(LoadGenerator):
    """Frozen copy of the request path that ran one process per request.

    The one change from that code is the WQ retry booking: each WQ is
    booked only the rejections it issued during the current placement
    (``rejected``), as the callback path does.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.cpu_pool is not None:
            self.cpu_pool = ProcessCpuPool(
                self.env,
                self.platform.kernels,
                self.profile.cpu_cores,
                self.profile.cpu_queue_limit,
                "traffic.cpu_pool",
            )

    def _handler(self, state):
        env = self.platform.env
        if state.spec.targets_cpu:
            def on_arrival(index, now):
                self._cpu_arrival(state, now)
        else:
            def on_arrival(index, now):
                env.process(self._dsa_request(state, now), name=f"req.{state.spec.name}")
        return on_arrival

    def _cpu_arrival(self, state, now):
        spec = state.spec
        acct = self.accountant
        acct.offered(spec.name, now)
        size = state.sizes.next()
        done = self.cpu_pool.try_submit(spec.opcode, size)
        if done is None:
            acct.dropped(spec.name, now)
            return
        self.platform.env.process(self._cpu_wait(spec, now, size, done), name=f"req.{spec.name}")

    def _cpu_wait(self, spec, arrived, size, done):
        finished = yield done
        self.accountant.completed(spec.name, finished, finished - arrived, size)

    def _dsa_request(self, state, arrived):
        env = self.platform.env
        spec = state.spec
        acct = self.accountant
        acct.offered(spec.name, arrived)
        size = state.sizes.next()
        descriptor = state.pool.acquire()
        if descriptor is None:
            descriptor = WorkDescriptor(opcode=spec.opcode)
        descriptor.opcode = spec.opcode
        descriptor.pasid = self.space.pasid
        descriptor.src = state.src.va
        descriptor.dst = state.dst.va
        descriptor.size = size
        attempts = 0
        failed_device: Optional[str] = None
        while True:
            if self.scheduler is not None and state.device is None:
                try:
                    portal = self.scheduler.select(
                        socket=state.socket,
                        exclude=(failed_device,) if failed_device else (),
                    )
                except RuntimeError:
                    env.metrics.counter("traffic.fleet.no_live_portal").add()
                    if failed_device is not None:
                        self.scheduler.record_failover(failed_device, None)
                    acct.dropped(spec.name, env.now, retries=attempts)
                    state.pool.release(descriptor)
                    return
                if failed_device is not None:
                    self.scheduler.record_failover(failed_device, portal.device.name)
                    env.metrics.counter("traffic.fleet.reroutes").add()
                    failed_device = None
                device = portal.device
                wq_id = portal.wq_id
            else:
                device = state.device
                wq_id = spec.wq_id
            wq = device.wq(wq_id)
            enqcmd_ns = device.timing.enqcmd_ns
            rejected = 0
            while True:
                yield env.timeout(enqcmd_ns)
                if device.submit(descriptor, wq_id, source=spec.name):
                    break
                attempts += 1
                rejected += 1
                if attempts > spec.max_retries:
                    wq.record_retries(rejected, source=spec.name)
                    acct.dropped(spec.name, env.now, retries=attempts)
                    state.pool.release(descriptor)
                    return
                yield env.timeout(
                    min(spec.backoff_base_ns * (2.0 ** (attempts - 1)), spec.backoff_cap_ns)
                )
            if rejected:
                wq.record_retries(rejected, source=spec.name)
            yield descriptor.completion_event
            status = descriptor.completion.status
            if status.is_success:
                acct.completed(spec.name, env.now, env.now - arrived, size, retries=attempts)
                state.pool.release(descriptor)
                return
            attempts += 1
            if (
                self.scheduler is None
                or state.device is not None
                or status is not StatusCode.DEVICE_DISABLED
                or attempts > spec.max_retries
            ):
                acct.dropped(spec.name, env.now, retries=attempts)
                state.pool.release(descriptor)
                return
            failed_device = device.name
            descriptor.completion_event = None
            descriptor.completion.status = StatusCode.NONE
            descriptor.completion.bytes_completed = 0


def device_config(swq_size):
    """Two SWQs at different priorities sharing one engine group."""
    return DeviceConfig(
        wqs=(
            WqConfig(wq_id=0, size=swq_size, mode=WqMode.SHARED, priority=15),
            WqConfig(wq_id=1, size=swq_size, mode=WqMode.SHARED, priority=1),
        ),
        engines=tuple(EngineConfig(i) for i in range(ENGINES)),
        groups=(GroupConfig(0, wq_ids=(0, 1), engine_ids=tuple(range(ENGINES))),),
    )


@st.composite
def tenants(draw, index):
    """One tenant: DSA (plain or QoS-pinned to a WQ) or CPU target."""
    kind = draw(st.sampled_from(["dsa", "dsa", "qos", "cpu"]))
    size = draw(st.sampled_from([1 * KB, 4 * KB, 16 * KB]))
    backoff_base = draw(st.sampled_from([50.0, 200.0, 333.3]))
    fields = dict(
        name=f"t{index}",
        rate=draw(st.floats(0.5, 20.0)) * dsa_capacity(size, engines=ENGINES),
        arrival=draw(st.sampled_from(["poisson", "bursty"])),
        cv2=draw(st.sampled_from([2.0, 9.0])),
        sizes=draw(
            st.sampled_from(
                [SizeDist(kind="fixed", size=size), SizeDist(kind="lognormal", size=size)]
            )
        ),
        max_retries=draw(st.integers(0, 4)),
        backoff_base_ns=backoff_base,
        backoff_cap_ns=backoff_base * draw(st.sampled_from([1.0, 3.0, 50.0])),
    )
    if kind == "cpu":
        fields["target"] = "cpu"
    elif kind == "qos":
        wq_id = draw(st.integers(0, 1))
        fields.update(wq_id=wq_id, qos_priority=(15, 1)[wq_id])
    return TenantSpec(**fields)


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 8))
    profile = TrafficProfile(
        name="differential",
        tenants=tuple(draw(tenants(i)) for i in range(n)),
        window_ns=draw(st.sampled_from([2_000.0, 100_000.0])),
        cpu_cores=draw(st.integers(1, 2)),
        cpu_queue_limit=draw(st.integers(1, 8)),
    )
    return dict(
        profile=profile,
        requests=draw(st.integers(n, 150)),
        swq_size=draw(st.integers(2, 16)),
        fleet=draw(st.sampled_from([None, "round-robin", "numa-local"])),
        disable_at=draw(st.one_of(st.none(), st.floats(0.05, 0.9))),
    )


def run(generator_cls, profile, requests, swq_size, fleet, disable_at):
    """Drive one scenario; returns everything the request path decides."""
    install_seed(DEFAULT_SEED)
    registry = MetricsRegistry()
    install_metrics(registry)
    try:
        if fleet:
            platform = fleet_platform(
                sockets=2, devices_per_socket=2, device_config=device_config(swq_size)
            )
        else:
            platform = spr_platform(device_config=device_config(swq_size))
        generator = generator_cls(
            platform, profile, requests, fleet=FleetSpec(2, 2, fleet) if fleet else None
        )
        generator.start()
        env = platform.env
        if disable_at is not None:
            # After the first ENQCMDs land, somewhere inside the arrivals.
            when = 400.0 + disable_at * requests / profile.total_rate

            def killer(env):
                yield env.timeout(when)
                platform.driver.disable("dsa0")

            env.process(killer(env), name="test.disable")
        env.run()
        totals = generator.finalize()
        accountant = generator.accountant
        percentiles = {}
        for spec in profile.tenants:
            account = accountant.account(spec.name)
            percentiles[spec.name] = (
                [account.percentile(p) for p in (50.0, 99.0, 99.9)] if len(account.hist) else []
            )
        return totals, percentiles, registry.snapshot(), env.now
    finally:
        uninstall_metrics()
        install_seed(None)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scenarios())
def test_callback_path_matches_process_path(scenario):
    callbacks = run(LoadGenerator, **scenario)
    processes = run(ProcessLoadGenerator, **scenario)
    assert callbacks == processes
    totals = callbacks[0]
    assert totals["offered"] == scenario["requests"]
    assert totals["offered"] == totals["completed"] + totals["dropped"]
