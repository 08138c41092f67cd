"""Fidelity-tier tests: policy install, planning, detection, batching.

Pins the tiered-executor contract: the default ``des`` tier is
byte-identical to not having the tier at all, ``auto`` engages only on
detected steady state (and within ``DECLARED_TOLERANCE`` of the DES
when it does), and every rejection path — short runs, drifting or
aliased completion streams, installed fault injectors, rate-bound
violations — falls back to full per-event simulation.
"""

import math

import pytest

from repro.dsa.opcodes import Opcode
from repro.faults import FaultPlan, injection
from repro.mem.link import FairShareLink
from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics
from repro.platform import spr_platform
from repro.sim import Environment, SimulationError
from repro.sim.batch import cycle_samples
from repro.sim.fidelity import (
    DECLARED_TOLERANCE,
    FidelityMode,
    FidelityPolicy,
    SteadyStateDetector,
    active_fidelity,
    analytical_rate_bound,
    fidelity,
    install_fidelity,
    plan_closed_loop,
)
from repro.sim.rng import DEFAULT_SEED, install_seed
from repro.sim.stats import Histogram
from repro.obs.streaming import StreamingHistogram
from repro.workloads.microbench import (
    MicrobenchConfig,
    run_dsa_microbench,
    run_software_microbench,
)

KB = 1024


@pytest.fixture(autouse=True)
def _clean_installs():
    """Every test starts and ends with no policy/seed/metrics installed."""
    install_fidelity("des")
    yield
    install_fidelity("des")
    uninstall_metrics()
    install_seed(None)


def _seeded(fn, cfg, mode=None):
    """Run a microbench under the default seed and optional fidelity mode."""
    install_seed(DEFAULT_SEED)
    try:
        if mode is None:
            return fn(cfg)
        with fidelity(mode):
            return fn(cfg)
    finally:
        install_seed(None)


class TestPolicyInstall:
    def test_nothing_installed_by_default(self):
        assert active_fidelity() is None

    def test_install_and_uninstall(self):
        policy = install_fidelity("auto")
        assert policy.mode is FidelityMode.AUTO
        assert active_fidelity() is policy
        install_fidelity("des")
        assert active_fidelity() is None

    def test_des_mode_reports_inactive(self):
        # The default tier must behave as if the module did not exist.
        install_fidelity("des")
        assert active_fidelity() is None

    def test_context_manager_restores_previous(self):
        install_fidelity("analytical")
        with fidelity("auto") as inner:
            assert inner.mode is FidelityMode.AUTO
            assert active_fidelity() is inner
        assert active_fidelity().mode is FidelityMode.ANALYTICAL

    def test_analytical_gates_are_looser(self):
        auto = FidelityPolicy.for_mode("auto")
        analytical = FidelityPolicy.for_mode(FidelityMode.ANALYTICAL)
        assert analytical.max_rate_drift > auto.max_rate_drift
        assert analytical.max_wave_drift > auto.max_wave_drift
        assert analytical.rate_guard > auto.rate_guard
        assert not FidelityPolicy.for_mode("des").batching_enabled


class TestPlanning:
    def test_sync_plan_shape(self):
        policy = FidelityPolicy.for_mode("auto")
        plan = plan_closed_loop(30, 1, policy)
        assert plan.ramp == max(policy.min_ramp, 1)
        assert plan.window == policy.min_window
        assert plan.guard == 1
        assert plan.pilot_iterations + plan.batched == 30

    def test_window_rounds_to_completion_waves(self):
        plan = plan_closed_loop(4000, 32, FidelityPolicy.for_mode("auto"))
        assert plan.window == 32          # one wave of queue_depth
        assert plan.guard == 32           # drain guard = queue_depth
        assert plan.ramp == 32

    def test_short_runs_are_not_batched(self):
        policy = FidelityPolicy.for_mode("auto")
        pilot = plan_closed_loop(10_000, 1, policy).pilot_iterations
        too_short = pilot + policy.min_batched - 1
        assert plan_closed_loop(too_short, 1, policy) is None
        assert plan_closed_loop(too_short + 1, 1, policy) is not None

    def test_deep_queues_past_window_cap_refused(self):
        policy = FidelityPolicy.for_mode("auto")
        assert plan_closed_loop(100_000, policy.window_cap + 1, policy) is None

    def test_des_policy_never_plans(self):
        assert plan_closed_loop(100_000, 1, FidelityPolicy.for_mode("des")) is None


def _detector_from_gaps(gaps, latency=50.0):
    det = SteadyStateDetector(1)
    now = 0.0
    for gap in gaps:
        now += gap
        det.on_complete(0, now, latency)
    return det


class TestSteadyStateDetector:
    def test_periodic_stream_is_steady(self):
        det = _detector_from_gaps([10.0] * 12)
        window = det.window_of(0, start=2, window=4)
        assert window.gap_ns == pytest.approx(10.0)
        assert window.rate_drift == pytest.approx(0.0)
        assert window.wave_drift == pytest.approx(0.0)
        assert window.is_steady(FidelityPolicy.for_mode("auto"))

    def test_decelerating_stream_is_rejected(self):
        gaps = [10.0 * 1.05**i for i in range(12)]
        window = det = _detector_from_gaps(gaps).window_of(0, start=2, window=4)
        assert window.rate_drift > 0.05
        assert not window.is_steady(FidelityPolicy.for_mode("auto"))

    def test_aliased_longer_period_is_rejected(self):
        # Period-4 stream sampled with window 2: both windows sum to 40
        # (means alias to equality) but the wave shapes disagree — the
        # fig4 WQS4 failure mode this gate exists for.
        det = _detector_from_gaps([20.0, 20.0, 10.0, 30.0] * 3)
        window = det.window_of(0, start=2, window=2)
        assert window.rate_drift == pytest.approx(0.0)
        assert window.wave_drift == pytest.approx(0.5)
        assert not window.is_steady(FidelityPolicy.for_mode("auto"))

    def test_unformable_windows_return_none(self):
        det = _detector_from_gaps([10.0] * 6)
        assert det.window_of(0, start=0, window=2) is None   # needs a prior time
        assert det.window_of(0, start=2, window=4) is None   # not enough samples
        assert det.window_of(0, start=2, window=2) is not None


class TestAdvanceTo:
    def test_advances_clock_without_events(self):
        env = Environment()
        assert env.advance_to(125.0) == 125.0
        assert env.now == 125.0

    def test_rejects_travel_into_the_past(self):
        env = Environment()
        env.advance_to(10.0)
        with pytest.raises(ValueError):
            env.advance_to(5.0)

    def test_refuses_to_skip_live_events(self):
        env = Environment()
        env.timeout(50.0)
        with pytest.raises(SimulationError):
            env.advance_to(100.0)
        assert env.advance_to(50.0) == 50.0   # up to the event is fine

    def test_cancelled_entries_do_not_block(self):
        env = Environment()
        env.timeout(50.0).cancel()
        assert env.advance_to(100.0) == 100.0


class TestRateOf:
    def test_idle_link_offers_full_bandwidth(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=30.0)
        assert link.rate_of() == pytest.approx(30.0)

    def test_idle_rate_respects_per_flow_cap(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=30.0, per_flow_cap=8.0)
        assert link.rate_of() == pytest.approx(8.0)

    def test_contended_rate_is_fair_share(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=30.0)
        link.transfer(1e6)
        assert link.rate_of() == pytest.approx(15.0)
        assert link.rate_of(weight=2.0) == pytest.approx(20.0)

    def test_query_does_not_disturb_the_link(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        done = []
        event = link.transfer(1000.0)
        event.callbacks.append(lambda ev: done.append(env.now))
        for _ in range(5):
            link.rate_of()
        env.run()
        assert done == [pytest.approx(100.0)]

    def test_non_positive_weight_rejected(self):
        env = Environment()
        link = FairShareLink(env, bandwidth=10.0)
        with pytest.raises(ValueError):
            link.rate_of(weight=0.0)


class TestAddRepeated:
    def test_exact_histogram_matches_loop(self):
        loop, bulk = Histogram(), Histogram()
        for _ in range(7):
            loop.add(3.5)
        bulk.add_repeated(3.5, 7)
        assert len(bulk) == len(loop)
        assert bulk.mean == pytest.approx(loop.mean)
        assert bulk.percentile(99.0) == loop.percentile(99.0)

    def test_streaming_histogram_matches_loop(self):
        loop, bulk = StreamingHistogram(), StreamingHistogram()
        for _ in range(1000):
            loop.add(42.0)
        bulk.add_repeated(42.0, 1000)
        assert bulk.count == loop.count
        assert bulk.mean == pytest.approx(loop.mean)
        assert bulk.percentile(50.0) == pytest.approx(loop.percentile(50.0))

    def test_zero_count_is_noop_negative_raises(self):
        hist = Histogram()
        hist.add_repeated(1.0, 0)
        assert len(hist) == 0
        with pytest.raises(ValueError):
            hist.add_repeated(1.0, -1)
        with pytest.raises(ValueError):
            StreamingHistogram().add_repeated(1.0, -1)


class TestCycleSamples:
    def test_cycles_through_short_sample_sets(self):
        assert cycle_samples([1.0, 2.0, 3.0], 7) == [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0]
        assert cycle_samples([5.0], 3) == [5.0, 5.0, 5.0]
        assert cycle_samples([1.0, 2.0], 0) == []


class TestRateBound:
    def test_no_devices_is_unbounded(self):
        platform = spr_platform(n_devices=0)
        assert analytical_rate_bound(platform, Opcode.MEMMOVE, 4 * KB) == math.inf

    def test_bound_is_finite_and_port_limited_for_large_transfers(self):
        platform = spr_platform(n_devices=1)
        small = analytical_rate_bound(platform, Opcode.MEMMOVE, 4 * KB)
        large = analytical_rate_bound(platform, Opcode.MEMMOVE, 1024 * KB)
        assert 0.0 < large < small < math.inf

    def test_measured_steady_rate_respects_the_bound(self):
        cfg = MicrobenchConfig(transfer_size=64 * KB, queue_depth=32, iterations=200)
        result = _seeded(run_dsa_microbench, cfg)
        platform = spr_platform(n_devices=1)
        bound = analytical_rate_bound(platform, cfg.opcode, cfg.transfer_size)
        measured = result.operations / result.elapsed_ns
        assert measured <= bound * 1.01


def _counters():
    registry = MetricsRegistry()
    install_metrics(registry)
    return registry


class TestDsaDifferential:
    def _assert_close(self, des, auto, tolerance=DECLARED_TOLERANCE):
        assert auto.throughput == pytest.approx(des.throughput, rel=tolerance)
        assert auto.mean_latency_ns == pytest.approx(des.mean_latency_ns, rel=tolerance)
        assert auto.latency.percentile(99.0) == pytest.approx(
            des.latency.percentile(99.0), rel=tolerance
        )
        assert auto.operations == des.operations
        assert auto.payload_bytes == des.payload_bytes

    def test_sync_auto_matches_des_and_engages(self):
        cfg = MicrobenchConfig(transfer_size=64 * KB, queue_depth=1, iterations=60)
        des = _seeded(run_dsa_microbench, cfg)
        registry = _counters()
        auto = _seeded(run_dsa_microbench, cfg, mode="auto")
        assert registry.counter("fidelity.regions_batched").value >= 1
        self._assert_close(des, auto)

    def test_async_auto_matches_des(self):
        cfg = MicrobenchConfig(transfer_size=64 * KB, queue_depth=32, iterations=200)
        des = _seeded(run_dsa_microbench, cfg)
        registry = _counters()
        auto = _seeded(run_dsa_microbench, cfg, mode="auto")
        assert registry.counter("fidelity.regions_batched").value >= 1
        self._assert_close(des, auto)

    def test_des_mode_is_byte_identical(self):
        cfg = MicrobenchConfig(transfer_size=4 * KB, queue_depth=1, iterations=40)
        plain = _seeded(run_dsa_microbench, cfg)
        explicit = _seeded(run_dsa_microbench, cfg, mode="des")
        assert explicit.throughput == plain.throughput
        assert explicit.elapsed_ns == plain.elapsed_ns
        assert explicit.latency.values == plain.latency.values

    def test_installed_injector_forces_full_des(self):
        cfg = MicrobenchConfig(transfer_size=4 * KB, queue_depth=1, iterations=60)
        registry = _counters()
        install_seed(DEFAULT_SEED)
        try:
            with injection(FaultPlan(seed=7, page_fault_rate=0.01)):
                with fidelity("auto"):
                    run_dsa_microbench(cfg)
        finally:
            install_seed(None)
        assert registry.counter("fidelity.regions_batched").value == 0

    def test_shared_platform_forces_full_des(self):
        cfg = MicrobenchConfig(transfer_size=4 * KB, queue_depth=1, iterations=60)
        registry = _counters()
        install_seed(DEFAULT_SEED)
        try:
            with fidelity("auto"):
                run_dsa_microbench(cfg, platform=spr_platform(n_devices=1))
        finally:
            install_seed(None)
        assert registry.counter("fidelity.regions_batched").value == 0


class TestSoftwareAnalytical:
    def test_closed_form_matches_des(self):
        cfg = MicrobenchConfig(transfer_size=64 * KB, queue_depth=1, iterations=50)
        des = _seeded(run_software_microbench, cfg)
        registry = _counters()
        auto = _seeded(run_software_microbench, cfg, mode="auto")
        assert registry.counter("fidelity.regions_batched").value == 1
        assert auto.operations == des.operations
        assert auto.throughput == pytest.approx(des.throughput, rel=1e-9)
        assert auto.mean_latency_ns == pytest.approx(des.mean_latency_ns, rel=1e-9)

    def test_umwait_fraction_survives_scaling(self):
        # Uniform core-cycle scaling must preserve ratio metrics.
        from repro.runtime.wait import WaitMode

        cfg = MicrobenchConfig(
            transfer_size=4 * KB, queue_depth=1, iterations=60, wait_mode=WaitMode.UMWAIT
        )
        des = _seeded(run_dsa_microbench, cfg)
        auto = _seeded(run_dsa_microbench, cfg, mode="auto")
        assert auto.umwait_fraction() == pytest.approx(des.umwait_fraction(), rel=0.05)
