"""Fleet placement in the traffic layer: spread, failover, QoS pinning."""

import pytest

from repro.dsa.config import DeviceConfig, WqConfig, EngineConfig, GroupConfig, WqMode
from repro.fleet import FleetSpec
from repro.platform import fleet_platform, spr_platform
from repro.traffic.loadgen import LoadGenerator, drive_profile
from repro.traffic.profile import SizeDist, TrafficProfile, dsa_capacity, make_tenants

KB = 1024
SIZE = 8 * KB
ENGINES = 4


def shared_config(wq_size=128):
    return DeviceConfig.single(wq_size=wq_size, n_engines=ENGINES, mode=WqMode.SHARED)


def profile_for(n_tenants, rho, max_retries=4):
    rate = rho * dsa_capacity(SIZE, engines=ENGINES)
    return TrafficProfile(
        name=f"fleet-{n_tenants}",
        tenants=make_tenants(
            "t",
            n_tenants,
            rate,
            sizes=SizeDist(kind="fixed", size=SIZE),
            max_retries=max_retries,
        ),
    )


def run_with_disable(platform, profile, requests, fleet, disable_at, device="dsa0"):
    generator = LoadGenerator(platform, profile, requests, fleet=fleet)
    generator.start()

    def killer(env):
        yield env.timeout(disable_at)
        platform.driver.disable(device)

    platform.env.process(killer(platform.env), name="test.disable")
    platform.env.run()
    return generator, generator.finalize()


class TestFleetPlacement:
    def test_requests_spread_over_every_device(self):
        generator, totals = drive_profile(
            profile_for(4, rho=0.5),
            200,
            fleet=FleetSpec(2, 2, "round-robin"),
        )
        assert totals["offered"] == totals["completed"] + totals["dropped"]
        snapshot = generator.platform.metrics_snapshot()
        for name in ("dsa0", "dsa1", "dsa2", "dsa3"):
            assert snapshot[f"fleet.{name}.selected"] > 0

    def test_numa_local_avoids_remote_translations(self):
        generator, _totals = drive_profile(
            profile_for(4, rho=0.5),
            200,
            fleet=FleetSpec(2, 2, "numa-local"),
        )
        snapshot = generator.platform.metrics_snapshot()
        remote = sum(
            value
            for name, value in snapshot.items()
            if ".remote_translations" in name
        )
        # Tenant buffers live on the tenant's socket and numa-local
        # placement keeps the device there too: no UPI translations.
        assert remote == 0

    def test_fleet_and_n_devices_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            drive_profile(
                profile_for(2, rho=0.2),
                50,
                n_devices=2,
                fleet=FleetSpec(2, 1),
            )


class TestFleetFailover:
    def test_device_loss_reroutes_and_conserves(self):
        fleet = FleetSpec(2, 2, "numa-local")
        platform = fleet_platform(
            sockets=2, devices_per_socket=2, device_config=shared_config()
        )
        # Overcommit the fleet so dsa0's WQ is backlogged when it dies.
        profile = profile_for(4, rho=8.0)
        requests = 400
        horizon = requests / sum(t.rate for t in profile.tenants)
        generator, totals = run_with_disable(
            platform, profile, requests, fleet, disable_at=horizon / 4
        )
        assert totals["offered"] == totals["completed"] + totals["dropped"]
        snapshot = generator.platform.metrics_snapshot()
        assert snapshot.get("traffic.fleet.reroutes", 0.0) > 0
        assert snapshot["fleet.dsa0.failover.rerouted"] > 0
        # Post-disable placements never touch the dead device again.
        assert snapshot["fleet.devices_live.level"] == 3.0

    @pytest.mark.parametrize("wq_size", [128, 16])
    def test_failover_is_not_booked_as_an_enqcmd_retry(self, wq_size):
        # Each WQ is booked exactly the ENQCMD rejections it issued: a
        # failover is no ENQCMD retry, and the rejections a request met
        # on a device it left are not booked again on its next device.
        # The 16-entry WQs add rejections on the surviving devices.
        fleet = FleetSpec(2, 2, "numa-local")
        platform = fleet_platform(
            sockets=2, devices_per_socket=2, device_config=shared_config(wq_size)
        )
        profile = profile_for(4, rho=8.0)
        requests = 400
        horizon = requests / sum(t.rate for t in profile.tenants)
        generator, totals = run_with_disable(
            platform, profile, requests, fleet, disable_at=horizon / 4
        )
        snapshot = generator.platform.metrics_snapshot()
        assert snapshot.get("traffic.fleet.reroutes", 0.0) > 0
        # Every WQ books ``.rejected`` from its creation; the per-source
        # families appear with the first rejection.
        booked = {
            name.rsplit(".", 1)[0]
            for name in snapshot
            if ".wq" in name and name.endswith((".rejected", ".enqcmd_retries"))
        }
        queues = {prefix for prefix in booked if ".source." not in prefix}
        assert queues
        for prefix in sorted(booked):
            assert snapshot.get(f"{prefix}.enqcmd_retries", 0.0) == snapshot.get(
                f"{prefix}.rejected", 0.0
            ), prefix
        # The accountant's per-request retries still count the failovers.
        assert totals["retries"] > sum(
            snapshot.get(f"{queue}.enqcmd_retries", 0.0) for queue in queues
        )

    def test_failed_requests_are_dropped_not_completed(self):
        # The regression this guards: without a fleet scheduler a
        # DEVICE_DISABLED completion used to be booked as *completed*.
        platform = spr_platform(device_config=shared_config())
        profile = profile_for(2, rho=1.0)
        requests = 200
        horizon = requests / sum(t.rate for t in profile.tenants)
        _generator, totals = run_with_disable(
            platform, profile, requests, fleet=None, disable_at=horizon / 2
        )
        assert totals["offered"] == totals["completed"] + totals["dropped"]
        assert totals["dropped"] > 0
        assert totals["completed"] < totals["offered"]


class TestQosPinning:
    def test_qos_tenant_keeps_its_declared_wq_under_fleet(self):
        config = DeviceConfig(
            wqs=(
                WqConfig(wq_id=0, size=64, mode=WqMode.SHARED, priority=15),
                WqConfig(wq_id=1, size=64, mode=WqMode.SHARED, priority=1),
            ),
            engines=tuple(EngineConfig(i) for i in range(ENGINES)),
            groups=(GroupConfig(0, wq_ids=(0, 1), engine_ids=tuple(range(ENGINES))),),
        )
        rate = 0.4 * dsa_capacity(SIZE, engines=ENGINES)
        profile = TrafficProfile(
            name="fleet-qos",
            tenants=make_tenants(
                "hi",
                1,
                rate / 2,
                sizes=SizeDist(kind="fixed", size=SIZE),
                wq_id=0,
                qos_priority=15,
            )
            + make_tenants(
                "lo",
                1,
                rate / 2,
                sizes=SizeDist(kind="fixed", size=SIZE),
            ),
            )
        generator, totals = drive_profile(
            profile,
            100,
            device_config=config,
            fleet=FleetSpec(2, 1, "round-robin"),
        )
        assert totals["offered"] == totals["completed"] + totals["dropped"]
        snapshot = generator.platform.metrics_snapshot()
        # The QoS-pinned tenant stayed on its declared dsa0 WQ 0; only
        # the unpinned tenant rode the scheduler.
        hi_state = next(
            s for s in generator._states if s.spec.name.startswith("hi")
        )
        assert hi_state.device is not None
        assert hi_state.device.name == "dsa0"
        lo_state = next(
            s for s in generator._states if s.spec.name.startswith("lo")
        )
        assert lo_state.device is None
        assert snapshot.get("fleet.dsa1.selected", 0.0) > 0
