"""FleetSpec / --fleet parsing / the process-wide install pattern."""

import pytest

from repro.fleet.topology import (
    DEFAULT_FLEET,
    FleetSpec,
    active_fleet,
    parse_fleet,
    set_default_fleet,
    set_default_placement,
)


@pytest.fixture(autouse=True)
def _restore_default():
    yield
    set_default_fleet(None)
    set_default_placement("round-robin")


class TestFleetSpec:
    def test_default_is_single_device(self):
        assert DEFAULT_FLEET == FleetSpec(1, 1, "round-robin")
        assert DEFAULT_FLEET.is_default
        assert DEFAULT_FLEET.n_devices == 1

    def test_key_is_stable(self):
        assert FleetSpec(2, 4, "numa-local").key() == "2x4:numa-local"

    def test_devices_group_by_socket(self):
        spec = FleetSpec(2, 2)
        assert [spec.socket_of_device(i) for i in range(4)] == [0, 0, 1, 1]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sockets": 0},
            {"devices_per_socket": 0},
            {"placement": "alphabetical"},
        ],
    )
    def test_validation_rejects_bad_specs(self, kwargs):
        with pytest.raises(ValueError):
            FleetSpec(**kwargs)


class TestParseFleet:
    def test_parses_sockets_x_devices(self):
        assert parse_fleet("2x4") == (2, 4)
        assert parse_fleet("1X1") == (1, 1)

    @pytest.mark.parametrize("text", ["4", "2x", "axb", "0x2", "2x0", "1x2x3"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_fleet(text)


class TestInstallPattern:
    def test_install_and_reset(self):
        set_default_fleet("2x2")
        assert active_fleet() == FleetSpec(2, 2, "round-robin")
        assert not active_fleet().is_default
        set_default_fleet(None)
        assert active_fleet().is_default

    def test_placement_survives_fleet_reinstall(self):
        set_default_placement("numa-local")
        set_default_fleet("2x4")
        assert active_fleet() == FleetSpec(2, 4, "numa-local")
        set_default_fleet(None)
        # Back to 1x1, but the policy choice is sticky.
        assert active_fleet() == FleetSpec(1, 1, "numa-local")

    def test_bad_placement_install_raises(self):
        with pytest.raises(ValueError, match="unknown placement policy"):
            set_default_placement("hottest")
