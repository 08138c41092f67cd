"""Scale-tier table, install-globals, and cache variant salting."""

import pytest

from repro.config import RunConfig, active_config
from repro.traffic import (
    TIERS,
    TRAFFIC_MODES,
    active_tier,
    set_default_tier,
    set_default_traffic,
    tier_names,
)


@pytest.fixture(autouse=True)
def _restore_installs():
    yield
    set_default_tier("small")
    set_default_traffic("default")


def test_tier_table_shape():
    assert tier_names() == ("small", "medium", "large")
    for tier in TIERS.values():
        tier.validate()
    # Strictly increasing scale and budget down the table.
    small, medium, large = TIERS["small"], TIERS["medium"], TIERS["large"]
    assert small.requests < medium.requests < large.requests
    assert small.tenants < medium.tenants < large.tenants
    assert small.expected_wall_s < medium.expected_wall_s < large.expected_wall_s
    # The documented contract: ~10K CI, ~2M nightly.
    assert small.requests == 10_000 and large.requests == 2_000_000


def test_install_globals_roundtrip():
    assert active_config().tier == "small"
    set_default_tier("large")
    assert active_config().tier == "large"
    assert active_tier() is TIERS["large"]
    set_default_traffic("bursty")
    assert active_config().traffic == "bursty"


def test_install_rejects_unknown():
    with pytest.raises(ValueError, match="scale tier"):
        set_default_tier("huge")
    with pytest.raises(ValueError, match="traffic mode"):
        set_default_traffic("fractal")
    # A rejected install leaves the previous value in place.
    assert active_config().tier == "small"
    assert active_config().traffic == "default"


def test_traffic_modes_cover_arrival_kinds():
    assert TRAFFIC_MODES == ("default", "poisson", "bursty", "diurnal")


# -- cache variant salting --------------------------------------------------


def test_default_tier_and_traffic_keep_historical_keys():
    # Defaults are dropped from the salt so pre-traffic cache entries
    # stay addressable.
    assert RunConfig(tier="small", traffic="default").variant() == ""
    assert RunConfig(tier="small", traffic="default", hist_backend="auto").variant() == ""


def test_nondefault_tier_and_traffic_salt_the_key():
    assert RunConfig(tier="large", traffic="default").variant() == "tier=large"
    assert RunConfig(tier="small", traffic="bursty").variant() == "traffic=bursty"
    assert (
        RunConfig(traffic="diurnal", tier="medium").variant()
        == "tier=medium,traffic=diurnal"
    )
