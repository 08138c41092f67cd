"""The benchmark workloads' simulated outputs, pinned at the default seed.

``perfbench/run.py`` only checks that every unit of one run reproduces
that run's own ``sim_digest``, so a change that alters what the
simulator computes still passes there.  This test runs one unit each of
the two simulation workloads and pins the digest of their outputs: a
speed-only change must leave both unchanged.
"""

import pytest

from perfbench.workloads import WORKLOADS
from repro.config import RunConfig, using
from repro.sim.rng import DEFAULT_SEED

SIM_DIGESTS = {
    "closed-loop-256k": "82b9fe3e455edbc5",
    "open-loop-serving": "835b98ede45ec276",
}


class UntimedMeter:
    """Stands in for ``perfbench.meter.SpeedMeter``: runs, does not time."""

    def timed(self, fn):
        return fn(), 1.0, 1.0


@pytest.mark.parametrize("workload", sorted(SIM_DIGESTS))
def test_default_seed_digest_is_pinned(workload):
    with using(RunConfig()):
        unit = WORKLOADS[workload](DEFAULT_SEED).unit(UntimedMeter())
    assert unit.failed == 0
    assert unit.digest == SIM_DIGESTS[workload]
