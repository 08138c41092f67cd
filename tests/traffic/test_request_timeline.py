"""Golden request lifecycles: exact timestamps of open-loop traffic.

The traffic layer's request path is an optimisation target: how a
request is driven through arrival, ENQCMD, backoff, completion and SLO
accounting may change (fewer calendar entries, fused delays) but what
it simulates may not.  Each scenario below records, bit for bit, every
accountant call (``offered`` / ``completed`` / ``dropped`` with its
time, latency and retry count) and every ENQCMD attempt (time, device,
accepted) of a small run, plus the final clock.  A few quick traffic
experiments pin a digest of every series they produce.  A refactor of
the request path is correct only if all of these are unchanged.
"""

import pytest

from repro.dsa.config import DeviceConfig, WqMode
from repro.fleet import FleetSpec
from repro.platform import fleet_platform, spr_platform
from repro.sim.rng import DEFAULT_SEED, install_seed
from repro.traffic import (
    LoadGenerator,
    SizeDist,
    SloAccountant,
    TenantSpec,
    TrafficProfile,
    dsa_capacity,
    make_tenants,
)
from tests.dsa.test_pipeline_timeline import series_digests

KB = 1024


class RecordingAccountant(SloAccountant):
    """An accountant that also logs every call it receives."""

    def __init__(self, log, **kwargs):
        super().__init__(**kwargs)
        self.log = log

    def offered(self, name, now):
        self.log.append(("offered", name, now))
        super().offered(name, now)

    def dropped(self, name, now, retries=0):
        self.log.append(("dropped", name, now, retries))
        super().dropped(name, now, retries)

    def completed(self, name, now, latency_ns, nbytes, retries=0):
        self.log.append(("completed", name, now, latency_ns, nbytes, retries))
        super().completed(name, now, latency_ns, nbytes, retries)


def tap_enqcmds(platform, log):
    """Log every ENQCMD attempt: (time, submitter, device, accepted)."""
    env = platform.env
    for name, device in sorted(platform.driver.devices.items()):
        submit = device.submit

        def tapped(descriptor, wq_id=0, source=None, _submit=submit, _name=name):
            accepted = _submit(descriptor, wq_id, source=source)
            log.append(("enqcmd", source, env.now, _name, accepted))
            return accepted

        device.submit = tapped


def drive(platform, profile, requests, fleet=None, disable=None):
    """Run ``profile`` open loop and return the full event log."""
    log = []
    tap_enqcmds(platform, log)
    accountant = RecordingAccountant(log, window_ns=profile.window_ns)
    generator = LoadGenerator(platform, profile, requests, accountant=accountant, fleet=fleet)
    generator.start()
    if disable is not None:
        device, when = disable

        def killer(env):
            yield env.timeout(when)
            platform.driver.disable(device)

        platform.env.process(killer(platform.env), name="test.disable")
    platform.env.run()
    generator.finalize()
    log.append(("end", platform.env.now))
    return log


def tiny_swq():
    """One 2-entry SWQ fed by one engine: rejects come early."""
    return DeviceConfig.single(wq_size=2, n_engines=1, mode=WqMode.SHARED)


def retry_tenants(n, rho, max_retries):
    return make_tenants(
        "t",
        n,
        rho * dsa_capacity(16 * KB, engines=1),
        sizes=SizeDist(kind="fixed", size=16 * KB),
        max_retries=max_retries,
        backoff_base_ns=100.0,
        backoff_cap_ns=250.0,
    )


def scenario_retry_and_drop():
    """First-try accepts, a reject then a backoff+ENQCMD resubmit, and a
    drop when the one-retry budget runs out."""
    install_seed(DEFAULT_SEED)
    platform = spr_platform(device_config=tiny_swq())
    profile = TrafficProfile(name="retry", tenants=retry_tenants(2, 30.0, max_retries=1))
    return drive(platform, profile, 8)


def scenario_cpu_and_dsa():
    """A CPU tenant on a one-slot backlog (completions and sheds) beside
    a DSA tenant."""
    install_seed(DEFAULT_SEED)
    platform = spr_platform(device_config=tiny_swq())
    rate = 2.0 * dsa_capacity(16 * KB, engines=1)
    sizes = SizeDist(kind="fixed", size=4 * KB)
    profile = TrafficProfile(
        name="mixed",
        tenants=(
            TenantSpec("cpu", rate, target="cpu", sizes=sizes),
            TenantSpec("dsa", rate / 4, sizes=sizes),
        ),
        cpu_cores=1,
        cpu_queue_limit=1,
    )
    return drive(platform, profile, 8)


def scenario_fleet_failover():
    """2x2 round-robin fleet; dsa0 is disabled with requests on it, which
    are re-placed on survivors."""
    install_seed(DEFAULT_SEED)
    platform = fleet_platform(sockets=2, devices_per_socket=2, device_config=tiny_swq())
    profile = TrafficProfile(name="failover", tenants=retry_tenants(2, 80.0, max_retries=3))
    return drive(
        platform, profile, 12, fleet=FleetSpec(2, 2, "round-robin"), disable=("dsa0", 390.0)
    )


SCENARIOS = {
    "retry_and_drop": scenario_retry_and_drop,
    "cpu_and_dsa": scenario_cpu_and_dsa,
    "fleet_failover": scenario_fleet_failover,
}

EXPECTED = {'cpu_and_dsa': [('offered', 'cpu', 249.2532807929815),
                 ('offered', 'cpu', 562.0491843376228),
                 ('completed', 'cpu', 650.5866141263148, 401.33333333333326, 4096, 0),
                 ('offered', 'cpu', 696.8699724354639),
                 ('offered', 'cpu', 866.6229293117372),
                 ('dropped', 'cpu', 866.6229293117372, 0),
                 ('offered', 'dsa', 899.7139932340318),
                 ('completed', 'cpu', 1051.919947459648, 489.8707631220252, 4096, 0),
                 ('offered', 'cpu', 1192.988211637153),
                 ('enqcmd', 'dsa', 1249.713993234032, 'dsa0', True),
                 ('offered', 'cpu', 1360.532849586013),
                 ('dropped', 'cpu', 1360.532849586013, 0),
                 ('completed', 'cpu', 1453.2532807929813, 756.3833083575174, 4096, 0),
                 ('offered', 'dsa', 1477.3718799069234),
                 ('completed', 'dsa', 1776.3806599006987, 876.6666666666669, 4096, 0),
                 ('enqcmd', 'dsa', 1827.3718799069234, 'dsa0', True),
                 ('completed', 'cpu', 1854.5866141263145, 661.5984024891616, 4096, 0),
                 ('completed', 'dsa', 2234.03854657359, 756.6666666666665, 4096, 0),
                 ('end', 2234.03854657359)],
 'fleet_failover': [('offered', 't001', 11.246424915425399),
                    ('offered', 't000', 12.462664039649077),
                    ('offered', 't001', 18.467148498836544),
                    ('offered', 't001', 23.28877115637205),
                    ('offered', 't001', 23.386330473632924),
                    ('offered', 't000', 28.102459216881144),
                    ('offered', 't000', 34.84349862177319),
                    ('offered', 't001', 35.238957586079835),
                    ('offered', 't000', 43.331146465586855),
                    ('offered', 't001', 53.985065078442666),
                    ('offered', 't000', 59.649410581857644),
                    ('offered', 't000', 68.02664247930065),
                    ('enqcmd', 't001', 361.2464249154254, 'dsa0', True),
                    ('enqcmd', 't000', 362.4626640396491, 'dsa1', True),
                    ('enqcmd', 't001', 368.46714849883654, 'dsa2', True),
                    ('enqcmd', 't001', 373.28877115637204, 'dsa3', True),
                    ('enqcmd', 't001', 373.38633047363294, 'dsa0', True),
                    ('enqcmd', 't000', 378.10245921688113, 'dsa1', True),
                    ('enqcmd', 't000', 384.84349862177316, 'dsa2', True),
                    ('enqcmd', 't001', 385.23895758607983, 'dsa3', True),
                    ('enqcmd', 't000', 393.33114646558687, 'dsa0', True),
                    ('enqcmd', 't001', 403.9850650784427, 'dsa1', True),
                    ('enqcmd', 't000', 409.64941058185764, 'dsa2', True),
                    ('enqcmd', 't000', 418.0266424793007, 'dsa3', True),
                    ('enqcmd', 't001', 740.0, 'dsa1', True),
                    ('enqcmd', 't000', 806.2464249154255, 'dsa2', True),
                    ('completed', 't001', 1619.9130915820922, 1608.6666666666667, 16384, 0),
                    ('completed', 't001', 1976.7407230266401, 1958.2735745278035, 16384, 0),
                    ('completed', 't001', 2040.6887711563722, 2017.4, 16384, 0),
                    ('completed', 't001', 2130.6887711563722, 2095.4498135702925, 16384, 0),
                    ('completed', 't000', 2312.6887711563722, 2244.6621286770715, 16384, 0),
                    ('completed', 't000', 2384.150218719532, 2356.047759502651, 16384, 0),
                    ('completed', 't000', 2579.150218719532, 2566.687554679883, 16384, 0),
                    ('completed', 't000', 2691.74072302664, 2656.897224404867, 16384, 0),
                    ('completed', 't000', 2748.74072302664, 2689.091312444782, 16384, 0),
                    ('completed', 't001', 2811.150218719532, 2757.165153641089, 16384, 0),
                    ('completed', 't000', 2854.0004818321695, 2810.669335366583, 16384, 1),
                    ('completed', 't001', 2892.9959973729824, 2869.6096668993496, 16384, 1),
                    ('end', 2892.9959973729824)],
 'retry_and_drop': [('offered', 't001', 29.990466441134394),
                    ('offered', 't000', 33.233770772397534),
                    ('offered', 't001', 49.24572933023078),
                    ('offered', 't001', 62.10338975032546),
                    ('offered', 't001', 62.36354792968779),
                    ('offered', 't000', 74.93989124501638),
                    ('offered', 't000', 92.91599632472852),
                    ('offered', 't000', 115.54972390823161),
                    ('enqcmd', 't001', 379.9904664411344, 'dsa0', True),
                    ('enqcmd', 't000', 383.2337707723975, 'dsa0', True),
                    ('enqcmd', 't001', 399.2457293302308, 'dsa0', True),
                    ('enqcmd', 't001', 412.10338975032545, 'dsa0', False),
                    ('enqcmd', 't001', 412.3635479296878, 'dsa0', False),
                    ('enqcmd', 't000', 424.9398912450164, 'dsa0', False),
                    ('enqcmd', 't000', 442.91599632472855, 'dsa0', True),
                    ('enqcmd', 't000', 465.5497239082316, 'dsa0', False),
                    ('enqcmd', 't001', 862.1033897503255, 'dsa0', True),
                    ('enqcmd', 't001', 862.3635479296878, 'dsa0', True),
                    ('enqcmd', 't000', 874.9398912450164, 'dsa0', True),
                    ('enqcmd', 't000', 915.5497239082316, 'dsa0', False),
                    ('dropped', 't000', 915.5497239082316, 2),
                    ('completed', 't001', 4101.589107292575, 4052.343377962344, 16384, 0),
                    ('completed', 't001', 4161.589107292575, 4131.598640851441, 16384, 0),
                    ('completed', 't000', 4274.089107292575, 4181.173110967847, 16384, 0),
                    ('completed', 't000', 4287.422440625908, 4254.188669853511, 16384, 0),
                    ('completed', 't001', 4517.757133107802, 4455.653743357476, 16384, 1),
                    ('completed', 't001', 4539.757133107802, 4477.393585178113, 16384, 1),
                    ('completed', 't000', 4548.9237997744685, 4473.9839085294525, 16384, 1),
                    ('end', 4548.9237997744685)]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lifecycle_is_pinned(name):
    try:
        assert SCENARIOS[name]() == EXPECTED[name]
    finally:
        install_seed(None)


SERIES_DIGESTS = {'traffic-crossover': {'anchors': '403b01cdfa3e1299',
                       'series:cpu-load-dropfrac': 'a93beda014c0c533',
                       'series:cpu-size-p99': '704c34969472c072',
                       'series:dsa0-load-dropfrac': 'b0033830612e0037',
                       'series:dsa0-size-p99': '12fca846e5de4096',
                       'table:Load sweep at 16 KiB (x CPU capacity) — drops and p99': 'c0ac43f56918b23f',
                       'table:Size sweep at half capacity — p99 latency (ns)': 'd451f5c1f0ebb77e'},
 'traffic-qos': {'anchors': '2464b262fcb6b3e8',
                 'series:hi-p999': '86c186b4a016588b',
                 'series:lo-p999': 'f94e86e7686df187',
                 'table:QoS sweep — per-cohort p999 (ns) and drops': '1575801ac550faa7'},
 'traffic-retry': {'anchors': '46e94642a575c727',
                   'series:p999-ns': '6891cda08d6cb548',
                   'series:retries-per-request': '2e372978fe1a476f',
                   'table:Fan-in sweep — retries, drops, tail': '0571e925faf1c069'}}


@pytest.mark.parametrize("exp_id", sorted(SERIES_DIGESTS))
def test_quick_traffic_series_are_pinned(exp_id):
    assert series_digests(exp_id) == SERIES_DIGESTS[exp_id]
