"""Golden descriptor lifecycles: exact timestamps and completion records.

The processing engine's pipeline is an optimisation target: its event
structure may change (fewer calendar entries, fused delays) but what it
simulates may not.  Each scenario below pins, bit for bit, the
``times.dispatched`` / ``times.completed`` floats and the completion
record (status, bytes_completed, fault_address, result) of every
descriptor it submits, and a few cheap quick experiments pin a digest
of every series they produce.  A refactor of the engine is correct
only if all of these are unchanged.
"""

import hashlib
import json

import pytest

from repro.dsa.descriptor import BatchDescriptor, WorkDescriptor
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.experiments import run_experiment
from repro.mem.address import AddressSpace
from repro.obs import MetricsRegistry, install_metrics, uninstall_metrics
from repro.platform import fleet_platform, spr_platform
from repro.runtime.dml import Dml, DmlPath
from repro.sim.rng import DEFAULT_SEED, install_seed

KB = 1024
PAGE = 4096
BOF = DescriptorFlags.REQUEST_COMPLETION | DescriptorFlags.BLOCK_ON_FAULT


def record(descriptor):
    """The pinned view of one descriptor: timestamps + completion record."""
    completion = descriptor.completion
    return (
        descriptor.times.dispatched,
        descriptor.times.completed,
        completion.status.name,
        completion.bytes_completed,
        completion.fault_address,
        completion.result,
    )


def copy(space, size, flags=BOF, src_node=0, backed=False):
    src = space.allocate(size, node=src_node, backed=backed)
    dst = space.allocate(size, backed=backed)
    return WorkDescriptor(
        Opcode.MEMMOVE, pasid=space.pasid, flags=flags, src=src.va, dst=dst.va, size=size
    )


def device_stack(platform=None):
    platform = platform or spr_platform()
    device = platform.driver.device("dsa0")
    space = AddressSpace()
    device.attach_space(space)
    return platform, device, space


def scenario_sync_memmove():
    """Synchronous 4 KB and 256 KB offloads through the runtime."""
    platform = spr_platform()
    space = AddressSpace()
    dml = Dml(
        platform.env,
        [platform.open_portal("dsa0", 0, space)],
        kernels=platform.kernels,
        costs=platform.costs,
        space=space,
    )
    core = platform.core(0)
    out = []

    def proc(env):
        for size in (4 * KB, 256 * KB):
            src = space.allocate(size, backed=True)
            dst = space.allocate(size, backed=True)
            src.data[:] = 0x5A
            descriptor = dml.make_descriptor(Opcode.MEMMOVE, size, src=src, dst=dst)
            yield from dml.execute(core, descriptor, path=DmlPath.HARDWARE)
            out.append(record(descriptor) + (bool((dst.data == 0x5A).all()),))

    platform.env.process(proc(platform.env))
    platform.env.run()
    return out


def scenario_fenced_batch():
    """An 8-member batch whose sixth member carries FENCE."""
    platform, device, space = device_stack()
    members = [copy(space, (i + 1) * 8 * KB) for i in range(8)]
    members[5].flags = BOF | DescriptorFlags.FENCE
    batch = BatchDescriptor(descriptors=members, pasid=space.pasid)
    device.submit(batch)
    platform.env.run()
    return [record(batch)] + [record(member) for member in members]


def scenario_drain_behind_inflight():
    platform, device, space = device_stack()
    work = [copy(space, size) for size in (64 * KB, 16 * KB, 128 * KB)]
    drain = WorkDescriptor(Opcode.DRAIN, pasid=space.pasid)
    for descriptor in work + [drain]:
        device.submit(descriptor)
    platform.env.run()
    return [record(descriptor) for descriptor in work + [drain]]


def scenario_partial_completion():
    """BOF=0 copy whose source faults after two mapped pages."""
    platform, device, space = device_stack()
    src = space.allocate(16 * KB, prefault=False, backed=True)
    dst = space.allocate(16 * KB, backed=True)
    space.page_table.map_range(src.va, 2 * PAGE)
    src.data[:] = 0x33
    descriptor = WorkDescriptor(
        Opcode.MEMMOVE,
        pasid=space.pasid,
        flags=DescriptorFlags.REQUEST_COMPLETION,
        src=src.va,
        dst=dst.va,
        size=16 * KB,
    )
    device.submit(descriptor)
    platform.env.run()
    moved = int((dst.data == 0x33).sum())
    return [record(descriptor) + (moved,)]


def scenario_cache_flush():
    platform, device, space = device_stack()
    dst = space.allocate(64 * KB)
    flush = WorkDescriptor(Opcode.CACHE_FLUSH, pasid=space.pasid, dst=dst.va, size=64 * KB)
    device.submit(flush)
    platform.env.run()
    return [record(flush)]


def scenario_disable_before_dispatch():
    """The driver disables the device while a popped descriptor dispatches."""
    platform, device, space = device_stack()
    first, queued = copy(space, 4 * KB), copy(space, 4 * KB)
    device.submit(first)
    device.submit(queued)

    def disable(env):
        yield env.timeout(device.timing.dispatch_ns / 2)
        platform.driver.disable("dsa0")

    platform.env.process(disable(platform.env))
    platform.env.run()
    return [record(first), record(queued)]


def scenario_remote_operand():
    """dsa0 (socket 0) copies from a socket-1 buffer: remote-IOMMU ATS."""
    platform, device, space = device_stack(fleet_platform(2, 1))
    remote = [copy(space, 32 * KB, src_node=1) for _ in range(3)]
    local = copy(space, 32 * KB)
    for descriptor in remote + [local]:
        device.submit(descriptor)
    platform.env.run()
    return [record(descriptor) for descriptor in remote + [local]]


SCENARIOS = {
    "sync_memmove": scenario_sync_memmove,
    "fenced_batch": scenario_fenced_batch,
    "drain_behind_inflight": scenario_drain_behind_inflight,
    "partial_completion": scenario_partial_completion,
    "cache_flush": scenario_cache_flush,
    "disable_before_dispatch": scenario_disable_before_dispatch,
    "remote_operand": scenario_remote_operand,
}

EXPECTED = {
    "cache_flush": [
        (0.0, 735.36, "SUCCESS", 65536, None, 0),
    ],
    "disable_before_dispatch": [
        (0.0, 40.0, "DEVICE_DISABLED", 0, None, 0),
        (None, 7.5, "DEVICE_DISABLED", 0, None, 0),
    ],
    "drain_behind_inflight": [
        (0.0, 5188.700000000001, "SUCCESS", 65536, None, 0),
        (55.0, 2021.9, "SUCCESS", 16384, None, 0),
        (110.0, 7455.733333333334, "SUCCESS", 131072, None, 0),
        (165.0, 7480.733333333334, "SUCCESS", 0, None, 0),
    ],
    "fenced_batch": [
        (0.0, 10670.4, "SUCCESS", 8, None, 0),
        (None, 1622.6666666666665, "SUCCESS", 8192, None, 0),
        (None, 2874.9333333333334, "SUCCESS", 16384, None, 0),
        (None, 3754.133333333333, "SUCCESS", 24576, None, 0),
        (None, 4326.933333333333, "SUCCESS", 32768, None, 0),
        (None, 4610.0, "SUCCESS", 40960, None, 0),
        (None, 9726.2, "SUCCESS", 49152, None, 0),
        (None, 10352.333333333334, "SUCCESS", 57344, None, 0),
        (None, 10645.4, "SUCCESS", 65536, None, 0),
    ],
    "partial_completion": [
        (0.0, 825.3333333333333, "PAGE_FAULT", 8192, 12288, 0, 8192),
    ],
    "remote_operand": [
        (0.0, 4782.733333333334, "SUCCESS", 32768, None, 0),
        (55.0, 4849.733333333334, "SUCCESS", 32768, None, 0),
        (110.0, 4872.066666666667, "SUCCESS", 32768, None, 0),
        (165.0, 4800.733333333334, "SUCCESS", 32768, None, 0),
    ],
    "sync_memmove": [
        (63.0, 589.6666666666666, "SUCCESS", 4096, None, 0, True),
        (712.6666666666666, 11991.333333333332, "SUCCESS", 262144, None, 0, True),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_lifecycle_is_pinned(name):
    assert SCENARIOS[name]() == EXPECTED[name]


def _digest(payload):
    return hashlib.sha256(json.dumps(payload, default=repr).encode()).hexdigest()[:16]


def series_digests(exp_id):
    """Digest of every series, table and anchor of a quick run (default seed).

    Series keep every float digit; tables cover experiments (fig5) that
    report through rendered tables only.
    """
    install_seed(DEFAULT_SEED)
    install_metrics(MetricsRegistry())
    try:
        result = run_experiment(exp_id, quick=True)
    finally:
        uninstall_metrics()
        install_seed(None)
    digests = {
        f"series:{label}": _digest(series.points)
        for label, series in sorted(result.series.items())
    }
    for table in result.tables:
        digests[f"table:{table.title}"] = _digest(table.rows)
    digests["anchors"] = _digest([[a.name, a.measured, a.holds] for a in result.anchors])
    return digests


SERIES_DIGESTS = {
    "cbdma": {
        "series:ratio": "f285eace9fd21c67",
        "table:DSA vs CBDMA (async, QD 32)": "759fc4d4976bd25f",
        "anchors": "767669eb8ceeebcd",
    },
    "faults": {
        "series:bof0": "62a54213dc5de50c",
        "series:bof1": "2a8b8742a2850003",
        "series:software": "52085010be0b8562",
        "table:Fault sweep — throughput (GB/s)": "4583fd40ee433e35",
        "anchors": "6c74612a193f997c",
    },
    "fig3": {
        "series:async DWQ:BS1": "ee85182c6d3033f5",
        "series:async DWQ:BS8": "a4f937af247146b8",
        "series:async SWQ:BS1": "288bdc712ddc1d49",
        "series:async SWQ:BS8": "ed9736ef2702d30c",
        "series:sync DWQ:BS1": "c4e2b647d15d996c",
        "series:sync DWQ:BS8": "31b148ba23c9aabb",
        "table:Fig 3 — sync DWQ (GB/s)": "c4232dbd72e358fb",
        "table:Fig 3 — async DWQ (GB/s)": "23d0e5894b459ed6",
        "table:Fig 3 — async SWQ (GB/s)": "b6fe3023b25152da",
        "anchors": "a09f78c6713075de",
    },
    "fig5": {
        "table:Fig 5 — per-offload latency (ns)": "729d64bf5478681c",
        "anchors": "abc36ff5347e425d",
    },
    "fig7": {
        "series:PE1": "f9e1bc96eb86fc2d",
        "series:PE4": "f8060cf2b9abff90",
        "table:Fig 7 — throughput (GB/s)": "0e3f53b2635f9c4a",
        "anchors": "f0de28739fe265a5",
    },
    "fleet-scaling": {
        "series:1-socket": "e8c6420492ff73cb",
        "series:2-socket": "db285b23d9de273b",
        "series:failover": "88c8fdf64b23b866",
        "series:placement": "bc799c79df62fb95",
        "table:Fleet scaling — aggregate throughput (GB/s, numa-local)": "887352360be32c7a",
        "table:Placement policy at 2x2 (GB/s)": "edd26e309a06d6c3",
        "table:Failover (disable dsa0 at 500 ns)": "34cc99bf8bdd910e",
        "anchors": "1c893aadf9c9b17b",
    },
}


@pytest.mark.parametrize("exp_id", sorted(SERIES_DIGESTS))
def test_quick_series_are_pinned(exp_id):
    assert series_digests(exp_id) == SERIES_DIGESTS[exp_id]
