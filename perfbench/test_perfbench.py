"""Tests for the benchmark's own code: ``python -m pytest perfbench``."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run  # noqa: E402
from perfbench.meter import SpeedMeter  # noqa: E402
from perfbench.spans import BOUNDARIES, LAYERS, SpanRecorder, TracedGenerator, instrument  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    QUICK_ANCHORS,
    ClosedLoop256k,
    Unit,
    summarize_experiments,
)
from repro.experiments import all_experiments  # noqa: E402
from repro.experiments.base import ExperimentResult  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    """Returns the scripted timestamps in order."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # exp [0, 100] > sim [10, 90] > (dsa [20, 50], mem [60, 70])
    rec = SpanRecorder(clock=FakeClock([0, 0, 10, 20, 50, 60, 70, 90, 100]))
    rec.enter()
    rec.enter()
    rec.enter()
    rec.exit("dsa.a", "dsa")
    rec.enter()
    rec.exit("mem.b", "mem", desc=7)
    rec.exit("sim.run", "sim")
    rec.exit("exp.unit", "exp")
    assert rec.self_ns["exp"] == 20
    assert rec.self_ns["sim"] == 80 - 30 - 10
    assert rec.self_ns["dsa"] == 30
    assert rec.self_ns["mem"] == 10
    shares = rec.shares()
    assert sum(shares.values()) == pytest.approx(1.0)
    assert shares["sim"] == pytest.approx(0.4)
    root, sim, dsa, mem = rec.samples
    assert root["parent"] == -1 and sim["parent"] == 0
    assert dsa["parent"] == 1 and mem["parent"] == 1
    assert mem["desc"] == 7 and mem["dur_ns"] == 10


def test_sample_is_bounded_but_self_time_is_not():
    rec = SpanRecorder(clock=FakeClock(range(0, 100, 1)), sample_limit=2)
    for _ in range(4):
        rec.enter()
        rec.exit("obs.x", "obs")
    assert len(rec.samples) == 2
    assert rec.calls["obs.x"] == 4 and rec.self_ns["obs"] == 4


def test_traced_generator_under_yield_from():
    rec = SpanRecorder()

    def inner():
        got = yield "a"
        return got * 2

    def outer():
        result = yield from TracedGenerator(inner(), rec, "runtime.inner", "runtime")
        yield result

    gen = outer()
    assert next(gen) == "a"
    assert gen.send(21) == 42
    assert rec.calls["runtime.inner"] == 2


def _bindings():
    """Every attribute the instrumentation may patch, by identity."""
    import importlib

    found = {}
    for module_name, class_name, attr in BOUNDARIES:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        found[(module_name, class_name, attr)] = getattr(owner, attr)
    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and module is not None:
            for attr in ("prepare_descriptor", "submit", "wait_for"):
                if hasattr(module, attr):
                    found[(name, None, attr)] = getattr(module, attr)
    from repro.sim.engine import Environment

    found[("repro.sim.engine", "Environment", "process")] = Environment.process
    return found


def _small_closed_loop():
    workload = ClosedLoop256k(seed=1)
    workload.cfg.iterations = 40
    workload.cfg.transfer_size = 16 * 1024
    return workload


def test_traced_unit_restores_every_wrapper_and_keeps_the_digest():
    workload = _small_closed_loop()
    plain = workload.unit(SpeedMeter())
    before = _bindings()
    rec = SpanRecorder()
    with instrument(rec) as inst:
        assert inst.patched
        traced = workload.unit(SpeedMeter())
    assert inst.patched == []
    after = _bindings()
    assert after.keys() == before.keys()
    for key, original in before.items():
        assert after[key] is original, key
    assert traced.digest == plain.digest
    assert traced.failed == 0 and traced.descriptors == 40
    assert rec.calls["resume"] > 0 and rec.calls["mem.Iommu.translate"] > 0
    assert inst.events > 0


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def _unit(**overrides):
    fields = dict(wall_s=2.0, host_s=2.2, attempted=10, failed=0, descriptors=100, requests=50,
                  digest="d", exp_wall={exp_id: 0.1 for exp_id in all_experiments()})
    fields.update(overrides)
    return Unit(**fields)


def test_every_declared_metric_is_computed():
    rec = SpanRecorder()
    units = [_unit(), _unit(wall_s=3.0)]
    layer = run.per_layer(units, _unit(), rec, events=10)
    assert {m["name"] for m in SPEC["per_layer"]} == set(layer)
    assert {f"{layer}.self_share" for layer in LAYERS} <= set(layer)
    e2e = run.end_to_end(units, [(0.2, 1.0), (0.4, 1.0), (0.3, 1.0)])
    assert {m["name"] for m in SPEC["end_to_end"]} == set(e2e)
    assert e2e["wall_s"] == 2.5 and e2e["setup_s"] == 0.3


def test_fail_frac_counts_a_forced_anchor_miss():
    result = ExperimentResult(exp_id="fig2", title="t", description="d")
    result.check("holds", "x", "x", True)
    result.check("forced miss", "x", "y", False)
    unit = summarize_experiments([("fig2", result, 0.5, 0.4), ("fig17", None, 0.1, 0.1)])
    assert unit.attempted == 2 + QUICK_ANCHORS["fig17"]
    assert unit.failed == 1 + QUICK_ANCHORS["fig17"]
    metrics = run.per_layer([unit], unit, SpanRecorder(), events=0)
    assert metrics["fail_frac"] == pytest.approx(unit.failed / unit.attempted)


def test_meter_scales_by_the_calibration_loop(monkeypatch):
    from perfbench import meter as meter_module

    loops = iter([0.04] * meter_module.CAL_LOOPS + [0.02] * meter_module.CAL_LOOPS)
    monkeypatch.setattr(meter_module, "calibration_loop", lambda: next(loops))
    clock = iter([10.0, 13.0])
    monkeypatch.setattr(meter_module.time, "perf_counter", lambda: next(clock))
    meter = SpeedMeter()
    result, host, reference = meter.timed(lambda: "done")
    assert result == "done" and host == 3.0
    # Loops ran at 1.5x the reference loop time on average.
    assert reference == pytest.approx(3.0 * meter_module.CAL_REF_S / 0.03)
    assert meter.last == 0.02 and len(meter.samples) == 2 * meter_module.CAL_LOOPS


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-quick", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
