"""ParallelRunner tests: determinism, caching, merge, failure paths.

The experiments used here (fig4, fig8, fig12) are the cheapest
registered ones (tens of milliseconds in quick mode), so spinning up a
real worker pool stays fast.
"""

import sys
import types

import numpy as np
import pytest

from repro.config import RunConfig, active_config
from repro.exec import ParallelRunner, ResultCache
from repro.experiments import registry
from repro.experiments.base import ExperimentResult
from repro.obs import (
    MetricsRegistry,
    Tracer,
    install_metrics,
    install_tracer,
    uninstall_metrics,
    uninstall_tracer,
)
from repro.sim.rng import DEFAULT_SEED, install_seed, make_rng

CHEAP = ["fig4", "fig12"]


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    uninstall_metrics()
    uninstall_tracer()
    install_seed(None)


class TestDeterminism:
    def test_parallel_render_matches_serial_byte_for_byte(self):
        serial = ParallelRunner(jobs=1, quick=True).run(CHEAP)
        parallel = ParallelRunner(jobs=2, quick=True).run(CHEAP)
        assert [o.exp_id for o in parallel] == CHEAP  # request order kept
        for ser, par in zip(serial, parallel):
            assert ser.ok and par.ok
            assert ser.result.render() == par.result.render()
            assert ser.result.metrics == par.result.metrics

    def test_explicit_seed_matches_across_modes(self):
        serial = ParallelRunner(jobs=1, quick=True, config=RunConfig(seed=7)).run(["fig4"])[0]
        parallel = ParallelRunner(jobs=2, quick=True, config=RunConfig(seed=7)).run(["fig4", "fig12"])[0]
        assert serial.result.render() == parallel.result.render()


class TestSeedPlumbing:
    def test_install_seed_changes_default_rng(self):
        baseline = make_rng().integers(0, 2**31)
        install_seed(12345)
        assert active_config().seed == 12345
        changed = make_rng().integers(0, 2**31)
        install_seed(None)
        assert active_config().seed == DEFAULT_SEED
        assert make_rng().integers(0, 2**31) == baseline
        assert changed != baseline

    def test_explicit_seed_still_wins(self):
        install_seed(12345)
        try:
            a = make_rng(9).integers(0, 2**31)
        finally:
            install_seed(None)
        assert a == make_rng(9).integers(0, 2**31)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            install_seed("abc")

    def test_local_runner_restores_seed(self):
        ParallelRunner(jobs=1, quick=True, config=RunConfig(seed=99)).run(["fig12"])
        assert active_config().seed == DEFAULT_SEED


class TestCaching:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        cold = ParallelRunner(jobs=1, quick=True, cache=cache).run(CHEAP)
        warm = ParallelRunner(jobs=1, quick=True, cache=cache).run(CHEAP)
        assert all(not o.cached for o in cold)
        assert all(o.cached for o in warm)
        for c, w in zip(cold, warm):
            assert c.result.render() == w.result.render()

    def test_parallel_warm_cache_skips_the_pool(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        ParallelRunner(jobs=2, quick=True, cache=cache).run(CHEAP)
        warm = ParallelRunner(jobs=2, quick=True, cache=cache).run(CHEAP)
        assert all(o.cached for o in warm)

    def test_no_cache_bypasses_reads_and_writes(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        ParallelRunner(jobs=1, quick=True, cache=cache).run(["fig12"])
        again = ParallelRunner(jobs=1, quick=True, cache=None).run(["fig12"])
        assert not again[0].cached
        assert len(cache.entries()) == 1  # untouched by the no-cache run

    def test_quick_and_seed_partition_the_cache(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        ParallelRunner(jobs=1, quick=True, config=RunConfig(seed=1), cache=cache).run(["fig12"])
        other = ParallelRunner(jobs=1, quick=True, config=RunConfig(seed=2), cache=cache).run(["fig12"])
        assert not other[0].cached

    def test_tracing_bypasses_cache_reads(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        ParallelRunner(jobs=1, quick=True, cache=cache).run(["fig4"])
        tracer = Tracer()
        install_tracer(tracer)
        traced = ParallelRunner(jobs=1, quick=True, cache=cache, trace=True).run(["fig4"])
        assert not traced[0].cached
        assert len(tracer.events) > 0


class TestObservabilityMerge:
    def test_worker_trace_events_fold_into_parent(self):
        tracer = Tracer()
        install_tracer(tracer)
        ParallelRunner(jobs=2, quick=True, trace=True).run(CHEAP)
        assert len(tracer.events) > 0
        # Worker tracks were remapped, not collapsed: the merged trace
        # keeps more than one non-default track.
        tracks = {record[5] for record in tracer.events if record[5]}
        assert len(tracks) > 1

    def test_worker_metrics_fold_into_parent_registry(self):
        registry_ = MetricsRegistry()
        install_metrics(registry_)
        outcomes = ParallelRunner(jobs=2, quick=True).run(CHEAP)
        # Serial semantics: parent registry holds the *last* experiment's
        # snapshot values.
        assert len(registry_) > 0
        assert registry_.snapshot() == outcomes[-1].result.metrics

    def test_results_carry_metrics_snapshots_from_workers(self):
        outcomes = ParallelRunner(jobs=2, quick=True).run(CHEAP)
        for outcome in outcomes:
            assert outcome.result.metrics


class TestFailurePaths:
    def _register_boom(self, monkeypatch, fail=True):
        module = types.ModuleType("repro_test_boom")

        def run(quick=False):
            from repro.obs import installed_metrics

            registry_ = installed_metrics()
            if registry_ is not None:
                registry_.counter("boom.partial").add(41)
            raise RuntimeError("boom mid-run")

        module.run = run
        monkeypatch.setitem(sys.modules, "repro_test_boom", module)
        monkeypatch.setitem(registry._EXPERIMENTS, "boom", "repro_test_boom")

    def test_failed_experiment_reports_error_and_run_continues(self, monkeypatch):
        self._register_boom(monkeypatch)
        outcomes = ParallelRunner(jobs=1, quick=True).run(["boom", "fig12"])
        assert not outcomes[0].ok
        assert "boom mid-run" in outcomes[0].error
        assert outcomes[1].ok

    def test_failure_is_never_cached(self, monkeypatch, tmp_path):
        self._register_boom(monkeypatch)
        cache = ResultCache(root=tmp_path / "c")
        ParallelRunner(jobs=1, quick=True, cache=cache).run(["boom"])
        assert cache.entries() == []


def _probe_run(quick=False):
    """Report the run mode the experiment body actually sees."""
    result = ExperimentResult(exp_id="probe", title="probe", description="")
    result.seen = active_config()
    return result


class _SaltSpy(ResultCache):
    """Records the (seed, variant) every lookup and store is keyed on."""

    def __init__(self, root):
        super().__init__(root=root)
        self.salts = []

    def get(self, exp_id, quick, seed, variant=""):
        self.salts.append((seed, variant))
        return None

    def put(self, exp_id, quick, seed, result, wall, variant=""):
        self.salts.append((seed, variant))
        return None


class TestRunConfigReachesTheExperiment:
    """Serial, pool and single-miss local paths all run the runner's config."""

    CONFIG = RunConfig(
        seed=5, tier="medium", traffic="bursty", fleet="2x2",
        placement="numa-local", hist_backend="exact",
    )

    @pytest.mark.parametrize(
        "jobs, ids",
        [
            (1, ["probe"]),                # in-process
            (2, ["probe", "probe-b"]),     # two misses: the worker pool
            (4, ["probe"]),                # one miss: local despite jobs > 1
        ],
    )
    def test_experiment_sees_the_runner_config(self, monkeypatch, tmp_path, jobs, ids):
        module = types.ModuleType("repro_test_probe")
        module.run = _probe_run
        monkeypatch.setitem(sys.modules, "repro_test_probe", module)
        for exp_id in ids:
            monkeypatch.setitem(registry._EXPERIMENTS, exp_id, "repro_test_probe")
        cache = _SaltSpy(tmp_path / "c")
        outcomes = ParallelRunner(jobs=jobs, quick=True, config=self.CONFIG, cache=cache).run(ids)
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            assert outcome.result.seen == self.CONFIG
        # One lookup and one store per experiment, all under the salt
        # of the config that actually ran.
        assert cache.salts == [(self.CONFIG.seed, self.CONFIG.variant())] * (2 * len(ids))
        assert active_config() == RunConfig()
