"""Cache variant salting: canonical builder and collision freedom.

The result cache keys on ``(exp_id, quick, seed, variant)``; the variant
string is the only thing separating results produced under different
run modes (histogram backend, scale tier, ...).  It is
:meth:`RunConfig.variant`.  These tests pin its strings — deterministic
ordering, default elision — and prove that no two distinct run modes
ever share a cache entry.
"""

import hashlib
import itertools

import pytest

from repro.config import RunConfig
from repro.exec.cache import CACHE_FORMAT, ResultCache
from repro.exec.fingerprint import fingerprint
from repro.exec.runner import ParallelRunner
from repro.experiments.registry import module_path


class TestVariantString:
    def test_empty_for_no_flags(self):
        assert RunConfig().variant() == ""

    def test_defaults_are_elided(self):
        # The default configuration must map to the pre-variant key ""
        # so existing caches stay valid.
        assert RunConfig(hist_backend="auto", tier="small").variant() == ""

    def test_keys_are_sorted(self):
        assert (
            RunConfig(hist_backend="exact", fleet="2x2").variant()
            == RunConfig(fleet="2x2", hist_backend="exact").variant()
            == "fleet=2x2,hist=exact"
        )

    def test_separator_characters_rejected(self):
        # Only validated choices reach the salt, so no value can carry
        # a separator into it.
        with pytest.raises(ValueError):
            RunConfig(hist_backend="a,b")
        with pytest.raises(ValueError):
            RunConfig(fleet="2x2,tier=large")

    def test_distinct_flag_combos_never_collide(self):
        fleets = ["1x1", "2x2", "2x4"]
        hists = ["auto", "exact", "streaming"]
        tiers = ["small", "large"]
        combos = list(itertools.product(fleets, hists, tiers))
        strings = [
            RunConfig(fleet=f, hist_backend=h, tier=t).variant()
            for f, h, t in combos
        ]
        assert len(set(strings)) == len(combos)

    def test_every_field_salts_except_seed(self):
        config = RunConfig(
            seed=7, hist_backend="exact",
            tier="medium", traffic="bursty", fleet="2x2", placement="numa-local",
        )
        assert config.variant() == (
            "fleet=2x2,hist=exact,placement=numa-local,tier=medium,traffic=bursty"
        )
        assert RunConfig(seed=7).variant() == ""

    def test_fleet_spelling_is_canonical(self):
        assert RunConfig(fleet="1X1").variant() == ""
        assert RunConfig(fleet="2X4").variant() == "fleet=2x4"


class TestRunnerVariant:
    def test_default_runner_uses_legacy_empty_variant(self):
        assert ParallelRunner(jobs=1).config.variant() == ""

    def test_tier_flag_salts_the_variant(self):
        runner = ParallelRunner(jobs=1, config=RunConfig(tier="large"))
        assert runner.config.variant() == "tier=large"

    def test_explicit_defaults_match_default(self):
        config = RunConfig(tier="small", placement="round-robin")
        assert ParallelRunner(jobs=1, config=config).config.variant() == ""

    def test_combined_flags(self):
        runner = ParallelRunner(
            jobs=1, config=RunConfig(tier="large", hist_backend="streaming")
        )
        assert runner.config.variant() == "hist=streaming,tier=large"


class TestCacheKeying:
    @pytest.fixture
    def cache(self, tmp_path):
        return ResultCache(root=tmp_path / "cache")

    def test_variant_separates_entries(self, cache):
        base = cache.key("fig2", quick=False, seed=1)
        salted = cache.key("fig2", quick=False, seed=1, variant="tier=large")
        assert base != salted

    def test_same_variant_same_key(self, cache):
        a = cache.key("fig2", quick=True, seed=7, variant="tier=large")
        b = cache.key("fig2", quick=True, seed=7, variant="tier=large")
        assert a == b

    def test_default_config_keeps_the_legacy_key(self, cache):
        # Entries written before RunConfig existed were keyed with an
        # empty variant, i.e. with no variant in the hashed material.
        config = RunConfig()
        material = (
            f"v{CACHE_FORMAT}|fig2|quick=1|seed={config.seed}|"
            f"{fingerprint(module_path('fig2'))}"
        )
        legacy = hashlib.sha256(material.encode("utf-8")).hexdigest()
        assert cache.key("fig2", True, config.seed, config.variant()) == legacy
