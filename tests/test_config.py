"""RunConfig: validation, the active instance, installers, CLI and provenance."""

import json

import pytest

from repro.__main__ import _parser, main
from repro.config import (
    DEFAULT_SEED,
    PLACEMENTS,
    TIER_NAMES,
    RunConfig,
    active_config,
    update,
    using,
)
from repro.fleet import POLICIES, active_fleet, set_default_fleet, set_default_placement
from repro.traffic import TIERS, active_tier, set_default_tier


@pytest.fixture(autouse=True)
def _restore_active():
    with using(RunConfig()):
        yield


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.seed == DEFAULT_SEED
        assert config.as_dict() == {
            "seed": DEFAULT_SEED, "hist_backend": "auto", "tier": "small", "traffic": "default",
            "fleet": "1x1", "placement": "round-robin",
        }

    def test_dict_round_trips(self):
        config = RunConfig(seed=3, tier="large", fleet="2X4", placement="least-loaded")
        assert RunConfig(**config.as_dict()) == config

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunConfig().seed = 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hist_backend", "hdr"),
            ("tier", "huge"),
            ("traffic", "fractal"),
            ("fleet", "2x"),
            ("fleet", None),
            ("placement", "hottest"),
        ],
    )
    def test_every_field_is_validated(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})

    def test_seed_must_be_an_int(self):
        with pytest.raises(TypeError):
            RunConfig(seed="42")

    def test_choice_tables_match_their_subsystems(self):
        assert tuple(TIERS) == TIER_NAMES
        assert tuple(POLICIES) == PLACEMENTS


class TestActiveConfig:
    def test_using_restores_the_previous_config(self):
        outer = active_config()
        inner = RunConfig(seed=11, tier="medium")
        with using(inner):
            assert active_config() is inner
            assert active_tier() is TIERS["medium"]
        assert active_config() is outer

    def test_rejected_update_leaves_the_config_alone(self):
        before = active_config()
        with pytest.raises(ValueError):
            update(tier="huge")
        assert active_config() is before

    def test_readers_derive_from_the_fields(self):
        with using(RunConfig(tier="large", fleet="2x2", placement="numa-local")):
            assert active_tier() is TIERS["large"]
            fleet = active_fleet()
            assert (fleet.sockets, fleet.devices_per_socket, fleet.placement) == (
                2, 2, "numa-local",
            )
        assert active_tier() is TIERS["small"]

    def test_installers_replace_one_field_each(self):
        set_default_placement("numa-local")
        set_default_fleet("2x4")
        set_default_tier("large")
        set_default_fleet(None)
        assert active_config() == RunConfig(tier="large", placement="numa-local")


class TestCli:
    def test_malformed_fleet_exits_2_with_one_line(self, capsys):
        assert main(["run", "fig12", "--quick", "--no-cache", "--fleet", "2x"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--fleet expects SOCKETSxDEVICES" in err

    def test_any_invalid_field_exits_2_with_one_line(self, capsys):
        # argparse choices catch bad values typed on the command line;
        # a value set programmatically reaches RunConfig's validation.
        args = _parser().parse_args(["run", "fig12", "--quick", "--no-cache"])
        args.tier = "huge"
        assert args.func(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown scale tier 'huge'" in err

    def test_results_summary_records_the_config(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        argv = [
            "run", "fig12", "--quick", "--no-cache", "--seed", "9",
            "--fleet", "2x1", "--results", str(path),
        ]
        assert main(argv) == 0
        summary = json.loads((tmp_path / "run.jsonl.summary.json").read_text())
        assert RunConfig(**summary["config"]) == RunConfig(seed=9, fleet="2x1")
        # The CLI's config is scoped to the run.
        assert active_config() == RunConfig()
