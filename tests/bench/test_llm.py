"""Smoke tests for the fleet-scale LLM checkpoint/restore campaign."""

import dataclasses

from repro import sim
from repro.bench.llm import (
    LlmConfig,
    fleet_config,
    format_llm,
    run_llm_campaign,
    run_llm_scenario,
)


def small_cfg(**overrides) -> LlmConfig:
    cfg = LlmConfig(ranks=8).quick()
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


class TestFleetConfig:
    def test_small_fleets_keep_viking_inventory(self):
        cfg = fleet_config(64)
        assert cfg.num_osts == 45
        assert cfg.num_oss == 2
        assert cfg.store_data is False

    def test_large_fleets_scale_osts_and_osses(self):
        cfg = fleet_config(1024)
        assert cfg.num_osts == 128
        assert cfg.num_oss == 6


class TestScenario:
    def test_invariants_hold(self):
        cfg = small_cfg()
        result = run_llm_scenario(cfg)
        assert result["ranks"] == 8
        assert result["bytes_written"] == (
            cfg.bytes_per_checkpoint * cfg.epochs * cfg.ranks
        )
        assert result["write_gib_s"] > 0
        assert result["request_amplification"] >= 1.0
        assert result["requests"] >= result["logical_ops"]
        restore = result["restore"]
        assert restore["bytes_read"] == cfg.bytes_per_checkpoint * cfg.ranks
        assert 0 < restore["rank_p50_s"] <= restore["rank_p99_s"]
        assert restore["rank_p99_s"] <= restore["rank_max_s"]
        # retention kept only keep_last epochs' files alive per rank:
        # epochs - keep_last checkpoints were unlinked, files each
        assert result["retention_unlinks"] == (
            (cfg.epochs - cfg.keep_last) * cfg.files_per_checkpoint * cfg.ranks
        )

    def test_runs_are_deterministic(self):
        cfg = small_cfg()
        assert run_llm_scenario(cfg) == run_llm_scenario(cfg)

    def test_backends_agree_exactly(self, monkeypatch):
        # the thread backend is the reference the light schedule matches
        cfg = small_cfg()
        light = run_llm_scenario(cfg)
        built = []

        def thread_engine():
            built.append(sim.engine.Engine(light_processes=False))
            return built[-1]

        monkeypatch.setattr(sim, "Engine", thread_engine)
        assert run_llm_scenario(cfg) == light
        assert len(built) == 1

    def test_restore_storm_can_be_disabled(self):
        result = run_llm_scenario(small_cfg(restore_storm=False))
        assert "restore" not in result
        assert result["request_amplification"] >= 1.0

    def test_full_shards_amplify_writes(self):
        # 16 MiB shards striped 4-wide split into 4 MiB RPCs: the PFS
        # must issue strictly more requests than the app's logical ops.
        cfg = dataclasses.replace(LlmConfig(ranks=4), epochs=2)
        result = run_llm_scenario(cfg)
        assert result["request_amplification"] > 1.0


class TestCampaign:
    def test_campaign_sweeps_and_formats(self):
        result = run_llm_campaign(rank_counts=(4, 8), quick=True)
        assert [p["ranks"] for p in result["points"]] == [4, 8]
        table = format_llm(result)
        assert "write GiB/s" in table
        assert "4" in table and "8" in table
