"""Smoke tests for the serving read fan-out campaign."""

import dataclasses
import json

import pytest

from repro import sim
from repro.bench.serving import (
    ServingConfig,
    format_serving,
    run_serving_campaign,
    run_serving_scenario,
)


def small_cfg(**overrides) -> ServingConfig:
    """A sub-second point: the quick shape shrunk further for unit tests."""
    cfg = dataclasses.replace(
        ServingConfig().quick(),
        clients=4,
        models=4,
        files_per_model=8,
        requests_per_client=4,
    )
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


class TestScenario:
    def test_invariants_hold(self):
        cfg = small_cfg()
        result = run_serving_scenario(cfg)
        enum, serve, mds = (
            result["enumerate"], result["serve"], result["mds"],
        )
        # every client learns the full namespace
        assert enum["entries"] == cfg.clients * cfg.total_files
        assert enum["entries_per_s"] > 0
        assert 0 < enum["time_to_first_batch_s"] <= enum["elapsed_s"]
        assert serve["requests"] == cfg.clients * cfg.requests_per_client
        assert serve["bytes_served"] > 0
        assert serve["read_gib_s"] > 0
        assert 0 < serve["ttfb_p50_s"] <= serve["ttfb_p99_s"]
        # the block cache absorbs repeat blocks: the PFS moved fewer
        # bytes than the fleet logically served
        assert serve["pfs_bytes_read"] < serve["bytes_served"]
        assert mds["requests"] == sum(mds["per_shard_requests"])
        assert len(mds["per_shard_requests"]) == cfg.mds_shards

    def test_runs_are_deterministic(self):
        cfg = small_cfg()
        assert run_serving_scenario(cfg) == run_serving_scenario(cfg)

    def test_backends_agree_exactly(self, monkeypatch):
        # the thread backend is the reference the light schedule matches
        light = run_serving_scenario(small_cfg())
        built = []

        def thread_engine():
            built.append(sim.engine.Engine(light_processes=False))
            return built[-1]

        monkeypatch.setattr(sim, "Engine", thread_engine)
        assert run_serving_scenario(small_cfg()) == light
        assert len(built) == 1

    def test_sharding_spreads_the_busiest_shard(self):
        one = run_serving_scenario(small_cfg(mds_shards=1))
        four = run_serving_scenario(small_cfg(mds_shards=4))
        assert len(four["mds"]["per_shard_requests"]) == 4
        assert (
            four["mds"]["busiest_shard_requests"]
            < one["mds"]["busiest_shard_requests"]
        )

    def test_md_cache_cuts_mds_requests(self):
        cold = run_serving_scenario(small_cfg(md_cache=False))
        warm = run_serving_scenario(small_cfg(md_cache=True))
        assert warm["mds"]["requests"] < cold["mds"]["requests"]
        assert warm["serve"]["md_cache_hit_rate"] > 0
        assert cold["serve"]["md_cache_hit_rate"] == 0

    def test_manifest_beats_readdir_on_amplification(self):
        storm = run_serving_scenario(small_cfg(enumeration="readdir"))
        manifest = run_serving_scenario(small_cfg(enumeration="manifest"))
        assert (
            manifest["enumerate"]["request_amplification"]
            < storm["enumerate"]["request_amplification"]
        )
        assert (
            manifest["enumerate"]["entries_per_s"]
            > storm["enumerate"]["entries_per_s"]
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            run_serving_scenario(small_cfg(enumeration="walk"))

    def test_result_is_json_clean(self):
        result = run_serving_scenario(small_cfg())
        assert json.loads(json.dumps(result)) == result


class TestCampaign:
    def test_quick_campaign_gates_and_table(self):
        result = run_serving_campaign(quick=True)
        assert set(result["points"]) == {
            "readdir-1shard", "manifest-1shard", "manifest-4shard-cache",
        }
        gates = result["gates"]
        # the full shape's claimed thresholds hold on the quick shape too
        assert gates["enumeration_speedup"] >= 3.0
        assert gates["per_shard_mds_reduction"] >= 2.0
        table = format_serving(result)
        assert "enumeration speedup" in table
        for name in result["points"]:
            assert name in table
