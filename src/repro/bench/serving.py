"""Serving read fan-out campaign: inference clients over a sharded MDS.

The write path got its fleet campaign (:mod:`repro.bench.llm`); this is
the read/metadata side — the workload class the LLM checkpoint/restore
I/O studies identify as dominated by metadata and hot-shard read fan-out
rather than write bandwidth.  A fleet of inference clients:

1. **Enumerate** — learn every model's shard list, either by a paged
   ``readdir`` + per-entry ``stat`` storm or by reading the publisher's
   per-model manifest object (:mod:`repro.core.enumeration`);
2. **Serve** — fan out reads over a Zipf-hot set of models against a
   cold long-tail: every request ``open``s shard files (the client
   metadata cache absorbs repeats) and streams their blocks through a
   per-client block cache (:class:`repro.lsm.cache.LRUCache` — hot model
   blocks pin in RAM, the tail always misses).

The campaign sweeps three configurations of the same workload —
``readdir`` enumeration on one MDS, ``manifest`` enumeration on one MDS,
and ``manifest`` + 4 DNE shards + client metadata cache — so the two
headline gates fall straight out of the points:

* *enumeration speedup*: manifest entries/s over readdir entries/s;
* *per-shard MDS reduction*: busiest-shard request count, sharded+cached
  versus single-MDS.

Every rank is a light process.  The results dict is sim-deterministic:
``tests/integration/test_campaign_goldens.py`` pins the full-shape sweep
by hash, and ``tests/bench/test_serving.py`` replays a small point on the
thread backend (``Engine(light_processes=False)``) as the reference
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro import sim
from repro.core.enumeration import (
    manifest_listing_lw,
    readdir_storm_lw,
    write_manifest_lw,
)
from repro.lsm.cache import LRUCache
from repro.mpi import World
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import viking
from repro.util.stats import quantile


@dataclass(frozen=True)
class ServingConfig:
    """One serving campaign point."""

    clients: int = 32
    models: int = 16
    files_per_model: int = 64
    file_bytes: int = 1 << 20
    #: inference requests per client; each opens+reads ``reads_per_request``
    #: shard files of one Zipf-picked model
    requests_per_client: int = 24
    reads_per_request: int = 2
    #: read granularity and per-client block-cache budget
    block_bytes: int = 256 << 10
    block_cache_bytes: int = 32 << 20
    #: Zipf exponent over models *and* over shard files within a model
    #: (model 0 / shard 0 hottest); ~1.1 gives a hot set plus a heavy
    #: tail, the serving-benchmark shape
    zipf_s: float = 1.1
    #: readdir page size for the storm strategy
    batch_size: int = 16
    enumeration: str = "manifest"          # "readdir" | "manifest"
    mds_shards: int = 1
    md_cache: bool = False
    #: cache TTL covering the serve phase (sim seconds)
    md_cache_ttl: float = 120.0
    seed: int = 7

    def quick(self) -> "ServingConfig":
        """The reduced point: same shape, small payloads."""
        return replace(
            self,
            clients=8,
            models=8,
            files_per_model=32,
            file_bytes=64 << 10,
            requests_per_client=8,
            block_bytes=64 << 10,
            block_cache_bytes=1 << 20,
        )

    @property
    def total_files(self) -> int:
        return self.models * self.files_per_model


def _model_dir(model: int) -> str:
    return f"models/m{model:03d}"


def _shard_path(model: int, index: int) -> str:
    return f"{_model_dir(model)}/shard{index:03d}"


def _manifest_path(model: int) -> str:
    # One directory per manifest so manifests shard with their model
    # rather than all hashing to a single "manifests" directory.
    return f"manifests/m{model:03d}/LIST"


def _zipf_cdf(models: int, s: float) -> np.ndarray:
    pmf = 1.0 / np.power(np.arange(1, models + 1, dtype=np.float64), s)
    pmf /= pmf.sum()
    return np.cumsum(pmf)


@dataclass
class _State:
    """Mutable per-run state shared by the client processes."""

    enum_start_s: float = 0.0
    enum_end_s: float = 0.0
    enum_entries: dict = field(default_factory=dict)
    enum_mds_ops: dict = field(default_factory=dict)
    enum_read_rpcs: dict = field(default_factory=dict)
    enum_ttfb_s: list = field(default_factory=list)
    ttfb_s: list = field(default_factory=list)
    bytes_served: dict = field(default_factory=dict)
    block_hit_rates: dict = field(default_factory=dict)


def _publish_lw(client: LustreClient, cfg: ServingConfig):
    """Client 0 publishes every model's shards and manifest."""
    for model in range(cfg.models):
        entries = []
        for index in range(cfg.files_per_model):
            file = yield from client.create_lw(
                _shard_path(model, index), stripe_count=1
            )
            yield from client.write_lw(file, 0, cfg.file_bytes)
            yield from client.close_lw(file)
            entries.append((f"shard{index:03d}", cfg.file_bytes))
        yield from write_manifest_lw(
            client, _manifest_path(model), entries
        )


def _enumerate_lw(client: LustreClient, cfg: ServingConfig, state: _State):
    """Learn every model's shard list with the configured strategy."""
    rank = client.client_id
    entries = mds_ops = read_rpcs = 0
    for model in range(cfg.models):
        if cfg.enumeration == "manifest":
            result = yield from manifest_listing_lw(
                client, _manifest_path(model), _model_dir(model)
            )
        else:
            result = yield from readdir_storm_lw(
                client, _model_dir(model), batch_size=cfg.batch_size
            )
        if len(result.entries) != cfg.files_per_model:
            raise AssertionError(
                f"client{rank} enumerated {len(result.entries)} entries "
                f"of model {model}, expected {cfg.files_per_model}"
            )
        entries += len(result.entries)
        mds_ops += result.mds_ops
        read_rpcs += result.read_rpcs
        if model == 0:
            state.enum_ttfb_s.append(result.time_to_first_batch_s)
    state.enum_entries[rank] = entries
    state.enum_mds_ops[rank] = mds_ops
    state.enum_read_rpcs[rank] = read_rpcs


def _serve_lw(client: LustreClient, cfg: ServingConfig, state: _State):
    """The request loop: Zipf-hot model picks, block-cached shard reads."""
    rank = client.client_id
    rng = np.random.default_rng((cfg.seed * 1_000_003 + rank) & 0xFFFFFFFF)
    model_cdf = _zipf_cdf(cfg.models, cfg.zipf_s)
    file_cdf = _zipf_cdf(cfg.files_per_model, cfg.zipf_s)
    cache = LRUCache(cfg.block_cache_bytes)
    served = 0
    for _ in range(cfg.requests_per_client):
        start = sim.now()
        model = int(np.searchsorted(model_cdf, rng.random(), side="right"))
        first_byte = False
        for _ in range(cfg.reads_per_request):
            index = int(np.searchsorted(file_cdf, rng.random(), side="right"))
            path = _shard_path(model, index)
            file = yield from client.open_lw(path)
            blocks = max(1, math.ceil(file.size / cfg.block_bytes))
            for block in range(blocks):
                if cache.get((path, block)) is None:
                    offset = block * cfg.block_bytes
                    nbytes = min(cfg.block_bytes, file.size - offset)
                    yield from client.read_lw(file, offset, nbytes)
                    cache.insert((path, block), True, nbytes)
                if not first_byte:
                    state.ttfb_s.append(sim.now() - start)
                    first_byte = True
            served += file.size
    state.bytes_served[rank] = served
    state.block_hit_rates[rank] = cache.hit_rate


def _client_lw(
    client: LustreClient, comm, cfg: ServingConfig, state: _State
):
    rank = client.client_id
    if rank == 0:
        yield from _publish_lw(client, cfg)
    yield from comm.barrier_lw()
    if rank == 0:
        state.enum_start_s = sim.now()
    yield from _enumerate_lw(client, cfg, state)
    yield from comm.barrier_lw()
    if rank == 0:
        state.enum_end_s = sim.now()
    yield from _serve_lw(client, cfg, state)


def run_serving_scenario(cfg: ServingConfig) -> dict:
    """Run one campaign point; returns a sim-deterministic result dict."""
    if cfg.enumeration not in ("readdir", "manifest"):
        raise ValueError(f"unknown enumeration {cfg.enumeration!r}")
    state = _State()
    with sim.Engine() as engine:
        cluster = LustreCluster(
            engine,
            viking(
                store_data=False,
                mds_shards=cfg.mds_shards,
                md_cache=cfg.md_cache,
                md_cache_ttl=cfg.md_cache_ttl,
            ),
        )
        world = World(engine, cfg.clients)
        clients = [LustreClient(cluster, r) for r in range(cfg.clients)]
        for client in clients:
            engine.spawn_light(
                _client_lw, client, world.comm(client.client_id), cfg, state,
                name=f"serve{client.client_id}",
            )
        final_s = engine.run()
        heap_pushes = engine._heap_pushes

        shard_requests = [s.stats.requests for s in cluster.mds.shards]
        mds_stats = cluster.mds.stats
        pfs_bytes_read = sum(c.stats.bytes_read for c in clients)
        md_hits = md_lookups = 0
        for client in clients:
            if client._md_cache is not None:
                s = client._md_cache.stats
                md_hits += s.hits + s.negative_hits
                md_lookups += s.hits + s.negative_hits + s.misses

    entries = sum(state.enum_entries.values())
    expected = cfg.clients * cfg.total_files
    if entries != expected:
        raise AssertionError(
            f"fleet enumerated {entries} entries, expected {expected}"
        )
    enum_s = state.enum_end_s - state.enum_start_s
    serve_s = final_s - state.enum_end_s
    bytes_served = sum(state.bytes_served.values())
    ttfb = sorted(state.ttfb_s)
    hit_rates = [state.block_hit_rates[r] for r in sorted(state.block_hit_rates)]
    return {
        "clients": cfg.clients,
        "models": cfg.models,
        "files_per_model": cfg.files_per_model,
        "enumeration": cfg.enumeration,
        "mds_shards": cfg.mds_shards,
        "md_cache": cfg.md_cache,
        "enumerate": {
            "entries": entries,
            "elapsed_s": round(enum_s, 6),
            "entries_per_s": round(entries / enum_s, 3),
            "time_to_first_batch_s": round(max(state.enum_ttfb_s), 6),
            "mds_ops": sum(state.enum_mds_ops.values()),
            "read_rpcs": sum(state.enum_read_rpcs.values()),
            "request_amplification": round(
                (
                    sum(state.enum_mds_ops.values())
                    + sum(state.enum_read_rpcs.values())
                )
                / entries,
                4,
            ),
        },
        "serve": {
            "requests": cfg.clients * cfg.requests_per_client,
            "elapsed_s": round(serve_s, 6),
            "bytes_served": bytes_served,
            "read_gib_s": round(bytes_served / serve_s / (1 << 30), 3),
            "pfs_bytes_read": pfs_bytes_read,
            "ttfb_p50_s": round(quantile(ttfb, 0.50), 6),
            "ttfb_p99_s": round(quantile(ttfb, 0.99), 6),
            "block_cache_hit_rate": round(
                sum(hit_rates) / len(hit_rates), 4
            ),
            "md_cache_hit_rate": round(
                md_hits / md_lookups if md_lookups else 0.0, 4
            ),
        },
        "mds": {
            "requests": mds_stats.requests,
            "busy_s": round(mds_stats.busy_time, 6),
            "per_shard_requests": shard_requests,
            "busiest_shard_requests": max(shard_requests),
            "busiest_shard_ops_per_s": round(
                max(shard_requests) / final_s, 3
            ),
        },
        "final_time_s": round(final_s, 6),
        "heap_pushes": heap_pushes,
    }


def run_serving_campaign(quick: bool = False) -> dict:
    """The three-point sweep whose ``gates`` the campaign golden pins.

    Points share the workload shape; only enumeration strategy, shard
    count, and the metadata cache vary.
    """
    base = ServingConfig()
    if quick:
        base = base.quick()
    points = {
        "readdir-1shard": replace(
            base, enumeration="readdir", mds_shards=1, md_cache=False
        ),
        "manifest-1shard": replace(
            base, enumeration="manifest", mds_shards=1, md_cache=False
        ),
        "manifest-4shard-cache": replace(
            base, enumeration="manifest", mds_shards=4, md_cache=True
        ),
    }
    results = {name: run_serving_scenario(cfg) for name, cfg in points.items()}
    readdir = results["readdir-1shard"]
    manifest = results["manifest-1shard"]
    sharded = results["manifest-4shard-cache"]
    return {
        "workload": "serving-read-fanout",
        "quick": bool(quick),
        "points": results,
        "gates": {
            "enumeration_speedup": round(
                manifest["enumerate"]["entries_per_s"]
                / readdir["enumerate"]["entries_per_s"],
                3,
            ),
            "per_shard_mds_reduction": round(
                manifest["mds"]["busiest_shard_requests"]
                / sharded["mds"]["busiest_shard_requests"],
                3,
            ),
        },
    }


def format_serving(result: dict) -> str:
    """Render the campaign as an aligned table."""
    lines = [
        "Serving read fan-out"
        f"{' (quick)' if result['quick'] else ''}",
        f"{'point':>22} {'entries/s':>10} {'amplif.':>8} {'GiB/s':>7} "
        f"{'TTFB p99':>9} {'blk hit':>8} {'md hit':>7} {'busiest MDS':>12}",
    ]
    for name, point in result["points"].items():
        enum, serve, mds = point["enumerate"], point["serve"], point["mds"]
        lines.append(
            f"{name:>22} {enum['entries_per_s']:>10.0f} "
            f"{enum['request_amplification']:>8.3f} "
            f"{serve['read_gib_s']:>7.2f} {serve['ttfb_p99_s']:>9.5f} "
            f"{serve['block_cache_hit_rate']:>8.2f} "
            f"{serve['md_cache_hit_rate']:>7.2f} "
            f"{mds['busiest_shard_requests']:>12}"
        )
    gates = result["gates"]
    lines.append(
        f"gates: enumeration speedup {gates['enumeration_speedup']:.1f}x "
        f"(manifest vs readdir), per-shard MDS reduction "
        f"{gates['per_shard_mds_reduction']:.1f}x (4 shards + cache)"
    )
    return "\n".join(lines)


__all__ = [
    "ServingConfig",
    "run_serving_scenario",
    "run_serving_campaign",
    "format_serving",
]
