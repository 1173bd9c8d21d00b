"""Schema lock for the pfs.* and io.sched.* metrics namespaces.

Dashboards and the CI observability job key on these flat snapshot names;
renaming a counter is an interface change and must show up here.  In
particular the client's retry/backoff counters are ``rpc_retries`` /
``rpc_timeouts`` (matching ClusterReport), not the bare ``retries`` /
``timeouts`` spelled by the core-level PerfCounters API.
"""

from repro import sim, trace
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster

CLIENT_KEYS = {
    "bytes_written",
    "bytes_read",
    "write_rpcs",
    "read_rpcs",
    "mds_ops",
    "rpc_retries",
    "rpc_timeouts",
    "rpc_failures",
    "backoff_time",
    "extents_coalesced",
    "bytes_coalesced",
}

SCHED_KEYS = {
    "inline_issues",
    "queued_issues",
    "max_queue_depth",
    "throttle_time",
    "throttled_bytes",
} | {
    f"{stem}_{cls}"
    for stem in ("submitted", "issued", "bytes", "stall_time")
    for cls in ("foreground", "metadata", "flush", "drain", "compaction")
}

#: Flat keys exported by a BurstBufferTier under ``bb.tier{id}`` — the
#: burst-buffer namespace is schema-locked just like the scheduler's.
BB_KEYS = {
    "bytes_absorbed",
    "bytes_written_through",
    "bytes_drained",
    "segments_sealed",
    "segments_committed",
    "segments_recovered",
    "segments_discarded",
    "drain_retries",
    "drain_failures",
    "drain_time",
    "evictions",
    "overflow_waits",
    "overflow_wait_time",
    "degraded_writes",
    "resident_bytes",
    "dirty_bytes",
    "max_resident_bytes",
    "max_dirty_bytes",
}


#: Flat keys exported per DB under ``lsm.compaction.{name}`` — the
#: subcompaction/pacing observability surface the stability bench and
#: its CI gate read.
COMPACTION_KEYS = {
    "subcompactions",
    "parallel_compactions",
    "planned_boundaries",
    "grandparent_seals",
    "sub_input_bytes",
    "sub_output_bytes",
    "pipelined_chunks",
    "pipelined_bytes",
    "pipeline_stall_time",
    "slowdown_writes",
    "stop_writes",
    "stall_time",
    "pacer_adjustments",
    "pacer_delay_time",
    "pacer_rate",
    "pacer_fanout",
}


#: Fixed flat keys under ``pfs.mds`` (and ``pfs.mds{i}`` when sharded);
#: the snapshot also carries one ``ops.{op}`` counter per op class the
#: workload actually issued, which is workload-dependent by design.
MDS_KEYS = {
    "requests",
    "busy_time",
    "failures",
    "rejected_requests",
}

#: Flat keys under ``pfs.mdcache.client{id}`` when the metadata cache is
#: enabled — the serving campaign and its CI gate read these.
MDCACHE_KEYS = {
    "hits",
    "negative_hits",
    "misses",
    "inserts",
    "invalidations",
    "expirations",
    "evictions",
}


def test_client_and_scheduler_snapshot_schema():
    trace.install()
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)

            def main():
                file = client.create("f")
                client.write(file, 0, b"x" * (1 << 20))
                client.fsync(file)

            engine.spawn(main)
            engine.run()

        registry = trace.current_metrics()
        assert "pfs.client0" in registry.namespaces()
        assert "io.sched.client0" in registry.namespaces()

        client_snap = registry.snapshot(prefix="pfs.client0")
        assert set(client_snap) == {f"pfs.client0.{k}" for k in CLIENT_KEYS}
        assert client_snap["pfs.client0.bytes_written"] == 1 << 20
        # healthy cluster: the fault-path counters exist but stay zero
        assert client_snap["pfs.client0.rpc_retries"] == 0
        assert client_snap["pfs.client0.rpc_timeouts"] == 0

        sched_snap = registry.snapshot(prefix="io.sched.client0")
        assert set(sched_snap) == {
            f"io.sched.client0.{k}" for k in SCHED_KEYS
        }
        # the default FIFO policy issues everything inline
        assert sched_snap["io.sched.client0.queued_issues"] == 0
        assert sched_snap["io.sched.client0.inline_issues"] > 0
    finally:
        trace.uninstall()


def _mds_keys_of(snap: dict, prefix: str) -> set:
    """Split a pfs.mds* snapshot into (fixed keys, per-op keys)."""
    fixed = {
        k[len(prefix) + 1:]
        for k in snap
        if not k[len(prefix) + 1:].startswith("ops.")
    }
    ops = {k[len(prefix) + 1:] for k in snap if ".ops." in k}
    return fixed, ops


def test_mds_snapshot_schema_default_single_shard():
    """The aggregate ``pfs.mds`` namespace is always present; per-shard
    namespaces only appear under DNE (shards > 1) so the default
    cluster's metric surface is unchanged."""
    trace.install()
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)

            def main():
                client.create("d/f")
                client.open("d/f")

            engine.spawn(main)
            engine.run()

        registry = trace.current_metrics()
        assert "pfs.mds" in registry.namespaces()
        assert "pfs.mds0" not in registry.namespaces()
        assert "pfs.mdcache.client0" not in registry.namespaces()
        snap = registry.snapshot(prefix="pfs.mds")
        fixed, ops = _mds_keys_of(snap, "pfs.mds")
        assert fixed == MDS_KEYS
        assert ops == {"ops.create", "ops.open"}
        assert snap["pfs.mds.requests"] == 2
    finally:
        trace.uninstall()


def test_mds_and_mdcache_snapshot_schema_sharded():
    """Sharded + cached cluster: ``pfs.mds{i}`` per shard and
    ``pfs.mdcache.client{id}`` per client, all schema-locked."""
    trace.install()
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(
                engine, small_test_cluster(mds_shards=4, md_cache=True)
            )
            client = LustreClient(cluster, 0)

            def main():
                client.create("d/f")
                client.open("d/f")   # cache hit
                client.readdir("d")

            engine.spawn(main)
            engine.run()

        registry = trace.current_metrics()
        namespaces = registry.namespaces()
        for i in range(4):
            assert f"pfs.mds{i}" in namespaces
            snap = registry.snapshot(prefix=f"pfs.mds{i}")
            fixed, _ = _mds_keys_of(snap, f"pfs.mds{i}")
            assert fixed == MDS_KEYS, (i, fixed)

        # the aggregate equals the shard sum
        agg = registry.snapshot(prefix="pfs.mds")
        shard_requests = sum(
            registry.snapshot(prefix=f"pfs.mds{i}")[f"pfs.mds{i}.requests"]
            for i in range(4)
        )
        assert agg["pfs.mds.requests"] == shard_requests

        assert "pfs.mdcache.client0" in namespaces
        snap = registry.snapshot(prefix="pfs.mdcache.client0")
        assert set(snap) == {
            f"pfs.mdcache.client0.{k}" for k in MDCACHE_KEYS
        }
        assert snap["pfs.mdcache.client0.hits"] == 1
    finally:
        trace.uninstall()


def test_burst_buffer_snapshot_schema():
    """The tier registers ``bb.{name}`` while alive and unregisters on
    close; its flat snapshot keys are schema-locked to BB_KEYS."""
    from repro.bb import BurstBufferConfig, BurstBufferTier
    from repro.lsm.env import MemEnv

    trace.install()
    try:
        with sim.Engine() as engine:

            def main():
                tier = BurstBufferTier(
                    MemEnv(), config=BurstBufferConfig(), name="tier0"
                )
                out = tier.env.new_writable_file("seg")
                out.append(b"x" * 4096)
                out.close()
                tier.drain_barrier()
                return tier

            proc = engine.spawn(main)
            engine.run()
        tier = proc.result

        registry = trace.current_metrics()
        assert "bb.tier0" in registry.namespaces()
        snap = registry.snapshot(prefix="bb.tier0")
        assert set(snap) == {f"bb.tier0.{k}" for k in BB_KEYS}
        assert snap["bb.tier0.bytes_absorbed"] == 4096
        assert snap["bb.tier0.bytes_drained"] == 4096
        assert snap["bb.tier0.segments_committed"] == 1
        # healthy tier: the fault-path counters exist but stay zero
        assert snap["bb.tier0.drain_retries"] == 0
        assert snap["bb.tier0.degraded_writes"] == 0

        tier.close()
        assert "bb.tier0" not in trace.current_metrics().namespaces()
    finally:
        trace.uninstall()


def test_compaction_snapshot_schema():
    """Each DB exports ``lsm.compaction.{name}`` with exactly the
    COMPACTION_KEYS counters."""
    from repro.lsm import DB, Options
    from repro.lsm.env import MemEnv

    trace.install()
    try:
        db = DB.open(
            "schemadb",
            options=Options(
                write_buffer_size=4 << 10,
                target_file_size_base=2 << 10,
                level0_file_num_compaction_trigger=2,
                enable_compaction=True,
                max_subcompactions=2,
            ),
            env=MemEnv(),
        )
        try:
            for i in range(96):
                db.put(f"key{i:04d}".encode(), b"v" * 128)
            db.compact_range()
        finally:
            db.close()

        registry = trace.current_metrics()
        assert "lsm.compaction.schemadb" in registry.namespaces()
        snap = registry.snapshot(prefix="lsm.compaction.schemadb")
        assert set(snap) == {
            f"lsm.compaction.schemadb.{k}" for k in COMPACTION_KEYS
        }
        # the workload is large enough to take the partitioned path
        assert snap["lsm.compaction.schemadb.subcompactions"] > 0
        assert snap["lsm.compaction.schemadb.planned_boundaries"] > 0
    finally:
        trace.uninstall()


#: Stats every ``telemetry.<histogram>.*`` key group must carry — the
#: bench report and CI observability job key on these names.
TELEMETRY_STAT_KEYS = {
    "count", "sum", "min", "max", "p50", "p90", "p99", "p999",
}

#: Histogram name prefixes the five instrumented layers may emit;
#: adding a layer (or renaming a choke point) must show up here.
TELEMETRY_HIST_PREFIXES = (
    "core.", "io.sched.", "pfs.", "lsm.", "bb.",
)


def test_telemetry_snapshot_schema():
    """Installed telemetry federates ``telemetry.*`` into the registry:
    one flat key per histogram stat, names drawn from the five layers."""
    from repro import telemetry

    trace.install()
    telemetry.install()
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)

            def main():
                file = client.create("f")
                client.write(file, 0, b"x" * (1 << 20))
                client.fsync(file)

            engine.spawn(main)
            engine.run()

        registry = trace.current_metrics()
        assert "telemetry" in registry.namespaces()
        snap = registry.snapshot(prefix="telemetry")
        assert snap, "no telemetry.* keys in the registry snapshot"
        groups = {}
        for key in snap:
            hist, stat = key[len("telemetry."):].rsplit(".", 1)
            groups.setdefault(hist, set()).add(stat)
        for hist, stats in groups.items():
            assert stats == TELEMETRY_STAT_KEYS, (hist, stats)
            assert hist.startswith(TELEMETRY_HIST_PREFIXES), hist
        # this workload crosses the scheduler and the RPC layer
        assert "pfs.rpc.write" in groups
        assert "io.sched.service.foreground" in groups
    finally:
        telemetry.uninstall()
        trace.uninstall()


def test_mds_telemetry_gauges_and_histograms():
    """The metadata path feeds telemetry like the data path: service and
    wait histograms under ``pfs.mds.*``, per-shard queue-depth and
    busy-time gauges on the sampler grid."""
    from repro import telemetry

    tele = telemetry.install(
        sampler=telemetry.GaugeSampler(interval=1e-4)
    )
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(
                engine, small_test_cluster(mds_shards=2)
            )
            client = LustreClient(cluster, 0)

            def main():
                for i in range(16):
                    client.create(f"d{i}/f")

            engine.spawn(main)
            engine.run()

        snap = tele.snapshot()
        assert "pfs.mds.wait" in snap
        assert "pfs.mds.service" in snap
        assert snap["pfs.mds.service"]["count"] == 16
        series = tele.to_payload()["series"]
        for shard in range(2):
            assert f"pfs.mds{shard}.queue_depth" in series
            assert f"pfs.mds{shard}.busy_time" in series
        # busy-time gauges are cumulative: the last sample of the shard
        # that served ops must be positive
        assert any(
            series[f"pfs.mds{s}.busy_time"]["value"][-1] > 0
            for s in range(2)
        )
    finally:
        telemetry.uninstall()


def test_telemetry_namespace_unregisters_on_uninstall():
    from repro import telemetry

    trace.install()
    try:
        telemetry.install()
        assert "telemetry" in trace.current_metrics().namespaces()
        telemetry.uninstall()
        assert "telemetry" not in trace.current_metrics().namespaces()
    finally:
        trace.uninstall()


def test_cluster_totals_use_rpc_counter_names():
    """Cluster aggregates read the renamed counters 1:1."""
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, small_test_cluster())
        client = LustreClient(cluster, 0)

        def main():
            file = client.create("f")
            client.write(file, 0, b"x" * (1 << 16))

        engine.spawn(main)
        engine.run()
        assert cluster.total_rpc_retries() == client.stats.rpc_retries == 0
        assert cluster.total_rpc_timeouts() == client.stats.rpc_timeouts == 0
