"""Byte pins for what the instrumentation records on one seeded workload.

A small four-rank sim job runs with a tracer and telemetry installed and
touches every instrumented interval family: PFS write/read RPCs, fsync
and retry backoff (one RPC in forty is dropped), the scheduler's queued
path (DRR on rank 0), DB commits, memtable flushes and a
compaction that stalls writers, MPI barriers and channels (ranks 2-3
share a collective store), manager put/append/get/barrier, and a
burst-buffer absorb/drain with a drain barrier.

Changing how an interval is recorded (``repro.trace.runtime.probe``
and its callers) must not change a category, name, timestamp, duration,
track, depth, arg or histogram bucket; a hash mismatch means it did.
"""

import hashlib
import json

from repro import sim, telemetry, trace
from repro.core import LsmioManager, LsmioOptions
from repro.fault import FaultInjector, FaultSchedule
from repro.mpi import run_world
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster

SPANS_SHA256 = (
    "eb7efd804d683a4d922c71efc31fd164c9394a454eae2d8845e9b3c1f1e6da9b"
)
EVENTS_SHA256 = (
    "8d1ed9dda196d1333dda506101f165af4cf5612d6a2417a11460220d02be209b"
)
TELEMETRY_SHA256 = (
    "a86517e70c4fcc33575b62b41cd3a359c31f529ddbb8b220494bf2087bd233a2"
)


def _options(rank: int) -> tuple[LsmioOptions, dict]:
    if rank == 0:  # WAL + compaction with low L0 triggers: writers stall
        # (its client admits I/O under DRR; see _job)
        return LsmioOptions(
            write_buffer_size="8K", enable_wal=True, enable_compaction=True,
            level0_slowdown_writes_trigger=4, level0_stop_writes_trigger=5,
            compaction_pacing=True,
        ), {}
    if rank == 1:  # burst-buffer tier between the store and the PFS
        return LsmioOptions(
            write_buffer_size="8K", burst_buffer={"capacity": "4M", "seed": 9},
        ), {}
    return LsmioOptions(write_buffer_size="8K"), {"collective": True,
                                                  "collective_group_size": 2}


def _job(comm):
    options, extra = _options(comm.rank)
    if extra:
        extra["comm"] = comm
    path = f"g.lsmio/rank{comm.rank}" if comm.rank < 2 else "g.lsmio/coll"
    client = LustreClient(comm.world._cluster, comm.rank)
    if comm.rank == 0:
        client.scheduler.set_policy("drr")
    manager = LsmioManager(path, options=options, env=SimLustreEnv(client), **extra)
    for i in range(96):
        manager.put(f"k{comm.rank}{i:04d}", bytes([i % 251]) * 1024)
        if i % 32 == 31:
            manager.write_barrier(sync=True)
    manager.append(f"k{comm.rank}0000", b"tail")
    comm.barrier()
    for i in range(0, 96, 7):
        assert manager.get(f"k{comm.rank}{i:04d}")[:1] == bytes([i % 251])
    manager.drain_barrier()
    comm.barrier()
    manager.close()


def _record():
    config = small_test_cluster(
        rpc_timeout=0.02, rpc_max_retries=3, rpc_backoff_base=0.01,
        rpc_backoff_jitter=0.0,
    )
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        FaultInjector(FaultSchedule(seed=3).drop_rpc(every=40)).install(cluster)
        tracer = trace.install()
        tele = telemetry.install()
        try:
            run_world(
                4, _job, engine=engine,
                world_setup=lambda world: setattr(world, "_cluster", cluster),
            )
        finally:
            trace.uninstall()
            telemetry.uninstall()
    return tracer, tele


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()


def test_recorded_instrumentation_is_pinned():
    tracer, tele = _record()
    spans = sorted(
        (s.category, s.name, s.start, s.duration, s.track, s.depth,
         json.dumps(s.args, sort_keys=True))
        for s in tracer.spans
    )
    names = {(s.category, s.name) for s in tracer.spans}
    for needed in [
        ("pfs", "write_rpc"), ("pfs", "read_rpc"), ("pfs", "fsync"),
        ("pfs", "backoff"), ("io", "sched.wait"), ("lsm", "commit"),
        ("lsm", "memtable_flush"), ("lsm", "compaction"),
        ("lsm", "write_stop"), ("mpi", "barrier"), ("mpi", "channel_send"),
        ("core", "put"), ("core", "get"), ("core", "barrier"),
        ("core", "drain_barrier"), ("bb", "drain"),
    ]:
        assert needed in names, needed
    hists = tele.to_payload()["histograms"]
    assert {"bb.absorb", "lsm.stall", "pfs.mds.wait", "core.barrier"} <= set(hists)
    assert len(spans) == len(tracer.spans) and tracer.dropped == 0
    assert _sha(spans) == SPANS_SHA256
    assert _sha([tracer.instants, tracer.gauges]) == EVENTS_SHA256
    assert _sha(hists) == TELEMETRY_SHA256
