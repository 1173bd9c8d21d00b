"""Byte pins for every simulated campaign, at the scale each claim was made.

Each case runs one campaign once on the simulated clock (seeded keys,
seeded jitter, no wall-clock values) and compares the sha256 of its
canonical JSON (``sort_keys``) with the committed digest, so a change
that moves one RPC, one compaction or one cache hit anywhere in the
campaign fails here.  The headline numbers are asserted first, as exact
values; each message states the claim the number stands for, so a moved
schedule that also breaks a claim says which.

Campaigns with an entry point in ``repro.bench`` are called through it.
The burst-buffer, scheduler and stability campaigns live only here.

After a deliberate change to a simulated schedule, print fresh digests
with ``PYTHONPATH=src python tests/integration/test_campaign_goldens.py``.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from repro import sim, trace
from repro.bench.figures import FIGURES, default_cluster
from repro.bench.llm import run_llm_campaign
from repro.bench.serving import run_serving_campaign
from repro.bench.tiering import run_tiering_campaign
from repro.core import Checkpointer, LsmioManager, LsmioOptions
from repro.io import Priority, io_priority
from repro.lsm import DB, Options
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster
from repro.sim.executor import SimExecutor
from repro.trace.summary import stalls_report
from repro.util.stats import quantile


def _digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _ratio(a, b):
    return round(a / b, 2)


# -- burst buffer: effective checkpoint bandwidth and overflow -----------
#
# A checkpoint is restart-safe once it is sealed on node-local NVMe, so
# the application is blocked in ``save`` only for the absorb, while the
# drain overlaps the think time.  "bursty" saves the same epochs direct
# to the OSTs and through the tier; "overflow" caps the drain below the
# checkpoint rate so the tier walks its degradation ladder.


def _bb_state(epoch: int, nbytes: int) -> dict:
    rng = np.random.default_rng(epoch)
    return {"field": rng.standard_normal(nbytes // 8)}


def _bb_epochs(burst_buffer, epochs, nbytes, think):
    """One checkpoint campaign; returns save/backlog samples (sim time)."""
    options = LsmioOptions(write_buffer_size="1M", burst_buffer=burst_buffer)
    with sim.Engine() as engine:
        client = LustreClient(LustreCluster(engine, small_test_cluster()), 0)

        def body():
            manager = LsmioManager(
                "bench.lsmio/rank0", options=options, env=SimLustreEnv(client)
            )
            ckpt = Checkpointer(manager)
            save_times, backlog = [], []
            for epoch in range(1, epochs + 1):
                start = sim.now()
                ckpt.save(epoch, _bb_state(epoch, nbytes))
                save_times.append(sim.now() - start)
                tier = manager.burst_buffer
                backlog.append(0 if tier is None else tier.stats.dirty_bytes)
                sim.sleep(think)
            start = sim.now()
            manager.drain_barrier()
            drain_wait = sim.now() - start
            tier = manager.burst_buffer
            snapshot = {} if tier is None else tier.stats.snapshot()
            epoch, state = ckpt.load_latest()
            identical = np.array_equal(
                state["field"], _bb_state(epoch, nbytes)["field"]
            )
            manager.close()
            return save_times, backlog, drain_wait, snapshot, identical

        proc = engine.spawn(body)
        engine.run()
    return proc.result


def _bb_bursty() -> dict:
    epochs, nbytes = 6, 1 << 20
    out = {}
    for label, bb in (("direct", None), ("tiered", {"capacity": "64M"})):
        saves, _, drain_wait, snap, identical = _bb_epochs(
            bb, epochs, nbytes, 0.05
        )
        blocked = sum(saves)
        out[label] = {
            "epochs": epochs,
            "payload_bytes": epochs * nbytes,
            "save_blocked_s": round(blocked, 6),
            "save_p99_ms": round(quantile(sorted(saves), 0.99) * 1e3, 3),
            "effective_bandwidth_mib_s": round(
                epochs * nbytes / blocked / (1 << 20), 1
            ),
            "final_drain_wait_s": round(drain_wait, 6),
            "restore_byte_identical": identical,
        }
        if snap:
            out[label]["bytes_absorbed"] = snap["bytes_absorbed"]
            out[label]["degraded_writes"] = snap["degraded_writes"]
    out["speedup"] = round(
        out["tiered"]["effective_bandwidth_mib_s"]
        / out["direct"]["effective_bandwidth_mib_s"],
        2,
    )
    return out


def _bb_overflow() -> dict:
    epochs, nbytes, drain_bw = 12, 512 << 10, "2M"
    bb = {
        "capacity": "1M",
        "drain_bandwidth": drain_bw,
        "overflow_timeout": 0.05,
    }
    saves, backlog, drain_wait, snap, identical = _bb_epochs(
        bb, epochs, nbytes, 0.002
    )
    backlog = sorted(float(b) for b in backlog)
    return {
        "epochs": epochs,
        "payload_bytes": epochs * nbytes,
        "drain_bandwidth": drain_bw,
        "save_p99_ms": round(quantile(sorted(saves), 0.99) * 1e3, 3),
        "backlog_p99_bytes": int(quantile(backlog, 0.99)),
        "backlog_max_bytes": int(backlog[-1]),
        "final_drain_wait_s": round(drain_wait, 6),
        "degraded_writes": snap["degraded_writes"],
        "bytes_written_through": snap["bytes_written_through"],
        "overflow_waits": snap["overflow_waits"],
        "evictions": snap["evictions"],
        "restore_byte_identical": identical,
    }


def _bb():
    bursty, overflow = _bb_bursty(), _bb_overflow()
    claims = {
        "tier_speedup": bursty["speedup"],
        "direct_restore_ok": bursty["direct"]["restore_byte_identical"],
        "tiered_restore_ok": bursty["tiered"]["restore_byte_identical"],
        "overflow_restore_ok": overflow["restore_byte_identical"],
    }
    return {"bursty": bursty, "overflow": overflow}, claims


# -- I/O scheduler: foreground latency under concurrent compaction -------
#
# Four processes stream 4 MiB COMPACTION-class writes at one client while
# a foreground process issues 64 KiB appends.  Under FIFO the foreground
# RPCs queue behind every in-flight compaction RPC; strict priority (and
# DRR's weighting) overtakes everything still queued.


def _sched_policy(policy: str, samples: int = 200) -> dict:
    """Foreground latency distribution under ``policy`` (sim time)."""
    with sim.Engine() as engine:
        client = LustreClient(LustreCluster(engine, small_test_cluster()), 0)
        if policy != "fifo":
            client.scheduler.set_policy(policy)
        done = []
        latencies_ms = []

        def compactor(index: int) -> None:
            file = client.create(f"compaction.{index}")
            offset = 0
            with io_priority(Priority.COMPACTION):
                while not done:
                    client.write(file, offset, b"c" * (4 << 20))
                    offset += 4 << 20

        def foreground() -> None:
            file = client.create("checkpoint")
            for index in range(samples):
                sim.sleep(0.01)
                t0 = sim.now()
                client.write(file, index * (64 << 10), b"f" * (64 << 10))
                latencies_ms.append((sim.now() - t0) * 1e3)
            done.append(True)

        for index in range(4):
            engine.spawn(compactor, index)
        engine.spawn(foreground)
        engine.run()

        ordered = sorted(latencies_ms)
        snap = client.scheduler.stats.snapshot()
        return {
            "p50_ms": round(quantile(ordered, 0.50), 3),
            "p95_ms": round(quantile(ordered, 0.95), 3),
            "p99_ms": round(quantile(ordered, 0.99), 3),
            "max_ms": round(ordered[-1], 3),
            "mean_ms": round(sum(ordered) / len(ordered), 3),
            "samples": len(ordered),
            "queued_issues": snap["queued_issues"],
            "stall_time_foreground_s": round(
                snap["stall_time_foreground"], 4
            ),
        }


def _sched():
    policies = {p: _sched_policy(p) for p in ("fifo", "strict", "drr")}
    claims = {
        "strict_vs_fifo_p99_speedup": _ratio(
            policies["fifo"]["p99_ms"], policies["strict"]["p99_ms"]
        ),
    }
    return policies, claims


# -- compaction stability: stall windows and p99.9 (Luo & Carey) ---------
#
# A sustained put load against a DB whose COMPACTION class is capped at
# 4 MiB/s, so one serial compactor falls behind and L0 hits the
# slowdown/stop triggers; the same load then runs with partitioned
# subcompactions and the stall-aware pacer.


_STABILITY_MODES = {
    "serial": dict(max_subcompactions=1, compaction_pacing=False),
    "paced": dict(max_subcompactions=4, compaction_pacing=True),
}


def _latency_stats(samples_ms) -> dict:
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(quantile(ordered, 0.50), 3),
        "p99_ms": round(quantile(ordered, 0.99), 3),
        "p999_ms": round(quantile(ordered, 0.999), 3),
        "max_ms": round(ordered[-1], 3),
        "mean_ms": round(sum(ordered) / len(ordered), 3),
    }


def _timeline(samples_ms, buckets: int = 8) -> list:
    """Tail latency per contiguous slice of the run (index-bucketed)."""
    size = len(samples_ms) // buckets
    chunks = (
        sorted(samples_ms[start:start + size])
        for start in range(0, size * buckets, size)
    )
    return [{
        "p99_ms": round(quantile(chunk, 0.99), 3),
        "p999_ms": round(quantile(chunk, 0.999), 3),
        "max_ms": round(chunk[-1], 3),
    } for chunk in chunks]


def _stability_mode(mode: str, samples: int = 1200) -> dict:
    """One sustained put campaign; returns latency + stall statistics."""
    tracer = trace.install()
    try:
        with sim.Engine() as engine:
            client = LustreClient(
                LustreCluster(engine, small_test_cluster()), 0
            )
            # before DB.open, so the pacer adopts the capped rate as base
            client.scheduler.set_class_bandwidth(Priority.COMPACTION, 4 << 20)
            env = SimLustreEnv(client)
            latencies_ms = []

            def body():
                options = Options(
                    write_buffer_size=16 << 10,
                    target_file_size_base=12 << 10,
                    level0_file_num_compaction_trigger=2,
                    level0_slowdown_writes_trigger=6,
                    level0_stop_writes_trigger=9,
                    # one knob for both modes: the serial band ramp's max
                    # delay and the pacer curve's scale
                    slowdown_delay=4e-3,
                    enable_compaction=True,
                    **_STABILITY_MODES[mode],
                )
                db = DB.open(
                    "db", options=options, env=env,
                    executor=SimExecutor(engine),
                )
                rng = random.Random(1234)
                value = b"v" * 512
                for _ in range(samples):
                    sim.sleep(5e-3)
                    key = f"k{rng.randrange(512):05d}".encode()
                    t0 = sim.now()
                    db.put(key, value)
                    latencies_ms.append((sim.now() - t0) * 1e3)
                db.flush()
                stats = db.compaction_stats.snapshot()
                counts = (db.stats.compactions, db.stats.memtable_flushes)
                db.close()
                return stats, counts

            proc = engine.spawn(body)
            engine.run()
            cstats, (compactions, flushes) = proc.result
            finished = engine.now
        stalls = stalls_report(tracer.to_payload())
        return {
            "latency": _latency_stats(latencies_ms),
            "timeline": _timeline(latencies_ms),
            "stalls": {
                "windows": stalls["windows"],
                "total_duration_s": round(stalls["total_duration"], 4),
                "longest_window_s": round(stalls["longest_window"], 4),
                "spans": {
                    name: entry["count"]
                    for name, entry in stalls["spans"].items()
                },
            },
            "compactions": compactions,
            "memtable_flushes": flushes,
            "subcompactions": cstats["subcompactions"],
            "parallel_compactions": cstats["parallel_compactions"],
            "pacer_adjustments": cstats["pacer_adjustments"],
            "stall_time_s": round(cstats["stall_time"], 4),
            "sim_makespan_s": round(finished, 4),
            "samples": len(latencies_ms),
        }
    finally:
        trace.uninstall()


def _stability():
    modes = {mode: _stability_mode(mode) for mode in _STABILITY_MODES}
    serial, paced = modes["serial"], modes["paced"]
    claims = {
        "stall_window_improvement": _ratio(
            serial["stalls"]["windows"], paced["stalls"]["windows"]
        ),
        "p999_improvement": _ratio(
            serial["latency"]["p999_ms"], paced["latency"]["p999_ms"]
        ),
        "serial_stall_windows": serial["stalls"]["windows"],
        "paced_parallel_compactions": paced["parallel_compactions"],
    }
    return modes, claims


# -- campaigns with a repro.bench entry point -----------------------------


def _serving():
    campaign = run_serving_campaign()
    return campaign, dict(campaign["gates"])


def _llm():
    (point,) = run_llm_campaign(rank_counts=(1024,), quick=True)["points"]
    return point, {"request_amplification": point["request_amplification"]}


def _tiering():
    campaign = run_tiering_campaign(capacity="16M")
    claims = {
        "all_restores_byte_identical": campaign["all_restores_byte_identical"]
    }
    return campaign, claims


def _fig5_drr():
    """The traced fig5 point under DRR with a compaction bandwidth cap."""
    trace.install()
    try:
        figure = FIGURES["fig5"](
            node_counts=(4,),
            cluster=default_cluster(
                io_policy="drr", io_compaction_bandwidth="50M"
            ),
            bytes_per_task=2 << 20,
            repetitions=1,
        )
        metrics = trace.current_metrics().snapshot()
    finally:
        trace.uninstall()
    # the payload `python -m repro.bench fig5 --json` writes
    payload = {"fig5": {
        "node_counts": figure.node_counts,
        "series": figure.series,
        "ratios": figure.ratios,
    }}
    return payload, {"issued_flush": metrics["io.sched.client0.issued_flush"]}


#: case -> (campaign, sha256 of its canonical payload, {claim: (value, why)})
CASES = {
    "bb": (_bb, (
        "3610a29004e5e905b7a235b2ea32b38ec57130ea17d6af05e20d22fcecc41140"
    ), {
        "tier_speedup": (
            206.52, "the tier gives >= 2x effective checkpoint bandwidth"
        ),
        "direct_restore_ok": (True, "direct saves restore byte-identically"),
        "tiered_restore_ok": (True, "tiered saves restore byte-identically"),
        "overflow_restore_ok": (
            True, "an overflowing tier loses no byte of any epoch"
        ),
    }),
    "sched": (_sched, (
        "b6f65794b6b8b720f73602466cb68cc5e0fe983beed15991feaa31906a6705da"
    ), {
        "strict_vs_fifo_p99_speedup": (
            6.28, "strict priority beats FIFO on foreground p99 (> 1x)"
        ),
    }),
    "stability": (_stability, (
        "15aa0ff4bd0b10963bd278fc743ddbb19f3fdc57ad540fbdf774dcb9fb9d762a"
    ), {
        "stall_window_improvement": (
            4.26, "pacing + subcompactions cut stall windows >= 2x"
        ),
        "p999_improvement": (
            2.87, "pacing + subcompactions improve put p99.9 (> 1x)"
        ),
        "serial_stall_windows": (460, "the serial baseline stalls (> 0)"),
        "paced_parallel_compactions": (
            17, "the paced run compacts in parallel (> 0)"
        ),
    }),
    "serving": (_serving, (
        "d8153841f0959e6783a698cad3e5bbd019663778dcb1beadb6147903d500e5c3"
    ), {
        "enumeration_speedup": (
            27.606, "manifest enumeration is >= 3x readdir on entries/s"
        ),
        "per_shard_mds_reduction": (
            2.169, "4 MDS shards + metadata cache cut the busiest shard >= 2x"
        ),
    }),
    "llm": (_llm, (
        "2d374849faa8f14bbb2d9aa25b8f87834c36d4035ea88b89ab84de8db363697b"
    ), {
        "request_amplification": (
            1.0, "the fleet issues >= 1 PFS request per logical file op"
        ),
    }),
    "tiering": (_tiering, (
        "82ada26f8ede6ed89d52fbc280c94537bbe5b56ec347c916441a8c047b1ea10f"
    ), {
        "all_restores_byte_identical": (
            True, "every tiering scenario restores byte-identically"
        ),
    }),
    "fig5-drr": (_fig5_drr, (
        "59b944ed138108ba59e3c7cdcaedb28d1218ae4c74bc42622aa0c754371790f2"
    ), {
        "issued_flush": (
            5, "DRR admission with a compaction cap issues flush I/O (> 0)"
        ),
    }),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_campaign_matches_the_committed_golden(name):
    campaign, digest, claims = CASES[name]
    payload, measured = campaign()
    for key, (value, claim) in claims.items():
        assert measured[key] == value, (
            f"{name}.{key} = {measured[key]!r}, committed as {value!r}: {claim}"
        )
    assert _digest(payload) == digest


if __name__ == "__main__":  # print fresh digests for a deliberate re-pin
    for name, (campaign, _, _) in sorted(CASES.items()):
        print(name, _digest(campaign()[0]))
