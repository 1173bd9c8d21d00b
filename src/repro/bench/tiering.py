"""The burst-buffer tiering campaign: pressure, overflow, crash, OST loss.

Four seeded scenarios exercising the robustness claims of ``repro.bb``
end-to-end through :class:`~repro.core.Checkpointer`:

- **pressure** — epochs checkpoint back-to-back faster than the drain
  retires them, so each ``save`` overlaps the previous epoch's
  write-back (the drain-before-next-epoch case);
- **overflow** — the tier is sized below one epoch, forcing the
  degradation ladder down to write-through, with nothing lost;
- **crash** — the node dies with a dirty buffer at each of the three
  seeded crash points (mid-drain, post-drain-pre-commit, torn journal
  record); the restarted job must restore a complete epoch
  byte-identically;
- **degraded_ost** — every OST dies mid-drain; segments park, and a
  retry after recovery lands every byte.

Everything runs in simulated time with seeded randomness, so the full
campaign payload is bit-reproducible —
``tests/integration/test_campaign_goldens.py`` pins it by hash.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import sim
from repro.core import Checkpointer, LsmioManager, LsmioOptions
from repro.fault import FaultInjector, FaultSchedule, SimulatedCrash
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster
from repro.util.crc import crc32c
from repro.util.humanize import parse_size

#: the three seeded dirty-buffer crash points; the counts target the
#: deterministic seal/drain sequence of the two-epoch workload (epoch 1
#: uses seals 1-6 / drains 1-5, epoch 2 uses seals 7-10 / drains 6-8)
CRASH_POINTS = (
    ("mid_drain", 6),
    ("pre_commit", 8),
    ("torn_journal", 7),
)

_STATE_BLOCK = 64 << 10  # per-array payload in the campaign states


def _epoch_state(epoch: int, nbytes: int = _STATE_BLOCK) -> dict:
    rng = np.random.default_rng(epoch)
    return {
        "field": rng.standard_normal(nbytes // 8),
        "step": epoch,
    }


def _state_crc(state: dict) -> int:
    return crc32c(state["field"].tobytes())


def _bb_options(capacity: str | int, **overrides) -> LsmioOptions:
    bb = {"capacity": capacity, "seed": 9}
    bb.update(overrides)
    return LsmioOptions(write_buffer_size="256K", burst_buffer=bb)


def _run(fn, schedule: Optional[FaultSchedule] = None, **cluster_overrides):
    with sim.Engine() as engine:
        cluster = LustreCluster(
            engine, small_test_cluster(**cluster_overrides)
        )
        if schedule is not None:
            FaultInjector(schedule).install(cluster)
        client = LustreClient(cluster, 0)
        proc = engine.spawn(fn, cluster, client)
        engine.run()
    return proc.result


def _make_manager(client, options: LsmioOptions) -> LsmioManager:
    return LsmioManager(
        "campaign.lsmio/rank0", options=options, env=SimLustreEnv(client)
    )


# -- scenarios ------------------------------------------------------------


def run_pressure(capacity: str = "16M", epochs: int = 4) -> dict:
    """Back-to-back epochs: saves overlap the previous epoch's drain."""
    options = _bb_options(capacity)

    def main(cluster, client):
        manager = _make_manager(client, options)
        ckpt = Checkpointer(manager)
        save_time = 0.0
        backlog_after_save = []
        for epoch in range(1, epochs + 1):
            start = sim.now()
            ckpt.save(epoch, _epoch_state(epoch))
            save_time += sim.now() - start
            backlog_after_save.append(
                manager.burst_buffer.stats.dirty_bytes
            )
        start = sim.now()
        report = manager.drain_barrier()
        drain_wait = sim.now() - start
        snap = manager.burst_buffer.stats.snapshot()
        epoch, state = ckpt.load_latest()
        manager.close()
        return {
            "epochs": epochs,
            "save_time_s": round(save_time, 9),
            "final_drain_wait_s": round(drain_wait, 9),
            "backlog_after_save_bytes": backlog_after_save,
            "drain_completed": report.completed,
            "restored_epoch": epoch,
            "byte_identical": _state_crc(state)
            == _state_crc(_epoch_state(epoch)),
            "bytes_absorbed": snap["bytes_absorbed"],
            "bytes_drained": snap["bytes_drained"],
            "degraded_writes": snap["degraded_writes"],
        }

    return _run(main)


def run_overflow(capacity: str = "48K", epochs: int = 2) -> dict:
    """A tier smaller than one epoch: the ladder must degrade to
    write-through without losing a byte."""
    options = _bb_options(capacity, overflow_timeout=0.05)

    def main(cluster, client):
        manager = _make_manager(client, options)
        ckpt = Checkpointer(manager)
        for epoch in range(1, epochs + 1):
            ckpt.save(epoch, _epoch_state(epoch), wait_drain=True)
        snap = manager.burst_buffer.stats.snapshot()
        epoch, state = ckpt.load_latest()
        manager.close()
        return {
            "restored_epoch": epoch,
            "byte_identical": _state_crc(state)
            == _state_crc(_epoch_state(epoch)),
            "degraded_writes": snap["degraded_writes"],
            "bytes_written_through": snap["bytes_written_through"],
            "overflow_waits": snap["overflow_waits"],
            "evictions": snap["evictions"],
        }

    return _run(main)


def run_crash(phase: str, at: int, capacity: str = "4M") -> dict:
    """Epoch 1 saves clean; the node dies during epoch 2 at the seeded
    crash point; the restarted job restores a complete epoch."""
    options = _bb_options(capacity)
    schedule = FaultSchedule(seed=9).crash_bb_dirty(at=at, phase=phase)

    def main(cluster, client):
        manager = _make_manager(client, options)
        ckpt = Checkpointer(manager)
        ckpt.save(1, _epoch_state(1), wait_drain=True)
        crashed = False
        try:
            ckpt.save(2, _epoch_state(2), wait_drain=True)
        except SimulatedCrash:
            crashed = True
        # restart over the same (dirty) device; the fault already fired
        cluster.fault_injector = None
        restarted = _make_manager(client, options)
        ckpt2 = Checkpointer(restarted)
        epoch, state = ckpt2.load_latest()
        committed = ckpt2.epochs()
        report = restarted.drain_barrier()
        snap = restarted.burst_buffer.stats.snapshot()
        restarted.close()
        return {
            "phase": phase,
            "crashed": crashed,
            "restored_epoch": epoch,
            "byte_identical": _state_crc(state)
            == _state_crc(_epoch_state(epoch)),
            "committed_epochs": committed,
            "segments_recovered": snap["segments_recovered"],
            "segments_discarded": snap["segments_discarded"],
            "post_restart_drain_completed": report.completed,
        }

    return _run(main, schedule=schedule)


def run_degraded_ost(capacity: str = "4M") -> dict:
    """All OSTs die during the drain: segments park and a post-recovery
    retry completes the write-back."""
    options = _bb_options(capacity, drain_retries=1, drain_backoff=0.01)
    schedule = FaultSchedule(seed=5)
    for ost in range(4):
        schedule.fail_ost(ost, at_time=0.001, duration=0.5)

    def main(cluster, client):
        manager = _make_manager(client, options)
        ckpt = Checkpointer(manager)
        ckpt.save(1, _epoch_state(1), wait_drain=True)
        report = ckpt.last_drain_report
        parked = list(manager.burst_buffer.parked_segments)
        retried_completed = None
        if not report.completed:
            sim.sleep(1.0)  # outage over
            manager.burst_buffer.retry_failed()
            retried_completed = manager.drain_barrier().completed
        epoch, state = ckpt.load_latest()
        snap = manager.burst_buffer.stats.snapshot()
        manager.close()
        return {
            "first_drain_completed": report.completed,
            "parked_segments": len(parked),
            "drain_failures": snap["drain_failures"],
            "drain_retries": snap["drain_retries"],
            "retried_drain_completed": retried_completed,
            "restored_epoch": epoch,
            "byte_identical": _state_crc(state)
            == _state_crc(_epoch_state(epoch)),
        }

    return _run(
        main,
        schedule=schedule,
        rpc_timeout=0.02,
        rpc_max_retries=1,
        rpc_backoff_base=0.01,
        rpc_backoff_max=0.02,
        rpc_backoff_jitter=0.0,
    )


# -- the campaign ---------------------------------------------------------


def run_tiering_campaign(capacity: str | int = "16M") -> dict:
    """Run every scenario; the payload is bit-reproducible."""
    parse_size(capacity)  # validate early
    campaign = {
        "capacity": str(capacity),
        "pressure": run_pressure(capacity=capacity),
        "overflow": run_overflow(),
        "crash": {
            phase: run_crash(phase, at) for phase, at in CRASH_POINTS
        },
        "degraded_ost": run_degraded_ost(),
    }
    checks = [campaign["pressure"]["byte_identical"],
              campaign["overflow"]["byte_identical"],
              campaign["degraded_ost"]["byte_identical"]]
    checks += [c["byte_identical"] for c in campaign["crash"].values()]
    campaign["all_restores_byte_identical"] = all(checks)
    return campaign


def format_tiering(campaign: dict) -> str:
    lines = [
        "Burst-buffer tiering campaign "
        f"(capacity {campaign['capacity']})",
        "=" * 56,
    ]
    pressure = campaign["pressure"]
    lines.append(
        f"  pressure:     {pressure['epochs']} epochs, "
        f"saves {pressure['save_time_s'] * 1e3:.1f}ms, "
        f"final drain {pressure['final_drain_wait_s'] * 1e3:.1f}ms"
    )
    overflow = campaign["overflow"]
    lines.append(
        f"  overflow:     {overflow['degraded_writes']} degraded writes, "
        f"{overflow['bytes_written_through']} bytes written through"
    )
    for phase, result in campaign["crash"].items():
        lines.append(
            f"  crash/{phase:13s} restored epoch "
            f"{result['restored_epoch']} "
            f"(recovered={result['segments_recovered']}, "
            f"discarded={result['segments_discarded']})"
        )
    ost = campaign["degraded_ost"]
    lines.append(
        f"  degraded_ost: {ost['parked_segments']} parked, "
        f"retry completed={ost['retried_drain_completed']}"
    )
    lines.append(
        "  every restore byte-identical: "
        f"{campaign['all_restores_byte_identical']}"
    )
    return "\n".join(lines)
