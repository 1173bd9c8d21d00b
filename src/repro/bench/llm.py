"""Fleet-scale LLM checkpoint/restore campaign.

The figure benchmarks stop at Viking's 137 nodes, but the workload the
engine is being grown toward is an order of magnitude wider: a training
fleet where every data-parallel rank persists its own FSDP/ZeRO shard.
This campaign models that shape end to end on a proportionally scaled
Lustre cluster:

* **Sharded checkpoints** — each rank writes one model shard plus a
  handful of small optimizer-state "splinter" files per epoch (the
  many-tiny-files pattern ZeRO partitioning produces), then fsyncs and
  closes them.  Creates, closes, and unlinks all funnel through the
  single MDS — the metadata storm is part of the workload, not noise.
* **Retention** — only the last ``keep_last`` epochs are kept; older
  checkpoints are unlinked while the fleet keeps writing, so deletion
  traffic overlaps new-epoch writes exactly as a real retention daemon's
  would.
* **Restore storm** — after the final epoch every rank re-opens and
  re-reads the newest checkpoint at once (the cold-start-after-preemption
  case).  The report includes per-rank time-to-restore and its p99: the
  fleet resumes when the *slowest* rank is back, not the average one.

Every rank is a lightweight generator process (``Engine.spawn_light``),
which is what makes 1024-rank fleets tractable.  The results dict is
sim-deterministic (no wall-clock values):
``tests/integration/test_campaign_goldens.py`` pins the 1024-rank quick
point by hash, and ``tests/bench/test_llm.py`` replays a small fleet on
the thread backend (``Engine(light_processes=False)``) as the reference
schedule.

Request amplification is reported as *PFS requests per logical file op*:
the application performs creates/writes/closes/unlinks/opens/reads; the
client turns each write or read into ``ceil(stripe extents / rpc_size)``
RPCs and each namespace op into one MDS call.  Amplification is the
ratio of actual requests (write RPCs + read RPCs + MDS ops) to logical
operations issued.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import sim
from repro.mpi import World
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import viking
from repro.util.humanize import format_size
from repro.util.stats import quantile

#: Rank counts swept by the default campaign (fleet sizes, not Viking
#: node counts — the cluster is scaled alongside, see :func:`fleet_config`).
DEFAULT_RANK_COUNTS = (64, 256, 1024)

#: Ranks per OST when scaling the cluster with the fleet.  8:1 keeps the
#: OST count in the regime where per-rank files spread without every
#: rank hammering the same spindle.
RANKS_PER_OST = 8

#: OSTs per OSS, Viking's own ratio (45 OSTs / 2 OSSs ≈ 23).
OSTS_PER_OSS = 23


def fleet_config(ranks: int, **overrides):
    """A Viking-calibrated cluster scaled to ``ranks`` clients.

    Hardware constants (disk profile, per-pipe bandwidths, lock and RPC
    costs) stay at the Table 4 calibration; only the *counts* grow with
    the fleet, the way a site provisions more OSTs for a bigger machine.
    Data is not stored (``store_data=False``): at fleet scale only the
    timing matters, and data-less writes keep memory flat.
    """
    num_osts = max(45, -(-ranks // RANKS_PER_OST))
    params = dict(
        num_osts=num_osts,
        num_oss=max(2, -(-num_osts // OSTS_PER_OSS)),
        store_data=False,
    )
    params.update(overrides)
    return viking(**params)


@dataclass(frozen=True)
class LlmConfig:
    """One checkpoint/restore campaign point."""

    ranks: int = 1024
    #: epochs of training simulated (one checkpoint per epoch per rank)
    epochs: int = 3
    #: bytes of the per-rank FSDP model shard
    model_bytes: int = 16 << 20
    #: optimizer-state splinter files per rank per epoch (ZeRO partitions)
    opt_splinters: int = 4
    #: bytes per splinter file
    opt_bytes: int = 1 << 20
    #: checkpoints retained; older epochs are unlinked while writing
    keep_last: int = 2
    #: stripe count for the model shard (splinters always stripe 1)
    stripe_count: int = 4
    #: re-read the newest checkpoint from every rank after training
    restore_storm: bool = True

    def quick(self) -> "LlmConfig":
        """The reduced point: same shape, small payloads."""
        return replace(
            self,
            epochs=2,
            model_bytes=256 << 10,
            opt_splinters=2,
            opt_bytes=64 << 10,
            keep_last=1,
        )

    @property
    def bytes_per_checkpoint(self) -> int:
        """Bytes one rank persists per epoch."""
        return self.model_bytes + self.opt_splinters * self.opt_bytes

    @property
    def files_per_checkpoint(self) -> int:
        return 1 + self.opt_splinters

    def logical_ops(self) -> int:
        """Application-level file operations the whole fleet issues."""
        fpc = self.files_per_checkpoint
        per_rank = 3 * self.epochs * fpc  # create + write + close
        per_rank += max(0, self.epochs - self.keep_last) * fpc  # unlink
        if self.restore_storm:
            per_rank += 2 * fpc  # open + read
        return per_rank * self.ranks


@dataclass
class _Fleet:
    """Mutable per-run state shared by the rank processes."""

    restore_s: dict = field(default_factory=dict)
    write_done_s: float = 0.0


def _paths(rank: int, epoch: int, splinters: int):
    base = f"ckpt/ep{epoch:04d}/rank{rank:05d}"
    return (
        f"{base}/model.shard",
        [f"{base}/opt.{i:02d}" for i in range(splinters)],
    )


def _rank_lw(client: LustreClient, comm, cfg: LlmConfig, fleet: _Fleet):
    """One training rank: checkpoint loop, retention, restore storm."""
    rank = client.client_id
    for epoch in range(cfg.epochs):
        model_path, opt_paths = _paths(rank, epoch, cfg.opt_splinters)
        model = yield from client.create_lw(
            model_path, stripe_count=cfg.stripe_count
        )
        yield from client.write_lw(model, 0, cfg.model_bytes)
        for path in opt_paths:
            splinter = yield from client.create_lw(path, stripe_count=1)
            yield from client.write_lw(splinter, 0, cfg.opt_bytes)
            yield from client.close_lw(splinter)
        yield from client.close_lw(model)
        # Retention: drop this rank's checkpoint from keep_last epochs
        # ago — a fleet-wide unlink storm through the single MDS that
        # overlaps the epoch's tail writes on other ranks.
        doomed = epoch - cfg.keep_last
        if doomed >= 0:
            old_model, old_opts = _paths(rank, doomed, cfg.opt_splinters)
            yield from client.unlink_lw(old_model)
            for path in old_opts:
                yield from client.unlink_lw(path)
        yield from comm.barrier_lw()
    fleet.write_done_s = sim.now()
    if not cfg.restore_storm:
        return
    # Restore storm: every rank re-reads the newest checkpoint at once.
    start = sim.now()
    model_path, opt_paths = _paths(rank, cfg.epochs - 1, cfg.opt_splinters)
    model = yield from client.open_lw(model_path)
    yield from client.read_lw(model, 0, cfg.model_bytes)
    for path in opt_paths:
        splinter = yield from client.open_lw(path)
        yield from client.read_lw(splinter, 0, cfg.opt_bytes)
    fleet.restore_s[rank] = sim.now() - start


def run_llm_scenario(cfg: LlmConfig) -> dict:
    """Run one campaign point; returns a sim-deterministic result dict."""
    fleet = _Fleet()
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, fleet_config(cfg.ranks))
        world = World(engine, cfg.ranks)
        clients = [LustreClient(cluster, r) for r in range(cfg.ranks)]
        for client in clients:
            engine.spawn_light(
                _rank_lw, client, world.comm(client.client_id), cfg, fleet,
                name=f"rank{client.client_id}",
            )
        final_s = engine.run()
        heap_pushes = engine._heap_pushes

        bytes_written = sum(c.stats.bytes_written for c in clients)
        bytes_restored = sum(c.stats.bytes_read for c in clients)
        write_rpcs = sum(c.stats.write_rpcs for c in clients)
        read_rpcs = sum(c.stats.read_rpcs for c in clients)
        mds_ops = sum(c.stats.mds_ops for c in clients)
        mds_unlinks = cluster.mds.stats.ops.get("unlink", 0)

    expected_written = cfg.bytes_per_checkpoint * cfg.epochs * cfg.ranks
    if bytes_written != expected_written:
        raise AssertionError(
            f"fleet wrote {bytes_written} bytes, expected {expected_written}"
        )
    result = {
        "ranks": cfg.ranks,
        "epochs": cfg.epochs,
        "files_per_checkpoint": cfg.files_per_checkpoint,
        "checkpoint_bytes_per_rank": cfg.bytes_per_checkpoint,
        "bytes_written": bytes_written,
        "write_time_s": round(fleet.write_done_s, 6),
        "write_gib_s": round(
            bytes_written / fleet.write_done_s / (1 << 30), 3
        ),
        "mds_ops": mds_ops,
        "retention_unlinks": mds_unlinks,
        "requests": write_rpcs + read_rpcs + mds_ops,
        "logical_ops": cfg.logical_ops(),
        "request_amplification": round(
            (write_rpcs + read_rpcs + mds_ops) / cfg.logical_ops(), 3
        ),
        "final_time_s": round(final_s, 6),
        "heap_pushes": heap_pushes,
    }
    if cfg.restore_storm:
        if len(fleet.restore_s) != cfg.ranks:
            raise AssertionError(
                f"{len(fleet.restore_s)}/{cfg.ranks} ranks restored"
            )
        times = sorted(fleet.restore_s.values())
        storm_s = final_s - fleet.write_done_s
        result["restore"] = {
            "bytes_read": bytes_restored,
            "storm_time_s": round(storm_s, 6),
            "restore_gib_s": round(
                bytes_restored / storm_s / (1 << 30), 3
            ),
            "rank_p50_s": round(quantile(times, 0.50), 6),
            "rank_p99_s": round(quantile(times, 0.99), 6),
            "rank_max_s": round(times[-1], 6),
        }
    return result


def run_llm_campaign(
    rank_counts=DEFAULT_RANK_COUNTS,
    quick: bool = False,
) -> dict:
    """Sweep the fleet-size axis; returns ``{"points": [...], ...}``."""
    base = LlmConfig()
    if quick:
        base = base.quick()
    points = []
    for ranks in rank_counts:
        cfg = replace(base, ranks=ranks)
        points.append(run_llm_scenario(cfg))
    return {
        "workload": "llm-checkpoint-restore",
        "quick": bool(quick),
        "points": points,
    }


def format_llm(result: dict) -> str:
    """Render the campaign as an aligned table."""
    lines = [
        "LLM fleet checkpoint/restore"
        f"{' (quick)' if result['quick'] else ''}",
        f"{'ranks':>6} {'ckpt/rank':>10} {'write GiB/s':>12} "
        f"{'restore GiB/s':>14} {'p99 restore s':>14} {'amplif.':>8} "
        f"{'MDS ops':>8}",
    ]
    for point in result["points"]:
        restore = point.get("restore", {})
        lines.append(
            f"{point['ranks']:>6} "
            f"{format_size(point['checkpoint_bytes_per_rank']):>10} "
            f"{point['write_gib_s']:>12.3f} "
            f"{restore.get('restore_gib_s', float('nan')):>14.3f} "
            f"{restore.get('rank_p99_s', float('nan')):>14.3f} "
            f"{point['request_amplification']:>8.3f} "
            f"{point['mds_ops']:>8}"
        )
    return "\n".join(lines)


__all__ = [
    "LlmConfig",
    "fleet_config",
    "run_llm_scenario",
    "run_llm_campaign",
    "format_llm",
    "DEFAULT_RANK_COUNTS",
]
