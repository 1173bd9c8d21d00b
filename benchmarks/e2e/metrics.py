"""The ledger's one declarative definition: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is generated from these tables
(``run.py --write-manifest``) and the self-test asserts the two agree, so
a name, unit, direction or bound is written down exactly once.

Three kinds of metric:

* :data:`END_TO_END` — what every workload reports untraced and the PR
  driver gates.  The driver's contract wants every workload to report
  every one of them, so these are the five that mean something everywhere.
* :data:`LEDGER` — user-visible numbers that only some workloads have
  (save latency, space amplification, the model's predictions, paper
  error).  Measured untraced like the end-to-end set, gated by
  ``run.py --compare`` with the bounds below, and listed under
  ``per_layer`` in ``BENCHMARK.json`` (prefixed with the layer that
  produces them) because that is the only list a workload may answer with
  "does not apply" (0).
* :data:`PER_LAYER` — the traced rep's self times and exact counters, each
  with the end-to-end metric @ workload it is expected to move.  On every
  other workload the prediction is *no change*.

"host" is our code's wall-clock in this sandbox (page cache, virtual disk:
not a device's latency).  "sim" is the model's prediction for Viking and
repeats exactly for a fixed seed; simulated seconds carry the unit
``sim_s`` so the two kinds of second are never added up.
"""

from __future__ import annotations

#: default measuring time per run, seconds (the driver passes --seconds)
RUN_SECONDS = 12

#: name -> (ledger reps, why); pinning is the workload class's ``pinned``
WORKLOADS = {
    "local_kv_ckpt": (7,
        "Real engine on LocalFsEnv, 512 MiB of 64 KiB puts then get-all: "
        "core.manager, lsm and the filesystem do all the work; sim, pfs and "
        "mpi do none. Write and restore are reported apart."),
    "local_epoch_ckpt": (7,
        "Same engine through Checkpointer: 16 epochs, two small barriers "
        "each, CRC-verified restore. core.checkpoint, serialization and "
        "util.crc dominate here and idle in local_kv_ckpt."),
    "paper_figs_threads": (9,
        "fig5 + fig10 on the thread backend: the only workload with thread "
        "handoffs and with the real lsm flush running under the simulator; "
        "iolibs, ior and core.plugin run only here."),
    "llm_fleet_light": (7,
        "1024-rank checkpoint/retention/restore storm on the light backend: "
        "zero thread handoffs, so engine-loop, heap, pfs and io.sched work "
        "shows here and a handoff change predicts no change."),
    "serving_fanout_light": (9,
        "3-point serving campaign, 1 GiB of shards against 32 MiB block "
        "caches (working set exceeds cache): the read and metadata side - "
        "mds shards, mdcache, readdir, enumeration, LRU cache."),
}

#: (name, unit, better, bound, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "Interpreter start, imports, payload generation and cluster config up "
     "to the first rep; median of 5 fresh processes."),
    ("wall_s", "s", "lower", 0.25,
     "Host seconds of one rep's measured region, median over reps."),
    ("peak_rss_MB", "MB", "lower", 0.15,
     "ru_maxrss of the workload process after the untraced reps."),
    ("write_MBps", "MB/s", "higher", 0.25,
     "Application MB written per host second of the rep's write side "
     "(first put to barrier; fig5; the whole rep where sides interleave). "
     "On sim workloads the bytes are simulated: simulator throughput."),
    ("restore_MBps", "MB/s", "higher", 0.25,
     "Application MB read back per host second of the restore side "
     "(reopen to last verified read; fig10; the whole rep on light "
     "workloads)."),
]

#: (name, unit, better, compare bound or None for exact, workloads, meaning)
LEDGER = [
    ("core.save_p50_ms", "ms", "lower", 0.25, ("local_epoch_ckpt",),
     "Host time the application is blocked in one Checkpointer.save, "
     "median pooled over reps."),
    ("core.save_p90_ms", "ms", "lower", 0.25, ("local_epoch_ckpt",),
     "Same, p90 (the highest percentile with >= 10 samples beyond it at "
     "7x16 = 112 samples; fewer reps leave fewer)."),
    ("lsm.space_amp", "ratio", "lower", None,
     ("local_kv_ckpt", "local_epoch_ckpt"),
     "Bytes on disk after close / user bytes."),
    ("bench.sim_write_GiBps", "GiB/s", "higher", None,
     ("paper_figs_threads", "llm_fleet_light"),
     "Simulated aggregate write bandwidth at the largest point "
     "(LSMIO/64K at 48 nodes; the 1024-rank fleet)."),
    ("bench.sim_read_GiBps", "GiB/s", "higher", None,
     ("paper_figs_threads", "llm_fleet_light", "serving_fanout_light"),
     "Simulated aggregate read bandwidth at the largest point (LSMIO read "
     "at 16 nodes; restore storm; sharded+cached serving point)."),
    ("bench.sim_restore_p99_s", "sim_s", "lower", None, ("llm_fleet_light",),
     "Simulated p99 over ranks of time-to-restore."),
    ("bench.sim_ttfb_p99_s", "sim_s", "lower", None, ("serving_fanout_light",),
     "Simulated p99 time-to-first-byte of a serving request "
     "(sharded+cached point)."),
    ("bench.paper_err", "log2", "lower", None, ("paper_figs_threads",),
     "Mean |log2(measured/paper)| over every ratio the figure drivers "
     "return, at the benchmark's reduced scale."),
]

_KV, _EP = "local_kv_ckpt", "local_epoch_ckpt"
_FIG, _LLM, _SRV = "paper_figs_threads", "llm_fleet_light", "serving_fanout_light"
_SIM3 = f"wall_s @ {_FIG}, {_LLM}, {_SRV}"

#: (name, unit, better, moves)
PER_LAYER = [
    # core
    ("core.put_self_s", "s", "lower", f"write_MBps @ {_KV}"),
    ("core.put_max_ms", "ms", "lower", f"write_MBps @ {_KV} (flush hand-off spike)"),
    ("core.puts", "count", "lower", "exact count"),
    ("core.batches_merged", "count", "higher", f"write_MBps @ {_KV}"),
    ("core.barrier_self_s", "s", "lower",
     f"write_MBps @ {_KV}; core.save_p50_ms @ {_EP}"),
    ("core.barriers", "count", "lower", "exact count"),
    ("core.get_self_s", "s", "lower", f"restore_MBps @ {_KV}"),
    ("core.checkpoint_self_s", "s", "lower",
     f"core.save_p50_ms, restore_MBps @ {_EP}"),
    ("core.serialize_self_s", "s", "lower",
     f"core.save_p50_ms, restore_MBps @ {_EP}"),
    # util
    ("util.crc32c_s", "s", "lower",
     f"core.save_p50_ms, restore_MBps @ {_EP} (~0 @ {_KV})"),
    ("util.crc32c_bytes", "bytes", "lower", "exact count"),
    # lsm
    ("lsm.write_self_s", "s", "lower", f"write_MBps @ {_KV}; wall_s @ {_FIG}"),
    ("lsm.table_build_self_s", "s", "lower",
     f"write_MBps @ {_KV}; wall_s @ {_FIG}"),
    ("lsm.flush_s", "s", "lower", f"write_MBps @ {_KV}; wall_s @ {_FIG}"),
    ("lsm.flushes", "count", "lower", "exact count"),
    ("lsm.stall_s", "s", "lower", f"write_MBps @ {_KV}"),
    ("lsm.get_self_s", "s", "lower", f"restore_MBps @ {_KV}"),
    ("lsm.open_s", "s", "lower", f"restore_MBps @ {_EP}"),
    ("lsm.sst_files", "count", "lower", f"lsm.space_amp @ {_KV}, {_EP}"),
    ("lsm.sst_bytes", "bytes", "lower", f"lsm.space_amp @ {_KV}, {_EP}"),
    ("lsm.write_amp", "ratio", "lower", f"lsm.space_amp @ {_KV}, {_EP}"),
    ("lsm.env_append_s", "s", "lower", f"write_MBps @ {_KV} (device)"),
    ("lsm.env_sync_s", "s", "lower", f"write_MBps @ {_KV}; core.save_p50_ms @ {_EP}"),
    ("lsm.env_read_s", "s", "lower", f"restore_MBps @ {_KV}"),
    ("lsm.env_appends", "count", "lower", "exact count (device writes)"),
    ("lsm.env_syncs", "count", "lower", "exact count (device flushes)"),
    ("lsm.env_reads", "count", "lower", "exact count (reads per lookup)"),
    ("lsm.env_bytes_written", "bytes", "lower", f"lsm.space_amp @ {_KV}, {_EP}"),
    ("lsm.env_bytes_read", "bytes", "lower", f"restore_MBps @ {_KV}"),
    ("lsm.cache_hit_rate", "ratio", "higher", f"bench.sim_read_GiBps @ {_SRV}"),
    # sim
    ("sim.run_wall_s", "s", "lower", _SIM3),
    ("sim.events", "count", "lower", "exact count; " + _SIM3),
    ("sim.ns_per_event", "ns", "lower", _SIM3),
    ("sim.switches", "count", "lower", f"exact count; wall_s @ {_FIG} only"),
    ("sim.handoff_s", "s", "lower", f"wall_s @ {_FIG} only"),
    ("sim.handoff_us_per_switch", "us", "lower", f"wall_s @ {_FIG} only"),
    ("sim.unpinned_wall_s", "s", "lower",
     f"ungated: what unpinned users of python -m repro.bench pay @ {_FIG}"),
    ("sim.proc_body_s.rank", "s", "lower", f"wall_s @ {_FIG}"),
    ("sim.proc_body_s.lsm-flush", "s", "lower", f"wall_s @ {_FIG}"),
    ("sim.proc_body_s.other", "s", "lower", f"wall_s @ {_FIG}"),
    ("sim.proc_body_s.light", "s", "lower", _SIM3),
    ("sim.dispatch_self_s", "s", "lower", f"wall_s @ {_LLM}, {_SRV}"),
    ("sim.threads", "count", "lower", f"peak_rss_MB @ {_FIG}"),
    ("sim.sys_cpu_frac", "ratio", "lower", "diagnostic (ROADMAP: sys < user)"),
    ("host.cpu_s", "s", "lower", "diagnostic"),
    # mpi
    ("mpi.host_self_s", "s", "lower", f"wall_s @ {_FIG}, {_LLM}"),
    ("mpi.barriers", "count", "lower", "exact count"),
    ("mpi.msgs", "count", "lower", "exact count"),
    ("mpi.barrier_wait_sim_s", "sim_s", "lower",
     f"bench.sim_write_GiBps @ {_FIG}, {_LLM}"),
    # pfs
    ("pfs.client_host_self_s", "s", "lower", _SIM3),
    ("pfs.server_host_self_s", "s", "lower", _SIM3),
    ("pfs.client_rpcs", "count", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.client_mds_ops", "count", "lower", f"bench.sim_* @ {_LLM}, {_SRV}"),
    ("pfs.request_amp", "ratio", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.coalesce_ratio", "ratio", "higher", f"bench.sim_write_GiBps @ {_FIG}"),
    ("pfs.rpc_wait_sim_s", "sim_s", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.ost_requests", "count", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.ost_seq_ratio", "ratio", "higher",
     f"bench.sim_write_GiBps @ {_FIG} (the paper's mechanism)"),
    ("pfs.ost_lock_switches", "count", "lower", f"bench.sim_write_GiBps @ {_FIG}"),
    ("pfs.ost_busy_sim_s", "sim_s", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.oss_busy_sim_s", "sim_s", "lower", f"bench.sim_* @ {_FIG}, {_LLM}"),
    ("pfs.mds_ops", "count", "lower",
     f"bench.sim_ttfb_p99_s @ {_SRV}; bench.sim_restore_p99_s @ {_LLM}"),
    ("pfs.mds_busy_sim_s", "sim_s", "lower",
     f"bench.sim_ttfb_p99_s @ {_SRV}; bench.sim_restore_p99_s @ {_LLM}"),
    ("pfs.mds_wait_sim_s", "sim_s", "lower",
     f"bench.sim_ttfb_p99_s @ {_SRV}; bench.sim_restore_p99_s @ {_LLM}"),
    ("pfs.mds_busiest_shard_ops", "count", "lower", f"bench.sim_ttfb_p99_s @ {_SRV}"),
    ("pfs.mdcache_hit_rate", "ratio", "higher", f"bench.sim_ttfb_p99_s @ {_SRV}"),
    ("pfs.rpc_retries", "count", "lower", "failed ops"),
    ("pfs.rpc_timeouts", "count", "lower", "failed ops"),
    ("pfs.rpc_failures", "count", "lower", "failed ops"),
    # io
    ("io.sched_host_self_s", "s", "lower", f"wall_s @ {_LLM}, {_SRV}"),
    ("io.sched_submits", "count", "lower", "exact count"),
    ("io.sched_inline_ratio", "ratio", "higher",
     f"bench.sim_write_GiBps @ {_FIG}, {_LLM}"),
    ("io.sched_wait_sim_s", "sim_s", "lower", f"bench.sim_write_GiBps @ {_FIG}, {_LLM}"),
    # iolibs / ior / bench
    ("iolibs.host_self_s", "s", "lower", f"wall_s @ {_FIG}"),
    ("ior.host_self_s", "s", "lower", f"wall_s @ {_FIG}"),
    ("bench.host_self_s", "s", "lower", f"wall_s @ {_LLM}, {_SRV}"),
    # trace
    ("trace.overhead_frac", "ratio", "lower", "traced / untraced wall_s - 1"),
    ("trace.spans", "count", "lower", "spans opened by the wrappers"),
    ("trace.unattributed_frac", "ratio", "lower",
     "share of the traced rep outside every patched call (<= 0.10)"),
    ("trace.budget_error_frac", "ratio", "lower",
     "|sum of layer self times + unattributed - wall_s| / wall_s (<= 0.02)"),
]

#: names that must repeat exactly for a fixed seed: counts, byte totals,
#: simulated seconds, ratios of exact counts, and the model's predictions
EXACT = frozenset(
    name for name, unit, _, _ in PER_LAYER
    if unit in ("count", "bytes") or name.endswith("_sim_s")
) | {
    "lsm.write_amp", "lsm.cache_hit_rate", "pfs.request_amp",
    "pfs.coalesce_ratio", "pfs.ost_seq_ratio", "pfs.mdcache_hit_rate",
    "io.sched_inline_ratio",
} | {name for name, _, _, bound, *_ in LEDGER if bound is None}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (_, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b}
            for n, u, b, *_ in LEDGER
        ] + [
            {"name": n, "unit": u, "better": b}
            for n, u, b, _ in PER_LAYER
        ],
    }
