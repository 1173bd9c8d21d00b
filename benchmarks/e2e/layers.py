"""What the traced rep patches, and how spans become per-layer metrics.

Layers are the repo's packages.  :data:`PATCHES` names every public entry
point that gets a span; :func:`traced` installs them (plus the existing
``MetricsRegistry``, telemetry histograms and ``EngineProfiler``) around
one rep and removes them again; :func:`layer_metrics` turns what they
collected into the ``per_layer`` numbers of ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import importlib
import re
from collections import defaultdict

from spans import BG, MAIN, PROC, Patcher, Tracker, fold_digits

#: (layer, module, class or None, names) — a ``*`` among the names means
#: every public callable the class defines itself.  Module-level functions are patched
#: in every ``repro.*`` module that imported them by name.
PATCHES = [
    ("core", "repro.core.manager", "LsmioManager",
     "__init__ put append delete get get_batch read_prefix write_barrier close"),
    ("core", "repro.core.checkpoint", "Checkpointer",
     "save load load_latest verify epochs"),
    ("core", "repro.core.serialization", None,
     "serialize_value deserialize_value"),
    ("core", "repro.core.plugin", "LsmioPluginEngine", "*"),
    ("core", "repro.core.enumeration", None,
     "write_manifest_lw manifest_listing_lw readdir_storm_lw"),
    ("util", "repro.util.crc", None, "crc32c"),
    ("lsm", "repro.lsm.db", "DB", "open write get multi_get flush close"),
    ("lsm", "repro.lsm.sstable", "TableBuilder", "add finish"),
    ("lsm", "repro.lsm.executors", "ThreadExecutor", "submit drain"),
    ("lsm", "repro.lsm.executors", "SyncExecutor", "submit"),
    ("lsm", "repro.sim.executor", "SimExecutor", "submit drain"),
    ("lsm", "repro.lsm.cache", "LRUCache", "get"),
    ("sim", "repro.sim.engine", "Engine", "run spawn spawn_light close"),
    ("mpi", "repro.mpi.comm", "Communicator", "*"),
    ("mpi", "repro.mpi.comm", "World", "__init__"),
    ("mpi", "repro.mpi.launcher", None, "run_world"),
    ("pfs", "repro.pfs.client", "LustreClient", "* __init__"),
    ("pfs", "repro.pfs.lustre", "LustreCluster", "__init__"),
    ("pfs", "repro.pfs.ost", "Ost", "serve serve_lw"),
    ("pfs", "repro.pfs.oss", "Oss", "transfer transfer_lw"),
    ("pfs", "repro.pfs.mds", "Mds", "perform perform_lw"),
    ("pfs", "repro.pfs.mds", "MdsShardGroup", "perform perform_lw"),
    ("io", "repro.io.scheduler", "IoScheduler", "submit submit_lw"),
    ("iolibs", "repro.iolibs.posixio", "PosixFile", "*"),
    ("iolibs", "repro.iolibs.hdf5", "Hdf5File", "*"),
    ("iolibs", "repro.iolibs.adios2", "Adios2Io", "*"),
    ("iolibs", "repro.iolibs.adios2", "Bp5Writer", "*"),
    ("iolibs", "repro.iolibs.adios2", "Bp5Reader", "*"),
    ("iolibs", "repro.iolibs.collective", None,
     "two_phase_write two_phase_read"),
    ("ior", "repro.ior.runner", None, "run_ior"),
    ("bench", "repro.bench.figures", None, "fig5_ior_vs_lsmio fig10_read"),
    ("bench", "repro.bench.llm", None, "run_llm_scenario"),
    ("bench", "repro.bench.serving", None, "run_serving_scenario"),
]

#: patched calls whose *argument* is code of another layer: (class, method)
#: -> (positional index counting self, keyword, span name)
CALLBACK_ARGS = {
    ("ThreadExecutor", "submit"): (1, "job", "flush_job"),
    ("SyncExecutor", "submit"): (1, "job", "flush_job"),
    ("SimExecutor", "submit"): (1, "job", "flush_job"),
    ("IoScheduler", "submit"): (3, "run", "issue"),
    ("IoScheduler", "submit_lw"): (3, "run", "issue"),
}


def _public_names(cls: type) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_")
        and callable(getattr(value, "__func__", value))
        and not isinstance(value, (property, type))
    ]


def _short(name: str) -> str:
    return {"write_barrier": "barrier", "serialize_value": "serialize",
            "deserialize_value": "deserialize"}.get(name, name)


def _install(patcher: Patcher, tracker: Tracker) -> None:
    for layer, modname, clsname, names in PATCHES:
        module = importlib.import_module(modname)
        if clsname is None:
            for name in names.split():
                key = (layer, _short(name))
                patcher.patch_function(
                    getattr(module, name),
                    lambda fn, key=key: _function(tracker, fn, key),
                )
            continue
        cls = getattr(module, clsname)
        wanted = [
            name for token in names.split()
            for name in (_public_names(cls) if token == "*" else [token])
        ]
        for name in wanted:
            key = (layer, f"{clsname}.{_short(name)}")
            patcher.patch_method(
                cls, name,
                lambda fn, key=key, spec=(clsname, name):
                    _method(tracker, fn, key, spec),
            )


def _function(tracker: Tracker, fn, key: tuple):
    """Module-level functions; ``crc32c`` also counts the bytes it hashes."""
    wrapped = tracker.wrap(fn, key)
    if key != ("util", "crc32c"):
        return wrapped

    def crc32c(data, crc=0):
        tracker.count("util.crc32c_bytes", len(data))
        return wrapped(data, crc)

    return crc32c


def _method(tracker: Tracker, fn, key: tuple, spec: tuple):
    wrapped = tracker.wrap(fn, key)
    if spec == ("Engine", "spawn"):
        def spawn(self, fn, *args, name=None, **kwargs):
            tracker.threads_spawned += 1
            pname = name or getattr(fn, "__name__", "proc")
            body = tracker.wrap_process_body(fn, pname)
            return wrapped(self, body, *args, name=pname, **kwargs)

        return spawn
    if spec == ("Engine", "spawn_light"):
        def spawn_light(self, genfn, *args, name=None, **kwargs):
            pname = name or getattr(genfn, "__name__", "proc")
            body = tracker.wrap_callback(
                genfn, "light:" + fold_digits(pname)
            )
            return wrapped(self, body, *args, name=pname, **kwargs)

        return spawn_light
    if spec in CALLBACK_ARGS:
        index, keyword, span_name = CALLBACK_ARGS[spec]

        def with_callback(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = tracker.wrap_callback(
                    kwargs[keyword], span_name
                )
            else:
                args = list(args)
                args[index] = tracker.wrap_callback(args[index], span_name)
            return wrapped(*args, **kwargs)

        return with_callback
    if spec == ("LRUCache", "get"):
        # counter only: the table cache sits on the get hot path
        def get(self, cache_key):
            value = fn(self, cache_key)
            tracker.count(
                "lsm.cache_hits" if value is not None else "lsm.cache_misses"
            )
            return value

        return get
    if spec[0] == "Communicator" and spec[1] in ("barrier", "barrier_lw"):
        # simulated seconds ranks spend waiting at barriers
        from repro.trace import ambient_clock as sim_clock

        if spec[1] == "barrier":
            def barrier(self):
                start = sim_clock()
                try:
                    return wrapped(self)
                finally:
                    tracker.count("mpi.barrier_wait_sim_s", sim_clock() - start)

            return barrier

        def barrier_lw(self):
            start = sim_clock()
            result = yield from wrapped(self)
            tracker.count("mpi.barrier_wait_sim_s", sim_clock() - start)
            return result

        return barrier_lw
    return wrapped


class TimingEnv:
    """Device-level view of a local ``Env``: spans and byte counts around
    file appends, syncs and reads; every other call passes through."""

    def __init__(self, base, tracker: Tracker):
        self._base = base
        self._tracker = tracker

    def __getattr__(self, name):
        return getattr(self._base, name)

    def new_writable_file(self, path):
        return _TimedFile(self._base.new_writable_file(path), self._tracker)

    def new_random_access_file(self, path):
        return _TimedFile(
            self._base.new_random_access_file(path), self._tracker
        )


class _TimedFile:
    def __init__(self, base, tracker: Tracker):
        self._base = base
        self._tracker = tracker

    def __getattr__(self, name):
        return getattr(self._base, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._base.close()

    def _timed(self, key, call, *args):
        tracker = self._tracker
        tracker.enter(key)
        try:
            return call(*args)
        finally:
            tracker.leave()

    def append(self, data):
        self._tracker.count("lsm.env_bytes_written", len(data))
        self._timed(("lsm", "env_append"), self._base.append, data)

    def append_owned(self, data):
        self._tracker.count("lsm.env_bytes_written", len(data))
        self._timed(("lsm", "env_append"), self._base.append_owned, data)

    def sync(self):
        self._timed(("lsm", "env_sync"), self._base.sync)

    def read(self, offset, nbytes):
        data = self._timed(("lsm", "env_read"), self._base.read, offset, nbytes)
        self._tracker.count("lsm.env_bytes_read", len(data))
        return data


def keep_all_registry():
    """A ``MetricsRegistry`` that never forgets a source.

    Sweeps build a fresh cluster per point and every constructor
    re-registers the same namespaces (``pfs.ost3``...); the stock registry
    replaces, which would leave only the last point's counters.  A replaced
    source moves to ``<namespace>@<n>`` so ``snapshot()`` still sums the rep.
    """
    from repro.trace import MetricsRegistry

    class KeepAllRegistry(MetricsRegistry):
        def __init__(self):
            super().__init__()
            self._live: dict = {}
            self._retired = 0

        def register(self, namespace, source):
            old = self._live.get(namespace)
            if old is not None:
                self._retired += 1
                super().register(f"{namespace}@{self._retired}", old)
            self._live[namespace] = source
            super().register(namespace, source)

    return KeepAllRegistry()


@contextlib.contextmanager
def traced(tag: str):
    """Install patches + registry + telemetry + engine profiler for one rep.

    Yields a dict that, after the block, holds ``tracker``, the registry
    ``snapshot``, the profiler ``profile``, the ``patched`` count and
    ``leftovers`` (patches that survived removal; must be empty).
    """
    from repro import telemetry, trace

    out: dict = {}
    tracker = out["tracker"] = Tracker(tag)
    patcher = Patcher()
    registry = keep_all_registry()
    profiler = telemetry.EngineProfiler()
    # A disabled Tracer keeps the program's own span sites inert; only the
    # registry half of install() is wanted.
    trace.install(trace.Tracer(enabled=False), registry)
    telemetry.install(profiler=profiler)
    _install(patcher, tracker)
    out["patched"] = len(patcher)
    try:
        yield out
    finally:
        out["leftovers"] = patcher.remove()
        out["snapshot"] = registry.snapshot()
        out["profile"] = profiler.snapshot()
        telemetry.uninstall()
        trace.uninstall()


# ---------------------------------------------------------------------------
# spans + counters -> per-layer metrics
# ---------------------------------------------------------------------------

_NS = 1e-9


class _Books:
    """Lookup helpers over one traced rep's aggregates."""

    def __init__(self, agg: dict, snapshot: dict, profile: dict):
        self.agg = agg
        self.snapshot = snapshot
        self.profile = profile

    def spans(self, layer: str, pattern: str, domains=(MAIN, PROC, BG)):
        """Summed [calls, total_s, self_s, max_s] over matching span names."""
        rx = re.compile(pattern)
        calls = total = own = peak = 0
        for domain in domains:
            for (lay, name), row in self.agg[domain].items():
                if lay == layer and rx.fullmatch(name):
                    calls += row[0]
                    total += row[1]
                    own += row[2]
                    peak = max(peak, row[3])
        return calls, total * _NS, own * _NS, peak * _NS

    def layer_self(self, layer: str, domains=(MAIN, PROC)) -> float:
        return sum(
            row[2] for domain in domains
            for (lay, _), row in self.agg[domain].items() if lay == layer
        ) * _NS

    def counter(self, name: str) -> float:
        return self.agg["counters"].get(name, 0)

    def stat(self, pattern: str, reduce=sum) -> float:
        """Reduce registry values whose key matches ``pattern`` (a regex in
        which ``#`` stands for an index plus the keep-all ``@n`` suffix)."""
        rx = re.compile(pattern.replace("#", r"\d*(?:@\d+)?"))
        values = [v for k, v in self.snapshot.items() if rx.fullmatch(k)]
        return reduce(values) if values else 0

    def sites(self, prefix: str):
        """(events, wall_s) over EngineProfiler sites starting with prefix."""
        rows = [r for r in self.profile["sites"] if r["site"].startswith(prefix)]
        return (
            sum(r["events"] for r in rows),
            sum(r["wall_ns"] for r in rows) * _NS,
        )


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(out: dict, wall_s: float, cpu: tuple, untraced_wall_s: float):
    """``(metrics, budget)`` for one traced rep.

    ``metrics`` maps every ``per_layer`` name measured by the traced rep to
    its value; ``budget`` is the self-time ledger (layer -> seconds, plus
    ``sim.handoff`` and ``unattributed``) that must sum to ``wall_s``.
    """
    tracker = out["tracker"]
    b = _Books(tracker.aggregate(), out["snapshot"], out["profile"])
    m: dict = defaultdict(float)

    # -- the wall budget -----------------------------------------------------
    thread_events, thread_wall = b.sites("Process._resume_action[")
    light_events, light_wall = b.sites("LightProcess._resume_action[")
    body_cpu = defaultdict(float)
    for (_, name), row in b.agg[PROC].items():
        if name.startswith("proc:"):
            body_cpu[name[5:]] += row[1] * _NS
    handoff = max(0.0, thread_wall - sum(body_cpu.values()))
    layers = sorted(
        {lay for d in (MAIN, PROC) for lay, _ in b.agg[d]} - {"root"}
    )
    budget = {lay: b.layer_self(lay) for lay in layers}
    # the engine thread's wall while a thread-backed process holds the
    # baton is re-booked: body CPU to the layers above, the rest to handoff
    budget["sim"] = budget.get("sim", 0.0) - thread_wall
    budget["sim.handoff"] = handoff
    budget["unattributed"] = b.layer_self("root")

    # -- core ----------------------------------------------------------------
    calls, _, own, peak = b.spans("core", r"LsmioManager\.(put|append)")
    m["core.puts"] = calls
    m["core.put_self_s"] = own
    m["core.put_max_ms"] = peak * 1e3
    calls, _, own, _ = b.spans("core", r"LsmioManager\.barrier")
    m["core.barriers"] = calls
    m["core.barrier_self_s"] = own
    m["core.get_self_s"] = b.spans(
        "core", r"LsmioManager\.(get|get_batch|read_prefix)")[2]
    m["core.checkpoint_self_s"] = b.spans("core", r"Checkpointer\..*")[2]
    m["core.serialize_self_s"] = b.spans("core", r"(de)?serialize")[2]
    m["core.batches_merged"] = b.stat(r"core\.manager\..*\.batches_merged")

    # -- util ----------------------------------------------------------------
    m["util.crc32c_s"] = b.spans("util", "crc32c")[1]
    m["util.crc32c_bytes"] = b.counter("util.crc32c_bytes")

    # -- lsm -----------------------------------------------------------------
    m["lsm.write_self_s"] = b.spans("lsm", r"DB\.write")[2]
    m["lsm.get_self_s"] = b.spans("lsm", r"DB\.(get|multi_get)")[2]
    m["lsm.open_s"] = b.spans("lsm", r"DB\.open")[1]
    m["lsm.table_build_self_s"] = b.spans("lsm", r"TableBuilder\..*")[2]
    m["lsm.flushes"], m["lsm.flush_s"], _, _ = b.spans("lsm", "flush_job")
    m["lsm.stall_s"] = b.spans("lsm", r".*Executor\.drain")[1]
    m["lsm.sst_files"] = b.stat(r"lsm\.db\..*\.memtable_flushes")
    m["lsm.sst_bytes"] = b.stat(r"lsm\.db\..*\.flushed_bytes")
    m["lsm.write_amp"] = _ratio(
        m["lsm.sst_bytes"] + b.stat(r"lsm\.db\..*\.compacted_bytes"),
        b.stat(r"lsm\.db\..*\.bytes_written"),
    )
    for op in ("append", "sync", "read"):
        calls, total, _, _ = b.spans("lsm", f"env_{op}")
        m[f"lsm.env_{op}s"] = calls
        m[f"lsm.env_{op}_s"] = total
    m["lsm.env_bytes_written"] = b.counter("lsm.env_bytes_written")
    m["lsm.env_bytes_read"] = b.counter("lsm.env_bytes_read")
    hits, misses = b.counter("lsm.cache_hits"), b.counter("lsm.cache_misses")
    m["lsm.cache_hit_rate"] = _ratio(hits, hits + misses)

    # -- sim -----------------------------------------------------------------
    _, run_wall, _, _ = b.spans("sim", r"Engine\.run", domains=(MAIN,))
    events = b.profile["events"]
    m["sim.run_wall_s"] = run_wall
    m["sim.events"] = events
    m["sim.ns_per_event"] = _ratio(run_wall, events) * 1e9
    m["sim.switches"] = thread_events
    m["sim.handoff_s"] = handoff
    m["sim.handoff_us_per_switch"] = _ratio(handoff, thread_events) * 1e6
    m["sim.proc_body_s.rank"] = body_cpu.pop("rank#", 0.0)
    m["sim.proc_body_s.lsm-flush"] = body_cpu.pop("lsm-flush-#", 0.0)
    m["sim.proc_body_s.other"] = sum(body_cpu.values())
    m["sim.proc_body_s.light"] = light_wall
    m["sim.dispatch_self_s"] = max(0.0, run_wall - thread_wall - light_wall)
    m["sim.threads"] = tracker.threads_spawned
    user, system = cpu
    m["host.cpu_s"] = user + system
    m["sim.sys_cpu_frac"] = _ratio(system, user + system)

    # -- mpi / pfs / io ------------------------------------------------------
    m["mpi.host_self_s"] = budget.get("mpi", 0.0)
    m["mpi.barriers"] = b.spans("mpi", r"Communicator\.barrier(_lw)?")[0]
    m["mpi.msgs"] = b.spans(
        "mpi", r"Communicator\.(channel_)?send(_lw)?")[0]
    m["mpi.barrier_wait_sim_s"] = b.counter("mpi.barrier_wait_sim_s")

    m["pfs.client_host_self_s"] = sum(
        b.spans("pfs", pattern, domains=(MAIN, PROC))[2]
        for pattern in (r"LustreClient\..*", "issue", r"light:client#\.wb")
    )
    m["pfs.server_host_self_s"] = b.spans(
        "pfs", r"(Ost|Oss|Mds|MdsShardGroup)\..*", domains=(MAIN, PROC))[2]
    write_rpcs = b.stat(r"pfs\.client#\.write_rpcs")
    read_rpcs = b.stat(r"pfs\.client#\.read_rpcs")
    m["pfs.client_rpcs"] = write_rpcs + read_rpcs
    m["pfs.client_mds_ops"] = b.stat(r"pfs\.client#\.mds_ops")
    logical = b.spans(
        "pfs",
        r"LustreClient\.(create|open|close|stat|unlink|setattr|readdir_page"
        r"|write|writev|read)(_lw)?",
    )[0]
    m["pfs.request_amp"] = _ratio(
        m["pfs.client_rpcs"] + m["pfs.client_mds_ops"], logical)
    m["pfs.coalesce_ratio"] = _ratio(
        b.stat(r"pfs\.client#\.bytes_coalesced"),
        b.stat(r"pfs\.client#\.bytes_(written|read)"),
    )
    m["pfs.rpc_wait_sim_s"] = b.stat(r"telemetry\.pfs\.rpc\.(write|read)\.sum")
    m["pfs.ost_requests"] = b.stat(r"pfs\.ost#\.requests")
    m["pfs.ost_seq_ratio"] = _ratio(
        b.stat(r"pfs\.ost#\.sequential_requests"), m["pfs.ost_requests"])
    m["pfs.ost_lock_switches"] = b.stat(r"pfs\.ost#\.lock_switches")
    m["pfs.ost_busy_sim_s"] = b.stat(r"pfs\.ost#\.busy_time")
    m["pfs.oss_busy_sim_s"] = b.stat(r"pfs\.oss#\.busy_time")
    m["pfs.mds_ops"] = b.stat(r"pfs\.mds(?:@\d+)?\.requests")
    m["pfs.mds_busy_sim_s"] = b.stat(r"pfs\.mds(?:@\d+)?\.busy_time")
    m["pfs.mds_wait_sim_s"] = b.stat(r"telemetry\.pfs\.mds\.wait\.sum")
    m["pfs.mds_busiest_shard_ops"] = b.stat(r"pfs\.mds#\.requests", max)
    md_hits = b.stat(r"pfs\.mdcache\.client#\.(hits|negative_hits)")
    m["pfs.mdcache_hit_rate"] = _ratio(
        md_hits, md_hits + b.stat(r"pfs\.mdcache\.client#\.misses"))
    for name in ("rpc_retries", "rpc_timeouts", "rpc_failures"):
        m[f"pfs.{name}"] = b.stat(rf"pfs\.client#\.{name}")

    m["io.sched_host_self_s"] = b.spans(
        "io", r"IoScheduler\..*", domains=(MAIN, PROC))[2]
    inline = b.stat(r"io\.sched\.client#\.inline_issues")
    queued = b.stat(r"io\.sched\.client#\.queued_issues")
    m["io.sched_submits"] = inline + queued
    m["io.sched_inline_ratio"] = _ratio(inline, inline + queued)
    m["io.sched_wait_sim_s"] = b.stat(r"io\.sched\.client#\.stall_time_\w+")

    # -- iolibs / ior / bench / trace ----------------------------------------
    for layer in ("iolibs", "ior", "bench"):
        m[f"{layer}.host_self_s"] = budget.get(layer, 0.0)
    m["trace.spans"] = len(tracker.records) + tracker.dropped
    m["trace.overhead_frac"] = _ratio(wall_s, untraced_wall_s) - 1.0
    m["trace.unattributed_frac"] = _ratio(budget["unattributed"], wall_s)
    m["trace.budget_error_frac"] = _ratio(
        abs(sum(budget.values()) - wall_s), wall_s)
    return dict(m), budget
