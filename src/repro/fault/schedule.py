"""Declarative fault schedules and the injector that applies them.

A :class:`FaultSchedule` is a list of :class:`FaultSpec` entries — *what*
fails, *where* (site + target), and *when* (at a simulated time, after a
request count, every m-th event, or with a seeded probability).  A
:class:`FaultInjector` binds a schedule to one
:class:`~repro.pfs.lustre.LustreCluster` and is consulted from the
storage layers' fault hooks.

Determinism contract: every random decision draws from
``numpy.random.default_rng(schedule.seed)`` and every time comparison
uses the discrete-event clock, so identical (schedule, workload) pairs
produce bit-identical traces.  The injector records each injected fault
in :attr:`FaultInjector.trace` — ``(sim_time, kind, target)`` tuples —
which the determinism tests compare across runs.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import InvalidArgumentError, ReproError

#: Kinds applied at a simulated time or once the target OST has served
#: N requests: the server down/up transitions and disk degradation.
_TRANSITIONS = (
    "ost_down", "ost_up", "oss_down", "oss_up", "mds_down", "mds_up",
    "disk_degrade",
)

#: Every :attr:`FaultSpec.kind`.
FAULT_KINDS = _TRANSITIONS + (
    "rpc_drop", "rpc_delay",  # fire per matching client->OSS RPC
    "rank_crash",             # at the rank's N-th write barrier
    "sync_fail",              # consumed by FaultyEnv
    "bb_device_fail", "bb_device_recover", "bb_dirty_crash",  # repro.bb
)

#: The server failure domains, by kind prefix: the cluster's servers of
#: that kind and the :class:`FaultStats` fields a down / up transition
#: counts (``oss_up`` counts nothing).
_SERVER_DOMAINS = {
    "ost": (lambda cluster: cluster.osts, "osts_failed", "osts_recovered"),
    "oss": (lambda cluster: cluster.osses, "osses_failed", None),
    "mds": (lambda cluster: cluster.mds.shards, "mds_failed", "mds_recovered"),
}


class SimulatedCrash(ReproError):
    """A rank was killed by the fault schedule (process death).

    Raised inside the victim rank's simulated process; the surrounding
    test or driver treats it as the process dying — in-memory state is
    lost and only barriered/synced storage state survives.
    """

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: kind + target + trigger + parameters.

    Triggers are mutually combinable only where meaningful; use the
    :class:`FaultSchedule` builder methods rather than constructing specs
    by hand.
    """

    kind: str                              # one of FAULT_KINDS
    target: Optional[int] = None           # server index / rank; None = any
    at_time: Optional[float] = None        # fire at this simulated time
    after_requests: Optional[int] = None   # fire once target served N reqs
    every: Optional[int] = None            # fire on every m-th matching event
    probability: Optional[float] = None    # Bernoulli per matching event
    duration: Optional[float] = None       # auto-heal after this long
    delay: Optional[float] = None          # extra latency for rpc_delay
    factor: Optional[float] = None         # slowdown for disk_degrade
    at_count: Optional[int] = None         # sync_fail / bb_dirty_crash:
    #                                      # fire on the N-th sync/seal/drain
    at_barrier: Optional[int] = None       # rank_crash: crash at N-th barrier
    phase: Optional[str] = None            # bb_dirty_crash: where the node
    #                                      # dies (mid_drain | pre_commit
    #                                      # | torn_journal)


class FaultSchedule:
    """A seeded, ordered collection of faults to inject.

    Builder methods return ``self`` so schedules chain::

        schedule = (
            FaultSchedule(seed=7)
            .fail_ost(2, at_time=0.5, duration=1.0)
            .delay_rpc(5e-3, probability=0.01)
            .fail_sync(every=3)
        )
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.specs: list[FaultSpec] = []

    # -- OST failure domains ---------------------------------------------

    def fail_ost(
        self,
        ost: int,
        at_time: Optional[float] = None,
        after_requests: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> "FaultSchedule":
        """Take OST ``ost`` down at a time or after it served N requests.

        With ``duration`` the OST heals itself that many simulated
        seconds after failing (a reboot); otherwise it stays down until
        an explicit :meth:`recover_ost` entry or imperative recovery.
        """
        if at_time is None and after_requests is None:
            raise InvalidArgumentError(
                "fail_ost needs at_time or after_requests"
            )
        return self._transition(
            "ost_down", ost, at_time, after_requests=after_requests,
            duration=duration,
        )

    def recover_ost(self, ost: int, at_time: float) -> "FaultSchedule":
        """Bring OST ``ost`` back up at ``at_time``."""
        return self._transition("ost_up", ost, at_time)

    def degrade_disk(
        self,
        ost: int,
        factor: float,
        at_time: float,
        duration: Optional[float] = None,
    ) -> "FaultSchedule":
        """Slow OST ``ost``'s backing array by ``factor`` (e.g. a RAID
        rebuild): every service-time component is multiplied."""
        if factor <= 0:
            raise InvalidArgumentError("degrade factor must be positive")
        return self._transition(
            "disk_degrade", ost, at_time, duration=duration, factor=float(factor)
        )

    def fail_oss(
        self, oss: int, at_time: float, duration: Optional[float] = None
    ) -> "FaultSchedule":
        """Take OSS ``oss`` down at ``at_time``: every RPC to the OSTs it
        fronts times out until it recovers (after ``duration`` if given)."""
        return self._transition("oss_down", oss, at_time, duration=duration)

    def recover_oss(self, oss: int, at_time: float) -> "FaultSchedule":
        """Bring OSS ``oss`` back up at ``at_time``."""
        return self._transition("oss_up", oss, at_time)

    # -- MDS shard failure domains ---------------------------------------

    def fail_mds(
        self, shard: int, at_time: float, duration: Optional[float] = None
    ) -> "FaultSchedule":
        """Take MDS shard ``shard`` down at ``at_time``: every metadata
        RPC routed to it times out until recovery (after ``duration`` if
        given) — the namespace itself survives on the MDT."""
        return self._transition("mds_down", shard, at_time, duration=duration)

    def recover_mds(self, shard: int, at_time: float) -> "FaultSchedule":
        """Bring MDS shard ``shard`` back up at ``at_time``."""
        return self._transition("mds_up", shard, at_time)

    def _transition(
        self, kind: str, target: int, at_time: Optional[float], **fields
    ) -> "FaultSchedule":
        self.specs.append(
            FaultSpec(kind, target=int(target), at_time=at_time, **fields)
        )
        return self

    # -- client↔OSS RPC faults -------------------------------------------

    def drop_rpc(
        self,
        probability: Optional[float] = None,
        every: Optional[int] = None,
        ost: Optional[int] = None,
    ) -> "FaultSchedule":
        """Drop matching RPCs: the client burns its timeout, then retries."""
        self._check_event_trigger(probability, every)
        self.specs.append(
            FaultSpec(
                "rpc_drop", target=ost, probability=probability, every=every
            )
        )
        return self

    def delay_rpc(
        self,
        delay: float,
        probability: Optional[float] = None,
        every: Optional[int] = None,
        ost: Optional[int] = None,
    ) -> "FaultSchedule":
        """Add ``delay`` seconds of latency to matching RPCs."""
        if delay < 0:
            raise InvalidArgumentError("delay must be non-negative")
        self._check_event_trigger(probability, every)
        self.specs.append(
            FaultSpec(
                "rpc_delay",
                target=ost,
                probability=probability,
                every=every,
                delay=float(delay),
            )
        )
        return self

    # -- durability faults (consumed by FaultyEnv) -----------------------

    def fail_sync(
        self, at: Optional[int] = None, every: Optional[int] = None
    ) -> "FaultSchedule":
        """Fail the ``at``-th fsync (1-based), or every ``every``-th."""
        if at is None and every is None:
            raise InvalidArgumentError("fail_sync needs at or every")
        if every is not None and every < 1:
            raise InvalidArgumentError("every must be >= 1")
        self.specs.append(FaultSpec("sync_fail", at_count=at, every=every))
        return self

    # -- burst-buffer faults (consumed by repro.bb.BurstBufferTier) -------

    _BB_CRASH_PHASES = ("mid_drain", "pre_commit", "torn_journal")

    def fail_bb_device(
        self, at_time: float, duration: Optional[float] = None
    ) -> "FaultSchedule":
        """Fail the node's burst-buffer device at ``at_time``: absorbs
        raise and the tier degrades to write-through.  With ``duration``
        the device heals itself that many simulated seconds later."""
        self.specs.append(
            FaultSpec("bb_device_fail", at_time=at_time, duration=duration)
        )
        return self

    def recover_bb_device(self, at_time: float) -> "FaultSchedule":
        """Bring the burst-buffer device back up at ``at_time``."""
        self.specs.append(FaultSpec("bb_device_recover", at_time=at_time))
        return self

    def crash_bb_dirty(
        self, at: int = 1, phase: str = "mid_drain"
    ) -> "FaultSchedule":
        """Kill the node with a dirty burst buffer (1-based trigger).

        ``phase`` picks the crash point the recovery path must survive:

        - ``mid_drain`` — during the ``at``-th drain, after part of the
          segment reached the PFS but before its fsync (the PFS copy is
          torn; the device copy is sealed and survives);
        - ``pre_commit`` — after the ``at``-th drain's PFS fsync but
          before the journal COMMIT record (re-drain must be
          idempotent);
        - ``torn_journal`` — during the ``at``-th *seal*, between the
          journal append and its fsync (the SEAL record may tear;
          recovery discards the segment and falls back).
        """
        if at < 1:
            raise InvalidArgumentError("at is 1-based")
        if phase not in self._BB_CRASH_PHASES:
            raise InvalidArgumentError(
                f"unknown bb crash phase {phase!r} "
                f"(expected one of {self._BB_CRASH_PHASES})"
            )
        self.specs.append(
            FaultSpec("bb_dirty_crash", at_count=at, phase=phase)
        )
        return self

    # -- rank crashes -----------------------------------------------------

    def crash_rank(self, rank: int, at_barrier: int = 1) -> "FaultSchedule":
        """Kill rank ``rank`` during its ``at_barrier``-th write barrier
        (1-based) — mid-checkpoint, after data but before the commit."""
        if at_barrier < 1:
            raise InvalidArgumentError("at_barrier is 1-based")
        self.specs.append(
            FaultSpec("rank_crash", target=int(rank), at_barrier=at_barrier)
        )
        return self

    @staticmethod
    def _check_event_trigger(probability, every) -> None:
        if probability is None and every is None:
            raise InvalidArgumentError("need probability or every")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise InvalidArgumentError("probability must be in [0, 1]")
        if every is not None and every < 1:
            raise InvalidArgumentError("every must be >= 1")

    def __len__(self) -> int:
        return len(self.specs)


@dataclass
class FaultStats:
    """What the injector actually did during a run."""

    osts_failed: int = 0
    osts_recovered: int = 0
    osses_failed: int = 0
    mds_failed: int = 0
    mds_recovered: int = 0
    disks_degraded: int = 0
    rpcs_dropped: int = 0
    rpcs_delayed: int = 0
    delay_injected: float = 0.0
    syncs_failed: int = 0
    ranks_crashed: int = 0

    def snapshot(self) -> dict:
        return dict(self.__dict__)


class FaultInjector:
    """Applies a :class:`FaultSchedule` to one simulated cluster.

    Install with :meth:`install`; the storage layers consult the injector
    through their fault hooks (all of which are no-ops — a single
    ``is None`` test — when no injector is installed).  Timed faults are
    applied *lazily*: each hook first advances the injector to the
    current simulated time, applying any transitions that came due.  This
    keeps the healthy path free of daemon processes and keeps event order
    a pure function of the workload.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self.rng = np.random.default_rng(schedule.seed)
        self.stats = FaultStats()
        #: (sim_time, kind, target) for every injected fault, in order.
        self.trace: list[tuple[float, str, Optional[int]]] = []
        self.cluster = None
        self._seq = itertools.count()
        self._timed: list[tuple[float, int, FaultSpec]] = []
        self._count_failures: dict[int, list[FaultSpec]] = defaultdict(list)
        self._rpc_specs: list[FaultSpec] = []
        self._rpc_counts: dict[int, int] = defaultdict(int)
        self._ost_requests: dict[int, int] = defaultdict(int)
        self._crash_specs: dict[int, list[FaultSpec]] = defaultdict(list)
        self._barrier_counts: dict[int, int] = defaultdict(int)
        for spec in schedule.specs:
            if spec.kind not in FAULT_KINDS:
                raise InvalidArgumentError(f"unknown fault kind {spec.kind!r}")
            if spec.kind in ("rpc_drop", "rpc_delay"):
                self._rpc_specs.append(spec)
            elif spec.kind == "rank_crash":
                self._crash_specs[spec.target].append(spec)
            elif spec.kind in _TRANSITIONS:
                if spec.at_time is not None:
                    self._push_timed(spec.at_time, spec)
                else:
                    self._count_failures[spec.target].append(spec)

    # -- installation ------------------------------------------------------

    def install(self, cluster) -> "FaultInjector":
        """Attach to a cluster; its layers start consulting the hooks."""
        if self.cluster is not None and self.cluster is not cluster:
            raise InvalidArgumentError("injector already installed elsewhere")
        self.cluster = cluster
        cluster.fault_injector = self
        return self

    def _push_timed(self, at_time: float, spec: FaultSpec) -> None:
        heapq.heappush(self._timed, (at_time, next(self._seq), spec))

    # -- lazy time advance -------------------------------------------------

    def advance(self, now: float) -> None:
        """Apply every timed transition due at or before ``now``."""
        while self._timed and self._timed[0][0] <= now:
            at_time, _, spec = heapq.heappop(self._timed)
            self._apply(at_time, spec)

    def _apply(self, at_time: float, spec: FaultSpec) -> None:
        if spec.kind == "disk_degrade":
            self.cluster.osts[spec.target].degrade_disk(spec.factor)
            self.stats.disks_degraded += 1
            self._record(at_time, "disk_degrade", spec.target)
            if spec.duration is not None:
                self._push_timed(
                    at_time + spec.duration,
                    FaultSpec("disk_degrade", target=spec.target, factor=None),
                )
            return
        domain, _, transition = spec.kind.partition("_")
        servers, failed, recovered = _SERVER_DOMAINS[domain]
        server = servers(self.cluster)[spec.target]
        going_down = transition == "down"
        if server.up != going_down:
            return  # already in the target state
        if going_down:
            server.fail()
            counter = failed
            if spec.duration is not None:
                self._push_timed(
                    at_time + spec.duration,
                    FaultSpec(f"{domain}_up", target=spec.target),
                )
        else:
            server.recover()
            counter = recovered
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        self._record(at_time, spec.kind, spec.target)

    def _record(self, at_time: float, kind: str, target: Optional[int]) -> None:
        self.trace.append((at_time, kind, target))

    # -- hooks (called from repro.pfs) -------------------------------------

    def before_rpc(
        self, now: float, ost_index: int, client_id: int, is_write: bool
    ) -> tuple[bool, float]:
        """Consult the schedule for one client→OSS RPC.

        Returns ``(drop, extra_delay)``: ``drop`` means the RPC vanishes
        (the client should burn its timeout and raise
        :class:`~repro.errors.RpcTimeoutError`); ``extra_delay`` is
        injected latency to sleep before the transfer.
        """
        self.advance(now)
        # Request-count OST failures trip before the RPC is served.
        self._ost_requests[ost_index] += 1
        pending = self._count_failures.get(ost_index)
        if pending:
            due = [
                spec
                for spec in pending
                if self._ost_requests[ost_index] >= spec.after_requests
            ]
            for spec in due:
                pending.remove(spec)
                self._apply(now, spec)
        drop = False
        extra = 0.0
        for index, spec in enumerate(self._rpc_specs):
            if spec.target is not None and spec.target != ost_index:
                continue
            self._rpc_counts[index] += 1
            fire = False
            if spec.every is not None:
                fire = self._rpc_counts[index] % spec.every == 0
            if not fire and spec.probability is not None:
                fire = bool(self.rng.random() < spec.probability)
            if not fire:
                continue
            if spec.kind == "rpc_drop":
                drop = True
                self.stats.rpcs_dropped += 1
                self._record(now, "rpc_drop", ost_index)
            else:
                extra += spec.delay
                self.stats.rpcs_delayed += 1
                self.stats.delay_injected += spec.delay
                self._record(now, "rpc_delay", ost_index)
        return drop, extra

    def maybe_crash_rank(self, now: float, rank: int) -> None:
        """Hook for write barriers: kill the rank if the schedule says so."""
        specs = self._crash_specs.get(rank)
        if not specs:
            return
        self._barrier_counts[rank] += 1
        for spec in specs:
            if self._barrier_counts[rank] == spec.at_barrier:
                self.stats.ranks_crashed += 1
                self._record(now, "rank_crash", rank)
                raise SimulatedCrash(
                    f"rank {rank} killed at barrier #{spec.at_barrier} "
                    "by fault schedule",
                    rank=rank,
                )

    # -- imperative API (tests that steer failures mid-run) ----------------

    def _apply_now(
        self, kind: str, target: int, duration: Optional[float] = None
    ) -> None:
        self._apply(
            self.cluster.engine.now,
            FaultSpec(kind, target=int(target), duration=duration),
        )

    def fail_ost_now(self, ost: int, duration: Optional[float] = None) -> None:
        """Take an OST down immediately (at the current simulated time)."""
        self._apply_now("ost_down", ost, duration)

    def recover_ost_now(self, ost: int) -> None:
        """Bring an OST back immediately."""
        self._apply_now("ost_up", ost)

    def fail_mds_now(
        self, shard: int, duration: Optional[float] = None
    ) -> None:
        """Take an MDS shard down immediately."""
        self._apply_now("mds_down", shard, duration)

    def recover_mds_now(self, shard: int) -> None:
        """Bring an MDS shard back immediately."""
        self._apply_now("mds_up", shard)

    def _down(self, domain: str) -> tuple[int, ...]:
        if self.cluster is None:
            return ()
        servers = _SERVER_DOMAINS[domain][0](self.cluster)
        return tuple(server.index for server in servers if not server.up)

    @property
    def down_mds(self) -> tuple[int, ...]:
        """Indices of MDS shards currently down (sorted)."""
        return self._down("mds")

    @property
    def down_osts(self) -> tuple[int, ...]:
        """Indices of OSTs currently down (sorted)."""
        return self._down("ost")
