"""Per-client admission control: policies, rate limiting, the scheduler.

The scheduler sits between every producer (iolibs, flush jobs,
compaction, metadata ops) and the client's RPC pipeline.  Three
policies:

``fifo``
    Inline pass-through — requests issue immediately on the caller's
    process.  Zero sim events added, so traces and figures are
    bit-identical to an unscheduled client.  This is the default.

``strict``
    Strict priority: one request issues at a time per client; when the
    slot frees, the highest class (FOREGROUND > METADATA > FLUSH > DRAIN
    > COMPACTION) with a pending request wins, round-robin across OST
    queues within the class.  Foreground latency is bounded by at most
    one in-service request, at the cost of starving compaction under
    sustained foreground load.

``drr``
    Deficit-weighted round-robin over the classes (byte-charged
    quanta), starvation-free: compaction keeps a fixed share of
    admission bandwidth instead of being locked out.

Orthogonally, per-class token-bucket :class:`RateLimiter` instances cap
COMPACTION bytes/s (Luo & Carey's knob for trading compaction debt
against write stalls) and DRAIN bytes/s (pacing burst-buffer write-back
behind live checkpoint traffic).  Throttling happens *before* enqueue so
a paced request never occupies the issue slot while it waits for tokens.

Admission and throttling each have one body, the generators
:meth:`IoScheduler.submit_lw` and :meth:`RateLimiter.throttle_lw`.
``throttle`` is ``sim.blocking_form(throttle_lw)``; ``submit`` lifts a
*blocking* ``run`` callable into a generator that never yields and
drives ``submit_lw``, so both backends share every line of accounting.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Optional

from repro import sim
from repro.io.context import current_priority
from repro.io.request import IoRequest, Priority
from repro.trace import runtime as _trace
from repro.util.humanize import parse_size


#: lower-case class name of each priority, looked up per submit (an
#: ``Enum.name`` access plus ``str.lower`` per request adds up at fleet
#: scale)
_CLASS_NAMES = {p: p.name.lower() for p in Priority}

#: precomputed per-class histogram keys — the submit fast path must not
#: build strings (telemetry.* namespace, one wait + one service series
#: per priority class)
_WAIT_KEYS = {cls: f"io.sched.wait.{cls}" for cls in _CLASS_NAMES.values()}
_SERVICE_KEYS = {
    cls: f"io.sched.service.{cls}" for cls in _CLASS_NAMES.values()
}


class SchedulerStats:
    """Counters exported under ``io.sched.client{id}`` in the registry."""

    def __init__(self) -> None:
        # flat per-class counters (stable schema: every class always present)
        self.class_submitted = dict.fromkeys(_CLASS_NAMES.values(), 0)
        self.class_issued = dict.fromkeys(_CLASS_NAMES.values(), 0)
        self.class_bytes = dict.fromkeys(_CLASS_NAMES.values(), 0)
        self.class_stall_time = dict.fromkeys(_CLASS_NAMES.values(), 0.0)
        self.inline_issues = 0     #: requests issued without queueing
        self.queued_issues = 0     #: requests that parked in an admission queue
        self.max_queue_depth = 0
        self.throttle_time = 0.0   #: seconds compaction spent token-starved
        self.throttled_bytes = 0

    def snapshot(self) -> dict:
        out: dict = {
            "inline_issues": self.inline_issues,
            "queued_issues": self.queued_issues,
            "max_queue_depth": self.max_queue_depth,
            "throttle_time": self.throttle_time,
            "throttled_bytes": self.throttled_bytes,
        }
        for cls in _CLASS_NAMES.values():
            out[f"submitted_{cls}"] = self.class_submitted[cls]
            out[f"issued_{cls}"] = self.class_issued[cls]
            out[f"bytes_{cls}"] = self.class_bytes[cls]
            out[f"stall_time_{cls}"] = self.class_stall_time[cls]
        return out


class _OstQueues:
    """Per-OST FIFO queues with round-robin service across OSTs.

    Requests without a placement hint (fsync, metadata) share the ``-1``
    queue.  Deterministic: service order depends only on push order.
    """

    __slots__ = ("_queues", "_order", "_size")

    def __init__(self) -> None:
        self._queues: Dict[int, deque] = {}
        self._order: deque = deque()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, req: IoRequest) -> None:
        key = -1 if req.ost is None else req.ost
        q = self._queues.get(key)
        if q is None:
            q = self._queues[key] = deque()
        if not q:
            self._order.append(key)
        q.append(req)
        self._size += 1

    def peek(self) -> Optional[IoRequest]:
        if not self._order:
            return None
        return self._queues[self._order[0]][0]

    def pop(self) -> Optional[IoRequest]:
        if not self._order:
            return None
        key = self._order.popleft()
        q = self._queues[key]
        req = q.popleft()
        if q:
            self._order.append(key)
        self._size -= 1
        return req


class QueuePolicy:
    """Queue discipline: hold parked requests, pick the next to issue."""

    __slots__ = ()
    name = "?"
    #: inline policies bypass queueing entirely (scheduler fast path)
    inline = False

    def push(self, req: IoRequest) -> None:
        raise NotImplementedError

    def pop(self) -> Optional[IoRequest]:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError


class FifoPolicy(QueuePolicy):
    """Issue in arrival order, inline on the caller — today's behavior.

    ``inline = True`` means the scheduler never parks a request, so
    concurrent submitters interleave per-RPC at the NIC exactly as the
    unscheduled client did (the bit-identity contract for ``bench_fig5``).
    It holds no state, so every scheduler shares the one :data:`_FIFO`.
    """

    __slots__ = ()
    name = "fifo"
    inline = True

    def pop(self) -> Optional[IoRequest]:
        return None

    def __len__(self) -> int:
        return 0


class StrictPriorityPolicy(QueuePolicy):
    """Highest class wins; FIFO per OST, round-robin across OSTs."""

    name = "strict"

    def __init__(self) -> None:
        self._classes = {p: _OstQueues() for p in Priority}
        self._size = 0

    def push(self, req: IoRequest) -> None:
        self._classes[req.priority].push(req)
        self._size += 1

    def pop(self) -> Optional[IoRequest]:
        for priority in Priority:  # ascending value = descending priority
            q = self._classes[priority]
            if len(q):
                self._size -= 1
                return q.pop()
        return None

    def __len__(self) -> int:
        return self._size


#: DRR service shares — foreground admission bandwidth dominates, but
#: compaction keeps a guaranteed slice (starvation-free, unlike strict).
#: DRAIN sits between FLUSH and COMPACTION: burst-buffer write-back is
#: durability debt and must keep moving, but never at checkpoint cost.
DEFAULT_DRR_WEIGHTS = {
    Priority.FOREGROUND: 4,
    Priority.METADATA: 2,
    Priority.FLUSH: 2,
    Priority.DRAIN: 2,
    Priority.COMPACTION: 1,
}


class DeficitRoundRobinPolicy(QueuePolicy):
    """Classic DRR over the five classes, charged in request bytes.

    Each visit to a backlogged class tops up its deficit by
    ``quantum * weight``; the head request issues when its byte cost
    fits the deficit, otherwise the rotor moves on and the deficit
    carries over.  Zero-byte requests (fsync/metadata) cost 1 so they
    cannot monopolize a visit.
    """

    name = "drr"

    def __init__(self, quantum: int = 1 << 20) -> None:
        self._quantum = int(quantum)
        self._rotor = list(Priority)
        self._queues = {p: _OstQueues() for p in Priority}
        self._deficit = {p: 0 for p in Priority}
        self._cursor = 0
        self._charged = False
        self._size = 0

    def push(self, req: IoRequest) -> None:
        self._queues[req.priority].push(req)
        self._size += 1

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._rotor)
        self._charged = False

    def pop(self) -> Optional[IoRequest]:
        if self._size == 0:
            return None
        while True:
            cls = self._rotor[self._cursor]
            q = self._queues[cls]
            if not len(q):
                self._deficit[cls] = 0
                self._advance()
                continue
            if not self._charged:
                self._deficit[cls] += self._quantum * DEFAULT_DRR_WEIGHTS[cls]
                self._charged = True
            head = q.peek()
            cost = max(head.nbytes, 1)
            if cost <= self._deficit[cls]:
                req = q.pop()
                self._deficit[cls] -= cost
                self._size -= 1
                if not len(q):
                    self._deficit[cls] = 0
                    self._advance()
                return req
            self._advance()

    def __len__(self) -> int:
        return self._size


POLICIES = ("fifo", "strict", "drr")

_FIFO = FifoPolicy()


def make_policy(name: str) -> QueuePolicy:
    if name == "fifo":
        return _FIFO
    if name == "strict":
        return StrictPriorityPolicy()
    if name == "drr":
        return DeficitRoundRobinPolicy()
    raise ValueError(f"unknown I/O policy {name!r} (expected one of {POLICIES})")


class RateLimiter:
    """Token bucket on the simulated clock (bytes/s, burst in bytes)."""

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate limiter needs a positive bytes/s rate")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(rate, 4 << 20)
        self._tokens = self.burst
        self._stamp: Optional[float] = None

    def set_rate(self, rate: float) -> None:
        """Adjust bytes/s in place, settling accrued tokens first.

        The stall-aware pacer calls this to boost or relax compaction
        bandwidth smoothly; tokens earned at the old rate are credited
        before the switch so an adjustment never grants or revokes
        already-earned budget.
        """
        if rate <= 0:
            raise ValueError("rate limiter needs a positive bytes/s rate")
        if self._stamp is not None:
            now = sim.now()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
        self.rate = float(rate)

    def _charge(self, nbytes: int) -> float:
        """Accrue to now, charge ``nbytes``; seconds the caller must sleep.

        The bucket balance may go *negative* (debt): the full charge is
        recorded before any sleeping happens, so a second throttler
        arriving mid-sleep sees the deficit and queues its own charge
        behind it.  The old zero-the-bucket-then-sleep scheme let that
        second arrival accrue and spend the very tokens the sleeper was
        sleeping to earn — up to ~2x the configured byte cap under
        parallel subcompactions.
        """
        now = sim.now()
        if self._stamp is None:
            self._stamp = now
        elapsed = now - self._stamp
        if elapsed > 0:
            self._tokens = min(
                self.burst, self._tokens + elapsed * self.rate
            )
            self._stamp = now
        self._tokens -= nbytes
        if self._tokens >= 0:
            return 0.0
        return -self._tokens / self.rate

    def throttle_lw(self, nbytes: int):
        """Charge ``nbytes``; park on the sim clock if over rate.

        Returns the seconds waited (0.0 when tokens covered the charge).
        """
        waited = self._charge(nbytes)
        if waited > 0.0:
            yield waited
        return waited

    throttle = sim.blocking_form(throttle_lw)


class IoScheduler:
    """One client's admission controller: a single issue slot + queues.

    Request lifecycle::

        submit_lw(kind, nbytes, run)
          └─ classify (ambient io_priority context)
          └─ throttle   (COMPACTION token bucket, before enqueue)
          └─ admit      inline (fifo)  ──────────────┐
                        or park in per-OST queue,    │
                        wait for grant ──────────────┤
          └─ issue      run() on the caller's process ┘  (RPC pipeline)
          └─ finish     pop next per policy, grant its gate

    The issue slot serializes *admission*, not the wire: ``run()`` is
    the client's RPC-issue generator, whose write-behind RPCs still
    overlap downstream.  Under ``fifo`` the slot is never taken and
    ``run()`` executes unconditionally inline.  :meth:`submit_lw` is the
    one body; :meth:`submit` adapts a blocking ``run`` callable to it.
    """

    def __init__(
        self,
        engine: sim.Engine,
        policy: str = "fifo",
        name: str = "sched",
    ) -> None:
        self._engine = engine
        self.name = name
        self.stats = SchedulerStats()
        self._active: Optional[IoRequest] = None
        #: per-class token buckets; only rate-limitable background
        #: classes (DRAIN, COMPACTION) ever get an entry
        self._limiters: Dict[Priority, RateLimiter] = {}
        self._policy: QueuePolicy = make_policy(policy)

    @property
    def queue_depth(self) -> int:
        return len(self._policy)

    def set_policy(self, policy: str) -> None:
        """Swap the admission policy (only while the queues are idle)."""
        if self._active is not None or len(self._policy):
            raise RuntimeError(
                "cannot change I/O policy with requests in flight"
            )
        self._policy = make_policy(policy)

    def set_class_bandwidth(
        self, priority: Priority, rate: Optional[float | str]
    ) -> None:
        """Cap one class's bytes/s with a token bucket (None/0 = off).

        Only the background classes are rate-limitable; throttling the
        foreground checkpoint path (or blocking metadata ops behind a
        bucket) would invert the scheduler's whole purpose.
        """
        if priority not in (Priority.DRAIN, Priority.COMPACTION):
            raise ValueError(
                f"only DRAIN and COMPACTION are rate-limitable, "
                f"not {priority.name}"
            )
        if isinstance(rate, str):
            rate = float(parse_size(rate))
        if rate:
            self._limiters[priority] = RateLimiter(rate)
        else:
            self._limiters.pop(priority, None)

    def class_limiter(self, priority: Priority) -> Optional[RateLimiter]:
        """The installed token bucket for ``priority`` (None = unthrottled)."""
        return self._limiters.get(priority)

    # ------------------------------------------------------------------

    def submit_lw(
        self,
        kind: str,
        nbytes: int,
        run: Callable[[], object],
        ost: Optional[int] = None,
        priority: Optional[Priority] = None,
    ):
        """Admit one request and drive ``run()`` once it is granted.

        ``run()`` must return a generator speaking the light-process
        protocol; it is driven on the caller's sim process and its
        return value is the result.
        """
        if priority is None:
            priority = current_priority()
        cls = _CLASS_NAMES[priority]
        stats = self.stats
        stats.class_submitted[cls] += 1
        stats.class_bytes[cls] += nbytes
        limiter = self._limiters.get(priority)
        if limiter is not None and nbytes > 0:
            waited = yield from limiter.throttle_lw(nbytes)
            if waited > 0.0:
                stats.throttle_time += waited
                stats.throttled_bytes += nbytes
        if self._policy.inline:
            # FIFO fast path: no request object, no events (the fig5
            # bit-identity contract).
            stats.inline_issues += 1
            stats.class_issued[cls] += 1
            _trace.observe(_WAIT_KEYS[cls], 0.0)
            with _trace.timer(_SERVICE_KEYS[cls]):
                return (yield from run())
        request = IoRequest(
            kind=kind,
            priority=priority,
            nbytes=nbytes,
            ost=ost,
            submit_time=sim.now(),
        )
        if self._active is None and not len(self._policy):
            self._active = request
            stats.inline_issues += 1
            _trace.observe(_WAIT_KEYS[cls], 0.0)
        else:
            request._gate = sim.Event(
                self._engine, name=f"{self.name}.grant{request.seq}"
            )
            self._policy.push(request)
            depth = len(self._policy)
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.gauge("io", f"{self.name}.depth", depth)
            with _trace.probe(
                "io", "sched.wait", _WAIT_KEYS[cls], sched=self.name,
                kind=kind, cls=cls, nbytes=nbytes,
            ):
                yield request._gate
            stats.queued_issues += 1
            stats.class_stall_time[cls] += sim.now() - request.submit_time
        stats.class_issued[cls] += 1
        try:
            with _trace.timer(_SERVICE_KEYS[cls]):
                return (yield from run())
        finally:
            self._finish()

    def submit(
        self,
        kind: str,
        nbytes: int,
        run: Callable[[], object],
        ost: Optional[int] = None,
        priority: Optional[Priority] = None,
    ):
        """Blocking form of :meth:`submit_lw` for a *blocking* ``run``.

        ``run()`` executes on the caller's thread-backed process (it may
        call blocking library code); lifting it into a generator that
        never yields lets :meth:`submit_lw` stay the only admission body.
        """

        def issue():
            return run()
            yield  # unreachable: makes issue() a generator

        return sim.run_blocking(
            self.submit_lw(kind, nbytes, issue, ost, priority)
        )

    def _finish(self) -> None:
        self._active = self._policy.pop()
        if self._active is not None:
            tracer = _trace.TRACER
            if tracer is not None:
                tracer.gauge("io", f"{self.name}.depth", len(self._policy))
            self._active._gate.succeed()
