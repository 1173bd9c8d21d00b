"""The event loop, events, and simulated processes (thread and light).

Two process backends share one heap:

- :class:`Process` backs a simulated process with an OS thread so that
  *arbitrary library code* (RocksDB adapters, retry loops, anything that
  calls ``sim.sleep`` from deep inside a call stack) runs in simulated
  time.  Handoff protocol: every process owns a ``threading.Event``
  turnstile; the engine owns one too.  The engine pops the next
  (time, seq, action) off the heap, performs the action — usually
  "resume process P" — and parks on its own turnstile until that process
  blocks again or finishes.  At most one thread is ever runnable, so
  shared state needs no locking, but every resume costs two
  ``threading.Event`` round-trips.
- :class:`LightProcess` backs a process with a *generator* the engine
  drives inline: ``yield seconds`` sleeps, ``yield event`` waits, and the
  yield expression evaluates to the event's value (or raises its
  failure).  No thread, no handoff — resuming is a ``gen.send()``.  The
  high-fan-out internal loops (write-behind RPCs, OST/OSS service, MPI
  shuttles) use this backend; fleet-size workloads spawn tens of
  thousands of them.

An operation that can park a process is written once, as a generator
``X_lw``; its blocking name is ``X = blocking_form(X_lw)``, which drives
that generator through :func:`run_blocking` with :func:`sleep` and
:func:`wait`.  :func:`run_blocking` performs, yield for yield, the heap
operations :meth:`LightProcess._resume_action` performs, so a scenario
replays the same (time, seq) schedule under either backend and runs stay
bit-reproducible.  That identity is a property of these two functions
alone; no operation has a second body that must uphold it.
"""

from __future__ import annotations

import copy
import functools
import heapq
import itertools
import threading
from time import perf_counter_ns as _wall_ns
from typing import Any, Callable, Optional

from repro.errors import DeadlockError, SimulationError
from repro.telemetry.profiler import site_name as _site_name
from repro.trace import runtime as _trace


class ProcessKilled(BaseException):
    """Raised inside a process thread to unwind it during engine shutdown.

    Derives from :class:`BaseException` so ``except Exception`` blocks in
    library code under test cannot swallow it.
    """


class Event:
    """A one-shot occurrence processes can wait on.

    ``succeed(value)`` wakes all waiters (in registration order) at the
    current simulated time; ``fail(exc)`` wakes them with an exception.
    """

    __slots__ = ("engine", "triggered", "value", "exception", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.triggered = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        self._waiters: list = []  # Process | LightProcess
        self.name = name

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        for proc in self._waiters:
            self.engine._schedule(0.0, proc._resume_action)
        self._waiters.clear()
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.exception = exception
        for proc in self._waiters:
            self.engine._schedule(0.0, proc._resume_action)
        self._waiters.clear()
        return self

    def _add_waiter(self, proc) -> None:
        self._waiters.append(proc)


def _failure_for_waiter(exc: BaseException) -> BaseException:
    """A fresh replica of ``exc`` for one waiter to raise.

    Events fan a single failure out to many waiters; re-raising the
    shared object would keep appending each waiter's frames onto one
    traceback, cross-contaminating error reports.  Each waiter gets a
    shallow copy chained to the original via ``__cause__``.  Exceptions
    that will not copy cleanly (or whose copy changes type) are passed
    through unmodified rather than mangled.
    """
    try:
        replica = copy.copy(exc)
    except BaseException:  # noqa: BLE001 — arbitrary user exception types
        return exc
    if type(replica) is not type(exc):
        return exc
    replica.__traceback__ = None
    replica.__cause__ = exc
    replica.__suppress_context__ = True
    return replica


class Process:
    """A simulated process backed by a daemon thread."""

    def __init__(self, engine: "Engine", fn: Callable, args, kwargs, name: str,
                 daemon: bool):
        self.engine = engine
        self.name = name
        self.daemon = daemon
        self.done = Event(engine, name=f"{name}.done")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._resume = threading.Event()
        self._finished = False
        self._killed = False
        self._blocked = False
        self._thread = threading.Thread(
            target=self._bootstrap,
            args=(fn, args, kwargs),
            name=f"sim:{name}",
            daemon=True,
        )
        self._thread.start()

    # -- engine side -----------------------------------------------------

    def _resume_action(self) -> None:
        """Heap action: hand control to this process until it yields."""
        if self._finished:
            return
        self.engine._running_process = self
        self._blocked = False
        self._resume.set()
        self.engine._engine_turnstile.wait()
        self.engine._engine_turnstile.clear()
        self.engine._running_process = None
        if self.error is not None and not self.daemon:
            # Surface crashes immediately instead of deadlocking later.
            raise self.error

    # -- process side ----------------------------------------------------

    def _bootstrap(self, fn: Callable, args, kwargs) -> None:
        self._park()  # wait for the engine's first resume
        try:
            self.result = fn(*args, **kwargs)
        except ProcessKilled:
            pass
        except BaseException as exc:  # noqa: BLE001 — recorded, re-raised by engine
            self.error = exc
        finally:
            self._finished = True
            if not self._killed:
                if not self.done.triggered:
                    if self.error is not None:
                        self.done.fail(self.error)
                    else:
                        self.done.succeed(self.result)
            self.engine._engine_turnstile.set()

    def _park(self) -> None:
        """Block this process thread until the engine resumes it."""
        self._resume.wait()
        self._resume.clear()
        if self._killed:
            raise ProcessKilled()

    def _block_and_switch(self) -> None:
        """Yield control to the engine and park (process side)."""
        self._blocked = True
        self.engine._engine_turnstile.set()
        self._park()

    def _kill(self) -> None:
        """Unwind the backing thread during engine shutdown."""
        self._killed = True
        self._resume.set()
        self._thread.join(timeout=5)

    @property
    def alive(self) -> bool:
        return not self._finished


class LightProcess:
    """A simulated process backed by a generator, dispatched inline.

    The generator speaks a two-word protocol: ``yield seconds`` sleeps,
    ``yield event`` waits (the yield expression evaluates to the event's
    value, or raises its failure inside the generator).  Resuming is a
    plain ``gen.send()`` on the engine's stack — no thread handoff — so
    fleet-size fan-out (one process per RPC, per rank, per shuttle) costs
    two orders of magnitude less than the thread backend.

    Restriction: the generator must not call :func:`sleep`/:func:`wait`
    (those park an OS thread the light process does not have); it yields
    instead.  Code that needs arbitrary blocking library calls belongs on
    the thread backend.
    """

    __slots__ = (
        "engine", "name", "daemon", "done", "result", "error",
        "_gen", "_finished", "_wait_event", "_span",
    )

    def __init__(self, engine: "Engine", gen, name: str, daemon: bool):
        self.engine = engine
        self.name = name
        self.daemon = daemon
        self.done = Event(engine, name=f"{name}.done")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._gen = gen
        self._finished = False
        self._wait_event: Optional[Event] = None
        self._span = None

    def _resume_action(self) -> None:
        """Heap action: drive the generator until it parks again.

        Each yield maps onto exactly the heap operations the thread
        backend would perform (see :func:`run_blocking`): a delay is one
        ``_schedule``, an untriggered event registers a waiter, a
        triggered event resumes inline with no heap traffic.
        """
        if self._finished:
            return
        engine = self.engine
        token_engine = getattr(_TLS, "engine", None)
        token_proc = getattr(_TLS, "process", None)
        prev_running = engine._running_process
        _TLS.engine = engine
        _TLS.process = self
        engine._running_process = self
        send_value: Any = None
        throw_exc: Optional[BaseException] = None
        event = self._wait_event
        if event is not None:
            self._wait_event = None
            if event.exception is not None:
                throw_exc = _failure_for_waiter(event.exception)
            else:
                send_value = event.value
        gen = self._gen
        try:
            while True:
                try:
                    if throw_exc is not None:
                        command = gen.throw(throw_exc)
                    else:
                        command = gen.send(send_value)
                except StopIteration as stop:
                    self._finish(stop.value, None)
                    return
                except BaseException as exc:  # noqa: BLE001 — recorded, re-raised
                    self._finish(None, exc)
                    if not self.daemon:
                        # Surface crashes immediately, like the thread
                        # backend's _resume_action does.
                        raise
                    return
                send_value = None
                throw_exc = None
                if isinstance(command, Event):
                    if command.engine is not engine:
                        throw_exc = SimulationError(
                            "event belongs to a different engine"
                        )
                    elif command.triggered:
                        if command.exception is not None:
                            throw_exc = _failure_for_waiter(command.exception)
                        else:
                            send_value = command.value
                    else:
                        command._add_waiter(self)
                        self._wait_event = command
                        return
                elif isinstance(command, (int, float)):
                    if command < 0:
                        throw_exc = SimulationError(
                            f"negative sleep: {command}"
                        )
                    else:
                        # _schedule(), inlined: delays are the hottest
                        # yield in fleet-size runs and the sign check
                        # already happened above.
                        engine._heap_pushes += 1
                        heapq.heappush(
                            engine._heap,
                            (
                                engine._now + command,
                                next(engine._seq),
                                self._resume_action,
                            ),
                        )
                        return
                else:
                    throw_exc = SimulationError(
                        f"light process {self.name!r} yielded {command!r}; "
                        "yield a delay in seconds or a sim.Event"
                    )
        finally:
            engine._running_process = prev_running
            _TLS.engine = token_engine
            _TLS.process = token_proc

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self._finished = True
        self.result = result
        self.error = error
        if not self.done.triggered:
            if error is not None:
                self.done.fail(error)
            else:
                self.done.succeed(result)
        if self._span is not None:
            self._span.finish()
            self._span = None

    def _kill(self) -> None:
        """Close the generator during engine shutdown."""
        self._finished = True
        self._gen.close()

    @property
    def alive(self) -> bool:
        return not self._finished


def run_blocking(gen) -> Any:
    """Drive a light-process generator with the thread-backed primitives.

    This is the bridge that lets process logic be written *once* as a
    generator and run on either backend: ``spawn(run_blocking, gen)``
    executes it on an OS thread (``yield delay`` → :func:`sleep`,
    ``yield event`` → :func:`wait`), while ``spawn_light`` dispatches the
    same generator inline.  Both paths perform identical heap operations,
    so schedules are bit-identical across backends.  Callable from any
    thread-backed process, including mid-stack in library code.
    """
    send_value: Any = None
    throw_exc: Optional[BaseException] = None
    while True:
        try:
            if throw_exc is not None:
                command = gen.throw(throw_exc)
            else:
                command = gen.send(send_value)
        except StopIteration as stop:
            return stop.value
        send_value = None
        throw_exc = None
        try:
            if isinstance(command, Event):
                send_value = wait(command)
            elif isinstance(command, (int, float)):
                if command < 0:
                    raise SimulationError(f"negative sleep: {command}")
                sleep(command)
            else:
                raise SimulationError(
                    f"light process yielded {command!r}; "
                    "yield a delay in seconds or a sim.Event"
                )
        except BaseException as exc:  # noqa: BLE001 — forwarded into the generator
            throw_exc = exc


def blocking_form(genfn: Callable) -> Callable:
    """The blocking entry point ``X`` of the generator function ``X_lw``.

    ``X = blocking_form(X_lw)`` is the only way a parking operation gets
    a blocking name: the result is a plain function (so it binds as a
    method when assigned in a class body) that drives ``genfn`` with
    :func:`run_blocking`.  It holds ``genfn`` itself rather than looking
    ``X_lw`` up by attribute, so replacing the ``X_lw`` attribute (a
    test double, an outside tracer) never reroutes ``X`` through it.
    ``X`` carries ``genfn``'s module, docstring and signature
    (``X.__wrapped__`` is ``genfn``) under the name without ``_lw``.
    """

    @functools.wraps(genfn)
    def blocking(*args: Any, **kwargs: Any) -> Any:
        return run_blocking(genfn(*args, **kwargs))

    blocking.__name__ = genfn.__name__.removesuffix("_lw")
    blocking.__qualname__ = genfn.__qualname__.removesuffix("_lw")
    return blocking


class Engine:
    """The discrete-event scheduler."""

    def __init__(self, light_processes: bool = True) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._heap_pushes = 0
        self._seq = itertools.count()
        self._engine_turnstile = threading.Event()
        self._running_process = None  # Process | LightProcess
        self._processes: list = []  # Process | LightProcess
        self._local = _TLS
        self._closed = False
        # When False, spawn_light() falls back to a thread-backed process
        # driving the same generator via run_blocking — the measurement
        # baseline for the light backend's speedup, and an escape hatch
        # should an accounting divergence ever need bisecting.
        self._light_enabled = bool(light_processes)

    # -- time ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self._now

    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._heap_pushes += 1
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), action))

    # -- processes ---------------------------------------------------------

    def spawn(
        self,
        fn: Callable,
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> Process:
        """Create a process; it starts when the engine next runs."""
        if self._closed:
            raise SimulationError("engine is closed")
        proc = Process(
            self,
            self._wrap(fn),
            args,
            kwargs,
            name=name or getattr(fn, "__name__", "proc"),
            daemon=daemon,
        )
        self._processes.append(proc)
        self._schedule(0.0, proc._resume_action)
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant(
                "sim", "spawn", ts=self._now, track="engine",
                proc=proc.name, daemon=daemon,
            )
        return proc

    def spawn_light(
        self,
        genfn: Callable,
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> "Process | LightProcess":
        """Spawn a generator-backed process dispatched inline (no thread).

        ``genfn(*args, **kwargs)`` must return a generator speaking the
        light-process protocol (``yield seconds`` / ``yield event``).
        With ``Engine(light_processes=False)`` the same generator runs on
        a thread via :func:`run_blocking` instead; either way the heap
        operations — and therefore the schedule — are identical.
        """
        if self._closed:
            raise SimulationError("engine is closed")
        pname = name or getattr(genfn, "__name__", "proc")
        gen = genfn(*args, **kwargs)
        if not self._light_enabled:
            return self.spawn(run_blocking, gen, name=pname, daemon=daemon)
        proc = LightProcess(self, gen, name=pname, daemon=daemon)
        self._processes.append(proc)
        self._schedule(0.0, proc._resume_action)
        tracer = _trace.TRACER
        if tracer is not None:
            tracer.instant(
                "sim", "spawn", ts=self._now, track="engine",
                proc=pname, daemon=daemon,
            )
            proc._span = _trace.probe("sim", f"proc:{pname}")
        return proc

    def _wrap(self, fn: Callable) -> Callable:
        engine = self

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            token_engine = getattr(_TLS, "engine", None)
            token_proc = getattr(_TLS, "process", None)
            _TLS.engine = engine
            _TLS.process = engine._running_process
            proc = _TLS.process
            try:
                with _trace.probe(
                    "sim", f"proc:{proc.name if proc is not None else 'proc'}"
                ):
                    return fn(*args, **kwargs)
            finally:
                _TLS.engine = token_engine
                _TLS.process = token_proc

        return wrapped

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Drive events until the heap is empty (or ``until`` is reached).

        Returns the final simulated time.  Raises :class:`DeadlockError`
        if non-daemon processes remain blocked with no events pending.
        """
        if self._closed:
            raise SimulationError("engine is closed")
        profiler = _trace.PROFILER
        sampler = _trace.SAMPLER
        if profiler is not None or sampler is not None:
            return self._run_observed(until, profiler, sampler)
        while self._heap:
            time, _, action = self._heap[0]
            if until is not None and time > until:
                # Clamp: an `until` earlier than the current time pauses
                # immediately, it must never move the clock backward.
                if until > self._now:
                    self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = time
            action()
        return self._finish_run()

    def _run_observed(self, until, profiler, sampler) -> float:
        """The dispatch loop with profiling/sampling hooks.

        ``run()`` branches here only when an instrument is installed;
        the fast loop above is the unmodified original, so the disabled
        path carries zero added per-event work.  Neither hook advances
        the sim clock or consumes heap sequence numbers, so observed
        runs stay bit-identical to unobserved ones.
        """
        if sampler is not None:
            sampler.bind(self)
        heap = self._heap
        while heap:
            when, _, action = heap[0]
            if until is not None and when > until:
                # Same clamp as the fast loop: never rewind the clock.
                if until > self._now:
                    self._now = until
                return self._now
            heapq.heappop(heap)
            self._now = when
            if profiler is not None:
                pushes = self._heap_pushes
                start = _wall_ns()
                action()
                # Close the timing window before computing the site key:
                # argument order would otherwise charge site_name()'s
                # getattrs + regex into every event's wall time.
                elapsed = _wall_ns() - start
                profiler.record(
                    _site_name(action),
                    self._heap_pushes - pushes,
                    elapsed,
                )
            else:
                action()
            if sampler is not None and self._now >= sampler.next_due:
                sampler.sample(self._now)
        return self._finish_run()

    def _finish_run(self) -> float:
        blocked = [
            p.name for p in self._processes if p.alive and not p.daemon
        ]
        if blocked:
            raise DeadlockError(
                f"no events pending but processes blocked: {blocked}"
            )
        return self._now

    def close(self) -> None:
        """Kill every remaining process and reject further use."""
        if self._closed:
            return
        self._closed = True
        for proc in self._processes:
            if proc.alive:
                proc._kill()
        self._heap.clear()

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


_TLS = threading.local()
# Let the tracer read the simulated clock without importing repro.sim
# (the dependency is inverted to keep repro.trace import-cycle free).
_trace._SIM_TLS = _TLS


def current_engine() -> Engine:
    """The engine driving the calling simulated process."""
    engine = getattr(_TLS, "engine", None)
    if engine is None:
        raise SimulationError("not inside a simulated process")
    return engine


def current_process() -> Process:
    """The simulated process executing the caller."""
    proc = getattr(_TLS, "process", None)
    if proc is None:
        raise SimulationError("not inside a simulated process")
    return proc


def now() -> float:
    """Current simulated time (valid inside a simulated process)."""
    return current_engine().now


def sleep(delay: float) -> None:
    """Advance this process's simulated time by ``delay``."""
    engine = current_engine()
    proc = current_process()
    if isinstance(proc, LightProcess):
        raise SimulationError(
            f"sleep() called inside light process {proc.name!r}; "
            "yield the delay instead"
        )
    if delay < 0:
        raise SimulationError(f"negative sleep: {delay}")
    engine._schedule(delay, proc._resume_action)
    proc._block_and_switch()


def wait(event: Event) -> Any:
    """Block until ``event`` triggers; returns its value.

    If the event failed, a per-waiter replica of its exception is raised
    here (in the waiter), chained to the original via ``__cause__`` —
    sharing one exception object across waiters would accrete every
    waiter's frames onto a single traceback.
    """
    engine = current_engine()
    proc = current_process()
    if isinstance(proc, LightProcess):
        raise SimulationError(
            f"wait() called inside light process {proc.name!r}; "
            "yield the event instead"
        )
    if event.engine is not engine:
        raise SimulationError("event belongs to a different engine")
    if not event.triggered:
        event._add_waiter(proc)
        proc._block_and_switch()
    if event.exception is not None:
        raise _failure_for_waiter(event.exception)
    return event.value
