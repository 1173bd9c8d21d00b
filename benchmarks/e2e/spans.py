"""Outside-in span recording: class-attribute patches around public calls.

Nothing under ``src/`` knows this file exists.  For one traced rep the
benchmark replaces public methods and functions of each layer with
wrappers that push a span on entry and pop it on exit; the patches are
removed afterwards and :meth:`Patcher.remove` reports any that survived.

Three clock domains keep the books honest:

* ``main`` — the thread that runs the rep, on the wall clock.  Its span
  tree covers the whole rep, so its self times (plus the root's own,
  ``unattributed``) sum to the rep's ``wall_s`` by construction.
* ``proc`` — thread-backed sim processes, on ``time.thread_time_ns``.  A
  parked process accrues no CPU, so the wait behind ``sim.sleep`` is not
  charged to the layer that called it.  Exactly one sim thread runs at a
  time, so proc CPU replaces (never adds to) main-thread wall.
* ``bg`` — any other thread (the real engine's flush worker), on the wall
  clock.  It overlaps the main thread and is reported beside the wall
  budget, never inside it.

Generator entry points (the ``*_lw`` light-process twins) are timed per
resume: the wrapper is itself a generator that brackets every ``send``.
"""

from __future__ import annotations

import inspect
import re
import sys
import threading
import time
from types import GeneratorType

MAIN, PROC, BG = "main", "proc", "bg"

#: individual span records kept for ``spans.json``; aggregates are exact
SPAN_CAP = 20_000

_DIGITS = re.compile(r"\d+")


def fold_digits(name: str) -> str:
    """``rank17`` -> ``rank#`` (the EngineProfiler's site-folding rule)."""
    return _DIGITS.sub("#", name)


def layer_of(fn) -> str:
    """The repo package that owns ``fn``'s code (``repro.pfs.client`` -> pfs)."""
    parts = (getattr(fn, "__module__", None) or "").split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else "bench"


class _ThreadState:
    """One thread's span stack, aggregates and counters."""

    __slots__ = ("domain", "clock", "stack", "agg", "counters", "thread")

    def __init__(self, domain: str, thread: str):
        self.domain = domain
        self.clock = (
            time.thread_time_ns if domain == PROC else time.perf_counter_ns
        )
        #: frames are [key, child_ns, record_index, cpu_start_ns, start_ns]
        self.stack: list[list] = []
        #: (layer, name) -> [calls, total_ns, self_ns, max_ns]
        self.agg: dict[tuple, list] = {}
        self.counters: dict[str, float] = {}
        self.thread = thread


class Tracker:
    """Streaming exclusive-time profiler over the patched entry points."""

    def __init__(self, tag: str = ""):
        self.tag = tag
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._main = threading.get_ident()
        self._origin = time.perf_counter_ns()
        #: capped individual records (dicts), see :data:`SPAN_CAP`
        self.records: list[dict] = []
        self.dropped = 0
        self.threads_spawned = 0

    # -- per-thread state ---------------------------------------------------

    def _state(self, domain: str | None = None) -> _ThreadState:
        if domain is None:
            domain = MAIN if threading.get_ident() == self._main else BG
        state = _ThreadState(domain, threading.current_thread().name)
        self._tls.state = state
        self._states.append(state)
        return state

    # -- the hot path -------------------------------------------------------

    def enter(self, key: tuple, index: int | None = None) -> int:
        """Push a span; returns its record index (-1 when unrecorded).

        ``index=None`` opens a new span; a generator passes the index its
        first resume returned so one record covers its whole lifetime.
        """
        try:
            state = self._tls.state
        except AttributeError:
            state = self._state()
        stack = state.stack
        if index is None:
            if len(self.records) < SPAN_CAP:
                index = len(self.records)
                self.records.append({
                    "layer": key[0],
                    "name": key[1],
                    "thread": state.thread,
                    "domain": state.domain,
                    "parent": stack[-1][2] if stack else -1,
                    "id": self.tag,
                    "start_ns": time.perf_counter_ns() - self._origin,
                    "end_ns": 0,
                    "busy_ns": 0,
                    "cpu_ns": 0,
                    "resumes": 0,
                })
            else:
                index = -1
                self.dropped += 1
        cpu = time.thread_time_ns() if index >= 0 else 0
        stack.append([key, 0, index, cpu, state.clock()])
        return index

    def leave(self, calls: int = 1) -> None:
        state = self._tls.state
        now = state.clock()
        key, child, index, cpu, start = state.stack.pop()
        dur = now - start
        row = state.agg.get(key)
        if row is None:
            row = state.agg[key] = [0, 0, 0, 0]
        row[0] += calls
        row[1] += dur
        row[2] += dur - child
        if dur > row[3]:
            row[3] = dur
        if state.stack:
            state.stack[-1][1] += dur
        if index >= 0:
            record = self.records[index]
            record["end_ns"] = time.perf_counter_ns() - self._origin
            record["busy_ns"] += dur
            record["cpu_ns"] += time.thread_time_ns() - cpu
            record["resumes"] += 1

    def count(self, name: str, amount: float = 1) -> None:
        try:
            counters = self._tls.state.counters
        except AttributeError:
            counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn, key: tuple):
        """Span around ``fn``; generator functions are timed per resume."""
        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                return self._timed_gen(fn(*args, **kwargs), key)

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        enter, leave = self.enter, self.leave

        def wrapper(*args, **kwargs):
            enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if type(result) is GeneratorType:
                # a plain closure that returns a generator (the RPC-issue
                # lambdas): keep timing it as it is driven
                return self._timed_gen(result, key, calls=0)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_callback(self, fn, name: str):
        """Span around a callable handed *into* a layer (a flush job, an
        RPC-issue closure, a light-process body): charged to the package
        that defined it, not to the layer that merely invokes it."""
        return self.wrap(fn, (layer_of(fn), name))

    def wrap_process_body(self, fn, name: str):
        """Root span of a thread-backed sim process, on the CPU clock."""
        key = (layer_of(fn), "proc:" + fold_digits(name))

        def body(*args, **kwargs):
            self._state(PROC)
            self.enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()

        return body

    def _timed_gen(self, gen, key: tuple, calls: int = 1):
        enter, leave = self.enter, self.leave
        index = value = exc = None
        while True:
            index = enter(key, index)
            try:
                if exc is None:
                    command = gen.send(value)
                else:
                    command = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                leave(calls)
            calls = 0
            try:
                value = yield command
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as caught:  # noqa: BLE001 — forwarded into gen
                exc = caught

    # -- results ------------------------------------------------------------

    def aggregate(self) -> dict:
        """``{domain: {(layer, name): [calls, total_ns, self_ns, max_ns]}}``
        merged over threads, plus merged counters under ``"counters"``."""
        out: dict = {MAIN: {}, PROC: {}, BG: {}, "counters": {}}
        for state in self._states:
            merged = out[state.domain]
            for key, row in state.agg.items():
                into = merged.get(key)
                if into is None:
                    merged[key] = list(row)
                else:
                    into[0] += row[0]
                    into[1] += row[1]
                    into[2] += row[2]
                    into[3] = max(into[3], row[3])
            for name, amount in state.counters.items():
                out["counters"][name] = out["counters"].get(name, 0) + amount
        return out


class Patcher:
    """Installs wrappers as class/module attributes and removes them."""

    def __init__(self) -> None:
        #: (owner, attribute, original raw attribute)
        self._undo: list[tuple] = []

    def patch_method(self, cls: type, attr: str, make) -> None:
        """Replace ``cls.attr`` (function, classmethod or staticmethod)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def patch_function(self, fn, make) -> None:
        """Replace ``fn`` in every ``repro.*`` module that holds a reference
        (``from x import fn`` copies the binding into the importer)."""
        new = make(fn)
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, fn))

    def remove(self) -> list[str]:
        """Restore every original; returns the names that still resolve to
        something else afterwards (must be empty)."""
        installed, self._undo = self._undo, []
        for owner, attr, raw in reversed(installed):
            setattr(owner, attr, raw)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, raw in installed
            if vars(owner).get(attr) is not raw
        ]

    def __len__(self) -> int:
        return len(self._undo)
