"""Shared simulated resources: FCFS capacity slots and message stores.

Because at most one simulated process ever runs at a time, these need no
locking; correctness comes from the engine's deterministic event order.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event, blocking_form


class Resource:
    """``capacity`` interchangeable slots granted in FCFS order.

    The canonical usage is a disk or network pipe::

        yield from resource.acquire_lw()
        try:
            yield service_time
        finally:
            resource.release()

    Blocking-only code holds a slot with ``with resource.request():``.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        #: FCFS waiters, built when the first acquirer parks
        self._queue: Optional[deque[Event]] = None

    def acquire_lw(self):
        """Take a slot, parking until one is free (``yield from`` it)."""
        queue = self._queue
        if self._in_use < self.capacity and not queue:
            self._in_use += 1
            return
        if queue is None:
            queue = self._queue = deque()
        gate = Event(self.engine, name=self.name)
        queue.append(gate)
        yield gate
        # The releaser transferred its slot to us (kept _in_use high).

    acquire = blocking_form(acquire_lw)

    def release(self) -> None:
        """Free a slot, waking the longest-waiting acquirer."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the slot directly to the next waiter (FCFS, no gap).
            self._queue.popleft().succeed()
        else:
            self._in_use -= 1

    def request(self) -> "_ResourceContext":
        """Context manager form of acquire/release."""
        return _ResourceContext(self)

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue) if self._queue else 0


class _ResourceContext:
    __slots__ = ("_resource",)

    def __init__(self, resource: Resource):
        self._resource = resource

    def __enter__(self) -> Resource:
        self._resource.acquire()
        return self._resource

    def __exit__(self, *exc) -> None:
        self._resource.release()


class Store:
    """An unbounded FIFO of items with a parking ``get`` (a mailbox).

    The MPI layer builds point-to-point messaging on one Store per
    (destination, tag) channel.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        #: undelivered items and parked getters, each built on first use
        self._items: Optional[deque[Any]] = None
        self._getters: Optional[deque[Event]] = None

    def put(self, item: Any) -> None:
        """Deposit an item; wakes the oldest blocked getter."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self._items is None:
            self._items = deque((item,))
        else:
            self._items.append(item)

    def get_lw(self):
        """Take the oldest item, parking while the store is empty."""
        if self._items:
            return self._items.popleft()
        if self._getters is None:
            self._getters = deque()
        gate = Event(self.engine, name=self.name)
        self._getters.append(gate)
        return (yield gate)

    get = blocking_form(get_lw)

    def try_get(self) -> Optional[Any]:
        """Non-blocking take; None when empty."""
        if self._items:
            return self._items.popleft()
        return None

    def __len__(self) -> int:
        return len(self._items) if self._items else 0
