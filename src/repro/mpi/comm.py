"""The simulated communicator: point-to-point and collective operations.

Semantics follow mpi4py's lowercase (object) API.  Collectives are built
from point-to-point messages using the standard algorithms (binomial trees
for bcast/gather/reduce, ring-free linear alltoall), so their *time* scales
the way a real MPI's would — O(log p) tree depth with per-message Hockney
costs — and their traffic shows up on the simulated NICs.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro import sim
from repro.errors import InvalidArgumentError
from repro.mpi.network import Network, message_size
from repro.sim.resources import Resource, Store
from repro.trace import runtime as _trace

ANY_SOURCE = -1


class World:
    """Shared state for one MPI world: mailboxes, barrier, NICs."""

    def __init__(self, engine: sim.Engine, size: int, network: Optional[Network] = None):
        if size < 1:
            raise InvalidArgumentError(f"world size must be >= 1, got {size}")
        self.engine = engine
        self.size = size
        self.network = network or Network()
        # mailboxes[dst] maps (src, tag) -> Store of payloads.
        self._mailboxes: list[dict[tuple[int, int], Store]] = [
            {} for _ in range(size)
        ]
        self._any_source: list[Store] = [
            Store(engine, name=f"rank{i}.anysrc") for i in range(size)
        ]
        self._nics: list[Resource] = [
            Resource(engine, capacity=1, name=f"nic{i}") for i in range(size)
        ]
        self._barrier_count = 0
        self._barrier_event = sim.Event(engine, name="barrier-0")
        self._barrier_generation = 0
        self._channels: dict[tuple[int, str], Store] = {}

    def mailbox(self, dst: int, src: int, tag: int) -> Store:
        key = (src, tag)
        box = self._mailboxes[dst].get(key)
        if box is None:
            box = Store(self.engine, name=f"rank{dst}.from{src}.tag{tag}")
            self._mailboxes[dst][key] = box
        return box

    def comm(self, rank: int) -> "Communicator":
        return Communicator(self, rank)

    def channel(self, rank: int, key: str) -> Store:
        """A named mailbox on ``rank``, isolated from the tag machinery.

        Service loops (e.g. LSMIO's collective aggregator) drain their own
        channel without disturbing ``recv(ANY_SOURCE)`` users.
        """
        box = self._channels.get((rank, key))
        if box is None:
            box = Store(self.engine, name=f"rank{rank}.chan.{key}")
            self._channels[(rank, key)] = box
        return box


class Communicator:
    """One rank's handle on the world (mpi4py ``COMM_WORLD`` analogue)."""

    def __init__(self, world: World, rank: int):
        if not 0 <= rank < world.size:
            raise InvalidArgumentError(
                f"rank {rank} out of range for world size {world.size}"
            )
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------

    def send_lw(self, obj: Any, dest: int, tag: int = 0):
        """Send ``obj``: occupies this rank's NIC for the wire time."""
        if not 0 <= dest < self.size:
            raise InvalidArgumentError(f"bad destination rank {dest}")
        if dest == self.rank:
            # Self-sends skip the NIC (rendezvous through local memory).
            self.world.mailbox(dest, self.rank, tag).put(obj)
            return
        nbytes = message_size(obj)
        with _trace.probe(
            "mpi", "send", src=self.rank, dest=dest, tag=tag,
            nbytes=nbytes,
        ):
            nic = self.world._nics[self.rank]
            yield from nic.acquire_lw()
            try:
                yield self.world.network.transfer_time(nbytes)
            finally:
                nic.release()
            self.world.mailbox(dest, self.rank, tag).put(obj)
            self.world._any_source[dest].put((self.rank, tag))

    send = sim.blocking_form(send_lw)

    def recv_lw(self, source: int = ANY_SOURCE, tag: int = 0):
        """Receive one message, parking until it arrives.

        ``source=ANY_SOURCE`` matches messages from any rank with the
        given tag (arrival order).
        """
        with _trace.probe("mpi", "recv", rank=self.rank, src=source, tag=tag):
            if source != ANY_SOURCE:
                if not 0 <= source < self.size:
                    raise InvalidArgumentError(f"bad source rank {source}")
                return (
                    yield from self.world.mailbox(
                        self.rank, source, tag
                    ).get_lw()
                )
            # Hold non-matching arrival notices aside while scanning, then
            # re-post them; re-posting inside the loop would spin forever
            # on a notice queue that contains only other tags.
            notices = self.world._any_source[self.rank]
            skipped: list[tuple[int, int]] = []
            try:
                while True:
                    src, msg_tag = yield from notices.get_lw()
                    if msg_tag == tag:
                        return (
                            yield from self.world.mailbox(
                                self.rank, src, tag
                            ).get_lw()
                        )
                    skipped.append((src, msg_tag))
            finally:
                for notice in skipped:
                    notices.put(notice)

    recv = sim.blocking_form(recv_lw)

    def sendrecv(
        self, obj: Any, dest: int, source: int = ANY_SOURCE, tag: int = 0
    ) -> Any:
        """Exchange without deadlock: deposit first, then receive."""
        # Deposit into the destination mailbox before blocking on our own;
        # the wire time is still paid via a zero-capacity trick: charge
        # the NIC after the deposit (both sides progress).
        if dest != self.rank:
            nbytes = message_size(obj)
            self.world.mailbox(dest, self.rank, tag).put(obj)
            self.world._any_source[dest].put((self.rank, tag))
            with self.world._nics[self.rank].request():
                sim.sleep(self.world.network.transfer_time(nbytes))
        else:
            self.world.mailbox(dest, self.rank, tag).put(obj)
        return self.recv(source=source, tag=tag)

    def channel_send_lw(self, key: str, obj: Any, dest: int):
        """Send into ``dest``'s named channel (same wire cost as send)."""
        if not 0 <= dest < self.size:
            raise InvalidArgumentError(f"bad destination rank {dest}")
        if dest != self.rank:
            nbytes = message_size(obj)
            with _trace.probe(
                "mpi", "channel_send", src=self.rank, dest=dest,
                key=key, nbytes=nbytes,
            ):
                nic = self.world._nics[self.rank]
                yield from nic.acquire_lw()
                try:
                    yield self.world.network.transfer_time(nbytes)
                finally:
                    nic.release()
        self.world.channel(dest, key).put(obj)

    channel_send = sim.blocking_form(channel_send_lw)

    def channel_recv_lw(self, key: str):
        """Take from this rank's named channel, parking while it is empty."""
        with _trace.probe("mpi", "channel_recv", rank=self.rank, key=key):
            return (yield from self.world.channel(self.rank, key).get_lw())

    channel_recv = sim.blocking_form(channel_recv_lw)

    # ------------------------------------------------------------------
    # Collectives
    # ------------------------------------------------------------------

    _BARRIER_TAG = -101
    _COLL_TAG = -102

    def barrier_lw(self):
        """Park until every rank in the world has entered the barrier.

        Light and thread-backed ranks may share one barrier: the world's
        count/generation state and gate event are all there is.
        """
        with _trace.probe("mpi", "barrier", rank=self.rank):
            world = self.world
            world._barrier_count += 1
            gate = world._barrier_event
            if world._barrier_count == world.size:
                world._barrier_count = 0
                world._barrier_generation += 1
                world._barrier_event = sim.Event(
                    world.engine, name=f"barrier-{world._barrier_generation}"
                )
                # A real barrier costs ~latency * log2(p) on a tree network.
                depth = max(1, (world.size - 1).bit_length())
                yield world.network.latency * depth
                gate.succeed()
            else:
                yield gate

    barrier = sim.blocking_form(barrier_lw)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast; returns the object on every rank."""
        vrank = (self.rank - root) % self.size
        mask = 1
        while mask < self.size:
            if vrank & (mask - 1) == 0:
                if vrank & mask:
                    src = (vrank - mask + root) % self.size
                    obj = self.recv(source=src, tag=self._COLL_TAG)
                    break
            mask <<= 1
        # Forward down the tree.
        mask >>= 1
        while mask > 0:
            if vrank & (mask - 1) == 0 and not vrank & mask:
                peer = vrank + mask
                if peer < self.size:
                    dest = (peer + root) % self.size
                    self.send(obj, dest, tag=self._COLL_TAG)
            mask >>= 1
        return obj

    def gather(self, obj: Any, root: int = 0) -> Optional[list]:
        """Linear gather; root returns a list indexed by rank."""
        if self.rank == root:
            out: list[Any] = [None] * self.size
            out[self.rank] = obj
            for _ in range(self.size - 1):
                src, value = self.recv(source=ANY_SOURCE, tag=self._COLL_TAG - 1)
                out[src] = value
            return out
        self.send((self.rank, obj), root, tag=self._COLL_TAG - 1)
        return None

    def scatter(self, objs: Optional[list], root: int = 0) -> Any:
        """Root distributes ``objs[i]`` to rank i."""
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise InvalidArgumentError(
                    "scatter needs a list with one item per rank"
                )
            for dest in range(self.size):
                if dest != root:
                    self.send(objs[dest], dest, tag=self._COLL_TAG - 2)
            return objs[root]
        return self.recv(source=root, tag=self._COLL_TAG - 2)

    def allgather(self, obj: Any) -> list:
        """Gather to rank 0, then broadcast the assembled list."""
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any] = None, root: int = 0
    ) -> Any:
        """Binomial-tree reduction with a Python combiner (default ``+``)."""
        if op is None:
            op = lambda a, b: a + b  # noqa: E731
        vrank = (self.rank - root) % self.size
        value = obj
        mask = 1
        while mask < self.size:
            if vrank & mask:
                dest = (vrank - mask + root) % self.size
                self.send(value, dest, tag=self._COLL_TAG - 3)
                return None if self.rank != root else value
            peer = vrank | mask
            if peer < self.size:
                src = (peer + root) % self.size
                other = self.recv(source=src, tag=self._COLL_TAG - 3)
                value = op(value, other)
            mask <<= 1
        return value if self.rank == root else None

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = None) -> Any:
        """Reduce to rank 0, broadcast the result."""
        reduced = self.reduce(obj, op=op, root=0)
        return self.bcast(reduced, root=0)

    def alltoall(self, objs: list) -> list:
        """Each rank sends ``objs[j]`` to rank j; returns received list.

        This is the exchange phase of two-phase collective I/O, so its
        cost matters for Figure 9/10.
        """
        if len(objs) != self.size:
            raise InvalidArgumentError(
                "alltoall needs a list with one item per rank"
            )
        out: list[Any] = [None] * self.size
        out[self.rank] = objs[self.rank]
        # Deposit everything (non-blocking semantics), then pay for our own
        # outbound wire time, then collect.
        pending = 0
        for dest in range(self.size):
            if dest == self.rank:
                continue
            self.world.mailbox(dest, self.rank, self._COLL_TAG - 4).put(
                objs[dest]
            )
            pending += message_size(objs[dest])
        if pending:
            with self.world._nics[self.rank].request():
                sim.sleep(
                    self.world.network.latency * (self.size - 1)
                    + pending / self.world.network.bandwidth
                )
        for src in range(self.size):
            if src == self.rank:
                continue
            out[src] = self.world.mailbox(
                self.rank, src, self._COLL_TAG - 4
            ).get()
        return out

    def __repr__(self) -> str:
        return f"Communicator(rank={self.rank}, size={self.size})"
