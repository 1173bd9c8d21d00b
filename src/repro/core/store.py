"""The Local Store (Table 1): the layer that encapsulates the LSM engine.

Implements the exact method set of the paper's Table 1 —
``startBatch/stopBatch/get/put/append/del/writeBarrier`` — with both
backend behaviours from §3.1.2:

- **RocksDB mode** (default): the WAL is disabled at the engine, every
  ``put`` goes straight to the memtable, and the write barrier flushes;
- **LevelDB mode**: the engine's WAL cannot be disabled, so writes are
  aggregated in a ``WriteBatch`` (triggering no disk activity) and the
  batch is applied at ``stopBatch``/``writeBarrier``.

Async vs. sync writes (§3.1.1): in async mode memtable flushes are handed
to a background executor (one flush worker, §3.1.2) and ``writeBarrier``
drains it; in sync mode each flush completes inline.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ClosedError, InvalidArgumentError, SimulationError
from repro.io import BARRIER_CLASSES
from repro.lsm.batch import WriteBatch
from repro.lsm.db import DB
from repro.lsm.env import Env
from repro.lsm.executors import Executor, SyncExecutor, ThreadExecutor
from repro.lsm.options import WriteOptions
from repro.core.options import Backend, LsmioOptions


def _default_executor(options: LsmioOptions) -> Executor:
    """Pick the flush executor for the ambient world.

    Sync mode → inline.  Async mode → a sim background process when
    running under the discrete-event engine, else one real worker thread.
    """
    if options.sync_writes:
        return SyncExecutor()
    from repro import sim
    from repro.sim.executor import SimExecutor

    try:
        engine = sim.current_engine()
    except SimulationError:
        return ThreadExecutor()
    return SimExecutor(engine)


class LsmioStore:
    """One node-local LSM-backed store."""

    def __init__(
        self,
        path: str,
        options: Optional[LsmioOptions] = None,
        env: Optional[Env] = None,
        executor: Optional[Executor] = None,
    ):
        self.options = options or LsmioOptions()
        self._executor = executor or _default_executor(self.options)
        self._owns_executor = executor is None
        engine_options = self.options.to_engine_options()
        if self.options.backend is Backend.LEVELDB:
            # LevelDB cannot run WAL-less; the engine keeps its log and
            # LSMIO buffers updates in a batch instead (§3.1.2).
            engine_options.enable_wal = True
        self.db = DB.open(path, engine_options, env=env, executor=self._executor)
        self._batch: Optional[WriteBatch] = None
        from repro.sim.locks import AdaptiveRLock

        self._lock = AdaptiveRLock()
        self._closed = False

    # -- Table 1 API -------------------------------------------------------

    def start_batch(self) -> None:
        """Begin aggregation if the backend needs it (LevelDB mode)."""
        with self._lock:
            self._check_open()
            if self.options.backend is Backend.LEVELDB and self._batch is None:
                self._batch = WriteBatch()

    def stop_batch(self) -> None:
        """End aggregation, applying buffered writes."""
        with self._lock:
            self._check_open()
            if self._batch is not None:
                batch, self._batch = self._batch, None
                if len(batch):
                    self.db.write(batch, WriteOptions())

    def get(self, key: bytes) -> bytes:
        """Point lookup.  Always executed synchronously (Table 1)."""
        with self._lock:
            if self._closed:
                raise ClosedError("store is closed")
            if self._batch is not None:
                self._flush_batch_for_read()
            return self.db.get(key)

    def put(self, key: bytes, value: bytes, sync: Optional[bool] = None) -> None:
        """Write (overwrite) one value; async unless configured/asked."""
        self._apply("put", key, value, sync)

    def append(self, key: bytes, value: bytes, sync: Optional[bool] = None) -> None:
        """Append to the existing value (merge operand)."""
        self._apply("merge", key, value, sync)

    def delete(self, key: bytes) -> None:
        """Delete one key."""
        self._apply("delete", key, b"", None)

    # Table 1 spells it ``del()``; Python reserves the name.
    del_ = delete

    def write_batch(self, batch: WriteBatch, sync: Optional[bool] = None) -> None:
        """Apply a pre-built :class:`WriteBatch` atomically.

        The manager's accumulation path funnels through here: its pending
        batch of many puts arrives as one engine write, made under this
        store's lock, which is why the engine itself needs no writer
        queue.  In LevelDB-mode aggregation (``start_batch`` open) the
        operations merge into the open batch instead.
        """
        if not len(batch):
            return
        with self._lock:
            self._check_open()
            if self._batch is not None:
                self._batch.merge_from(batch)
                return
            self.db.write(batch, WriteOptions())
        if sync if sync is not None else self.options.sync_writes:
            self._executor.drain(priorities=BARRIER_CLASSES)

    def write_barrier(self, sync: bool = True) -> None:
        """Flush all buffered writes to disk; block until done (Table 1).

        Also flushes an open batch first — the paper calls the barrier
        implicitly at the end of a checkpoint file write (§3.1.1).

        The barrier waits only on the FOREGROUND+FLUSH service classes:
        durability needs the memtable flushes, not the compaction debt,
        so a trailing compaction keeps running behind the barrier.
        """
        with self._lock:
            self._check_open()
            if self._batch is not None and len(self._batch):
                batch, self._batch = self._batch, WriteBatch()
                self.db.write(batch, WriteOptions())
            self.db.flush(wait=False)
        if sync:
            self._executor.drain(priorities=BARRIER_CLASSES)

    # -- extras used by the manager/FStream ---------------------------------

    def multi_get(self, keys) -> dict:
        """Batch point lookups in sorted order (§5.1 batch-read path)."""
        with self._lock:
            self._check_open()
            self._flush_batch_for_read()
            return self.db.multi_get(keys)

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Ordered range scan (the batch-read path of §5.1's future work)."""
        with self._lock:
            self._check_open()
            self._flush_batch_for_read()
        return self.db.iterate(start, stop)

    def _apply(
        self, kind: str, key: bytes, value: bytes, sync: Optional[bool]
    ) -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise InvalidArgumentError(f"keys must be bytes, got {type(key)}")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise InvalidArgumentError(
                f"values must be bytes-like, got {type(value)}"
            )
        with self._lock:
            self._check_open()
            if self._batch is not None:
                self._batch_op(self._batch, kind, key, value)
                return
            batch = WriteBatch()
            self._batch_op(batch, kind, key, value)
            self.db.write(batch, WriteOptions())
        if sync if sync is not None else self.options.sync_writes:
            self._executor.drain(priorities=BARRIER_CLASSES)

    @staticmethod
    def _batch_op(batch: WriteBatch, kind: str, key: bytes, value: bytes) -> None:
        if kind == "delete":
            batch.delete(bytes(key))
        else:
            getattr(batch, kind)(bytes(key), bytes(value))

    def _flush_batch_for_read(self) -> None:
        # Reads are synchronous and must observe batched writes: apply the
        # open batch (keeping batching active for subsequent writes).
        if self._batch is not None and len(self._batch):
            batch, self._batch = self._batch, WriteBatch()
            self.db.write(batch, WriteOptions())

    def _check_open(self) -> None:
        if self._closed:
            raise ClosedError("store is closed")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Barrier, then release the engine."""
        with self._lock:
            if self._closed:
                return
        self.write_barrier(sync=True)
        self.db.close()
        if self._owns_executor:
            self._executor.close()
        with self._lock:
            self._closed = True

    def __enter__(self) -> "LsmioStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
