"""``FaultyEnv``: crash-consistency faults for any :class:`~repro.lsm.env.Env`.

Wraps a base environment and models the failure modes a storage engine
must survive (LevelDB's ``FaultInjectionTestEnv``, here driven by a
:class:`~repro.fault.schedule.FaultSchedule`):

- **lost un-synced data** — :meth:`FaultyEnv.crash` discards every byte
  appended after the last successful ``sync()`` on each file, modeling
  node death with dirty page caches;
- **torn writes** — the crash cut is not clean: a seeded random portion
  of the un-synced tail *does* survive (the head was mid-extent), so WAL
  replay and MANIFEST recovery see realistic partial records instead of
  hand-crafted truncations;
- **fsync failure** — ``fail_sync(at=N)`` / ``fail_sync(every=m)``
  entries make the N-th (or every m-th) ``sync()`` raise
  :class:`~repro.errors.StorageIOError`; a failed sync durably counts
  *nothing* as synced (the kernel may have written any subset — the
  crash model keeps treating the tail as at-risk).

The wrapper also releases the base env's in-process advisory locks on
``crash()``, because process death releases LOCK files — tests reopen
the database without reaching into engine internals.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import StorageIOError
from repro.fault.schedule import FaultSchedule
from repro.lsm.env import (
    Env,
    RandomAccessFile,
    SequentialFile,
    WritableFile,
)


class _FileState:
    """Durability bookkeeping for one writable file."""

    __slots__ = ("synced", "written")

    def __init__(self) -> None:
        self.synced = 0
        self.written = 0


class _FaultyWritableFile(WritableFile):
    def __init__(self, env: "FaultyEnv", path: str, base: WritableFile):
        self._env = env
        self._path = path
        self._base = base

    def append(self, data: bytes) -> None:
        self._base.append(data)
        self._env._state(self._path).written += len(data)

    def append_owned(self, data: bytearray) -> None:
        self._base.append_owned(data)
        self._env._state(self._path).written += len(data)

    def flush(self) -> None:
        self._base.flush()

    def sync(self) -> None:
        self._env._before_sync(self._path)
        self._base.sync()
        state = self._env._state(self._path)
        state.synced = state.written

    def close(self) -> None:
        # close() flushes but does NOT fsync — un-synced bytes are still
        # at risk if the node dies, exactly like a POSIX close.
        self._base.close()


class FaultyEnv(Env):
    """An :class:`Env` that can lose un-synced data and fail fsyncs."""

    def __init__(
        self,
        base: Env,
        schedule: Optional[FaultSchedule] = None,
        seed: Optional[int] = None,
    ):
        self.base = base
        self.schedule = schedule
        self._rng = np.random.default_rng(
            seed if seed is not None else (schedule.seed if schedule else 0)
        )
        self._files: dict[str, _FileState] = {}
        self._sync_count = 0
        self._sync_fail_at: set[int] = set()
        self._sync_fail_every: list[int] = []
        self.syncs_failed = 0
        self.crashes = 0
        if schedule is not None:
            for spec in schedule.specs:
                if spec.kind != "sync_fail":
                    continue
                if spec.at_count is not None:
                    self._sync_fail_at.add(spec.at_count)
                if spec.every is not None:
                    self._sync_fail_every.append(spec.every)

    # -- fault machinery ---------------------------------------------------

    def _state(self, path: str) -> _FileState:
        state = self._files.get(path)
        if state is None:
            state = self._files[path] = _FileState()
        return state

    def _before_sync(self, path: str) -> None:
        self._sync_count += 1
        count = self._sync_count
        fail = count in self._sync_fail_at or any(
            count % every == 0 for every in self._sync_fail_every
        )
        if fail:
            self.syncs_failed += 1
            raise StorageIOError(
                f"injected fsync failure #{count} on {path}"
            )

    def crash(self) -> None:
        """Simulate node death: tear every file's un-synced tail.

        For each file with bytes past its last successful sync, a seeded
        random cut keeps ``synced + U[0, unsynced]`` bytes — some of the
        dirty pages made it out, the rest are gone.  Advisory locks are
        released (the owning process is dead).
        """
        self.crashes += 1
        for path, state in sorted(self._files.items()):
            unsynced = state.written - state.synced
            if unsynced <= 0:
                continue
            keep = state.synced + int(self._rng.integers(0, unsynced + 1))
            self._truncate(path, keep)
            state.written = keep
            state.synced = keep
        holders = getattr(self.base, "_lock_holders", None)
        if holders:
            holders.clear()

    def _truncate(self, path: str, keep: int) -> None:
        try:
            size = self.base.file_size(path)
        except Exception:
            return  # already deleted/renamed away
        if keep >= size:
            return
        data = b""
        if keep > 0:
            with self.base.new_random_access_file(path) as fh:
                data = fh.read(0, keep)
        self.base.delete_file(path)
        out = self.base.new_writable_file(path)
        if data:
            out.append(data)
        out.close()

    # -- Env delegation ----------------------------------------------------

    def new_writable_file(self, path: str) -> WritableFile:
        base = self.base.new_writable_file(path)
        # A recreated path starts from scratch: nothing synced yet.
        self._files[path] = _FileState()
        return _FaultyWritableFile(self, path, base)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return self.base.new_random_access_file(path)

    def new_sequential_file(self, path: str) -> SequentialFile:
        return self.base.new_sequential_file(path)

    def file_exists(self, path: str) -> bool:
        return self.base.file_exists(path)

    def file_size(self, path: str) -> int:
        return self.base.file_size(path)

    def delete_file(self, path: str) -> None:
        self.base.delete_file(path)
        self._files.pop(path, None)

    def rename_file(self, src: str, dst: str) -> None:
        self.base.rename_file(src, dst)
        state = self._files.pop(src, None)
        if state is not None:
            self._files[dst] = state

    def create_dir(self, path: str) -> None:
        self.base.create_dir(path)

    def get_children(self, path: str) -> list[str]:
        return self.base.get_children(path)

    def join(self, *parts: str) -> str:
        return self.base.join(*parts)

    def lock_file(self, path: str) -> object:
        return self.base.lock_file(path)

    def unlock_file(self, token: object) -> None:
        self.base.unlock_file(token)
