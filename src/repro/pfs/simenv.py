"""``SimLustreEnv``: the LSM engine's Env over the simulated cluster.

This adapter is what makes the reproduction honest: benchmark runs execute
the *genuine* storage-engine code (memtable, SSTable builder, manifest,
WAL) and every byte it emits crosses the simulated Lustre client, paying
NIC/OSS/OST time.  Small appends from the table builder are batched in a
client-side buffer (the real kernel page cache would do the same) so RPCs
leave at page-cache granularity, not per-entry.

All methods must be called from within a simulated process.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.errors import NotFoundError
from repro.lsm.env import (
    BufferedWritableFile,
    Env,
    RandomAccessFile,
    SequentialFile,
    WritableFile,
)
from repro.pfs.client import LustreClient
from repro.pfs.lustre import LustreFile
from repro.util.humanize import parse_size


class _SimWritableFile(BufferedWritableFile):
    """Append-only stream with page-cache-style batching: each
    ``buffer_size`` chunk leaves in one ``client.write`` as the list of
    its buffers, never joined, and the file keeps them by reference."""

    def __init__(
        self,
        client: LustreClient,
        file: LustreFile,
        buffer_size: int,
        charge_mds_on_close: bool,
    ):
        super().__init__(file.path, buffer_size)
        self._client = client
        self._file = file
        self._offset = 0
        self._charge_mds_on_close = charge_mds_on_close

    def _write(self, parts: list, nbytes: int) -> None:
        self._client.write(self._file, self._offset, parts)
        self._offset += nbytes

    def _sync(self) -> None:
        self._client.fsync(self._file)

    def _close(self) -> None:
        if self._charge_mds_on_close:
            self._client.close(self._file)
        else:
            self._client.fsync(self._file)


class _SimRandomAccessFile(RandomAccessFile):
    """Positioned reads with Lustre-client-style readahead.

    The engine's point lookups walk SSTable blocks in file order, so the
    client's readahead window turns them into a few large RPCs — the same
    effect the real kernel readahead has under RocksDB.  A window fill
    only charges its time (``client.charge_read``); each read then loads
    just the bytes it asked for, so no window is ever built in memory.
    """

    def __init__(self, client: LustreClient, file: LustreFile, readahead: int):
        self._client = client
        self._file = file
        self._readahead = readahead
        self._window = (0, 0)  # cached [lo, hi) byte range

    def read(self, offset: int, nbytes: int) -> bytes:
        end = min(offset + nbytes, self._file.size)
        if end <= offset:
            return b""
        if not (self._window[0] <= offset and end <= self._window[1]):
            fetch = max(nbytes, self._readahead)
            fetched = self._client.charge_read(self._file, offset, fetch)
            self._window = (offset, offset + fetched)
        return self._file.load(offset, min(nbytes, self._file.size - offset))

    def size(self) -> int:
        return self._file.size

    def close(self) -> None:
        pass


class _SimSequentialFile(SequentialFile):
    def __init__(self, client: LustreClient, file: LustreFile):
        self._client = client
        self._file = file
        self._pos = 0

    def read(self, nbytes: int) -> bytes:
        out = self._client.read(self._file, self._pos, nbytes)
        self._pos += len(out)
        return out

    def close(self) -> None:
        pass


class SimLustreEnv(Env):
    """One node's Env rooted in the simulated Lustre namespace."""

    def __init__(
        self,
        client: LustreClient,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int | str] = None,
        write_buffer: int | str = "4M",
        readahead: int | str = "4M",
        charge_mds_on_close: bool = True,
    ):
        self.client = client
        self.cluster = client.cluster
        self.stripe_count = stripe_count
        self.stripe_size = (
            parse_size(stripe_size) if stripe_size is not None else None
        )
        self.write_buffer = parse_size(write_buffer)
        self.readahead = parse_size(readahead)
        self.charge_mds_on_close = charge_mds_on_close
        self._dirs: set[str] = {""}
        self._dirs_lock = threading.Lock()

    @staticmethod
    def _norm(path: str) -> str:
        return path.strip("/").replace("//", "/")

    # -- files -----------------------------------------------------------

    def new_writable_file(self, path: str) -> WritableFile:
        file = self.client.create(
            self._norm(path),
            stripe_count=self.stripe_count,
            stripe_size=self.stripe_size,
            store_data=True,  # the engine must read its bytes back
        )
        return _SimWritableFile(
            self.client, file, self.write_buffer, self.charge_mds_on_close
        )

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _SimRandomAccessFile(
            self.client, self.client.open(self._norm(path)), self.readahead
        )

    def new_sequential_file(self, path: str) -> SequentialFile:
        return _SimSequentialFile(self.client, self.client.open(self._norm(path)))

    # -- namespace ---------------------------------------------------------

    def file_exists(self, path: str) -> bool:
        return self.cluster.exists(self._norm(path))

    def file_size(self, path: str) -> int:
        return self.client.stat(self._norm(path)).size

    def delete_file(self, path: str) -> None:
        self.client.unlink(self._norm(path))

    def rename_file(self, src: str, dst: str) -> None:
        self.client.metadata_op("setattr")
        self.cluster.rename(self._norm(src), self._norm(dst))

    def create_dir(self, path: str) -> None:
        norm = self._norm(path)
        with self._dirs_lock:
            pieces = norm.split("/")
            new = False
            for i in range(1, len(pieces) + 1):
                prefix = "/".join(pieces[:i])
                if prefix not in self._dirs:
                    self._dirs.add(prefix)
                    new = True
        if new:
            self.client.metadata_op("mkdir")

    def get_children(self, path: str) -> list[str]:
        norm = self._norm(path)
        prefix = norm + "/" if norm else ""
        self.client.metadata_op("lookup")
        children: set[str] = set()
        for file_path in self.cluster.list_paths(prefix):
            children.add(file_path[len(prefix):].split("/", 1)[0])
        with self._dirs_lock:
            known_dir = norm in self._dirs
            for name in self._dirs:
                if name.startswith(prefix) and name != norm:
                    children.add(name[len(prefix):].split("/", 1)[0])
        if not children and not known_dir:
            raise NotFoundError(f"no such directory: {path}")
        return sorted(children)
