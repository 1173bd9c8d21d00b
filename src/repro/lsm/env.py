"""Storage environment abstraction (LevelDB's ``Env``).

Everything the engine does to stable storage flows through an :class:`Env`,
so the same DB code runs against:

- :class:`LocalFsEnv` — real files on a local filesystem (the standalone
  LSMIO library and the test suite);
- :class:`MemEnv` — an in-memory filesystem (fast unit tests);
- ``repro.pfs.simenv.SimLustreEnv`` — the simulated Lustre parallel file
  system, which stores the same bytes *and* charges simulated time for
  every extent, enabling the paper's cluster experiments to execute the
  genuine engine code path.

The interface is deliberately the LevelDB quartet: writable (append-only)
files, random-access files, sequential files, plus namespace operations.
SSTables and WAL segments are append-only by construction, which is what
lets an LSM turn checkpoint bursts into sequential disk traffic.
"""

from __future__ import annotations

import os
import threading

from repro.errors import NotFoundError, StorageIOError


class WritableFile:
    """Append-only output file."""

    def append(self, data: bytes) -> None:
        raise NotImplementedError

    def append_owned(self, data: bytearray) -> None:
        """Append ``data``, taking ownership of the buffer.

        The caller promises never to touch ``data`` again, which lets
        in-memory destinations keep the buffer as-is instead of copying.
        The base implementation just delegates to :meth:`append`.
        """
        self.append(data)

    def flush(self) -> None:
        """Push buffered bytes to the OS (no durability guarantee)."""
        raise NotImplementedError

    def sync(self) -> None:
        """Force bytes to stable storage (fsync semantics)."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "WritableFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BufferedWritableFile(WritableFile):
    """A writable file that batches appends into exact ``chunk``-byte writes.

    Appends are kept by reference (``bytes``, and whatever is handed over
    by :meth:`append_owned`) or copied once (a non-owned ``bytearray`` or
    ``memoryview``: callers reuse their scratch buffers); empty ones are
    dropped.  Whenever ``chunk`` bytes are pending, exactly that many
    leave in one :meth:`_write`, the buffer straddling the cut split by a
    ``memoryview``.  :meth:`flush`, :meth:`sync` and :meth:`close` write
    the pending tail first, so the sink sees the writes of one growing
    buffer cut at every ``chunk`` and every flush.  After :meth:`close`
    every call but :meth:`close` raises.

    Subclasses are the sink: ``_write(parts, nbytes)`` takes the parts of
    one contiguous range (by reference) and their byte count, ``_sync()``
    makes what was written durable, and ``_close()`` releases the sink.
    """

    def __init__(self, path: str, chunk: int):
        self._path = path
        self._chunk = chunk
        self._pending: list = []
        self._pending_bytes = 0
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise StorageIOError(f"write to closed file {self._path}")

    def append(self, data: bytes) -> None:
        self.append_owned(data if type(data) is bytes else bytes(data))

    def append_owned(self, data) -> None:
        self._check_open()
        if not data:
            return
        self._pending.append(data)
        self._pending_bytes += len(data)
        while self._pending_bytes >= self._chunk:
            self._write_pending(self._pending_bytes - self._chunk)

    def _write_pending(self, keep: int = 0) -> None:
        """Write every pending byte but the last ``keep``.

        Fewer than ``chunk`` bytes were pending before the last append,
        so the bytes kept are always a tail of the last buffer.
        """
        parts, self._pending = self._pending, []
        nbytes = self._pending_bytes - keep
        if keep:
            last = memoryview(parts[-1])
            cut = len(last) - keep
            parts[-1] = last[:cut]
            self._pending.append(last[cut:])
        self._pending_bytes = keep
        self._write(parts, nbytes)

    def _take_pending(self) -> list:
        """Remove every pending buffer, for a sink that moves elsewhere."""
        taken, self._pending = self._pending, []
        self._pending_bytes = 0
        return taken

    def flush(self) -> None:
        self._check_open()
        if self._pending_bytes:
            self._write_pending()

    def sync(self) -> None:
        self.flush()
        self._sync()

    def close(self) -> None:
        if self._closed:
            return
        try:
            if self._pending_bytes:
                self._write_pending()
        finally:
            self._closed = True
            self._close()


class RandomAccessFile:
    """Positioned reads over an immutable file."""

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at ``offset`` (short read only at EOF)."""
        raise NotImplementedError

    def size(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "RandomAccessFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SequentialFile:
    """Forward-only reads (WAL recovery)."""

    def read(self, nbytes: int) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "SequentialFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Env:
    """Filesystem namespace + file factories."""

    def new_writable_file(self, path: str) -> WritableFile:
        raise NotImplementedError

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        raise NotImplementedError

    def new_sequential_file(self, path: str) -> SequentialFile:
        raise NotImplementedError

    def file_exists(self, path: str) -> bool:
        raise NotImplementedError

    def file_size(self, path: str) -> int:
        raise NotImplementedError

    def delete_file(self, path: str) -> None:
        raise NotImplementedError

    def rename_file(self, src: str, dst: str) -> None:
        raise NotImplementedError

    def create_dir(self, path: str) -> None:
        """Create a directory (and parents); idempotent."""
        raise NotImplementedError

    def get_children(self, path: str) -> list[str]:
        """Names (not paths) of entries directly under ``path``."""
        raise NotImplementedError

    def join(self, *parts: str) -> str:
        return "/".join(p.rstrip("/") for p in parts if p)

    # -- advisory database locking ---------------------------------------

    def lock_file(self, path: str) -> object:
        """Take an exclusive advisory lock (LevelDB's LOCK file).

        Returns an opaque token for :meth:`unlock_file`; raises
        :class:`StorageIOError` if another holder owns it.  The base
        implementation uses an in-process registry, which is what the
        in-memory and simulated environments need; :class:`LocalFsEnv`
        adds OS-level exclusivity.
        """
        holders = getattr(self, "_lock_holders", None)
        if holders is None:
            holders = self._lock_holders = set()
        if path in holders:
            raise StorageIOError(f"database already locked: {path}")
        holders.add(path)
        return path

    def unlock_file(self, token: object) -> None:
        """Release a lock taken by :meth:`lock_file`."""
        holders = getattr(self, "_lock_holders", set())
        holders.discard(token)


# ---------------------------------------------------------------------------
# Local filesystem
# ---------------------------------------------------------------------------


#: a local file's pending appends leave in ``os.writev`` calls of this size
_COALESCE_BYTES = 1 << 20

#: most buffers one ``os.writev`` accepts
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _LocalWritableFile(BufferedWritableFile):
    """Append-only local file; the sink is ``os.writev`` on the raw
    descriptor: no join copy, and the GIL is released for the whole
    batch.  After :meth:`close` every write raises, because the
    descriptor number may already name another file."""

    def __init__(self, path: str):
        try:
            self._fh = open(path, "wb", buffering=0)
        except OSError as exc:
            raise StorageIOError(str(exc)) from exc
        super().__init__(path, _COALESCE_BYTES)
        self._fd = self._fh.fileno()

    def _write(self, parts: list, nbytes: int) -> None:
        while True:
            written = os.writev(self._fd, parts[:_IOV_MAX])
            nbytes -= written
            if not nbytes:
                return
            # A short write, or the end of one ``_IOV_MAX`` slice: drop
            # what landed and resume inside the first remainder.
            i = 0
            while written >= len(parts[i]):
                written -= len(parts[i])
                i += 1
            parts = [memoryview(parts[i])[written:], *parts[i + 1:]]

    def _sync(self) -> None:
        os.fsync(self._fd)

    def _close(self) -> None:
        self._fh.close()


class _LocalRandomAccessFile(RandomAccessFile):
    """Positional reads of one host file.

    Each :meth:`read` is an ``os.pread`` (looped over short reads) on the
    file's descriptor, so concurrent readers need no lock and never move a
    file position.  With ``use_mmap`` reads copy out of a read-only map.
    A read that reaches end of file returns the bytes that exist; callers
    check the length.  The descriptor belongs to an unbuffered file
    object, so a reader dropped without :meth:`close` still releases it
    when collected, and a read after :meth:`close` raises instead of
    reading whatever file later reuses the descriptor number.
    """

    def __init__(self, path: str, use_mmap: bool):
        try:
            self._fh = open(path, "rb", buffering=0)
        except FileNotFoundError as exc:
            raise NotFoundError(str(exc)) from exc
        except OSError as exc:
            raise StorageIOError(str(exc)) from exc
        self._mm = None
        try:
            self._size = os.fstat(self._fh.fileno()).st_size
            if use_mmap and self._size > 0:
                import mmap

                self._mm = mmap.mmap(
                    self._fh.fileno(), self._size, access=mmap.ACCESS_READ
                )
        except BaseException:
            self._fh.close()
            raise

    def read(self, offset: int, nbytes: int) -> bytes:
        if self._mm is not None:
            return bytes(self._mm[offset : offset + nbytes])
        fd = self._fh.fileno()  # ValueError once closed
        data = os.pread(fd, nbytes, offset)
        while len(data) < nbytes:  # a short read: resume where it stopped
            more = os.pread(fd, nbytes - len(data), offset + len(data))
            if not more:  # end of file
                break
            data += more
        return data

    def size(self) -> int:
        return self._size

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        self._fh.close()


class _LocalSequentialFile(SequentialFile):
    def __init__(self, path: str):
        try:
            self._fh = open(path, "rb")
        except FileNotFoundError as exc:
            raise NotFoundError(str(exc)) from exc

    def read(self, nbytes: int) -> bytes:
        return self._fh.read(nbytes)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class LocalFsEnv(Env):
    """Real files under the host filesystem."""

    def __init__(self, use_mmap_reads: bool = False):
        self.use_mmap_reads = use_mmap_reads

    def new_writable_file(self, path: str) -> WritableFile:
        return _LocalWritableFile(path)

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        return _LocalRandomAccessFile(path, self.use_mmap_reads)

    def new_sequential_file(self, path: str) -> SequentialFile:
        return _LocalSequentialFile(path)

    def file_exists(self, path: str) -> bool:
        return os.path.exists(path)

    def file_size(self, path: str) -> int:
        try:
            return os.path.getsize(path)
        except FileNotFoundError as exc:
            raise NotFoundError(str(exc)) from exc

    def delete_file(self, path: str) -> None:
        try:
            os.remove(path)
        except FileNotFoundError as exc:
            raise NotFoundError(str(exc)) from exc

    def rename_file(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def create_dir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def get_children(self, path: str) -> list[str]:
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError as exc:
            raise NotFoundError(str(exc)) from exc

    def join(self, *parts: str) -> str:
        return os.path.join(*parts)

    def lock_file(self, path: str) -> object:
        """O_EXCL-based exclusive lock, robust across processes.

        A stale LOCK file from a crashed process is broken if its
        recorded PID no longer exists.
        """
        super().lock_file(path)  # in-process exclusivity first
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            stale = False
            try:
                with open(path) as fh:
                    pid = int(fh.read().strip() or 0)
                if pid and not _pid_alive(pid):
                    stale = True
            except (OSError, ValueError):
                stale = True
            if not stale:
                super().unlock_file(path)
                raise StorageIOError(
                    f"database locked by another process: {path}"
                )
            os.remove(path)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return path

    def unlock_file(self, token: object) -> None:
        super().unlock_file(token)
        try:
            os.remove(token)
        except FileNotFoundError:
            pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


# ---------------------------------------------------------------------------
# In-memory filesystem
# ---------------------------------------------------------------------------


class _MemFile:
    """Chunked in-memory file contents.

    Appends collect immutable chunks instead of extending one big
    bytearray — extending reallocates (and memcpys) the whole file every
    time the allocator's headroom runs out, which dominates large-value
    write benchmarks.  Readers join once, lazily.
    """

    __slots__ = ("chunks", "length")

    def __init__(self):
        self.chunks: list[bytes] = []
        self.length = 0

    def snapshot(self) -> bytes:
        """Contents as one immutable bytes; collapses the chunk list."""
        if len(self.chunks) == 1 and isinstance(self.chunks[0], bytes):
            return self.chunks[0]
        data = b"".join(self.chunks)
        self.chunks = [data]
        return data

    @property
    def data(self) -> bytearray:
        """Whole contents as one mutable chunk (fault-injection hook).

        Tests flip bytes in place through this; the returned bytearray IS
        the backing chunk, so mutations are visible to later readers.
        """
        if len(self.chunks) != 1 or not isinstance(self.chunks[0], bytearray):
            self.chunks = [bytearray(b"".join(self.chunks))]
        return self.chunks[0]

    @data.setter
    def data(self, contents) -> None:
        """Replace the whole contents (tests truncate/corrupt via this)."""
        self.chunks = [bytearray(contents)]
        self.length = len(self.chunks[0])


class _MemWritableFile(WritableFile):
    """Appends land in the file at once: there is nothing to flush."""

    def __init__(self, path: str, mem: _MemFile):
        self._path = path
        self._mem = mem
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise StorageIOError(f"write to closed file {self._path}")

    def append(self, data: bytes) -> None:
        # bytes(data) is free for bytes input and one exact-size copy for
        # bytearray/memoryview input (callers reuse their scratch buffers).
        self.append_owned(bytes(data))

    def append_owned(self, data) -> None:
        # Ownership transferred: keep the caller's bytearray as the chunk.
        self._check_open()
        chunk = data if isinstance(data, bytearray) else bytes(data)
        self._mem.chunks.append(chunk)
        self._mem.length += len(chunk)

    def flush(self) -> None:
        self._check_open()

    def sync(self) -> None:
        self._check_open()

    def close(self) -> None:
        self._closed = True


class _MemRandomAccessFile(RandomAccessFile):
    def __init__(self, mem: _MemFile):
        self._data = mem.snapshot()

    def read(self, offset: int, nbytes: int) -> bytes:
        return self._data[offset : offset + nbytes]

    def size(self) -> int:
        return len(self._data)

    def close(self) -> None:
        pass


class _MemSequentialFile(SequentialFile):
    def __init__(self, mem: _MemFile):
        self._data = mem.snapshot()
        self._pos = 0

    def read(self, nbytes: int) -> bytes:
        out = self._data[self._pos : self._pos + nbytes]
        self._pos += len(out)
        return out

    def close(self) -> None:
        pass


class MemEnv(Env):
    """A purely in-memory filesystem; paths are flat strings with ``/``."""

    def __init__(self):
        self._files: dict[str, _MemFile] = {}
        self._dirs: set[str] = {""}
        self._lock = threading.Lock()

    @staticmethod
    def _norm(path: str) -> str:
        return path.strip("/").replace("//", "/")

    def new_writable_file(self, path: str) -> WritableFile:
        with self._lock:
            mem = _MemFile()
            self._files[self._norm(path)] = mem
            return _MemWritableFile(path, mem)

    def _lookup(self, path: str) -> _MemFile:
        try:
            return self._files[self._norm(path)]
        except KeyError as exc:
            raise NotFoundError(f"no such file: {path}") from exc

    def new_random_access_file(self, path: str) -> RandomAccessFile:
        with self._lock:
            return _MemRandomAccessFile(self._lookup(path))

    def new_sequential_file(self, path: str) -> SequentialFile:
        with self._lock:
            return _MemSequentialFile(self._lookup(path))

    def file_exists(self, path: str) -> bool:
        with self._lock:
            return self._norm(path) in self._files

    def file_size(self, path: str) -> int:
        with self._lock:
            return self._lookup(path).length

    def delete_file(self, path: str) -> None:
        with self._lock:
            try:
                del self._files[self._norm(path)]
            except KeyError as exc:
                raise NotFoundError(f"no such file: {path}") from exc

    def rename_file(self, src: str, dst: str) -> None:
        with self._lock:
            try:
                self._files[self._norm(dst)] = self._files.pop(self._norm(src))
            except KeyError as exc:
                raise NotFoundError(f"no such file: {src}") from exc

    def create_dir(self, path: str) -> None:
        with self._lock:
            norm = self._norm(path)
            pieces = norm.split("/")
            for i in range(1, len(pieces) + 1):
                self._dirs.add("/".join(pieces[:i]))

    def get_children(self, path: str) -> list[str]:
        norm = self._norm(path)
        prefix = norm + "/" if norm else ""
        with self._lock:
            if norm not in self._dirs and not any(
                name.startswith(prefix) for name in self._files
            ):
                raise NotFoundError(f"no such directory: {path}")
            children: set[str] = set()
            for name in self._files:
                if name.startswith(prefix):
                    children.add(name[len(prefix):].split("/", 1)[0])
            for name in self._dirs:
                if name.startswith(prefix) and name != norm:
                    children.add(name[len(prefix):].split("/", 1)[0])
            return sorted(children)
