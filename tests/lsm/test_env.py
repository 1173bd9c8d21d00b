"""Tests for the Env abstraction (LocalFsEnv and MemEnv behave alike)."""

import gc
import os
import random
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotFoundError, StorageIOError
from repro.lsm import DB, Options
from repro.lsm import env as env_module
from repro.lsm.env import LocalFsEnv, MemEnv


@pytest.fixture(params=["mem", "local"])
def env_root(request, tmp_path):
    if request.param == "mem":
        env = MemEnv()
        return env, "root"
    env = LocalFsEnv()
    return env, str(tmp_path / "root")


class TestEnvContract:
    def test_write_then_read(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "file")
        with env.new_writable_file(path) as fh:
            fh.append(b"hello ")
            fh.append(b"world")
            fh.flush()
            fh.sync()
        assert env.file_exists(path)
        assert env.file_size(path) == 11
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 5) == b"hello"
            assert fh.read(6, 5) == b"world"
            assert fh.size() == 11

    def test_read_past_eof_is_short(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"abc")
        with env.new_random_access_file(path) as fh:
            assert fh.read(2, 100) == b"c"
            assert fh.read(50, 10) == b""

    def test_sequential_read(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"0123456789")
        with env.new_sequential_file(path) as fh:
            assert fh.read(4) == b"0123"
            assert fh.read(4) == b"4567"
            assert fh.read(4) == b"89"
            assert fh.read(4) == b""

    def test_missing_file_raises(self, env_root):
        env, root = env_root
        env.create_dir(root)
        with pytest.raises(NotFoundError):
            env.new_random_access_file(env.join(root, "nope"))
        with pytest.raises(NotFoundError):
            env.file_size(env.join(root, "nope"))
        with pytest.raises(NotFoundError):
            env.delete_file(env.join(root, "nope"))

    def test_delete(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        env.new_writable_file(path).close()
        env.delete_file(path)
        assert not env.file_exists(path)

    def test_rename_replaces(self, env_root):
        env, root = env_root
        env.create_dir(root)
        src, dst = env.join(root, "src"), env.join(root, "dst")
        with env.new_writable_file(src) as fh:
            fh.append(b"data")
        with env.new_writable_file(dst) as fh:
            fh.append(b"old")
        env.rename_file(src, dst)
        assert not env.file_exists(src)
        with env.new_random_access_file(dst) as fh:
            assert fh.read(0, 10) == b"data"

    def test_get_children(self, env_root):
        env, root = env_root
        env.create_dir(root)
        for name in ("b", "a", "c"):
            env.new_writable_file(env.join(root, name)).close()
        assert env.get_children(root) == ["a", "b", "c"]

    def test_get_children_missing_dir_raises(self, env_root):
        env, root = env_root
        with pytest.raises(NotFoundError):
            env.get_children(env.join(root, "missing-dir"))

    def test_create_dir_idempotent(self, env_root):
        env, root = env_root
        env.create_dir(root)
        env.create_dir(root)
        assert env.get_children(root) == []

    def test_overwrite_truncates(self, env_root):
        env, root = env_root
        env.create_dir(root)
        path = env.join(root, "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"long content here")
        with env.new_writable_file(path) as fh:
            fh.append(b"x")
        assert env.file_size(path) == 1


class TestLocalMmap:
    def test_mmap_reads(self, tmp_path):
        env = LocalFsEnv(use_mmap_reads=True)
        path = str(tmp_path / "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"mmap me please")
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 4) == b"mmap"
            assert fh.read(8, 6) == b"please"

    def test_mmap_empty_file(self, tmp_path):
        env = LocalFsEnv(use_mmap_reads=True)
        path = str(tmp_path / "f")
        env.new_writable_file(path).close()
        with env.new_random_access_file(path) as fh:
            assert fh.read(0, 4) == b""


class TestLocalPositionalReads:
    def _file(self, tmp_path, contents):
        env = LocalFsEnv()
        path = str(tmp_path / "f")
        with env.new_writable_file(path) as fh:
            fh.append(contents)
        return env.new_random_access_file(path)

    def test_short_preads_are_resumed(self, tmp_path, monkeypatch):
        contents = bytes(range(256)) * 4
        pread = os.pread
        calls = []

        def dribble(fd, n, offset):
            calls.append(offset)
            return pread(fd, min(n, 3), offset)

        monkeypatch.setattr(os, "pread", dribble)
        with self._file(tmp_path, contents) as fh:
            assert fh.read(10, 100) == contents[10:110]
            assert len(calls) == 34  # ceil(100 / 3)
            # Past end of file: the bytes that exist, then a clean stop.
            assert fh.read(len(contents) - 5, 100) == contents[-5:]
            assert fh.read(len(contents) + 10, 4) == b""

    def test_concurrent_readers_share_one_descriptor(self, tmp_path):
        contents = os.urandom(1 << 16)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._file(tmp_path, contents) as fh:

                def reader(seed):
                    rng = random.Random(seed)
                    for _ in range(300):
                        offset = rng.randrange(len(contents))
                        n = rng.randrange(1, 4096)
                        if fh.read(offset, n) != contents[offset : offset + n]:
                            errors.append((offset, n))

                threads = [
                    threading.Thread(target=reader, args=(seed,))
                    for seed in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []



def _open_descriptors_to(directory):
    """Targets of this process's descriptors that lie in ``directory``."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip("no /proc/self/fd on this platform")
    prefix = os.path.realpath(directory) + os.sep
    targets = []
    for name in os.listdir(fd_dir):
        try:
            target = os.readlink(os.path.join(fd_dir, name))
        except OSError:
            continue  # the descriptor listdir itself used, now closed
        if target.startswith(prefix):
            targets.append(target)
    return targets


class TestLocalReaderLifetime:
    def test_read_after_close_raises(self, tmp_path):
        env = LocalFsEnv()
        path = str(tmp_path / "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"data")
        reader = env.new_random_access_file(path)
        reader.close()
        reader.close()  # idempotent
        with pytest.raises(ValueError):
            reader.read(0, 4)

    def test_dropped_reader_releases_its_descriptor(self, tmp_path):
        env = LocalFsEnv()
        path = str(tmp_path / "f")
        with env.new_writable_file(path) as fh:
            fh.append(b"data")
        reader = env.new_random_access_file(path)
        assert reader.read(0, 4) == b"data"
        assert _open_descriptors_to(tmp_path) == [os.path.realpath(path)]
        del reader
        gc.collect()
        assert _open_descriptors_to(tmp_path) == []

    def test_compacted_away_tables_release_their_descriptors(self, tmp_path):
        # The DB drops obsolete tables from its table cache without closing
        # them; their descriptors must still go, or every compaction keeps
        # an unlinked SSTable's disk space allocated until the process ends.
        dbdir = tmp_path / "db"
        db = DB.open(str(dbdir), Options(write_buffer_size="64K"))
        try:
            for round_ in range(6):
                for i in range(64):
                    db.put(b"k%04d" % i, b"v%d" % round_ * 50)
                db.flush()
                assert db.get(b"k0000") == b"v%d" % round_ * 50
            db.compact_range()
            assert db.get(b"k0063") == b"v5" * 50
            gc.collect()
            live = {name for name in os.listdir(dbdir) if name.endswith(".sst")}
            open_tables = [
                target
                for target in _open_descriptors_to(dbdir)
                if ".sst" in target
            ]
            assert open_tables
            assert all(
                os.path.basename(target) in live for target in open_tables
            ), open_tables
        finally:
            db.close()


class TestLocalWriterLifetime:
    def test_writes_after_close_raise_instead_of_reaching_a_reused_fd(
        self, tmp_path
    ):
        # Closing ``a`` frees its descriptor number and ``b`` typically
        # reuses it: a write through ``a``'s stale number would land in
        # ``b`` (``b"STALEBBB"``).
        env = LocalFsEnv()
        a = env.new_writable_file(str(tmp_path / "a"))
        a.append(b"AAA")
        a.close()
        b = env.new_writable_file(str(tmp_path / "b"))
        b.append(b"BBB")
        for write in (
            lambda: a.append(b"STALE"),
            lambda: a.append_owned(bytearray(b"STALE")),
            a.flush,
            a.sync,
        ):
            with pytest.raises(StorageIOError, match="closed"):
                write()
        a.close()  # still idempotent
        b.close()
        assert (tmp_path / "a").read_bytes() == b"AAA"
        assert (tmp_path / "b").read_bytes() == b"BBB"


_appends = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["bytes", "bytearray", "memoryview", "owned"]),
            st.binary(max_size=96),
        ),
        st.sampled_from([("flush",), ("sync",)]),
    ),
    max_size=24,
)


class TestLocalWriteBufferByteIdentity:
    @settings(deadline=None)
    @given(ops=_appends, coalesce=st.integers(1, 64),
           dribble=st.none() | st.integers(1, 16))
    def test_file_holds_the_appended_bytes_in_order(
        self, ops, coalesce, dribble
    ):
        """Coalesced writes, resumed short writes and reused caller
        scratch all leave exactly the appended bytes on disk."""
        writev = os.writev

        def short_writev(fd, bufs):
            if dribble is None:
                return writev(fd, bufs)
            joined = b"".join(memoryview(buf).cast("B") for buf in bufs)
            return os.write(fd, joined[:dribble])

        with tempfile.TemporaryDirectory() as root, \
                mock.patch.object(env_module, "_COALESCE_BYTES", coalesce), \
                mock.patch.object(os, "writev", short_writev):
            path = os.path.join(root, "f")
            fh = LocalFsEnv().new_writable_file(path)
            for op in ops:
                if len(op) == 1:
                    getattr(fh, op[0])()
                    continue
                kind, payload = op
                if kind == "bytes":
                    fh.append(payload)
                elif kind == "owned":
                    fh.append_owned(bytearray(payload))
                else:
                    scratch = bytearray(payload)
                    fh.append(
                        scratch if kind == "bytearray" else memoryview(scratch)
                    )
                    scratch[:] = bytes(b ^ 0xFF for b in scratch)
            fh.close()
            with open(path, "rb") as stored:
                assert stored.read() == b"".join(
                    op[1] for op in ops if len(op) == 2
                )


class TestMemEnvNesting:
    def test_nested_children(self):
        env = MemEnv()
        env.create_dir("a/b")
        env.new_writable_file("a/b/f1").close()
        env.new_writable_file("a/c").close()
        assert env.get_children("a") == ["b", "c"]
        assert env.get_children("a/b") == ["f1"]
