"""The Env conformance suite: LocalFsEnv, MemEnv, SimLustreEnv, the
burst buffer and FaultyEnv keep one contract, then the local Env's own
read and descriptor behaviour."""

import contextlib
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

from repro import sim
from repro.bb import BurstBufferTier
from repro.bb import tier as tier_module
from repro.errors import NotFoundError, StorageIOError
from repro.fault import FaultyEnv
from repro.lsm import DB, Options
from repro.lsm import env as env_module
from repro.lsm.env import LocalFsEnv, MemEnv
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster

KINDS = ["local", "mem", "sim", "bb", "faulty"]


def run_on(kind, body, chunk=None):
    """``body(env, root)`` on a fresh Env of ``kind``; returns its result.

    ``chunk`` is the write size of the buffered Envs (local, sim, bb).
    ``sim`` and ``bb`` (a burst-buffer tier over a ``MemEnv``) run inside
    a simulated process; ``faulty`` is a ``FaultyEnv`` over a ``MemEnv``.
    """
    if kind == "mem":
        return body(MemEnv(), "root")
    if kind == "faulty":
        return body(FaultyEnv(MemEnv()), "root")
    with contextlib.ExitStack() as stack:
        if kind == "local":
            if chunk:
                stack.enter_context(
                    mock.patch.object(env_module, "_COALESCE_BYTES", chunk)
                )
            tmp = stack.enter_context(tempfile.TemporaryDirectory())
            return body(LocalFsEnv(), os.path.join(tmp, "root"))
        if chunk:
            stack.enter_context(
                mock.patch.object(tier_module, "_WRITE_BUFFER", chunk)
            )
        engine = stack.enter_context(sim.Engine())
        if kind == "sim":
            cluster = LustreCluster(engine, small_test_cluster())
            env = SimLustreEnv(
                LustreClient(cluster, 0), write_buffer=chunk or "4M"
            )
            proc = engine.spawn(body, env, "root")
        else:
            proc = engine.spawn(
                lambda: body(BurstBufferTier(MemEnv()).env, "root")
            )
        engine.run()
        return proc.result


def read_all(env, path):
    with env.new_random_access_file(path) as fh:
        return fh.read(0, env.file_size(path))


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


def apply_ops(fh, ops):
    """Run an ``_appends`` script on ``fh``; the appended bytes."""
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
            fh.append(scratch if kind == "bytearray" else memoryview(scratch))
            # Callers reuse their scratch as soon as append returns.
            scratch[:] = bytes(b ^ 0xFF for b in scratch)
    return b"".join(op[1] for op in ops if len(op) == 2)


@pytest.mark.parametrize("kind", KINDS)
class TestEnvContract:
    def test_write_then_read(self, kind):
        def body(env, root):
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

        run_on(kind, body)

    def test_read_past_eof_is_short(self, kind):
        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            with env.new_writable_file(path) as fh:
                fh.append(b"abc")
            with env.new_random_access_file(path) as fh:
                assert fh.read(2, 100) == b"c"
                assert fh.read(50, 10) == b""

        run_on(kind, body)

    def test_sequential_read(self, kind):
        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            with env.new_writable_file(path) as fh:
                fh.append(b"0123456789")
            with env.new_sequential_file(path) as fh:
                assert fh.read(4) == b"0123"
                assert fh.read(4) == b"4567"
                assert fh.read(4) == b"89"
                assert fh.read(4) == b""

        run_on(kind, body)

    def test_missing_file_raises(self, kind):
        def body(env, root):
            env.create_dir(root)
            with pytest.raises(NotFoundError):
                env.new_random_access_file(env.join(root, "nope"))
            with pytest.raises(NotFoundError):
                env.file_size(env.join(root, "nope"))
            with pytest.raises(NotFoundError):
                env.delete_file(env.join(root, "nope"))

        run_on(kind, body)

    def test_delete(self, kind):
        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            env.new_writable_file(path).close()
            env.delete_file(path)
            assert not env.file_exists(path)

        run_on(kind, body)

    def test_rename_replaces(self, kind):
        def body(env, root):
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

        run_on(kind, body)

    def test_get_children(self, kind):
        def body(env, root):
            env.create_dir(root)
            for name in ("b", "a", "c"):
                env.new_writable_file(env.join(root, name)).close()
            assert env.get_children(root) == ["a", "b", "c"]

        run_on(kind, body)

    def test_get_children_missing_dir_raises(self, kind):
        def body(env, root):
            with pytest.raises(NotFoundError):
                env.get_children(env.join(root, "missing-dir"))

        run_on(kind, body)

    def test_create_dir_idempotent(self, kind):
        def body(env, root):
            env.create_dir(root)
            env.create_dir(root)
            assert env.get_children(root) == []

        run_on(kind, body)

    def test_overwrite_truncates(self, kind):
        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            with env.new_writable_file(path) as fh:
                fh.append(b"long content here")
            with env.new_writable_file(path) as fh:
                fh.append(b"x")
            assert env.file_size(path) == 1

        run_on(kind, body)

    @settings(deadline=None)
    @given(ops=_appends, chunk=st.integers(1, 64))
    def test_file_holds_the_appended_bytes_in_order(self, kind, ops, chunk):
        """Owned and non-owned appends, reused caller scratch, flushes and
        syncs anywhere, any write size: the file holds exactly the
        appended bytes."""

        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            fh = env.new_writable_file(path)
            appended = apply_ops(fh, ops)
            fh.close()
            return appended, read_all(env, path)

        appended, stored = run_on(kind, body, chunk)
        assert stored == appended

    def test_flushed_bytes_are_readable_before_close(self, kind):
        def body(env, root):
            env.create_dir(root)
            path = env.join(root, "f")
            fh = env.new_writable_file(path)
            fh.append(b"first ")
            fh.append_owned(bytearray(b"second"))
            fh.flush()
            seen = read_all(env, path)
            fh.append(b" third")
            fh.close()
            return seen, read_all(env, path)

        assert run_on(kind, body) == (b"first second", b"first second third")

    def test_writes_after_close_raise(self, kind):
        def body(env, root):
            env.create_dir(root)
            a_path, b_path = env.join(root, "a"), env.join(root, "b")
            a = env.new_writable_file(a_path)
            a.append(b"AAA")
            a.close()
            # ``b`` may reuse the descriptor number ``a`` released: a late
            # write through ``a`` must not land in it.
            b = env.new_writable_file(b_path)
            b.append(b"BBB")
            b.flush()
            clock = sim.now() if kind in ("sim", "bb") else None
            for late in (
                lambda: a.append(b"STALE"),
                lambda: a.append_owned(bytearray(b"STALE")),
                a.flush,
                a.sync,
            ):
                with pytest.raises(StorageIOError, match="closed"):
                    late()
            if clock is not None:
                assert sim.now() == clock  # no I/O charged after close
            a.close()  # still idempotent
            b.close()
            return read_all(env, a_path), read_all(env, b_path)

        assert run_on(kind, body) == (b"AAA", b"BBB")

    def test_synced_bytes_survive_a_crash(self, kind):
        durable, tail = b"synced " * 64, b"at risk " * 64

        def body(env, root):
            env = env if isinstance(env, FaultyEnv) else FaultyEnv(env)
            env.create_dir(root)
            path = env.join(root, "f")
            fh = env.new_writable_file(path)
            fh.append(durable)
            fh.sync()
            fh.append(tail[:256])
            fh.flush()
            fh.append(tail[256:])
            env.crash()
            stored = read_all(env, path)
            fh.close()  # release the dead writer; the file was read first
            return stored

        stored = run_on(kind, body, chunk=100)
        assert stored.startswith(durable)
        assert (durable + tail).startswith(stored)


class TestLocalShortWrites:
    @settings(deadline=None)
    @given(ops=_appends, chunk=st.integers(1, 64),
           dribble=st.integers(1, 16), iov_max=st.integers(1, 4))
    def test_short_writevs_resume_where_they_stopped(
        self, ops, chunk, dribble, iov_max
    ):
        """Each ``os.writev`` takes at most ``_IOV_MAX`` buffers and may
        write only ``dribble`` bytes; the file still holds every byte."""
        calls = []

        def short_writev(fd, bufs):
            calls.append(len(bufs))
            return os.write(fd, b"".join(bufs)[:dribble])

        def body(env, root):
            fh = env.new_writable_file(root)
            appended = apply_ops(fh, ops)
            fh.close()
            with open(root, "rb") as stored:
                return appended, stored.read()

        with mock.patch.object(os, "writev", short_writev), \
                mock.patch.object(env_module, "_IOV_MAX", iov_max):
            appended, stored = run_on("local", body, chunk)
        assert stored == appended
        assert all(n <= iov_max for n in calls)


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


class TestMemEnvNesting:
    def test_nested_children(self):
        env = MemEnv()
        env.create_dir("a/b")
        env.new_writable_file("a/b/f1").close()
        env.new_writable_file("a/c").close()
        assert env.get_children("a") == ["b", "c"]
        assert env.get_children("a/b") == ["f1"]
