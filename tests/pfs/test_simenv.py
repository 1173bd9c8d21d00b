"""Tests for SimLustreEnv: the real LSM engine on simulated Lustre."""

import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import sim
from repro.bb import BurstBufferTier
from repro.bb import tier as bb_tier
from repro.lsm import DB, Options
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster


def run_sim(fn, config=None, **env_kwargs):
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config or small_test_cluster())
        client = LustreClient(cluster, 0)
        env = SimLustreEnv(client, **env_kwargs)

        proc = engine.spawn(fn, env)
        elapsed = engine.run()
        return proc.result, cluster, elapsed


class TestWriteBatching:
    def test_small_appends_batch_into_large_rpcs(self):
        def main(env):
            with env.new_writable_file("f") as fh:
                for _ in range(4096):
                    fh.append(b"x" * 256)  # 1 MiB of 256-byte appends
                fh.sync()
            return None

        _, cluster, _ = run_sim(
            main, config=small_test_cluster(rpc_size="1M"), write_buffer="1M"
        )
        total_rpcs = sum(ost.stats.requests for ost in cluster.osts)
        # 1 MiB at 64K stripes over 2 OSTs → a few large RPCs, not 4096.
        assert total_rpcs <= 16


class TestAppendsAreNotCopied:
    def test_64mib_of_bytes_appends_allocate_under_1mib(self):
        payload = bytes(range(256)) * 256  # 64 KiB, appended 1,024 times
        count = (64 << 20) // len(payload)

        def main(env):
            fh = env.new_writable_file("f")
            tracemalloc.start()
            try:
                for _ in range(count):
                    fh.append(payload)
                fh.close()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            with env.new_random_access_file("f") as reader:
                # A span across two appended buffers and a 4 MiB write.
                across = reader.read((4 << 20) - 100, 200)
                return peak, reader.size(), across

        (peak, size, across), _, _ = run_sim(main)
        assert size == 64 << 20
        assert across == payload[-100:] + payload[:100]
        # The bytes go to the file by reference: neither the write buffer
        # nor the stored file copies them.
        assert peak < 1 << 20


class TestLsmOnSimulatedLustre:
    def test_db_full_cycle_on_lustre(self):
        def main(env):
            options = Options(
                enable_wal=False,
                enable_compaction=False,
                enable_block_cache=False,
                write_buffer_size="256K",
            )
            db = DB.open("rank0/db", options, env=env)
            for i in range(64):
                db.put(f"ckpt/block{i:04d}".encode(), bytes(4096))
            db.flush()
            value = db.get(b"ckpt/block0042")
            db.close()
            return value, sim.now()

        (value, elapsed), cluster, _ = run_sim(main)
        assert value == bytes(4096)
        assert elapsed > 0
        assert cluster.total_bytes_written() > 64 * 4096  # data + table overhead

    def test_db_reopen_on_lustre(self):
        def main(env):
            options = Options(enable_wal=False, write_buffer_size="64K")
            db = DB.open("db", options, env=env)
            db.put(b"k", b"v" * 1000)
            db.close()
            db2 = DB.open("db", options, env=env)
            value = db2.get(b"k")
            db2.close()
            return value

        value, _, _ = run_sim(main)
        assert value == b"v" * 1000

    def test_flush_writes_sequentially_to_osts(self):
        """An LSM flush must be (almost) all-sequential disk traffic —
        the paper's core mechanism."""

        def main(env):
            options = Options(
                enable_wal=False,
                enable_compaction=False,
                write_buffer_size="8M",
                block_size="64K",
                checksum="none",
            )
            db = DB.open("db", options, env=env)
            for i in range(256):
                db.put(f"key{i:05d}".encode(), bytes(65536))  # 16 MiB total
            db.close()
            return None

        _, cluster, _ = run_sim(
            main, config=small_test_cluster(rpc_size="4M", num_osts=4)
        )
        bytes_written = cluster.total_bytes_written()
        requests = sum(ost.stats.requests for ost in cluster.osts)
        # The flush must reach the disks as few, large extents (the LSM
        # write path's whole point) — not per-entry small writes.
        assert bytes_written / requests >= 1 << 20


class _ReferenceWriter:
    """The write stream of a single growing ``bytearray`` buffer: every
    append is copied in, and each ``buffer_size`` bytes (then the tail,
    at flush/sync/close) leave as one ``bytes`` chunk."""

    def __init__(self, buffer_size: int):
        self.buffer_size = buffer_size
        self.buffer = bytearray()
        self.offset = 0
        self.writes: list = []

    def append(self, data) -> None:
        self.buffer += data
        while len(self.buffer) >= self.buffer_size:
            self._emit(self.buffer_size)

    def _emit(self, nbytes: int) -> None:
        chunk = bytes(self.buffer[:nbytes])
        del self.buffer[:nbytes]
        self.writes.append((self.offset, chunk))
        self.offset += len(chunk)

    def flush(self) -> None:
        if self.buffer:
            self._emit(len(self.buffer))


@st.composite
def _write_scripts(draw):
    buffer_size = draw(st.integers(1, 48))
    append = st.tuples(
        st.sampled_from(["bytes", "bytearray", "memoryview", "owned"]),
        st.binary(max_size=3 * buffer_size),
    )
    op = st.one_of(append, st.sampled_from([("flush",), ("sync",)]))
    return buffer_size, draw(st.lists(op, max_size=24))


def _drive(fh, ops, reference) -> bytes:
    """Run a ``_write_scripts`` script on ``fh`` and on ``reference``;
    returns the appended bytes."""
    for op in ops:
        if op[0] in ("flush", "sync"):
            getattr(fh, op[0])()
            reference.flush()
            continue
        kind, payload = op
        reference.append(payload)
        if kind == "bytes":
            fh.append(payload)
        elif kind == "owned":
            fh.append_owned(bytearray(payload))
        else:
            scratch = bytearray(payload)
            fh.append(scratch if kind == "bytearray" else memoryview(scratch))
            # Callers reuse their scratch as soon as append returns.
            scratch[:] = bytes(b ^ 0xFF for b in scratch)
    fh.close()
    reference.flush()
    return b"".join(op[1] for op in ops if len(op) == 2)


class TestWriteBufferByteIdentity:
    @settings(deadline=None)
    @given(script=_write_scripts())
    def test_writes_match_a_copying_bytearray_buffer(self, script):
        buffer_size, ops = script
        reference = _ReferenceWriter(buffer_size)

        def main(env):
            writes = []
            write = env.client.write

            def recording(file, offset, data):
                # A list is one range handed over in pieces.
                chunk = b"".join(data) if type(data) is list else bytes(data)
                writes.append((file.path, offset, chunk))
                return write(file, offset, data)

            env.client.write = recording
            appended = _drive(env.new_writable_file("f"), ops, reference)
            size = env.file_size("f")
            with env.new_random_access_file("f") as reader:
                return writes, appended, reader.read(0, size)

        (writes, appended, stored), _, _ = run_sim(
            main, write_buffer=buffer_size
        )
        assert writes == [("f", off, chunk) for off, chunk in reference.writes]
        assert stored == appended
        # The file keeps written buffers by reference, so it must still
        # hold what each write carried when it was made: a buffer changed
        # after the handoff would show here.
        replayed = bytearray()
        for _, offset, chunk in writes:
            replayed[offset:offset + len(chunk)] = chunk
        assert stored == replayed

    @settings(deadline=None)
    @given(script=_write_scripts())
    def test_burst_buffer_absorbs_match_a_copying_bytearray_buffer(
        self, script
    ):
        """The burst buffer over this Env absorbs the same chunks."""
        buffer_size, ops = script
        reference = _ReferenceWriter(buffer_size)

        def main(env):
            tier = BurstBufferTier(env)
            absorbs = []
            absorb = tier._absorb

            def recording(path, chunk):
                absorbs.append((path, chunk))
                return absorb(path, chunk)

            tier._absorb = recording
            appended = _drive(tier.env.new_writable_file("f"), ops, reference)
            with tier.env.new_sequential_file("f") as reader:
                return absorbs, appended, reader.read(len(appended) + 1)

        with mock.patch.object(bb_tier, "_WRITE_BUFFER", buffer_size):
            (absorbs, appended, stored), _, _ = run_sim(main)
        assert absorbs == [("f", chunk) for _, chunk in reference.writes]
        assert stored == appended
