"""Byte pins for every on-disk format that embeds a CRC-32C.

Each format is written from fixed inputs and compared with bytes captured
before a CRC kernel swap (the per-row loop, then the 16-byte-lane kernel):
a checksum implementation swap must not change one byte of a WAL, an
SSTable or a drain journal.  The inputs are sized so every kernel path
runs: the small WAL payload and SSTable data blocks exceed
``repro.util.crc._SMALL`` but not one slab (``_SLAB``), each 32 KiB
fragment of the 200 KiB WAL record chains two slabs and the 200 KiB table
block thirteen, and the record type bytes, short records and journal
frame stay below ``_SMALL``.

The last two tests take the real flush path on ``LocalFsEnv``, where a
table's writes and write-back run on a writer thread behind the build: its
SSTable must be byte-identical to the inline ``MemEnv`` flush, and a crash
right after a synced barrier must keep every acknowledged key.
"""

import hashlib
import os
import random

from repro import sim
from repro.bb import BurstBufferConfig, BurstBufferDevice, DrainJournal
from repro.bb.journal import JOURNAL_BLOB
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.core import LsmioManager, LsmioOptions
from repro.fault import FaultyEnv
from repro.lsm import DB
from repro.lsm.env import LocalFsEnv, MemEnv
from repro.lsm.executors import SyncExecutor, ThreadExecutor
from repro.lsm.options import ChecksumType, Options
from repro.lsm.sstable import TableBuilder
from repro.lsm.wal import LogWriter
from repro.util.crc import _SLAB, _SMALL

WAL_PAYLOAD = bytes(range(256)) * 5 + b"tail!"
#: one record or block spanning many slabs and ending in a partial lane
MULTI_SLAB_PAYLOAD = random.Random(200).randbytes(200 << 10)


def read_all(env, path):
    return env.new_random_access_file(path).read(0, env.file_size(path))


def test_wal_records_under_crc32c():
    env = MemEnv()
    writer = LogWriter(env.new_writable_file("wal"), checksum=ChecksumType.CRC32C)
    writer.add_record(WAL_PAYLOAD)
    writer.add_record(b"short")
    writer.close()
    assert _SMALL < len(WAL_PAYLOAD) < _SLAB
    assert read_all(env, "wal") == (
        bytes.fromhex("ec3b93ef050501") + WAL_PAYLOAD
        + bytes.fromhex("2e263e1205000173686f7274")
    )


def test_sstable_under_crc32c():
    env = MemEnv()
    dest = env.new_writable_file("t.sst")
    builder = TableBuilder(Options(checksum=ChecksumType.CRC32C), dest)
    for i in range(8):
        key = encode_internal_key(f"key{i:03d}".encode(), i + 1, ValueType.VALUE)
        builder.add(key, bytes([i]) * 200)
    builder.finish()
    dest.close()
    table = read_all(env, "t.sst")
    assert len(table) == 1977
    assert hashlib.sha256(table).hexdigest() == (
        "a1bc57f0711de677000f2ae3f68a9492dd3bd9165800a52c599b392c13f7e45c"
    )


def test_multi_slab_wal_record_under_crc32c():
    env = MemEnv()
    writer = LogWriter(env.new_writable_file("wal"), checksum=ChecksumType.CRC32C)
    writer.add_record(MULTI_SLAB_PAYLOAD)
    writer.close()
    wal = read_all(env, "wal")
    assert len(wal) == 204849
    assert hashlib.sha256(wal).hexdigest() == (
        "93320202800628b89d0eab17528c1866273b8045c37b689ef216e4b33ccd2a3d"
    )


def test_multi_slab_sstable_block_under_crc32c():
    env = MemEnv()
    dest = env.new_writable_file("t.sst")
    builder = TableBuilder(Options(checksum=ChecksumType.CRC32C), dest)
    builder.add(encode_internal_key(b"big", 1, ValueType.VALUE), MULTI_SLAB_PAYLOAD)
    builder.finish()
    dest.close()
    table = read_all(env, "t.sst")
    assert len(table) == 205084
    assert hashlib.sha256(table).hexdigest() == (
        "c49e1e55335cc3189f92a93c0a1cfbe3edf3de20d7848eb4d4191618153cddac"
    )


def test_drain_journal_record():
    device = BurstBufferDevice(sim.Engine(), BurstBufferConfig())
    DrainJournal(device).seal("db/000007.sst", 1 << 20, 0x1234ABCD)
    assert device.read(JOURNAL_BLOB, 0, device.size(JOURNAL_BLOB)) == bytes.fromhex(
        "1b0000003e2a221b010d64622f3030303030372e737374"
        "0000100000000000cdab3412"
    )


#: 12 MiB of 64 KiB values: one table large enough for the flush's writer
#: thread to start and for write-back (every 8 MiB) to fire
FLUSH_VALUES = [random.Random(i).randbytes(64 << 10) for i in range(192)]


class _SyncCountingEnv(LocalFsEnv):
    def __init__(self):
        super().__init__()
        self.syncs = 0

    def new_writable_file(self, path):
        env, base = self, super().new_writable_file(path)
        sync = base.sync

        def counted_sync():
            env.syncs += 1
            sync()

        base.sync = counted_sync
        return base


def _flush_one_table(path, env, executor):
    db = DB.open(path, options=_flush_options(), env=env, executor=executor)
    for i, value in enumerate(FLUSH_VALUES):
        db.put(f"ckpt/var{i:08d}".encode(), value)
    db.flush()
    db.close()
    tables = [name for name in env.get_children(path) if name.endswith(".sst")]
    assert len(tables) == 1
    return hashlib.sha256(read_all(env, env.join(path, tables[0]))).hexdigest()


def _flush_options():
    return Options(write_buffer_size=64 << 20, enable_wal=False)


def test_threaded_flush_writes_the_inline_bytes(tmp_path):
    inline = _flush_one_table("db", MemEnv(), SyncExecutor())
    env = _SyncCountingEnv()
    executor = ThreadExecutor()
    try:
        threaded = _flush_one_table(str(tmp_path / "db"), env, executor)
    finally:
        executor.close()
    assert threaded == inline
    # MANIFEST writes sync too; the table adds its write-back syncs.
    baseline = _SyncCountingEnv()
    small = str(tmp_path / "small")
    db = DB.open(small, options=_flush_options(), env=baseline)
    db.put(b"k", b"v")
    db.flush()
    db.close()
    assert env.syncs >= baseline.syncs + (12 << 20) // (8 << 20)


def test_crash_after_synced_barrier_keeps_acknowledged_keys(tmp_path):
    path = str(tmp_path / "db")
    env = FaultyEnv(LocalFsEnv(), seed=7)
    manager = LsmioManager(path, LsmioOptions(), env=env)
    for i, value in enumerate(FLUSH_VALUES):
        manager.put(f"ckpt/var{i:08d}", value)
    manager.write_barrier(sync=True)
    env.crash()  # the manager is abandoned, never closed
    os.remove(os.path.join(path, "LOCK"))
    survivor = LsmioManager(path, LsmioOptions(), env=env)
    try:
        for i, value in enumerate(FLUSH_VALUES):
            assert survivor.get(f"ckpt/var{i:08d}") == value
    finally:
        survivor.close()
