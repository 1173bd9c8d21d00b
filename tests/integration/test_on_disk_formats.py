"""Byte pins for every on-disk format that embeds a CRC-32C.

Each format is written from fixed inputs and compared with bytes captured
before the lane-parallel CRC kernel replaced the per-row loop: a checksum
implementation swap must not change one byte of a WAL, an SSTable or a
drain journal.  The inputs are sized so both kernel paths run: the WAL
payload and the SSTable data block exceed ``repro.util.crc._SMALL``, the
record headers, index blocks and journal frame stay below it.
"""

import hashlib

from repro import sim
from repro.bb import BurstBufferConfig, BurstBufferDevice, DrainJournal
from repro.bb.journal import JOURNAL_BLOB
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.env import MemEnv
from repro.lsm.options import ChecksumType, Options
from repro.lsm.sstable import TableBuilder
from repro.lsm.wal import LogWriter
from repro.util.crc import _SMALL

WAL_PAYLOAD = bytes(range(256)) * 5 + b"tail!"


def read_all(env, path):
    return env.new_random_access_file(path).read(0, env.file_size(path))


def test_wal_records_under_crc32c():
    env = MemEnv()
    writer = LogWriter(env.new_writable_file("wal"), checksum=ChecksumType.CRC32C)
    writer.add_record(WAL_PAYLOAD)
    writer.add_record(b"short")
    writer.close()
    assert len(WAL_PAYLOAD) > _SMALL
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


def test_drain_journal_record():
    device = BurstBufferDevice(sim.Engine(), BurstBufferConfig())
    DrainJournal(device).seal("db/000007.sst", 1 << 20, 0x1234ABCD)
    assert device.read(JOURNAL_BLOB, 0, device.size(JOURNAL_BLOB)) == bytes.fromhex(
        "1b0000003e2a221b010d64622f3030303030372e737374"
        "0000100000000000cdab3412"
    )
