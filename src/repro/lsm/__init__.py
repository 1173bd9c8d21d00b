"""A complete log-structured merge-tree storage engine in Python.

This package is a from-scratch reimplementation of the LevelDB/RocksDB
architecture that the paper's LSMIO library builds on (§2.2, §3.1.1):

- an in-memory **MemTable** (the C0 tree): one list kept in internal-key
  order, appended to by ascending checkpoint keys and bisected otherwise
  (:mod:`repro.lsm.memtable`);
- an optional **write-ahead log** with LevelDB's exact record framing
  (:mod:`repro.lsm.wal`);
- immutable on-disk **SSTables** (the C1..Ck trees) with prefix-compressed
  data blocks, a binary-searchable index block, bloom filters and a magic
  footer (:mod:`repro.lsm.block`, :mod:`repro.lsm.bloom`,
  :mod:`repro.lsm.sstable`);
- **leveled compaction** with a manifest/version set
  (:mod:`repro.lsm.manifest`, :mod:`repro.lsm.compaction`);
- an **LRU block cache** (:mod:`repro.lsm.cache`);
- atomic **write batches** (:mod:`repro.lsm.batch`) and merging iterators
  (:mod:`repro.lsm.iterator`);
- the top-level :class:`repro.lsm.db.DB` tying it together.

Every customization the paper applies to RocksDB (§3.1.1) is a first-class
option here: disable WAL, disable compression, disable caching, disable
compaction, sync vs. async writes, mmap reads, write-buffer size and block
size (:mod:`repro.lsm.options`).

The engine runs against an :class:`~repro.lsm.env.Env` abstraction so the
same code stores real bytes on a local filesystem (the standalone library)
or on the simulated Lustre file system under a discrete-event clock (the
paper's cluster experiments).
"""

from repro.lsm.batch import WriteBatch
from repro.lsm.db import DB
from repro.lsm.env import Env, LocalFsEnv, MemEnv
from repro.lsm.options import (
    ChecksumType,
    CompressionType,
    Options,
    ReadOptions,
    WriteOptions,
)

__all__ = [
    "DB",
    "ChecksumType",
    "CompressionType",
    "Env",
    "LocalFsEnv",
    "MemEnv",
    "Options",
    "ReadOptions",
    "WriteBatch",
    "WriteOptions",
]
