"""CompactionExecutor semantics: tombstone handling and scheduler routing.

Two properties pinned here:

1. Tombstones are dropped only when the compaction reaches the bottommost
   level for its key range (``drop_tombstones`` / ``is_bottommost``) —
   above that, a DELETE must survive to keep shadowing older versions.
2. Routing compaction through the prioritized I/O scheduler (strict
   policy, COMPACTION class) changes *when* bytes hit the OSTs, never
   *what* bytes: the resulting SSTables are byte-identical to the direct
   FIFO path.
"""

import pytest

from repro import sim
from repro.lsm import DB, Options
from repro.lsm.compaction import (
    CompactionExecutor,
    CompactionTask,
    is_bottommost,
)
from repro.lsm.dbformat import ValueType, encode_internal_key
from repro.lsm.manifest import FileMetaData, Version
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv
from repro.pfs.configs import small_test_cluster
from repro.sim.executor import SimExecutor


def ikey(user_key: bytes, seq: int, vtype: ValueType) -> bytes:
    return encode_internal_key(user_key, seq, vtype)


def meta(number: int, entries) -> FileMetaData:
    keys = [k for k, _ in entries]
    return FileMetaData(
        number=number,
        file_size=sum(len(k) + len(v) for k, v in entries),
        smallest=min(keys),
        largest=max(keys),
    )


class FakeBuilder:
    """TableBuilder stand-in that records entries in memory."""

    def __init__(self):
        self.entries = []
        self.first_key = None
        self.last_key = None
        self.file_size = 0
        self.num_entries = 0

    def add(self, key: bytes, value: bytes) -> None:
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        self.entries.append((key, value))
        self.num_entries += 1
        self.file_size += len(key) + len(value)


class Harness:
    """Wires a CompactionExecutor to in-memory streams and builders."""

    def __init__(self, options=None):
        self.tables = {}       # file number -> [(ikey, value)]
        self.outputs = []      # FakeBuilder per finalized output
        self._next_number = 100
        self.executor = CompactionExecutor(
            options or Options(),
            open_table_iter=lambda m: iter(self.tables[m.number]),
            new_table_writer=self._new_writer,
        )

    def add_table(self, number: int, entries) -> FileMetaData:
        self.tables[number] = list(entries)
        return meta(number, entries)

    def _new_writer(self):
        number = self._next_number
        self._next_number += 1
        builder = FakeBuilder()

        def finalize(b):
            self.outputs.append(b)
            return b.file_size

        return number, builder, finalize

    def output_entries(self):
        return [entry for b in self.outputs for entry in b.entries]


class TestTombstoneHandling:
    def _run(self, drop_tombstones: bool):
        harness = Harness()
        # Newer L0 file deletes "k"; the older target-level file still
        # holds its value plus an unrelated key.
        newer = harness.add_table(
            5, [(ikey(b"k", 10, ValueType.DELETE), b"")]
        )
        older = harness.add_table(
            3,
            [
                (ikey(b"k", 4, ValueType.VALUE), b"stale"),
                (ikey(b"z", 2, ValueType.VALUE), b"kept"),
            ],
        )
        task = CompactionTask(level=0, inputs=[[newer], [older]])
        edit = harness.executor.run(task, drop_tombstones=drop_tombstones)
        return harness, edit

    def test_tombstone_survives_above_bottommost(self):
        harness, edit = self._run(drop_tombstones=False)
        entries = harness.output_entries()
        # The shadowed value is collapsed away but the DELETE stays to
        # shadow copies at deeper levels.
        assert entries == [
            (ikey(b"k", 10, ValueType.DELETE), b""),
            (ikey(b"z", 2, ValueType.VALUE), b"kept"),
        ]
        assert {(lvl, num) for lvl, num in edit.deleted_files} == {
            (0, 5), (1, 3),
        }
        assert [lvl for lvl, _ in edit.new_files] == [1]

    def test_tombstone_dropped_at_bottommost(self):
        harness, _ = self._run(drop_tombstones=True)
        assert harness.output_entries() == [
            (ikey(b"z", 2, ValueType.VALUE), b"kept"),
        ]

    def test_is_bottommost_false_with_deeper_overlap(self):
        version = Version(num_levels=7)
        inputs = [meta(5, [(ikey(b"k", 10, ValueType.DELETE), b"")])]
        task = CompactionTask(level=1, inputs=[inputs, []])
        assert is_bottommost(version, task)

        # An overlapping file two levels down keeps the tombstone alive.
        deeper = meta(9, [(ikey(b"k", 1, ValueType.VALUE), b"ancient")])
        version.files[3].append(deeper)
        assert not is_bottommost(version, task)

        # Disjoint deeper ranges don't block dropping.
        version.files[3] = [
            meta(9, [(ikey(b"x", 1, ValueType.VALUE), b"elsewhere")])
        ]
        assert is_bottommost(version, task)


class TestSchedulerRoutedCompaction:
    """Same workload under FIFO (inline) and strict (queued) policies
    must produce byte-identical SSTables."""

    def _run_workload(self, policy: str):
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)
            if policy != "fifo":
                client.scheduler.set_policy(policy)
            env = SimLustreEnv(client)

            def main():
                options = Options(
                    write_buffer_size=4 << 10,
                    level0_file_num_compaction_trigger=2,
                    enable_compaction=True,
                )
                db = DB.open(
                    "db", options=options, env=env,
                    executor=SimExecutor(engine),
                )
                for i in range(96):
                    db.put(f"key{i:04d}".encode(), b"v" * 128)
                db.compact_range()
                stats = (db.stats.compactions, db.stats.memtable_flushes)
                db.close()

                tables = {}
                for name in sorted(env.get_children("db")):
                    if not name.endswith(".sst"):
                        continue
                    path = env.join("db", name)
                    with env.new_sequential_file(path) as fh:
                        tables[name] = fh.read(env.file_size(path))
                return stats, tables

            proc = engine.spawn(main)
            engine.run()
            return proc.result

    def test_strict_policy_is_byte_identical_to_fifo(self):
        (fifo_stats, fifo_tables) = self._run_workload("fifo")
        (strict_stats, strict_tables) = self._run_workload("strict")
        assert fifo_stats[0] > 0, "workload must actually compact"
        assert strict_stats == fifo_stats
        assert sorted(strict_tables) == sorted(fifo_tables)
        for name, blob in fifo_tables.items():
            assert strict_tables[name] == blob, f"{name} diverged"
