"""LSMIO — the paper's contribution: an LSM-tree I/O library for checkpoints.

Three interfaces, as in §3.1 / Figure 3:

- the **K/V API** — :class:`LsmioManager` (Table 2): ``get``, ``put`` (with
  typed variants), ``append``, ``delete``, ``write_barrier``, performance
  counters, a factory, and optional MPI-collective operation;
- the **FStream API** — :class:`LsmioFStream` (Table 3): a file-stream
  facade (``open/read/write/seekp/tellp/flush/close``) storing file chunks
  in the LSM store;
- the **ADIOS2 plugin** — :class:`repro.core.plugin.LsmioPluginEngine`:
  a drop-in storage engine for the ADIOS2-style API in
  :mod:`repro.iolibs.adios2`, configured by name only.

Underneath sits :class:`LsmioStore` (Table 1), which applies the paper's
RocksDB customizations (§3.1.1): WAL, compression, caching, and compaction
disabled; sync/async writes; mmap; buffer and block size control.  A
LevelDB-style backend emulates batching via ``WriteBatch`` for engines
that cannot disable their WAL.
"""

from repro.core.checkpoint import Checkpointer, DegradedWriteReport
from repro.core.counters import PerfCounters
from repro.core.enumeration import (
    EnumerationResult,
    manifest_listing,
    readdir_storm,
    write_manifest,
)
from repro.core.fstream import LsmioFStream
from repro.core.manager import LsmioManager
from repro.core.options import Backend, LsmioOptions
from repro.core.store import LsmioStore

__all__ = [
    "Backend",
    "Checkpointer",
    "DegradedWriteReport",
    "EnumerationResult",
    "LsmioFStream",
    "LsmioManager",
    "LsmioOptions",
    "LsmioStore",
    "PerfCounters",
    "manifest_listing",
    "readdir_storm",
    "write_manifest",
]
