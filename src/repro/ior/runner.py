"""The IOR clone's engine: per-rank workloads for every API.

The measurement protocol is the paper's (§A.1.7): the clock runs from the
MPI barrier before the first I/O operation (including file/engine opens)
to the MPI barrier after the last one — for ADIOS2-family engines that
last operation is ``close()``, for LSMIO it is the write barrier the
final put triggers, for posix/hdf5 the fsync+close.  Aggregate bandwidth
is total bytes over the barrier-to-barrier time; the harness repeats runs
with rep-seeded jitter and reports the maximum (§4).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro import sim
from repro.core.manager import LsmioManager
from repro.core.options import LsmioOptions
from repro.iolibs.adios2 import Adios2Io, Adios2Params
from repro.iolibs.collective import two_phase_read, two_phase_write
from repro.iolibs.hdf5 import METADATA_REGION, Hdf5File
from repro.iolibs.posixio import PosixFile
from repro.ior.config import IorConfig
from repro.ior.report import IorResult
from repro.mpi import run_world
from repro.pfs.client import LustreClient
from repro.pfs.configs import viking
from repro.pfs.lustre import LustreCluster, LustreConfig
from repro.pfs.simenv import SimLustreEnv
from repro.trace import runtime as _trace
from repro.util.zeros import zeros

import repro.core.plugin  # noqa: F401 — registers the "lsmio" engine


def run_ior(
    config: IorConfig,
    cluster_config: Optional[LustreConfig] = None,
    collect_cluster_report: bool = False,
) -> IorResult:
    """Run all repetitions of one IOR configuration; return the result.

    With ``collect_cluster_report`` the last repetition's cluster
    utilization is attached as ``result.cluster_report``.
    """
    base = cluster_config or viking()
    result = IorResult(config=config)
    for rep in range(config.repetitions):
        cc = dataclasses.replace(base, jitter_seed=base.jitter_seed + rep)
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, cc)

            def setup(world, cluster=cluster):
                world._cluster = cluster

            timings = run_world(
                config.num_tasks,
                _rank_main,
                config,
                engine=engine,
                world_setup=setup,
            )
            elapsed = engine.now
        write_time = max(t["write_time"] for t in timings)
        result.write_bw.add(config.total_bytes / write_time)
        if config.read_back:
            read_time = max(t["read_time"] for t in timings)
            result.read_bw.add(config.total_bytes / read_time)
        if collect_cluster_report:
            from repro.pfs.stats import collect_report

            result.cluster_report = collect_report(cluster, elapsed)
    return result


# ---------------------------------------------------------------------------
# Rank program
# ---------------------------------------------------------------------------


def _rank_main(comm, config: IorConfig) -> dict:
    client = LustreClient(comm.world._cluster, comm.rank)
    api = _APIS[config.api](config, comm, client)

    comm.barrier()
    t0 = sim.now()
    with _trace.probe("bench", "phase:write", rank=comm.rank, api=config.api):
        api.write_phase()
        comm.barrier()
    write_time = sim.now() - t0

    read_time = 0.0
    if config.read_back:
        comm.barrier()
        t2 = sim.now()
        with _trace.probe(
            "bench", "phase:read", rank=comm.rank, api=config.api
        ):
            api.read_phase()
            comm.barrier()
        read_time = sim.now() - t2
    api.teardown()
    return {"write_time": write_time, "read_time": read_time}


class _ApiDriver:
    """Base: geometry helpers shared by all API drivers."""

    def __init__(self, config: IorConfig, comm, client: LustreClient):
        self.config = config
        self.comm = comm
        self.client = client
        self.rank = comm.rank

    @property
    def read_source_rank(self) -> int:
        """Which rank's data this rank reads back (IOR -C semantics)."""
        return (self.rank + 1) % self.comm.size

    def write_phase(self) -> None:
        raise NotImplementedError

    def read_phase(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass


# -- POSIX (the IOR baseline) ------------------------------------------------


class _PosixDriver(_ApiDriver):
    def _path(self, rank: Optional[int] = None) -> str:
        if self.config.file_per_process:
            rank = self.rank if rank is None else rank
            return f"{self.config.test_file}.{rank:08d}"
        return self.config.test_file

    def _open_for_write(self) -> PosixFile:
        config = self.config
        if config.file_per_process:
            return PosixFile.create(
                self.client, self._path(), config.stripe_count, config.stripe_size
            )
        if self.rank == 0:
            fh = PosixFile.create(
                self.client, self._path(), config.stripe_count, config.stripe_size
            )
            self.comm.barrier()
            return fh
        self.comm.barrier()
        return PosixFile.open(self.client, self._path())

    def write_phase(self) -> None:
        config = self.config
        fh = self._open_for_write()
        offsets = (
            [i * config.transfer_size
             for i in range(config.bytes_per_task // config.transfer_size)]
            if config.file_per_process
            else config.rank_offsets(self.rank)
        )
        if config.collective and not config.file_per_process:
            # IOR issues one MPI_File_write_all per transfer.
            for off in offsets:
                two_phase_write(
                    self.comm, self.client, fh.file,
                    [(off, config.transfer_size)],
                    cb_buffer_size=config.cb_buffer_size,
                )
        else:
            for off in offsets:
                fh.pwrite(off, config.transfer_size)
        fh.fsync()
        fh.close()

    def read_phase(self) -> None:
        config = self.config
        source = self.read_source_rank if not config.file_per_process else self.rank
        fh = PosixFile.open(self.client, self._path(source))
        offsets = (
            [i * config.transfer_size
             for i in range(config.bytes_per_task // config.transfer_size)]
            if config.file_per_process
            else config.rank_offsets(source)
        )
        if config.collective and not config.file_per_process:
            for off in offsets:
                two_phase_read(
                    self.comm, self.client, fh.file,
                    [(off, config.transfer_size)],
                    cb_buffer_size=config.cb_buffer_size,
                )
        else:
            for off in offsets:
                fh.pread(off, config.transfer_size)
        fh.close()


# -- HDF5 ---------------------------------------------------------------------


class _Hdf5Driver(_ApiDriver):
    DATASET = "data"

    def _chunk_ids(self, rank: int) -> list[int]:
        return [
            off // self.config.transfer_size
            for off in self.config.rank_offsets(rank)
        ]

    def write_phase(self) -> None:
        config = self.config
        if self.rank == 0:
            self.h5 = Hdf5File.create(
                self.client, f"{config.test_file}.h5",
                config.stripe_count, config.stripe_size,
            )
            self.h5.create_dataset(self.DATASET, chunk_size=config.transfer_size)
            self.comm.barrier()
        else:
            self.comm.barrier()
            self.h5 = Hdf5File.open(
                self.client, f"{config.test_file}.h5", writable=True
            )
        if config.collective:
            self._collective_write()
        else:
            for chunk in self._chunk_ids(self.rank):
                self.h5.write_chunk(self.DATASET, chunk, config.transfer_size)
        self.h5.flush()
        self.h5.close()

    def _collective_write(self) -> None:
        """H5FD_MPIO_COLLECTIVE: two-phase data + collective metadata.

        Chunk offsets are allocated densely and collectively (every rank
        derives them); the data moves through two-phase aggregation; rank
        0 performs the B-tree insertions for *every* chunk — the
        serialized collective-metadata write whose cost grows with node
        count (the Figure 9 HDF5 degradation).
        """
        config = self.config
        ds = self.h5._dataset(self.DATASET)  # noqa: SLF001
        self.h5._collective_metadata = True  # noqa: SLF001
        my_chunks = self._chunk_ids(self.rank)
        # One collective H5Dwrite per transfer, as IOR issues them: data
        # moves two-phase; rank 0 applies the collective metadata updates
        # for every rank's chunk of this call — serialized index writes
        # that interleave with the aggregators' data stream.
        for call_index, chunk in enumerate(my_chunks):
            offset = METADATA_REGION + chunk * config.transfer_size
            ds.chunk_index[chunk] = offset
            two_phase_write(
                self.comm, self.client, self.h5.file,
                [(offset, config.transfer_size)],
                cb_buffer_size=config.cb_buffer_size,
            )
            if self.rank == 0:
                base = call_index * config.num_tasks
                for peer_chunk in range(
                    base, min(base + config.num_tasks, len(my_chunks) * config.num_tasks)
                ):
                    self.h5._btree_insert(ds, peer_chunk)  # noqa: SLF001

    def read_phase(self) -> None:
        self.h5_reader = Hdf5File.open(self.client, f"{self.config.test_file}.h5")
        for chunk in self._chunk_ids(self.read_source_rank):
            self.h5_reader.read_chunk(self.DATASET, chunk)
        self.h5_reader.close()


# -- ADIOS2 (BP5 or the LSMIO plugin) -----------------------------------------


class _Adios2Driver(_ApiDriver):
    ENGINE = "BP5"

    def _params(self) -> Adios2Params:
        overrides = dict(self.config.engine_params)
        plugin_params = overrides.pop("plugin_params", {})
        params = Adios2Params(
            engine=self.ENGINE,
            stripe_count=self.config.stripe_count,
            stripe_size=self.config.stripe_size,
            plugin_params=plugin_params,
            **overrides,
        )
        return params

    def _var(self, index: int) -> str:
        return f"v{index:06d}"

    def write_phase(self) -> None:
        config = self.config
        io = Adios2Io("ior", self._params())
        writer = io.open(f"{config.test_file}.bp", "w", self.comm, self.client)
        count = config.bytes_per_task // config.transfer_size
        for index in range(count):
            writer.put(self._var(index), config.transfer_size)
        # §A.1.7: "we called PerformPuts() and then close()".
        writer.perform_puts()
        writer.close()

    def read_phase(self) -> None:
        config = self.config
        io = Adios2Io("ior", self._params())
        reader = io.open(f"{config.test_file}.bp", "r", self.comm, self.client)
        count = config.bytes_per_task // config.transfer_size
        source = self.read_source_rank if self.ENGINE == "BP5" else self.rank
        for index in range(count):
            reader.get(self._var(index), writer_rank=source)
        reader.close()


class _LsmioPluginDriver(_Adios2Driver):
    ENGINE = "lsmio"


# -- LSMIO (native K/V) --------------------------------------------------------


#: modeled memory-path rate for memtable inserts (bytes/s): the CPU cost
#: that makes LSMIO trail the raw baseline at low concurrency (Fig. 5).
LSMIO_MEMTABLE_BANDWIDTH = float(800 << 20)


def _lsmio_cpu_charge(nbytes: int, kind: str) -> None:
    sim.sleep(nbytes / LSMIO_MEMTABLE_BANDWIDTH)


class _LsmioDriver(_ApiDriver):
    def _engine_params(self) -> tuple[LsmioOptions, Optional[int]]:
        overrides = dict(self.config.engine_params)
        group_size = overrides.pop("collective_group_size", None)
        self._batch_read = overrides.pop("batch_read", False)
        overrides.setdefault("cpu_charge", _lsmio_cpu_charge)
        return LsmioOptions(**overrides), group_size

    def write_phase(self) -> None:
        config = self.config
        options, group_size = self._engine_params()
        env = SimLustreEnv(
            self.client,
            stripe_count=config.stripe_count,
            stripe_size=config.stripe_size,
            # Point lookups are index-directed preads: client readahead
            # ramps less aggressively than under a streaming reader.
            readahead="2M",
        )
        if group_size:
            # §5.1 future work: one LSM store per group of nodes,
            # operations forwarded to the group aggregator over MPI.
            aggregator = (self.rank // group_size) * group_size
            self.manager = LsmioManager(
                f"{config.test_file}.lsmio/group{aggregator}",
                options=options,
                env=env,
                comm=self.comm,
                collective=True,
                collective_group_size=group_size,
            )
            return self._write_payloads()
        self.manager = LsmioManager(
            f"{config.test_file}.lsmio/rank{self.rank}",
            options=options,
            env=env,
        )
        self._write_payloads()

    def _write_payloads(self) -> None:
        config = self.config
        count = config.bytes_per_task // config.transfer_size
        payload = zeros(config.transfer_size)
        for index in range(count):
            self.manager.put(f"r{self.rank:04d}/x{index:06d}", payload)
        # The final put triggers the flush; the write barrier observes it
        # (§A.1.7's "last DB::Put() … triggers an automatic flush").
        self.manager.write_barrier(sync=True)

    def read_phase(self) -> None:
        config = self.config
        if getattr(self, "_batch_read", False):
            # §5.1 future work: one sequential scan instead of per-key
            # random gets, counted as it streams (no value is kept).
            prefix = f"r{self.rank:04d}/".encode()
            scan = self.manager.scan(prefix, prefix + b"\xff" * 8)
            found = sum(1 for _ in scan)
            assert found == config.bytes_per_task // config.transfer_size
            return
        # Synchronous point lookups — the paper's read path (§4.5).
        count = config.bytes_per_task // config.transfer_size
        for index in range(count):
            self.manager.get(f"r{self.rank:04d}/x{index:06d}")

    def teardown(self) -> None:
        if hasattr(self, "manager"):
            self.manager.close()


_APIS = {
    "posix": _PosixDriver,
    "hdf5": _Hdf5Driver,
    "adios2": _Adios2Driver,
    "lsmio": _LsmioDriver,
    "lsmio-plugin": _LsmioPluginDriver,
}


def available_apis() -> list[str]:
    return sorted(_APIS)
