"""An operation-faithful model of HDF5's parallel write path.

What makes HDF5 slow on a shared Lustre file (Figure 6) is not its data
payload — it is the *metadata choreography* around every chunk:

- the file starts with a **superblock** and object headers at offset 0;
- a chunked dataset indexes its chunks in a **B-tree** whose nodes also
  live in the metadata region at the file head;
- chunk space is **allocated at end-of-file**, which in parallel mode is
  a serialized operation;
- every chunk write therefore bundles: an eof allocation (small write to
  the head region), the data write, and a B-tree insertion (read-modify-
  write of index nodes in the head region).

All of those head-region updates land on the file's *first stripe* — one
OST object shared by every rank — so each one pays the extent-lock
ping-pong, and aggregate throughput collapses to roughly
``chunk_size / lock_round_trip`` regardless of node count.  Reads pay the
B-tree traversal (several small head-region reads) before each chunk.

The model issues exactly that request pattern through the normal
:class:`LustreClient`; no magic constants are injected here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import InvalidArgumentError, NotFoundError
from repro.io import Priority, io_priority
from repro.pfs.client import LustreClient
from repro.pfs.lustre import LustreFile

Payload = Union[bytes, int]

SUPERBLOCK_SIZE = 2048
OBJECT_HEADER_SIZE = 512
BTREE_NODE_SIZE = 4096
#: number of chunk entries per B-tree leaf node
BTREE_FANOUT = 64
#: metadata region reserved at the head of the file
METADATA_REGION = 1 << 20


@dataclass
class _Dataset:
    name: str
    header_offset: int
    chunk_size: int
    #: chunk index → allocated file offset
    chunk_index: dict
    btree_nodes: int = 1


@dataclass
class _H5State:
    """The file's logical structure — shared by every rank's handle,
    exactly as the on-disk structure would be."""

    datasets: dict
    metadata_cursor: int = SUPERBLOCK_SIZE
    eof: int = METADATA_REGION


def _states(client: LustreClient) -> dict:
    """The run's HDF5 on-disk structures, by file id."""
    return client.cluster.app_state.setdefault("hdf5", {})


class Hdf5File:
    """One HDF5 file on the simulated PFS (create/open + chunk I/O)."""

    def __init__(self, client: LustreClient, file: LustreFile, writable: bool,
                 state: _H5State):
        self.client = client
        self.file = file
        self.writable = writable
        self._state = state
        #: this handle's metadata cache: B-tree nodes already read are not
        #: re-fetched on insert (HDF5 caches metadata in memory), and the
        #: eviction/flush policy pushes a dirtied node out roughly every
        #: fourth insert.  Collective-metadata mode (set by the collective
        #: driver) must keep every rank's view coherent, so it writes
        #: through on every modification.
        self._md_cache: set[int] = set()
        self._collective_metadata = False

    @property
    def _datasets(self) -> dict:
        return self._state.datasets

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        client: LustreClient,
        path: str,
        stripe_count: Optional[int] = None,
        stripe_size: Optional[int | str] = None,
    ) -> "Hdf5File":
        """H5Fcreate: MDS create + superblock write at offset 0."""
        file = client.create(path, stripe_count, stripe_size)
        state = _H5State(datasets={})
        _states(client)[file.file_id] = state  # the on-disk structure
        self = cls(client, file, writable=True, state=state)
        with io_priority(Priority.METADATA):
            client.write(file, 0, SUPERBLOCK_SIZE)
        return self

    @classmethod
    def open(cls, client: LustreClient, path: str, writable: bool = False) -> "Hdf5File":
        """H5Fopen: MDS open + superblock read."""
        file = client.open(path)
        state = _states(client).get(file.file_id)
        if state is None:
            raise NotFoundError(f"{path} is not an HDF5 file in this run")
        with io_priority(Priority.METADATA):
            client.charge_read(file, 0, SUPERBLOCK_SIZE)
        return cls(client, file, writable=writable, state=state)

    def create_dataset(self, name: str, chunk_size: int | str) -> None:
        """H5Dcreate: object header write in the head region."""
        from repro.util.humanize import parse_size

        chunk_size = parse_size(chunk_size)
        if chunk_size <= 0:
            raise InvalidArgumentError("chunk_size must be positive")
        if name in self._datasets:
            raise InvalidArgumentError(f"dataset {name!r} exists")
        self._require_writable()
        header_offset = self._allocate_metadata(OBJECT_HEADER_SIZE)
        with io_priority(Priority.METADATA):
            self.client.write(self.file, header_offset, OBJECT_HEADER_SIZE)
        self._datasets[name] = _Dataset(
            name=name,
            header_offset=header_offset,
            chunk_size=chunk_size,
            chunk_index={},
        )

    # -- chunk I/O -----------------------------------------------------------

    def write_chunk(self, dataset: str, chunk: int, payload: Payload) -> None:
        """H5Dwrite of one chunk (independent mode).

        Sequence per chunk: eof allocation (head-region small write),
        data write at the allocated offset, B-tree index insertion
        (head-region read-modify-write).
        """
        ds = self._dataset(dataset)
        self._require_writable()
        offset = ds.chunk_index.get(chunk)
        if offset is None:
            # EOF allocation is tracked in the handle's cached superblock;
            # the dirtied metadata reaches disk with the B-tree insert.
            offset = self._allocate_eof(ds.chunk_size)
            ds.chunk_index[chunk] = offset
        self.client.write(self.file, offset, payload)
        self._btree_insert(ds, chunk)

    def read_chunk(self, dataset: str, chunk: int) -> bytes:
        """H5Dread of one chunk: B-tree traversal, then the data read."""
        ds = self._dataset(dataset)
        self._btree_traverse(ds, chunk)
        offset = ds.chunk_index.get(chunk)
        if offset is None:
            raise NotFoundError(f"chunk {chunk} of {dataset!r} never written")
        return self.client.read(self.file, offset, ds.chunk_size)

    def flush(self) -> None:
        """H5Fflush: metadata cache writeback (header rewrites) + fsync."""
        self._require_writable()
        with io_priority(Priority.METADATA):
            self.client.write(self.file, 0, SUPERBLOCK_SIZE)
            for ds in self._datasets.values():
                self.client.write(
                    self.file, ds.header_offset, OBJECT_HEADER_SIZE
                )
        self.client.fsync(self.file)

    def close(self) -> None:
        """H5Fclose: flush (writers) + MDS close."""
        if self.writable:
            self.flush()
        self.client.close(self.file)

    # -- internals ---------------------------------------------------------

    def _dataset(self, name: str) -> _Dataset:
        try:
            return self._datasets[name]
        except KeyError as exc:
            raise NotFoundError(f"no dataset {name!r}") from exc

    def _require_writable(self) -> None:
        if not self.writable:
            raise InvalidArgumentError("file opened read-only")

    def _allocate_metadata(self, nbytes: int) -> int:
        offset = self._state.metadata_cursor
        self._state.metadata_cursor += nbytes
        if self._state.metadata_cursor > METADATA_REGION:
            raise InvalidArgumentError("metadata region exhausted")
        return offset

    def _allocate_eof(self, nbytes: int) -> int:
        offset = self._state.eof
        self._state.eof += nbytes
        return offset

    def _btree_offset(self, ds: _Dataset, node: int) -> int:
        # Index nodes interleave in the head region past the dataset header.
        return (
            ds.header_offset
            + OBJECT_HEADER_SIZE
            + (node % 8) * BTREE_NODE_SIZE
        ) % METADATA_REGION

    def _btree_insert(self, ds: _Dataset, chunk: int) -> None:
        with io_priority(Priority.METADATA):
            self._btree_insert_inner(ds, chunk)

    def _btree_insert_inner(self, ds: _Dataset, chunk: int) -> None:
        node = chunk // BTREE_FANOUT
        offset = self._btree_offset(ds, node)
        # Modify-write of the leaf (read only on a cold cache).  The
        # metadata cache absorbs roughly every other dirtying before the
        # eviction/flush policy pushes the node out (HDF5's H5AC default
        # behaviour under sustained insertion).
        if offset not in self._md_cache:
            self.client.charge_read(self.file, offset, BTREE_NODE_SIZE)
            self._md_cache.add(offset)
        self._md_dirty = getattr(self, "_md_dirty", 0) + 1
        if not self._collective_metadata and self._md_dirty % 4 != 1:
            return
        self.client.write(self.file, offset, BTREE_NODE_SIZE)
        if chunk % BTREE_FANOUT == 0:
            parent = self._btree_offset(ds, node + 1)
            self.client.write(self.file, parent, BTREE_NODE_SIZE)
            ds.btree_nodes += 1

    def _btree_traverse(self, ds: _Dataset, chunk: int) -> None:
        # Root + internal + leaf: three small head-region reads.  Reader
        # handles traverse cold: under a parallel read the index nodes
        # compete with every rank's data reads for the head-region
        # objects, so the metadata cache provides no locality there.
        node = chunk // BTREE_FANOUT
        with io_priority(Priority.METADATA):
            self.client.charge_read(
                self.file, SUPERBLOCK_SIZE, BTREE_NODE_SIZE
            )
            self.client.charge_read(
                self.file, self._btree_offset(ds, node + 1), BTREE_NODE_SIZE
            )
            self.client.charge_read(
                self.file, self._btree_offset(ds, node), BTREE_NODE_SIZE
            )
