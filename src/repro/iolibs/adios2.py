"""An ADIOS2 BP5-like engine over the simulated PFS, with plugins.

Models the behaviour that matters for the paper's Figures 6–8:

- **deferred puts** marshaled into per-rank buffer chunks (the paper sets
  ``BufferChunkSize = 32MB``);
- **N-to-N subfiles**: each writer streams its buffer into its own
  ``<name>.bp/data.<rank>`` file — large sequential writes, the property
  that lets ADIOS2 beat the IOR baseline by 10.7×;
- **marshaling cost**: BP5 serializes strongly-typed variables into its
  internal format.  This is the paper's own explanation for the
  LSMIO-vs-ADIOS2 gap ("additional layers of abstraction … strong typing
  … compared to the byte-array representation used by LSMIO", §4.3), and
  it is modeled as simulated CPU time per marshaled byte
  (``marshal_bandwidth``, calibrated in EXPERIMENTS.md);
- **metadata aggregation at close**: writer metadata is gathered to rank
  0, which writes ``md.0``/``md.idx``;
- the **plugin mechanism** (§3.1.7): a named engine factory registry; an
  application switches engines by changing the configured name only —
  LSMIO registers its engine under ``"lsmio"``.

The reader serves ``get`` from the run's metadata catalog with large
sequential subfile reads (why ADIOS2 tops Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro import sim
from repro.errors import InvalidArgumentError, NotFoundError
from repro.io import Priority, io_priority
from repro.pfs.client import LustreClient
from repro.util.humanize import parse_size

Payload = Union[bytes, int]

_VAR_METADATA_BYTES = 256  # per-variable record in the step metadata

# ---------------------------------------------------------------------------
# Plugin registry (the ADIOS2 "Plugin" extensibility mechanism)
# ---------------------------------------------------------------------------

_PLUGINS: dict[str, Callable] = {}


def register_plugin(name: str, factory: Callable) -> None:
    """Register an engine factory under ``name``.

    ``factory(path, mode, comm, client, params)`` must return an object
    with the engine interface (``put``, ``perform_puts``, ``end_step``,
    ``get``, ``close``).
    """
    key = name.lower()
    if key in _PLUGINS:
        raise InvalidArgumentError(f"plugin {name!r} already registered")
    _PLUGINS[key] = factory


def registered_plugins() -> list[str]:
    return sorted(_PLUGINS)


def _plugin_factory(name: str) -> Callable:
    try:
        return _PLUGINS[name.lower()]
    except KeyError as exc:
        raise InvalidArgumentError(f"no plugin named {name!r}") from exc


# ---------------------------------------------------------------------------
# Configuration (the XML file's <parameter> block, §3.1.7)
# ---------------------------------------------------------------------------


@dataclass
class Adios2Params:
    """Engine parameters (ADIOS2 IO parameters / XML configuration)."""

    engine: str = "BP5"
    buffer_chunk_size: int | str = "32M"  # the paper's BufferChunkSize
    #: effective serialization rate of the BP5 marshaling layer
    marshal_bandwidth: float | str = "30M"
    #: striping for subfiles (None → file-system default)
    stripe_count: Optional[int] = None
    stripe_size: Optional[int | str] = None
    async_write: bool = True
    #: extra engine-specific settings passed to plugins
    plugin_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.buffer_chunk_size = parse_size(self.buffer_chunk_size)
        self.marshal_bandwidth = float(parse_size(self.marshal_bandwidth))
        if self.buffer_chunk_size <= 0 or self.marshal_bandwidth <= 0:
            raise InvalidArgumentError("sizes/rates must be positive")


class Adios2Io:
    """The ``adios2.IO`` analogue: named configuration + ``open``."""

    def __init__(self, name: str, params: Optional[Adios2Params] = None):
        self.name = name
        self.params = params or Adios2Params()

    def open(self, path: str, mode: str, comm, client: LustreClient):
        """Open an engine; engine choice comes from configuration only."""
        engine = self.params.engine.lower()
        if engine == "bp5":
            if mode == "w":
                return Bp5Writer(path, comm, client, self.params)
            if mode == "r":
                return Bp5Reader(path, comm, client, self.params)
            raise InvalidArgumentError(f"bad mode {mode!r}")
        # Anything else resolves through the plugin registry — the
        # application code does not change (§3.1.7).
        factory = _plugin_factory(engine)
        return factory(path, mode, comm, client, self.params)


# ---------------------------------------------------------------------------
# BP5 catalog (logical metadata shared by writers/readers of one run)
# ---------------------------------------------------------------------------


def _catalog(client: LustreClient, path: str) -> dict:
    state = client.cluster.app_state.setdefault("bp5", {})
    return state.setdefault(path, {})


def _var_key(step: int, writer_rank: int, name: str) -> tuple:
    return (step, writer_rank, name)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class Bp5Writer:
    """Per-rank BP5 write engine."""

    def __init__(self, path: str, comm, client: LustreClient, params: Adios2Params):
        self.path = path
        self.comm = comm
        self.client = client
        self.params = params
        self._deferred: list[tuple[str, Payload]] = []
        self._buffered = 0          # marshaled bytes not yet drained
        self._subfile_offset = 0
        self._step = 0
        self._metadata_bytes = 0
        self._closed = False
        self._catalog = _catalog(client, path)
        # data.<rank> subfile under the .bp directory
        self.subfile = client.create(
            f"{path}/data.{comm.rank}",
            stripe_count=params.stripe_count,
            stripe_size=params.stripe_size,
        )

    def put(self, name: str, payload: Payload, deferred: bool = True) -> None:
        """Queue (or immediately marshal) one variable write."""
        self._check_open()
        self._deferred.append((name, payload))
        if not deferred:
            self.perform_puts()

    def perform_puts(self) -> None:
        """Marshal deferred puts into buffer chunks, draining full chunks."""
        self._check_open()
        for name, payload in self._deferred:
            nbytes = (
                len(payload)
                if isinstance(payload, (bytes, bytearray, memoryview))
                else int(payload)
            )
            # BP5 serialization: strongly-typed marshal into the internal
            # buffer format (the §4.3 overhead).
            sim.sleep(nbytes / self.params.marshal_bandwidth)
            self._catalog[_var_key(self._step, self.comm.rank, name)] = (
                self.subfile.path,
                self._subfile_offset + self._buffered,
                nbytes,
                payload if isinstance(payload, (bytes, bytearray)) else None,
            )
            self._buffered += nbytes
            self._metadata_bytes += _VAR_METADATA_BYTES
            while self._buffered >= self.params.buffer_chunk_size:
                self._drain(self.params.buffer_chunk_size)
        self._deferred.clear()

    def _drain(self, nbytes: int) -> None:
        """Stream one buffer chunk to the subfile (large sequential write)."""
        self.client.write(self.subfile, self._subfile_offset, nbytes)
        self._subfile_offset += nbytes
        self._buffered -= nbytes
        if not self.params.async_write:
            self.client.fsync(self.subfile)

    def end_step(self) -> None:
        """Close a step: drain data and account step-local metadata."""
        self.perform_puts()
        if self._buffered:
            self._drain(self._buffered)
        self._step += 1

    def close(self) -> None:
        """PerformPuts + drain + metadata aggregation at rank 0 (§A.1.7)."""
        if self._closed:
            return
        self.perform_puts()
        if self._buffered:
            self._drain(self._buffered)
        self.client.fsync(self.subfile)
        # Metadata aggregation: every writer's index records gather to
        # rank 0, which writes md.0 and md.idx.
        all_md = self.comm.gather(self._metadata_bytes, root=0)
        if self.comm.rank == 0:
            with io_priority(Priority.METADATA):
                md = self.client.create(f"{self.path}/md.0")
                self.client.write(md, 0, max(sum(all_md), 64))
                idx = self.client.create(f"{self.path}/md.idx")
                self.client.write(idx, 0, max(64 * len(all_md), 64))
                self.client.fsync(md)
        self.client.close(self.subfile)
        self.comm.barrier()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidArgumentError("engine is closed")


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


class Bp5Reader:
    """Per-rank BP5 read engine: metadata-directed subfile reads."""

    def __init__(self, path: str, comm, client: LustreClient, params: Adios2Params):
        self.path = path
        self.comm = comm
        self.client = client
        self.params = params
        self._catalog = _catalog(client, path)
        self._closed = False
        self._subfiles: dict[str, object] = {}
        # Readahead window per subfile: BP5 readers stream variables in
        # file order, so the engine prefetches ``readahead`` bytes per
        # data RPC (Lustre client readahead does the same).
        self._windows: dict[str, tuple[int, int]] = {}
        self.readahead = parse_size(
            params.plugin_params.get("readahead", "4M")
        )
        # Opening a BP5 run reads the aggregated metadata once.
        try:
            with io_priority(Priority.METADATA):
                md = client.open(f"{path}/md.idx")
                client.charge_read(md, 0, md.size)
                md0 = client.open(f"{path}/md.0")
                client.charge_read(md0, 0, md0.size)
        except NotFoundError as exc:
            raise NotFoundError(f"{path} has no BP5 metadata") from exc

    def get(self, name: str, writer_rank: Optional[int] = None, step: int = 0) -> bytes:
        """Read one variable (defaults to this rank's writer twin)."""
        self._check_open()
        writer = writer_rank if writer_rank is not None else self.comm.rank
        try:
            subfile_path, offset, nbytes, payload = self._catalog[
                _var_key(step, writer, name)
            ]
        except KeyError as exc:
            raise NotFoundError(
                f"variable {name!r} (writer {writer}, step {step}) not found"
            ) from exc
        subfile = self._subfiles.get(subfile_path)
        if subfile is None:
            subfile = self.client.open(subfile_path)
            self._subfiles[subfile_path] = subfile
        window = self._windows.get(subfile_path)
        end = offset + nbytes
        if window is None or offset < window[0] or end > window[1]:
            fetch = max(nbytes, self.readahead)
            self.client.charge_read(subfile, offset, fetch)
            self._windows[subfile_path] = (offset, offset + fetch)
        if payload is not None:
            return bytes(payload)
        return subfile.load(offset, nbytes)

    def close(self) -> None:
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            raise InvalidArgumentError("engine is closed")
