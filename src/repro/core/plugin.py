"""The LSMIO plugin for ADIOS2 (§3.1.7).

"Our ADIOS2 plugin enables applications that use ADIOS2 to use our
library by simply updating their XML configuration file … Our plugin is
implemented using LSMIO's external K/V interface."

The engine implements the same interface as the BP5 engines in
:mod:`repro.iolibs.adios2` and is registered under the name ``"lsmio"``,
so switching an application is a configuration change only.  Each writer
rank owns an LSMIO store under ``<path>.lsmio/rank<r>/`` on the same file
system; multi-dimensional variables are serialized "into a string"
(:mod:`repro.core.serialization`) and stored via :class:`LsmioManager`.

Cost model note: the plugin still passes values through ADIOS2's typed
``put`` path, but skips BP5's full marshaling; the paper attributes its
remaining overhead versus native LSMIO to the extra abstraction layers
and its plugin's memory management (§4.3).  That overhead is the
``plugin_marshal_bandwidth`` parameter (calibrated in EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Optional, Union

from repro import sim
from repro.errors import InvalidArgumentError, NotFoundError
from repro.core.manager import LsmioManager
from repro.core.options import LsmioOptions
from repro.iolibs.adios2 import Adios2Params, register_plugin
from repro.pfs.client import LustreClient
from repro.pfs.simenv import SimLustreEnv
from repro.util.humanize import parse_size
from repro.util.zeros import zeros

Payload = Union[bytes, int]

#: default effective rate of the plugin's put path (ADIOS2 abstraction +
#: plugin memory management, §4.3) — see EXPERIMENTS.md calibration.
DEFAULT_PLUGIN_MARSHAL_BANDWIDTH = "62M"


class LsmioPluginEngine:
    """ADIOS2 engine backed by LSMIO's K/V interface."""

    def __init__(self, path: str, mode: str, comm, client: LustreClient,
                 params: Adios2Params):
        if mode not in ("r", "w"):
            raise InvalidArgumentError(f"bad mode {mode!r}")
        self.path = path
        self.mode = mode
        self.comm = comm
        self.client = client
        self.params = params
        self._marshal_bandwidth = float(
            parse_size(
                params.plugin_params.get(
                    "marshal_bandwidth", DEFAULT_PLUGIN_MARSHAL_BANDWIDTH
                )
            )
        )
        # LSMIO inherits its buffer size from the ADIOS2 configuration
        # when used as a plugin (§3.1.1: "inherit the value from ADIOS2
        # configuration").
        lsmio_options = params.plugin_params.get("lsmio_options")
        if lsmio_options is None:
            lsmio_options = LsmioOptions(
                write_buffer_size=params.buffer_chunk_size
            )
        env = SimLustreEnv(
            client,
            stripe_count=params.stripe_count,
            stripe_size=params.stripe_size,
            readahead=params.plugin_params.get("readahead", "2M"),
        )
        self.manager = LsmioManager(
            f"{path}.lsmio/rank{comm.rank}", options=lsmio_options, env=env
        )
        self._deferred: list[tuple[str, Payload]] = []
        self._step = 0
        self._closed = False

    # -- engine interface ----------------------------------------------------

    def put(self, name: str, payload: Payload, deferred: bool = True) -> None:
        """Queue one variable write (ADIOS2 deferred-put semantics)."""
        self._check_open("w")
        self._deferred.append((name, payload))
        if not deferred:
            self.perform_puts()

    def perform_puts(self) -> None:
        """Serialize and hand each deferred variable to the K/V layer.

        The manager accumulates these puts into a pending
        ``WriteBatch`` (group commit); nothing reaches the storage
        engine until :meth:`close`'s ``write_barrier`` — or a read, a
        sync write, or buffer pressure — flushes the batch.
        """
        self._check_open("w")
        for name, payload in self._deferred:
            if isinstance(payload, (bytes, bytearray, memoryview)):
                data: Payload = bytes(payload)
                nbytes = len(data)
            else:
                nbytes = int(payload)
                data = zeros(nbytes)  # data-less benchmarks synthesize zeros
            sim.sleep(nbytes / self._marshal_bandwidth)
            self.manager.put(self._key(name), data)
        self._deferred.clear()

    def end_step(self) -> None:
        self.perform_puts()
        self._step += 1

    def get(self, name: str, writer_rank: Optional[int] = None, step: int = 0) -> bytes:
        """Read one variable back through the K/V interface."""
        self._check_open("r")
        if writer_rank is not None and writer_rank != self.comm.rank:
            raise NotFoundError(
                "the LSMIO plugin stores per-rank databases; cross-rank "
                "reads need the collective mode"
            )
        return self.manager.get(self._key(name, step))

    def close(self) -> None:
        """PerformPuts, write barrier, release (the §A.1.7 protocol)."""
        if self._closed:
            return
        if self.mode == "w":
            self.perform_puts()
            self.manager.write_barrier(sync=True)
        self.manager.close()
        self.comm.barrier()
        self._closed = True

    # -- internals ---------------------------------------------------------

    def _key(self, name: str, step: Optional[int] = None) -> str:
        step = self._step if step is None else step
        return f"step{step}/{name}"

    def _check_open(self, need_mode: str) -> None:
        if self._closed:
            raise InvalidArgumentError("engine is closed")
        if self.mode != need_mode:
            raise InvalidArgumentError(
                f"operation needs mode {need_mode!r}, engine is {self.mode!r}"
            )


def _factory(path: str, mode: str, comm, client, params: Adios2Params):
    return LsmioPluginEngine(path, mode, comm, client, params)


def register() -> None:
    """Register the engine as the ADIOS2 plugin named ``"lsmio"``."""
    from repro.iolibs.adios2 import registered_plugins

    if "lsmio" not in registered_plugins():
        register_plugin("lsmio", _factory)


register()
