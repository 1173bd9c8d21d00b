"""Performance counters for the LSMIO manager (Table 2: "performance
counters").

Times are measured on :func:`repro.trace.runtime.ambient_clock`:
simulated time inside a discrete-event process, monotonic wall time
otherwise — so the same counters serve the standalone library and the
cluster benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfCounters:
    """Operation/byte/time counters, resettable."""

    puts: int = 0
    appends: int = 0
    gets: int = 0
    deletes: int = 0
    barriers: int = 0
    bytes_put: int = 0
    bytes_got: int = 0
    put_time: float = 0.0
    get_time: float = 0.0
    barrier_time: float = 0.0
    #: fault-path counters (zero on a healthy cluster): storage-RPC
    #: retries/timeouts absorbed under this manager, simulated seconds
    #: spent backing off, and barriers that completed degraded (or not at
    #: all) — so ``bench`` can report resilience next to throughput.
    retries: int = 0
    timeouts: int = 0
    backoff_time: float = 0.0
    degraded_barriers: int = 0
    failed_barriers: int = 0
    #: write-coalescing telemetry: operations that rode another
    #: operation's engine write (the manager's accumulation batch), and
    #: extent bytes the PFS client merged into a neighbouring RPC.
    batches_merged: int = 0
    bytes_coalesced: int = 0

    def record(self, op: str, nbytes: int = 0, elapsed: float = 0.0) -> None:
        """Account one operation."""
        if op == "put":
            self.puts += 1
            self.bytes_put += nbytes
            self.put_time += elapsed
        elif op == "append":
            self.appends += 1
            self.bytes_put += nbytes
            self.put_time += elapsed
        elif op == "get":
            self.gets += 1
            self.bytes_got += nbytes
            self.get_time += elapsed
        elif op == "delete":
            self.deletes += 1
        elif op == "barrier":
            self.barriers += 1
            self.barrier_time += elapsed
        else:
            raise ValueError(f"unknown op {op!r}")

    def record_faults(
        self,
        retries: int = 0,
        timeouts: int = 0,
        backoff_time: float = 0.0,
        degraded: bool = False,
        failed: bool = False,
    ) -> None:
        """Account the fault-path work one barrier (or operation) did."""
        self.retries += retries
        self.timeouts += timeouts
        self.backoff_time += backoff_time
        self.degraded_barriers += int(degraded)
        self.failed_barriers += int(failed)

    def write_bandwidth(self) -> float:
        """Bytes/second over put+append+barrier time (0 when untimed)."""
        elapsed = self.put_time + self.barrier_time
        return self.bytes_put / elapsed if elapsed > 0 else 0.0

    def read_bandwidth(self) -> float:
        return self.bytes_got / self.get_time if self.get_time > 0 else 0.0

    def snapshot(self) -> dict:
        return dict(self.__dict__)

    def reset(self) -> None:
        for key in list(self.__dict__):
            setattr(self, key, 0.0 if isinstance(getattr(self, key), float) else 0)
