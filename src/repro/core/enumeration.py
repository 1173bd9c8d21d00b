"""Namespace enumeration strategies: readdir storms vs. manifest reads.

Restore and serving both start the same way: *learn what files exist and
how big they are*, then plan reads.  There are two ways to learn it:

* **readdir storm** — the POSIX-native path.  Page through the
  directory with ``readdir`` RPCs, then ``stat`` every entry to get its
  size (an ``ls -l``; sizes are not optional — a read planner cannot
  schedule transfers without them).  Cost: one MDS op per page plus one
  MDS op per entry, all serialized on the shard owning the directory.

* **manifest listing** — the checkpoint-native path.  The writer already
  knew every name and size at commit time and serialized them into a
  manifest object (:meth:`repro.core.checkpoint.Checkpointer.save` does
  exactly this); enumeration is one ``open`` plus a data read of the
  manifest, shifting the work from per-entry metadata RPCs to a single
  streaming read that scales with *bytes*, not *entries*.

Both strategies return the same :class:`EnumerationResult` so campaigns
can compare entries/s, time-to-first-batch, and request amplification —
the three axes the listing benchmarks in the related AI-I/O suites
report.  Each strategy is one generator (``*_lw``) over the client's own
generators; the blocking name is its ``sim.blocking_form``, so either
backend replays the identical RPC schedule.

The manifest text format is deliberately trivial — ``"{name} {size}\n"``
per entry, sorted by name — so byte counts are deterministic and the
parse is backend-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import sim
from repro.errors import InvalidArgumentError


@dataclass
class EnumerationResult:
    """One enumeration run, in comparable units."""

    strategy: str
    directory: str
    #: entry names, in listing order
    entries: list[str] = field(default_factory=list)
    #: entry name → size in bytes (what a read planner needs)
    sizes: dict[str, int] = field(default_factory=dict)
    #: listing pages (readdir) or manifest reads (manifest)
    batches: int = 0
    #: MDS requests charged by this run (readdir pages, stats, opens)
    mds_ops: int = 0
    #: data-path read RPCs issued (manifest bytes travel here)
    read_rpcs: int = 0
    bytes_read: int = 0
    elapsed_s: float = 0.0
    #: simulated seconds until the first usable batch of (name, size)
    #: pairs was available to the caller
    time_to_first_batch_s: float = 0.0

    @property
    def requests(self) -> int:
        """Total RPCs spent learning the listing."""
        return self.mds_ops + self.read_rpcs

    @property
    def request_amplification(self) -> float:
        """RPCs per enumerated entry (1.0 = one request per entry)."""
        return self.requests / len(self.entries) if self.entries else 0.0

    @property
    def entries_per_s(self) -> float:
        return len(self.entries) / self.elapsed_s if self.elapsed_s > 0 else 0.0


def _snap(client) -> tuple[int, int, int]:
    s = client.stats
    return s.mds_ops, s.read_rpcs, s.bytes_read


def _fill(result: EnumerationResult, client, before, start: float) -> None:
    mds_ops, read_rpcs, bytes_read = _snap(client)
    result.mds_ops = mds_ops - before[0]
    result.read_rpcs = read_rpcs - before[1]
    result.bytes_read = bytes_read - before[2]
    result.elapsed_s = sim.now() - start


# -- strategy 1: readdir storm ------------------------------------------------


def readdir_storm_lw(
    client, directory: str, batch_size: int = 64, stat_entries: bool = True
):
    """Paged ``readdir`` + per-entry ``stat``.

    ``stat_entries=False`` measures the bare listing — names only, no
    sizes — the lower bound POSIX tools like ``ls`` (without ``-l``) pay.
    """
    result = EnumerationResult(strategy="readdir", directory=directory)
    before = _snap(client)
    start = sim.now()
    next_start = 0
    while next_start is not None:
        page, next_start = yield from client.readdir_page_lw(
            directory, next_start, batch_size
        )
        for name in page:
            path = f"{directory}/{name}" if directory else name
            if stat_entries:
                file = yield from client.stat_lw(path)
                result.sizes[name] = file.size
            result.entries.append(name)
        result.batches += 1
        if result.batches == 1:
            result.time_to_first_batch_s = sim.now() - start
    _fill(result, client, before, start)
    return result


readdir_storm = sim.blocking_form(readdir_storm_lw)


# -- strategy 2: manifest listing ---------------------------------------------


def format_manifest(entries: list[tuple[str, int]]) -> bytes:
    """Serialize ``(name, size)`` pairs, sorted, one per line."""
    return "".join(
        f"{name} {size}\n" for name, size in sorted(entries)
    ).encode("ascii")


def parse_manifest(payload: bytes) -> list[tuple[str, int]]:
    entries = []
    for line in payload.decode("ascii").splitlines():
        name, _, size = line.rpartition(" ")
        if not name:
            raise InvalidArgumentError(f"bad manifest line: {line!r}")
        entries.append((name, int(size)))
    return entries


def write_manifest_lw(
    client, path: str, entries: list[tuple[str, int]], stripe_count: int = 1
):
    """Publish a manifest object for later :func:`manifest_listing` runs.

    Stored with real bytes (``store_data=True``) even on data-less
    clusters: the listing *is* the content.
    """
    payload = format_manifest(entries)
    file = yield from client.create_lw(
        path, stripe_count=stripe_count, store_data=True
    )
    yield from client.write_lw(file, 0, payload)
    yield from client.close_lw(file)
    return file


write_manifest = sim.blocking_form(write_manifest_lw)


def manifest_listing_lw(client, manifest_path: str, directory: str = ""):
    """Enumerate from a manifest object: one open + one streaming read."""
    result = EnumerationResult(
        strategy="manifest", directory=directory or manifest_path
    )
    before = _snap(client)
    start = sim.now()
    file = yield from client.open_lw(manifest_path)
    payload = yield from client.read_lw(file, 0, file.size)
    for name, size in parse_manifest(payload):
        result.entries.append(name)
        result.sizes[name] = size
    result.batches = 1
    result.time_to_first_batch_s = sim.now() - start
    _fill(result, client, before, start)
    return result


manifest_listing = sim.blocking_form(manifest_listing_lw)
