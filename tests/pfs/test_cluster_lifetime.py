"""A finished cluster is freed by reference counting; data-less reads share.

The cluster aggregates its clients' stats and does not own the clients,
so nothing in a finished run forms a cycle through the cluster: its
files (and their payloads) go the moment the last reference does, with
no wait for a full collection.  Data-less reads return shared zero
buffers instead of allocating one per read.
"""

import gc
import random
import tracemalloc
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import sim
from repro.bench.figures import default_cluster
from repro.bench.llm import LlmConfig, run_llm_scenario
from repro.ior import IorConfig, run_ior
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster
from repro.pfs.layout import StripeLayout
from repro.pfs.lustre import LustreFile


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every cluster and file created while active."""
    refs = {"clusters": [], "files": []}
    init = LustreCluster.__init__
    create = LustreCluster.create

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs["clusters"].append(weakref.ref(self))

    def tracking_create(self, *args, **kwargs):
        file = create(self, *args, **kwargs)
        refs["files"].append(weakref.ref(file))
        return file

    monkeypatch.setattr(LustreCluster, "__init__", tracking_init)
    monkeypatch.setattr(LustreCluster, "create", tracking_create)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _alive(refs):
    return [ref for ref in refs if ref() is not None]


def test_finished_lsmio_point_frees_its_cluster_and_files(tracked):
    config = IorConfig(
        api="lsmio", num_tasks=4, block_size="64K", transfer_size="64K",
        segment_count=16, stripe_count=4, stripe_size="64K",
    )
    result = run_ior(config, default_cluster())
    assert result.write_bw.max > 0
    assert len(tracked["clusters"]) == 1
    assert tracked["files"], "the LSMIO point created no files"
    assert _alive(tracked["clusters"]) == []
    assert _alive(tracked["files"]) == []


def test_finished_llm_point_frees_its_cluster(tracked):
    result = run_llm_scenario(LlmConfig(ranks=64))
    assert result["ranks"] == 64
    assert len(tracked["clusters"]) == 1
    assert _alive(tracked["clusters"]) == []
    assert _alive(tracked["files"]) == []


def _run(fn, **config):
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, small_test_cluster(**config))
        proc = engine.spawn(fn, LustreClient(cluster, 0))
        engine.run()
    return proc.result


def test_cluster_aggregates_client_stats_without_holding_clients():
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, small_test_cluster())
        client = LustreClient(cluster, 0)
        client.stats.rpc_retries = 3
        client.stats.backoff_time = 0.5
        assert cluster.client_stats == [client.stats]
        assert cluster.total_rpc_retries() == 3
        assert cluster.total_backoff_time() == 0.5
        client_ref = weakref.ref(client)
        del client
        assert client_ref() is None
        assert cluster.total_rpc_retries() == 3


def test_dataless_read_returns_zero_bytes_clamped_at_eof():
    def main(client):
        file = client.create("bulk", stripe_count=2)
        client.write(file, 0, 3 << 20)
        client.fsync(file)
        return [
            client.read(file, 0, 1 << 20),
            client.read(file, (3 << 20) - 100, 4096),  # clamped at EOF
            client.read(file, 3 << 20, 4096),           # at EOF
        ]

    whole, tail, past = _run(main, store_data=False)
    assert type(whole) is bytes and whole == bytes(1 << 20)
    assert type(tail) is bytes and tail == bytes(100)
    assert past == b""


def test_repeat_dataless_read_does_not_allocate_its_length():
    nbytes = 16 << 20

    def main(client):
        file = client.create("bulk", stripe_count=4)
        client.write(file, 0, 60 << 20)
        client.fsync(file)
        # Other lengths already fill most of the shared buffers' budget.
        client.read(file, 0, 60 << 20)
        first = client.read(file, 0, nbytes)
        del first
        tracemalloc.start()
        try:
            again = client.read(file, 0, nbytes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return again, peak

    again, peak = _run(main, store_data=False)
    assert again == bytes(nbytes)
    assert peak < 1 << 20


def _reference_file():
    """The plain model of a stored file: zero-extend, then overwrite."""
    data = bytearray()
    size = 0

    def store(offset, payload):
        nonlocal size
        end = offset + len(payload)
        if end > len(data):
            data.extend(bytes(end - len(data)))
        data[offset:end] = payload
        size = max(size, end)

    def extend_size(offset, nbytes):
        nonlocal size
        size = max(size, offset + nbytes)

    def load(offset, nbytes):
        end = min(offset + nbytes, size)
        if end <= offset:
            return b""
        chunk = bytes(data[offset:end])
        return chunk + bytes(end - offset - len(chunk))

    return store, extend_size, load


def _seeded_steps(seed=7, steps=400):
    """The fixed 400-step walk: single-``bytes`` stores at EOF, past it
    and inside the file, a data-less extend every 17th step, and a load
    after every step."""
    rng = random.Random(seed)
    size = 0
    out = []
    for step in range(steps):
        offset = rng.choice([size, size + rng.randrange(1, 5000),
                             rng.randrange(0, size + 1)])
        length = rng.randrange(0, 9000)
        if step % 17 == 0:  # a data-less write: a hole past stored bytes
            out.append(("extend", offset, length))
        else:
            out.append(("store", offset, [rng.randbytes(length)]))
        size = max(size, offset + length)
        out.append(("load", rng.randrange(0, size + 10),
                    rng.randrange(0, 20000)))
    return out


@st.composite
def _buffers(draw):
    """One write buffer: ``bytes``, an owned ``bytearray`` or a
    ``memoryview`` slice of a larger buffer of either kind.  Its bytes
    come from a drawn seed: drawing thousands of bytes one by one would
    cost more than the check."""
    length = draw(st.integers(0, 3000))
    payload = random.Random(draw(st.integers(0, 1 << 32))).randbytes(length)
    kind = draw(st.sampled_from(["bytes", "bytearray", "memoryview"]))
    if kind == "bytes":
        return payload
    if kind == "bytearray":
        return bytearray(payload)
    head = draw(st.binary(max_size=64))
    tail = draw(st.binary(max_size=64))
    backing = draw(st.sampled_from([bytes, bytearray]))(head + payload + tail)
    return memoryview(backing)[len(head):len(head) + len(payload)]


@st.composite
def _steps(draw):
    """Stores of one or more buffers at EOF, past it (a hole) and over
    stored bytes, data-less extends, and a load after each.  Store and
    load edges often fall on, or one byte either side of, the edge of an
    earlier buffer, so overwrites and loads straddle chunk boundaries."""
    size = 0
    edges = [0]
    out = []

    def near_edge(lo, hi):
        edge = draw(st.sampled_from(edges)) + draw(st.integers(-1, 1))
        return min(max(edge, lo), hi)

    for _ in range(draw(st.integers(1, 12))):
        pick = draw(st.integers(0, 3))
        if pick == 0:
            offset = size
        elif pick == 1:
            offset = draw(st.integers(size + 1, size + 5000))
        elif pick == 2:
            offset = draw(st.integers(0, size))
        else:
            offset = near_edge(0, size)
        if draw(st.integers(0, 9)) == 0:
            length = draw(st.integers(0, 9000))
            out.append(("extend", offset, length))
        else:
            parts = draw(st.lists(_buffers(), min_size=1, max_size=3))
            edges.append(offset)
            position = offset
            for part in parts:
                position += len(part)
                edges.append(position)
            length = position - offset
            out.append(("store", offset, parts))
        size = max(size, offset + length)
        if draw(st.booleans()):
            lo = draw(st.integers(0, size + 10))
            hi = lo + draw(st.integers(0, 20000))
        else:
            lo = near_edge(0, size + 10)
            hi = near_edge(lo, size + 10)
        out.append(("load", lo, hi - lo))
    return out


@settings(deadline=None)
@example(steps=_seeded_steps())
@given(steps=_steps())
def test_stored_contents_match_the_zero_extend_model(steps):
    layout = StripeLayout(stripe_size=4096, stripe_count=2, start_ost=0,
                          num_osts=4)
    file = LustreFile(1, "f", layout, store_data=True)
    store, extend_size, load = _reference_file()
    for kind, offset, arg in steps:
        if kind == "extend":
            file.extend_size(offset, arg)
            extend_size(offset, arg)
        elif kind == "store":
            file.store(offset, arg)
            store(offset, b"".join(arg))
        else:
            assert file.load(offset, arg) == load(offset, arg)
    assert file.load(0, file.size + 1) == load(0, file.size + 1)
