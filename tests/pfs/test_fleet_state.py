"""Per-rank simulator state costs only what a run uses.

A fleet-size run builds one client, one NIC, one scheduler and a few
mailboxes per rank, and thousands of files.  Each of them is built to
be used, but a healthy FIFO run uses little of it: jitter and retry
RNGs are built at their first draw, wait queues when something first
parks, the FIFO policy holds no queue at all, and files with equal
striping share one layout.  (A light process's lazy ``done`` event is
checked in ``tests/sim/test_light_processes.py``.)  The lazy RNGs must draw exactly the streams
an eagerly built Generator with the same seed would.
"""

import gc
import tracemalloc
from collections import deque

import numpy as np

from repro import sim
from repro.bench.llm import LlmConfig, run_llm_scenario
from repro.fault import FaultInjector, FaultSchedule
from repro.io import IoScheduler
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster


def _deques(obj) -> list:
    return [v for v in vars(obj).values() if isinstance(v, deque)]


def _generators(obj) -> list:
    return [v for v in vars(obj).values() if isinstance(v, np.random.Generator)]


def _traced_peak(ranks: int) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        run_llm_scenario(LlmConfig(ranks=ranks).quick())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fleet_peak_per_added_rank():
    """The traced peak grows by at most 12.5 KB per rank from 64 to 256
    ranks (9.3 KB on CPython 3.11; 15.7 KB with eager RNGs, wait
    queues, done events and per-file layouts)."""
    run_llm_scenario(LlmConfig(ranks=8).quick())  # one-off caches land here
    per_rank = (_traced_peak(256) - _traced_peak(64)) / (256 - 64)
    assert per_rank <= 12.5 * 1024, f"{per_rank / 1024:.2f} KB per rank"


def _write_and_read(client):
    file = client.create("data")
    client.write(file, 0, bytes(1 << 18))
    client.fsync(file)
    assert client.read(file, 0, 1 << 18) == bytes(1 << 18)
    client.close(file)


def _run_one_client(config, fn, client_id=0, schedule=None):
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        if schedule is not None:
            FaultInjector(schedule).install(cluster)
        client = LustreClient(cluster, client_id)
        engine.spawn(fn, client)
        engine.run()
    return client


class TestBuiltOnFirstUse:
    def test_jitter_free_fault_free_client_holds_no_generator(self):
        client = _run_one_client(
            small_test_cluster(client_jitter=0.0), _write_and_read
        )
        assert client.stats.write_rpcs and client.stats.read_rpcs
        assert _generators(client) == []

    def test_uncontended_resource_store_and_fifo_scheduler_hold_no_deque(self):
        engine = sim.Engine()
        resource = sim.Resource(engine, capacity=1, name="nic")
        store = sim.Store(engine, name="box")
        unused = sim.Store(engine, name="anysrc")
        scheduler = IoScheduler(engine)

        def run():
            for _ in range(3):
                yield from resource.acquire_lw()
                yield 1.0
                resource.release()
            store.put("msg")
            assert (yield from store.get_lw()) == "msg"
            yield from scheduler.submit_lw("write", 4096, lambda: iter(()))

        with engine:
            engine.spawn_light(run, name="solo")
            engine.run()
        assert _deques(resource) == []
        assert store._getters is None  # noqa: SLF001 - the getter never parked
        assert _deques(unused) == []
        assert scheduler.stats.inline_issues == 1
        assert _deques(scheduler) == []
        assert not hasattr(scheduler._policy, "__dict__")  # noqa: SLF001


class TestSharedLayouts:
    def test_files_with_equal_striping_share_one_layout(self):
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            # 4 OSTs, 2 stripes per file: starts go 0, 2, 0, 2, ...
            first, second, third = (
                cluster.create(name) for name in ("a", "b", "c")
            )
            spelled = cluster.create("d", stripe_size=65536)
            wide = cluster.create("e", stripe_count=4)
        assert third.layout is first.layout
        assert spelled.layout is second.layout  # "64K" == 65536 bytes
        assert second.layout is not first.layout
        assert wide.layout.stripe_count == 4 and wide.layout.start_ost == 0
        assert wide.layout is not first.layout
        assert not hasattr(first.layout, "__dict__")


class TestLazyStreamsAreTheEagerStreams:
    def test_jitter_arrivals_match_an_eager_generator(self):
        config = small_test_cluster(
            client_jitter=2e-3, jitter_seed=11, rpc_size="64K"
        )
        client_id = 3
        arrivals = []

        def record(client):
            draw = client._jitter_delay_lw

            def recording():
                # RPCs overlap: note the arrival at its draw, not after
                # the wait.
                now = sim.now()
                waits = draw()
                wait = next(waits, None)
                arrivals.append((now, client._last_arrival))
                if wait is not None:
                    yield wait
                    yield from waits

            client._jitter_delay_lw = recording
            _write_and_read(client)

        _run_one_client(config, record, client_id)
        eager = np.random.default_rng(
            (config.jitter_seed * 1_000_003 + client_id) & 0xFFFFFFFF
        )
        last = 0.0
        for now, arrival in arrivals:
            last = max(now + float(eager.uniform(0.0, 2e-3)), last)
            assert arrival == last
        assert len(arrivals) >= 8
        assert any(arrival > now for now, arrival in arrivals)

    def test_backoff_delays_match_an_eager_retry_generator(self):
        config = small_test_cluster(
            rpc_timeout=0.02, rpc_max_retries=8, rpc_backoff_base=0.01,
            rpc_backoff_max=0.1, rpc_backoff_jitter=0.5, jitter_seed=5,
        )
        schedule = FaultSchedule(seed=3).fail_ost(0, at_time=0.0, duration=0.3)
        client_id = 2
        delays = []

        def record(client):
            backoff = client._backoff_lw

            def recording(attempts):
                for delay in backoff(attempts):
                    delays.append((attempts, delay))
                    yield delay

            client._backoff_lw = recording
            _write_and_read(client)

        client = _run_one_client(config, record, client_id, schedule)
        eager = np.random.default_rng(
            (config.jitter_seed * 9_176_219 + client_id * 31 + 7) & 0xFFFFFFFF
        )
        for attempts, delay in delays:
            base = min(0.1, 0.01 * 2 ** (attempts - 1))
            assert delay == base * (1.0 + 0.5 * float(eager.random()))
        assert len(delays) >= 4
        assert client.stats.rpc_retries == len(delays)
