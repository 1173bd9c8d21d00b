"""Unit + integration tests for the client-side metadata cache.

The unit half drives :class:`MetadataCache` with a fake clock (TTL,
negative entries, LRU eviction, invalidation).  The integration half
runs it inside a cluster with ``md_cache=True`` and checks the contract
that matters: a hit saves the MDS round-trip, a namespace mutation
invalidates every client's verdict, and both engine backends replay the
same schedule.
"""

import pytest

from repro import sim
from repro.errors import NotFoundError
from repro.pfs import LustreClient, LustreCluster, MetadataCache
from repro.pfs.configs import small_test_cluster


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestMetadataCacheUnit:
    def test_positive_and_negative_verdicts(self):
        cache = MetadataCache(clock=FakeClock())
        assert cache.lookup("a") is None
        cache.insert("a", exists=True)
        cache.insert("b", exists=False)
        assert cache.lookup("a") is True
        assert cache.lookup("b") is False
        assert cache.stats.hits == 1
        assert cache.stats.negative_hits == 1
        assert cache.stats.misses == 1

    def test_ttl_expiry_on_the_injected_clock(self):
        clock = FakeClock()
        cache = MetadataCache(ttl=5.0, clock=clock)
        cache.insert("a", exists=True)
        clock.t = 4.999
        assert cache.lookup("a") is True
        clock.t = 5.0
        assert cache.lookup("a") is None  # expired exactly at insert+ttl
        assert cache.stats.expirations == 1
        assert "a" not in cache._entries  # expired entry is dropped

    def test_lru_eviction_at_capacity(self):
        cache = MetadataCache(capacity=2, clock=FakeClock())
        cache.insert("a")
        cache.insert("b")
        cache.lookup("a")        # a is now most-recently-used
        cache.insert("c")        # evicts b, the LRU victim
        assert cache.lookup("b") is None
        assert cache.lookup("a") is True
        assert cache.lookup("c") is True
        assert cache.stats.evictions == 1

    def test_invalidate_is_miss_safe(self):
        cache = MetadataCache(clock=FakeClock())
        cache.insert("a")
        cache.invalidate("a")
        cache.invalidate("a")  # second drop is a no-op
        assert cache.lookup("a") is None
        assert cache.stats.invalidations == 1

    def test_reinsert_refreshes_without_eviction(self):
        clock = FakeClock()
        cache = MetadataCache(capacity=2, ttl=5.0, clock=clock)
        cache.insert("a")
        cache.insert("b")
        clock.t = 4.0
        cache.insert("a")  # refresh, not a capacity eviction
        clock.t = 6.0      # b expired, refreshed a still live
        assert cache.lookup("a") is True
        assert cache.lookup("b") is None
        assert cache.stats.evictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetadataCache(capacity=0)
        with pytest.raises(ValueError):
            MetadataCache(ttl=0.0)

    def test_hit_rate(self):
        cache = MetadataCache(clock=FakeClock())
        assert cache.stats.hit_rate == 0.0
        cache.insert("a")
        cache.lookup("a")
        cache.lookup("missing")
        assert cache.stats.hit_rate == pytest.approx(0.5)


def run_cached(fn, num_clients=1, **overrides):
    """Run fn(clients) on an md_cache=True cluster; (result, clients, t).

    The clients come back as ``fn`` received them (one client, or the
    list): the cluster does not keep its clients.
    """
    config = small_test_cluster(md_cache=True, **overrides)
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        clients = [LustreClient(cluster, i) for i in range(num_clients)]
        handed = clients if num_clients > 1 else clients[0]
        proc = engine.spawn(fn, handed)
        elapsed = engine.run()
    return proc.result, handed, elapsed


class TestClientIntegration:
    def test_repeat_open_hits_cache_and_saves_the_rpc(self):
        def main(client):
            client.create("f")
            before = client.stats.mds_ops
            client.open("f")   # miss was filled by create's insert -> hit
            client.open("f")
            return client.stats.mds_ops - before

        extra_ops, client, _ = run_cached(main)
        assert extra_ops == 0  # both opens answered locally
        assert client._md_cache.stats.hits == 2

    def test_negative_entry_short_circuits_missing_paths(self):
        def main(client):
            with pytest.raises(NotFoundError):
                client.stat("nope")  # miss: pays the MDS op, caches False
            before = client.stats.mds_ops
            with pytest.raises(NotFoundError):
                client.stat("nope")  # negative hit: no RPC
            return client.stats.mds_ops - before

        extra_ops, client, _ = run_cached(main)
        assert extra_ops == 0
        assert client._md_cache.stats.negative_hits == 1

    def test_unlink_invalidates_every_client(self):
        """Client 1's cached verdict must not survive client 0's unlink —
        the stale-read hazard the invalidation broadcast exists for."""
        def main(clients):
            a, b = clients
            a.create("shared")
            b.open("shared")   # b now caches exists=True
            a.unlink("shared")
            with pytest.raises(NotFoundError):
                b.open("shared")
            return True

        ok, (_, b), _ = run_cached(main, num_clients=2)
        assert ok
        assert b._md_cache.stats.invalidations >= 1

    def test_setattr_invalidates_cached_verdicts(self):
        def main(clients):
            a, b = clients
            a.create("f")
            b.open("f")
            before = b._md_cache.stats.invalidations
            a.setattr("f")
            return b._md_cache.stats.invalidations - before

        dropped, _, _ = run_cached(main, num_clients=2)
        assert dropped == 1

    def test_ttl_expires_on_the_sim_clock(self):
        def main(client):
            client.create("f")
            sim.sleep(1.0)  # beyond the 0.5s TTL
            before = client.stats.mds_ops
            client.open("f")  # expired: a real MDS op again
            return client.stats.mds_ops - before

        extra_ops, client, _ = run_cached(main, md_cache_ttl=0.5)
        assert extra_ops == 1
        assert client._md_cache.stats.expirations == 1

    def test_cache_off_by_default(self):
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)
            assert client._md_cache is None
            assert cluster._md_caches == []

    def test_backends_replay_one_schedule(self):
        """The cache is timing-transparent, so the thread and light
        backends must land on the same clock with it enabled."""
        def workload_lw(client):
            file = yield from client.create_lw("d/f")
            yield from client.write_lw(file, 0, 1 << 16)
            yield from client.close_lw(file)
            for _ in range(3):
                yield from client.open_lw("d/f")
                yield from client.stat_lw("d/f")
            yield from client.readdir_lw("d")
            yield from client.unlink_lw("d/f")

        times = {}
        for light in (True, False):
            with sim.Engine(light_processes=light) as engine:
                cluster = LustreCluster(
                    engine, small_test_cluster(md_cache=True)
                )
                client = LustreClient(cluster, 0)
                if light:
                    engine.spawn_light(workload_lw, client)
                else:
                    engine.spawn(
                        lambda: sim.run_blocking(workload_lw(client))
                    )
                times[light] = (engine.run(), engine._heap_pushes)
        assert times[True] == times[False]
