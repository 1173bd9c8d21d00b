"""MDS shard failure domains: retry-through and mid-campaign outage.

The metadata twin of the OST failure suite — a down shard costs clients
their RPC timeout plus backoff, recovery lets the retry path finish the
op (exhaustion is covered with the OST domain in test_schedule.py), and
a shard outage in the middle of a multi-client serving-style
campaign must degrade (retries) without corrupting the namespace or the
determinism contract.
"""

from repro import sim
from repro.fault import FaultInjector, FaultSchedule
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster


def fast_retry_cluster(**overrides):
    params = dict(
        rpc_timeout=0.02,
        rpc_max_retries=6,
        rpc_backoff_base=0.01,
        rpc_backoff_max=0.1,
        rpc_backoff_jitter=0.0,
    )
    params.update(overrides)
    return small_test_cluster(**params)


def run_faulty(config, schedule, fn, num_clients=1):
    """Run ``fn`` on fresh clients; (result, cluster, injector, t, clients).

    The clients come back as ``fn`` received them (one client, or the
    list): the cluster does not keep its clients.
    """
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        injector = None
        if schedule is not None:
            injector = FaultInjector(schedule).install(cluster)
        clients = [LustreClient(cluster, i) for i in range(num_clients)]
        handed = clients if num_clients > 1 else clients[0]
        proc = engine.spawn(fn, handed)
        elapsed = engine.run()
    return proc.result, cluster, injector, elapsed, handed


def metadata_workload(client):
    file = client.create("dir/data", stripe_count=1)
    client.write(file, 0, 1 << 12)
    client.close(file)
    client.stat("dir/data")
    return client.open("dir/data").path == "dir/data"


class TestMdsFailures:
    def test_transient_mds_failure_is_retried_through(self):
        schedule = FaultSchedule().fail_mds(0, at_time=0.0, duration=0.05)
        ok, _, injector, _, client = run_faulty(
            fast_retry_cluster(), schedule, metadata_workload
        )
        assert ok
        stats = client.stats
        assert stats.rpc_retries > 0
        assert stats.rpc_timeouts > 0
        assert stats.rpc_failures == 0
        assert stats.backoff_time > 0
        assert injector.stats.mds_failed == 1
        assert injector.stats.mds_recovered == 1
        assert injector.trace[0][1] == "mds_down"
        assert injector.down_mds == ()

    def test_rejected_requests_counted_on_the_shard(self):
        """The unavailability path that bypasses the timeout: an op
        already dispatched to a shard that drops mid-flight raises
        MdsUnavailableError and counts as rejected, not served."""
        schedule = FaultSchedule().fail_mds(0, at_time=0.0, duration=0.05)
        _, cluster, _, _, _ = run_faulty(
            fast_retry_cluster(), schedule, metadata_workload
        )
        agg = cluster.mds.stats
        assert agg.failures == 1
        # every request that was eventually served is accounted; the
        # namespace is intact
        assert cluster.exists("dir/data")

    def test_imperative_steering(self):
        def main(client):
            client.create("a")
            injector = client.cluster.fault_injector
            injector.fail_mds_now(0)
            assert injector.down_mds == (0,)
            injector.recover_mds_now(0)
            client.create("b")
            return injector.down_mds

        down, cluster, _, _, _ = run_faulty(
            fast_retry_cluster(), FaultSchedule(), main
        )
        assert down == ()
        assert cluster.exists("a") and cluster.exists("b")


class TestMidCampaignOutage:
    """Regression: a shard outage while a fleet is enumerating/serving."""

    N_CLIENTS = 4
    FILES = 6

    @staticmethod
    def _campaign(clients):
        done = []
        for rank, client in enumerate(clients):
            for i in range(TestMidCampaignOutage.FILES):
                path = f"rank{rank}/f{i}"
                file = client.create(path, stripe_count=1)
                client.write(file, 0, 1 << 12)
                client.close(file)
            done.append(len(client.readdir(f"rank{rank}")))
        return done

    def _run(self, schedule):
        return run_faulty(
            fast_retry_cluster(mds_shards=4),
            schedule,
            self._campaign,
            num_clients=self.N_CLIENTS,
        )

    def test_outage_degrades_but_completes(self):
        schedule = FaultSchedule().fail_mds(2, at_time=0.001, duration=0.08)
        listed, cluster, injector, _, _ = self._run(schedule)
        assert listed == [self.FILES] * self.N_CLIENTS
        assert cluster.total_rpc_retries() > 0
        assert injector.stats.mds_failed == 1
        assert injector.stats.mds_recovered == 1
        # the outage only taxed the failed shard; the namespace is whole
        for rank in range(self.N_CLIENTS):
            assert len(cluster.mds.entries(f"rank{rank}")) == self.FILES

    def test_outage_costs_time_not_data(self):
        healthy = self._run(FaultSchedule())
        faulty = self._run(
            FaultSchedule().fail_mds(2, at_time=0.001, duration=0.08)
        )
        assert healthy[0] == faulty[0]          # same listings
        assert faulty[3] > healthy[3]           # outage slowed the campaign

    def test_outage_runs_are_deterministic(self):
        runs = [
            self._run(
                FaultSchedule().fail_mds(2, at_time=0.001, duration=0.08)
            )
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert runs[0][3] == runs[1][3]
        assert runs[0][2].trace == runs[1][2].trace
