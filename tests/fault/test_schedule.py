"""Unit tests for the fault-injection subsystem.

Covers the schedule builders and validation, timed/count-triggered OST
and OSS failures, retry exhaustion in the OST and MDS domains, RPC
drop/delay faults, client retry/backoff accounting,
the imperative steering API, and the determinism contract (identical
(schedule, workload) pairs produce bit-identical traces).
"""

import pytest

from repro import sim
from repro.errors import (
    InvalidArgumentError,
    OstUnavailableError,
    RetryExhaustedError,
    RpcTimeoutError,
)
from repro.fault import FaultInjector, FaultSchedule
from repro.pfs import LustreClient, LustreCluster
from repro.pfs.configs import small_test_cluster
from repro.pfs.stats import collect_report


def fast_retry_cluster(**overrides):
    """Small cluster with a cheap retry policy so tests stay quick."""
    params = dict(
        rpc_timeout=0.02,
        rpc_max_retries=6,
        rpc_backoff_base=0.01,
        rpc_backoff_max=0.1,
        rpc_backoff_jitter=0.0,
    )
    params.update(overrides)
    return small_test_cluster(**params)


def run_faulty(config, schedule, fn):
    """Run fn(client) on a one-client cluster with ``schedule`` installed.

    Returns ``(result, cluster, injector, elapsed, client)``; the client
    comes back explicitly because the cluster does not keep it.
    """
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, config)
        injector = None
        if schedule is not None:
            injector = FaultInjector(schedule).install(cluster)
        client = LustreClient(cluster, 0)
        proc = engine.spawn(fn, client)
        elapsed = engine.run()
    return proc.result, cluster, injector, elapsed, client


def write_one_file(client, nbytes=1 << 16, stripe_count=1):
    file = client.create("data", stripe_count=stripe_count)
    payload = bytes(range(256)) * (nbytes // 256)
    client.write(file, 0, payload)
    client.fsync(file)
    return client.read(file, 0, len(payload)) == payload


class TestScheduleBuilders:
    def test_builders_chain(self):
        schedule = (
            FaultSchedule(seed=7)
            .fail_ost(2, at_time=0.5, duration=1.0)
            .recover_ost(3, at_time=2.0)
            .degrade_disk(1, factor=4.0, at_time=0.1)
            .fail_oss(0, at_time=1.0, duration=0.5)
            .drop_rpc(probability=0.01)
            .delay_rpc(5e-3, every=3)
            .fail_sync(every=3)
            .crash_rank(0, at_barrier=2)
        )
        assert len(schedule) == 8

    def test_fail_ost_needs_a_trigger(self):
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().fail_ost(0)

    def test_rpc_faults_validate_triggers(self):
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().drop_rpc()
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().drop_rpc(probability=1.5)
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().delay_rpc(-1.0, every=2)
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().delay_rpc(1e-3, every=0)

    def test_fail_sync_and_crash_validate(self):
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().fail_sync()
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().crash_rank(0, at_barrier=0)

    def test_degrade_needs_positive_factor(self):
        with pytest.raises(InvalidArgumentError):
            FaultSchedule().degrade_disk(0, factor=0.0, at_time=0.0)


class TestOstFailures:
    def test_transient_ost_failure_is_retried_through(self):
        """An OST that reboots within the retry budget costs retries,
        not data: the write completes and reads back verbatim."""
        schedule = FaultSchedule().fail_ost(0, at_time=0.0, duration=0.04)
        ok, cluster, injector, _, client = run_faulty(
            fast_retry_cluster(), schedule, write_one_file
        )
        assert ok
        client_stats = client.stats
        assert client_stats.rpc_retries > 0
        assert client_stats.rpc_failures == 0
        assert client_stats.backoff_time > 0
        assert injector.stats.osts_failed == 1
        assert injector.stats.osts_recovered == 1
        assert cluster.osts[0].up

    def test_after_requests_lets_earlier_requests_through(self):
        """A count-triggered failure serves N-1 requests first."""
        schedule = FaultSchedule().fail_ost(0, after_requests=3)

        def main(client):
            file = client.create("data", stripe_count=1)
            for i in range(2):  # two RPCs, served before the trip point
                client.write(file, i * 4096, b"a" * 4096)
                client.fsync(file)
            return True

        ok, cluster, injector, _, _ = run_faulty(
            fast_retry_cluster(), schedule, main
        )
        assert ok
        assert injector.stats.osts_failed == 0
        assert cluster.osts[0].up

    def test_degraded_disk_slows_the_run(self):
        clean = run_faulty(fast_retry_cluster(), None, write_one_file)
        degraded = run_faulty(
            fast_retry_cluster(),
            FaultSchedule().degrade_disk(0, factor=20.0, at_time=0.0),
            write_one_file,
        )
        assert clean[0] and degraded[0]
        assert degraded[3] > clean[3]
        assert degraded[2].stats.disks_degraded == 1

    def test_degraded_disk_heals_after_duration(self):
        schedule = FaultSchedule().degrade_disk(
            0, factor=20.0, at_time=0.0, duration=1e-6
        )

        def main(client):
            sim.sleep(1.0)  # let the degradation window pass
            return write_one_file(client)

        ok, cluster, _, _, _ = run_faulty(fast_retry_cluster(), schedule, main)
        assert ok
        # the disk profile is back to the healthy object
        assert cluster.osts[0].disk is cluster.osts[0]._healthy_disk


@pytest.mark.parametrize("domain", ["ost", "mds"])
def test_permanent_failure_exhausts_retries(domain):
    """A server that never comes back spends the whole budget in either
    failure domain: a down OST rejects each try, a down MDS shard times
    each one out, and the op fails once after 1 try + every retry."""
    retries = 2 if domain == "ost" else 3
    if domain == "ost":
        schedule = FaultSchedule().fail_ost(0, after_requests=1)
    else:
        schedule = FaultSchedule().fail_mds(0, at_time=0.0)  # never heals

    def main(client):
        if domain == "mds":
            with pytest.raises(RetryExhaustedError) as excinfo:
                client.create("f")
            return excinfo.value
        file = client.create("data", stripe_count=1)
        client.write(file, 0, b"x" * 4096)
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.fsync(file)
        return excinfo.value

    error, cluster, injector, _, client = run_faulty(
        fast_retry_cluster(rpc_max_retries=retries), schedule, main
    )
    assert error.attempts == retries + 1
    assert client.stats.rpc_failures == 1
    if domain == "ost":
        assert isinstance(error.last_error, OstUnavailableError)
        assert error.last_error.ost_index == 0
        assert injector.down_osts == (0,)
        assert cluster.osts[0].stats.rejected_requests > 0
    else:
        assert isinstance(error.last_error, RpcTimeoutError)
        assert injector.down_mds == (0,)


class TestOssAndRpcFaults:
    def test_oss_failure_times_out_then_recovers(self):
        schedule = FaultSchedule().fail_oss(0, at_time=0.0, duration=0.03)
        ok, cluster, injector, _, client = run_faulty(
            fast_retry_cluster(rpc_max_retries=8), schedule, write_one_file
        )
        assert ok
        assert client.stats.rpc_timeouts > 0
        assert injector.stats.osses_failed == 1
        assert cluster.osses[0].up

    def test_dropped_rpcs_burn_timeouts_and_retry(self):
        schedule = FaultSchedule().drop_rpc(every=2)
        ok, _, injector, _, client = run_faulty(
            fast_retry_cluster(), schedule, write_one_file
        )
        assert ok
        assert injector.stats.rpcs_dropped > 0
        stats = client.stats
        assert stats.rpc_timeouts == injector.stats.rpcs_dropped
        assert stats.rpc_retries >= stats.rpc_timeouts

    def test_delayed_rpcs_inject_latency(self):
        clean = run_faulty(fast_retry_cluster(), None, write_one_file)
        delayed = run_faulty(
            fast_retry_cluster(),
            FaultSchedule().delay_rpc(0.25, every=1),
            write_one_file,
        )
        assert delayed[0]
        assert delayed[2].stats.rpcs_delayed > 0
        assert delayed[2].stats.delay_injected >= 0.25
        assert delayed[3] >= clean[3] + 0.25

    def test_cluster_report_shows_fault_counters(self):
        schedule = FaultSchedule().drop_rpc(every=2)
        _, cluster, _, elapsed, _ = run_faulty(
            fast_retry_cluster(), schedule, write_one_file
        )
        report = collect_report(cluster, elapsed)
        assert report.rpc_timeouts > 0
        assert report.rpc_retries >= report.rpc_timeouts
        assert "RPC retries" in report.summary()


class TestImperativeApi:
    def test_fail_and_recover_now(self):
        def main(client):
            injector = client.cluster.fault_injector
            file = client.create("data", stripe_count=1)
            client.write(file, 0, b"a" * 4096)
            client.fsync(file)
            injector.fail_ost_now(0)
            assert injector.down_osts == (0,)
            injector.recover_ost_now(0)
            client.write(file, 4096, b"b" * 4096)
            client.fsync(file)
            return client.read(file, 0, 8192)

        data, _, injector, _, _ = run_faulty(
            fast_retry_cluster(), FaultSchedule(), main
        )
        assert data == b"a" * 4096 + b"b" * 4096
        kinds = [kind for _, kind, _ in injector.trace]
        assert kinds == ["ost_down", "ost_up"]


class TestDeterminism:
    def _noisy_schedule(self):
        return (
            FaultSchedule(seed=42)
            .fail_ost(0, at_time=0.01, duration=0.05)
            .drop_rpc(probability=0.2)
            .delay_rpc(2e-3, probability=0.3)
        )

    def _workload(self, client):
        file = client.create("data", stripe_count=4)
        for i in range(8):
            client.write(file, i * 8192, bytes([i]) * 8192)
        client.fsync(file)
        return client.read(file, 0, 8 * 8192)

    def test_same_seed_bit_identical_traces(self):
        """The acceptance property: two runs of the same (schedule,
        workload) pair agree on every injected fault, every counter, and
        the simulated clock."""
        runs = [
            run_faulty(fast_retry_cluster(), self._noisy_schedule(),
                       self._workload)
            for _ in range(2)
        ]
        (data_a, _, inj_a, t_a, client_a) = runs[0]
        (data_b, _, inj_b, t_b, client_b) = runs[1]
        assert data_a == data_b
        assert inj_a.trace == inj_b.trace
        assert inj_a.stats.snapshot() == inj_b.stats.snapshot()
        assert t_a == t_b
        stats_a = client_a.stats
        stats_b = client_b.stats
        assert stats_a == stats_b

    def test_different_seed_diverges(self):
        base = run_faulty(
            fast_retry_cluster(), self._noisy_schedule(), self._workload
        )
        other_schedule = (
            FaultSchedule(seed=43)
            .fail_ost(0, at_time=0.01, duration=0.05)
            .drop_rpc(probability=0.2)
            .delay_rpc(2e-3, probability=0.3)
        )
        other = run_faulty(fast_retry_cluster(), other_schedule, self._workload)
        # data integrity holds regardless of the seed...
        assert base[0] == other[0]
        # ...but the injected-fault sequence differs.
        assert base[2].trace != other[2].trace


class TestZeroOverhead:
    def test_no_injector_means_no_trace_and_same_counters(self):
        ok, _, injector, _, client = run_faulty(
            fast_retry_cluster(), None, write_one_file
        )
        assert ok and injector is None
        stats = client.stats
        assert stats.rpc_retries == 0
        assert stats.rpc_timeouts == 0
        assert stats.backoff_time == 0.0

    def test_healthy_elapsed_identical_with_and_without_empty_schedule(self):
        """An installed-but-empty schedule must not perturb timing."""
        clean = run_faulty(fast_retry_cluster(), None, write_one_file)
        empty = run_faulty(fast_retry_cluster(), FaultSchedule(), write_one_file)
        assert clean[3] == empty[3]
