"""Unit tests for the prioritized I/O scheduler (repro.io)."""

import pytest

from repro import sim
from repro.io import (
    BARRIER_CLASSES,
    NON_BARRIER_CLASSES,
    DeficitRoundRobinPolicy,
    IoRequest,
    IoScheduler,
    Priority,
    RateLimiter,
    StrictPriorityPolicy,
    current_priority,
    io_priority,
    make_policy,
    validate_barrier_partition,
)


def req(priority, nbytes=0, ost=None):
    return IoRequest(kind="write", priority=priority, nbytes=nbytes, ost=ost)


class TestPriorityModel:
    def test_service_order_is_enum_order(self):
        assert list(Priority) == [
            Priority.FOREGROUND,
            Priority.METADATA,
            Priority.FLUSH,
            Priority.DRAIN,
            Priority.COMPACTION,
        ]

    def test_barrier_classes_exclude_compaction_and_metadata(self):
        assert BARRIER_CLASSES == {Priority.FOREGROUND, Priority.FLUSH}

    def test_drain_outranks_compaction(self):
        assert Priority.DRAIN < Priority.COMPACTION
        assert Priority.FLUSH < Priority.DRAIN

    def test_every_class_is_barrier_or_non_barrier(self):
        # the partition must cover the whole enum with no overlap
        assert BARRIER_CLASSES | NON_BARRIER_CLASSES == set(Priority)
        assert not BARRIER_CLASSES & NON_BARRIER_CLASSES
        validate_barrier_partition()  # must not raise for the real enum

    def test_unclassified_priority_member_fails_partition_check(self):
        """A Priority member in no drain set is a latent data-loss bug:
        write_barrier would skip its queued jobs.  The import-time check
        must reject such a member."""
        class Rogue:
            name = "ROGUE"
        with pytest.raises(AssertionError, match="ROGUE"):
            validate_barrier_partition(list(Priority) + [Rogue()])

    def test_ambient_priority_defaults_to_foreground(self):
        assert current_priority() is Priority.FOREGROUND

    def test_io_priority_context_nests_and_restores(self):
        with io_priority(Priority.COMPACTION):
            assert current_priority() is Priority.COMPACTION
            with io_priority(Priority.METADATA):
                assert current_priority() is Priority.METADATA
            assert current_priority() is Priority.COMPACTION
        assert current_priority() is Priority.FOREGROUND

    def test_context_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with io_priority(Priority.FLUSH):
                raise RuntimeError("boom")
        assert current_priority() is Priority.FOREGROUND


class TestPolicies:
    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("elevator")

    def test_strict_priority_pops_highest_class_first(self):
        policy = StrictPriorityPolicy()
        compaction = req(Priority.COMPACTION)
        flush = req(Priority.FLUSH)
        fg = req(Priority.FOREGROUND)
        meta = req(Priority.METADATA)
        for r in (compaction, flush, fg, meta):
            policy.push(r)
        order = [policy.pop() for _ in range(4)]
        assert order == [fg, meta, flush, compaction]
        assert policy.pop() is None

    def test_strict_round_robins_across_osts_within_class(self):
        policy = StrictPriorityPolicy()
        a0, a1 = req(Priority.FLUSH, ost=0), req(Priority.FLUSH, ost=0)
        b0 = req(Priority.FLUSH, ost=1)
        policy.push(a0)
        policy.push(a1)
        policy.push(b0)
        assert [policy.pop() for _ in range(3)] == [a0, b0, a1]

    def test_drr_interleaves_by_weighted_bytes(self):
        # quantum small relative to request size: each class needs several
        # rotor visits per request, so service tracks the 4:2:2:1 weights.
        policy = DeficitRoundRobinPolicy(quantum=1024)
        fg = [req(Priority.FOREGROUND, nbytes=4096) for _ in range(4)]
        comp = [req(Priority.COMPACTION, nbytes=4096) for _ in range(4)]
        for r in fg + comp:
            policy.push(r)
        order = [policy.pop() for _ in range(8)]
        # Foreground has 4x compaction's weight: after any prefix the
        # foreground class must have received at least as much service.
        seen_fg = 0
        seen_comp = 0
        for r in order:
            if r.priority is Priority.FOREGROUND:
                seen_fg += 1
            else:
                seen_comp += 1
            assert seen_fg >= seen_comp
        assert seen_fg == seen_comp == 4

    def test_drr_zero_byte_requests_cost_one(self):
        policy = DeficitRoundRobinPolicy(quantum=16)
        for _ in range(5):
            policy.push(req(Priority.METADATA, nbytes=0))
        assert len(policy) == 5
        popped = [policy.pop() for _ in range(5)]
        assert all(r.priority is Priority.METADATA for r in popped)
        assert policy.pop() is None


class TestRateLimiter:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(0)

    def test_burst_passes_without_sleep(self):
        with sim.Engine() as engine:
            def main():
                limiter = RateLimiter(rate=1 << 20, burst=1 << 20)
                waited = limiter.throttle(1 << 19)
                return waited, sim.now()

            proc = engine.spawn(main)
            engine.run()
            assert proc.result == (0.0, 0.0)

    def test_over_rate_sleeps_on_sim_clock(self):
        with sim.Engine() as engine:
            def main():
                limiter = RateLimiter(rate=1 << 20, burst=1 << 20)
                limiter.throttle(1 << 20)          # drains the bucket
                waited = limiter.throttle(1 << 20)  # must wait 1 full second
                return waited, sim.now()

            proc = engine.spawn(main)
            engine.run()
            waited, now = proc.result
            assert waited == pytest.approx(1.0)
            assert now == pytest.approx(1.0)

    def test_tokens_refill_with_sim_time(self):
        with sim.Engine() as engine:
            def main():
                limiter = RateLimiter(rate=1 << 20, burst=1 << 20)
                limiter.throttle(1 << 20)
                sim.sleep(2.0)  # refills to the 1 MiB burst cap
                return limiter.throttle(1 << 20)

            proc = engine.spawn(main)
            engine.run()
            assert proc.result == 0.0


class TestScheduler:
    def test_fifo_is_inline_and_counts_classes(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            log = []

            def main():
                sched.submit("write", 100, lambda: log.append(sim.now()))
                with io_priority(Priority.COMPACTION):
                    sched.submit("write", 50, lambda: log.append(sim.now()))

            engine.spawn(main)
            engine.run()
            assert log == [0.0, 0.0]
            snap = sched.stats.snapshot()
            assert snap["inline_issues"] == 2
            assert snap["queued_issues"] == 0
            assert snap["submitted_foreground"] == 1
            assert snap["submitted_compaction"] == 1
            assert snap["bytes_compaction"] == 50

    def test_strict_serializes_and_prefers_foreground(self):
        """While a compaction holds the slot, a later foreground request
        overtakes earlier-queued compaction work."""
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="strict")
            order = []

            def run(tag, cost):
                def body():
                    order.append(tag)
                    sim.sleep(cost)
                return body

            def compactor(tag, delay):
                if delay:
                    sim.sleep(delay)
                with io_priority(Priority.COMPACTION):
                    sched.submit("write", 1000, run(tag, 1.0))

            def foreground():
                sim.sleep(0.2)
                sched.submit("write", 10, run("fg", 0.1))

            engine.spawn(compactor, "c1", 0.0)
            engine.spawn(compactor, "c2", 0.1)   # queues behind c1
            engine.spawn(foreground)             # queues after c2, runs first
            engine.run()
            assert order == ["c1", "fg", "c2"]
            snap = sched.stats.snapshot()
            assert snap["queued_issues"] == 2
            assert snap["stall_time_foreground"] == pytest.approx(0.8)
            assert snap["max_queue_depth"] == 2

    @pytest.mark.parametrize("policy", ["fifo", "strict", "drr"])
    def test_every_issue_is_inline_or_queued(self, policy):
        """A grant into an idle slot counts as inline, a parked request
        as queued, so together they count every issued request."""
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy=policy)

            def submitter(priority, delay):
                sim.sleep(delay)
                with io_priority(priority):
                    for _ in range(3):
                        sched.submit("write", 100, lambda: sim.sleep(0.25))
                    sim.sleep(2.0)  # the slot is idle again
                    sched.submit("write", 100, lambda: sim.sleep(0.25))

            engine.spawn(submitter, Priority.FOREGROUND, 0.0)
            engine.spawn(submitter, Priority.COMPACTION, 0.1)
            engine.spawn(submitter, Priority.FLUSH, 0.2)
            engine.run()
            stats = sched.stats
            assert sum(stats.class_issued.values()) == 12
            assert stats.inline_issues + stats.queued_issues == 12
            if policy != "fifo":
                assert stats.inline_issues > 0 and stats.queued_issues > 0

    def test_compaction_rate_limit_paces_submissions(self):
        with sim.Engine() as engine:
            # FIFO + limiter: throttling applies even to the inline path.
            sched = IoScheduler(engine, policy="fifo")
            sched.set_class_bandwidth(Priority.COMPACTION, float(1 << 20))

            def main():
                with io_priority(Priority.COMPACTION):
                    for _ in range(6):
                        sched.submit("write", 1 << 20, lambda: None)
                return sim.now()

            proc = engine.spawn(main)
            engine.run()
            # the default 4 MiB burst covers the first four; the last two
            # wait one second each at 1 MiB/s
            assert proc.result == pytest.approx(2.0)
            assert sched.stats.throttle_time == pytest.approx(2.0)

    def test_foreground_not_throttled(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            sched.set_class_bandwidth(Priority.COMPACTION, float(1 << 20))

            def main():
                for _ in range(8):
                    sched.submit("write", 1 << 20, lambda: None)
                return sim.now()

            proc = engine.spawn(main)
            engine.run()
            assert proc.result == 0.0
            assert sched.stats.throttle_time == 0.0

    def test_set_policy_rejected_with_requests_in_flight(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="strict")

            def main():
                def body():
                    with pytest.raises(RuntimeError):
                        sched.set_policy("fifo")
                sched.submit("write", 1, body)

            engine.spawn(main)
            engine.run()

    def test_compaction_bandwidth_accepts_size_strings(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="strict")
            sched.set_class_bandwidth(Priority.COMPACTION, "8M")
            limiter = sched._limiters[Priority.COMPACTION]
            assert limiter.rate == float(8 << 20)
            sched.set_class_bandwidth(Priority.COMPACTION, "0")
            # "0" disables, like 0
            assert Priority.COMPACTION not in sched._limiters

    def test_drain_rate_limit_paces_submissions(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            sched.set_class_bandwidth(Priority.DRAIN, float(1 << 20))

            def main():
                with io_priority(Priority.DRAIN):
                    for _ in range(6):
                        sched.submit("write", 1 << 20, lambda: None)
                return sim.now()

            proc = engine.spawn(main)
            engine.run()
            # default 4 MiB burst covers four; the last two wait 1 s each
            assert proc.result == pytest.approx(2.0)
            assert sched.stats.throttle_time == pytest.approx(2.0)

    def test_drain_and_compaction_buckets_are_independent(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            sched.set_class_bandwidth(Priority.DRAIN, float(1 << 20))
            sched.set_class_bandwidth(Priority.COMPACTION, float(1 << 20))

            def main():
                # each class gets its own 4 MiB burst: neither throttles
                with io_priority(Priority.DRAIN):
                    for _ in range(4):
                        sched.submit("write", 1 << 20, lambda: None)
                with io_priority(Priority.COMPACTION):
                    for _ in range(4):
                        sched.submit("write", 1 << 20, lambda: None)
                return sim.now()

            proc = engine.spawn(main)
            engine.run()
            assert proc.result == 0.0
            assert sched.stats.throttle_time == 0.0

    def test_only_background_classes_are_rate_limitable(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            for cls in (Priority.FOREGROUND, Priority.METADATA,
                        Priority.FLUSH):
                with pytest.raises(ValueError):
                    sched.set_class_bandwidth(cls, float(1 << 20))

    def test_snapshot_schema_is_stable(self):
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="fifo")
            expected = {"inline_issues", "queued_issues", "max_queue_depth",
                        "throttle_time", "throttled_bytes"}
            for cls in ("foreground", "metadata", "flush", "drain",
                        "compaction"):
                expected |= {
                    f"submitted_{cls}", f"issued_{cls}",
                    f"bytes_{cls}", f"stall_time_{cls}",
                }
            assert set(sched.stats.snapshot()) == expected


class TestDrrEdgeCases:
    def test_deficit_carries_across_rotor_visits(self):
        # Compaction (weight 1) earns 1024/visit; its 3000-byte head needs
        # three visits of carried deficit while foreground keeps issuing.
        policy = DeficitRoundRobinPolicy(quantum=1024)
        fg = [req(Priority.FOREGROUND, nbytes=4096) for _ in range(3)]
        big = req(Priority.COMPACTION, nbytes=3000)
        for r in fg + [big]:
            policy.push(r)
        order = [policy.pop() for _ in range(4)]
        assert order == fg + [big]

    def test_deficit_resets_when_class_drains(self):
        # A drained class may not hoard credit for a later burst: the
        # huge quantum would otherwise let it monopolize the next visit.
        policy = DeficitRoundRobinPolicy(quantum=1 << 20)
        policy.push(req(Priority.COMPACTION, nbytes=10))
        assert policy.pop().nbytes == 10
        assert policy._deficit[Priority.COMPACTION] == 0

    def test_deficit_resets_when_class_found_empty(self):
        # The rotor zeroes an idle class's deficit in passing, so credit
        # cannot accumulate while a class has nothing queued.
        policy = DeficitRoundRobinPolicy(quantum=1024)
        policy._deficit[Priority.METADATA] = 999999  # stale credit
        policy.push(req(Priority.COMPACTION, nbytes=1))
        assert policy.pop().priority is Priority.COMPACTION
        assert policy._deficit[Priority.METADATA] == 0

    def test_zero_byte_requests_charge_exactly_one(self):
        # quantum 4 x metadata weight 2 = 8 credits per visit: exactly
        # eight zero-byte requests fit in one visit at cost 1 apiece.
        policy = DeficitRoundRobinPolicy(quantum=4)
        for _ in range(8):
            policy.push(req(Priority.METADATA, nbytes=0))
        policy.push(req(Priority.COMPACTION, nbytes=1))
        order = [policy.pop() for _ in range(9)]
        assert [r.priority for r in order[:8]] == [Priority.METADATA] * 8
        assert order[8].priority is Priority.COMPACTION


class TestSchedulerErrorPaths:
    def test_queued_run_exception_frees_slot_and_keeps_stats(self):
        """A queued job whose run() raises must release the service slot
        and keep the issue counters consistent, or the scheduler wedges
        every later submission."""
        with sim.Engine() as engine:
            sched = IoScheduler(engine, policy="strict")
            order = []

            def holder():
                def run():
                    order.append("holder")
                    sim.sleep(1.0)
                    return "ok"
                return sched.submit("write", 10, run)

            def crasher_then_retry():
                sim.sleep(0.1)  # arrive while the holder occupies the slot

                def boom():
                    order.append("boom")
                    raise RuntimeError("queued job failed")

                with pytest.raises(RuntimeError, match="queued job failed"):
                    sched.submit("write", 10, boom)

                def retry():
                    order.append("retry")
                    return "recovered"

                return sched.submit("write", 10, retry)

            first = engine.spawn(holder)
            second = engine.spawn(crasher_then_retry)
            engine.run()

            assert order == ["holder", "boom", "retry"]
            assert first.result == "ok"
            assert second.result == "recovered"
            stats = sched.stats
            assert stats.class_issued["foreground"] == 3
            assert stats.queued_issues == 1  # only the crasher parked
            assert sched._active is None


class TestRateLimiterDoubleSpend:
    def test_concurrent_throttlers_cannot_double_spend(self):
        """Three writers grab the same bucket at t=0.  The charge must be
        recorded *before* sleeping: with the old refill-then-zero model
        every concurrent waiter saw a merely-empty bucket and paid one
        refill period, admitting 3 MiB in 1 s through a 1 MiB/s bucket."""
        with sim.Engine() as engine:
            limiter = RateLimiter(rate=1 << 20, burst=1 << 20)
            finish = []

            def writer(name):
                limiter.throttle(1 << 20)
                finish.append((name, sim.now()))

            for i in range(3):
                engine.spawn(writer, f"w{i}")
            engine.run()
        assert [name for name, _ in finish] == ["w0", "w1", "w2"]
        assert [t for _, t in finish] == pytest.approx([0.0, 1.0, 2.0])

    def test_throttle_lw_twin_matches_thread_schedule(self):
        def run(light: bool):
            with sim.Engine(light_processes=light) as engine:
                limiter = RateLimiter(rate=1 << 20, burst=1 << 20)
                finish = []

                def writer_lw(name):
                    waited = yield from limiter.throttle_lw(1 << 20)
                    finish.append((name, round(waited, 9), sim.now()))

                for i in range(3):
                    engine.spawn_light(writer_lw, f"w{i}")
                engine.run()
            return finish

        light = run(True)
        threads = run(False)
        assert light == threads
        assert [t for _, _, t in light] == pytest.approx([0.0, 1.0, 2.0])
