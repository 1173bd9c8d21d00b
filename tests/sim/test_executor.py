"""Tests for the simulated flush executor (async writes in sim time).

The error-contract cases shared with ``ThreadExecutor`` run against both
executors in ``tests/lsm/test_executors.py``.
"""

from repro import sim
from repro.io import Priority
from repro.sim.executor import SimExecutor


def test_jobs_run_in_submission_order():
    with sim.Engine() as engine:
        log = []

        def main():
            executor = SimExecutor(engine)
            for tag in "abc":
                executor.submit(lambda t=tag: log.append(t))
            executor.drain()
            return list(log)

        proc = engine.spawn(main)
        engine.run()
        assert proc.result == ["a", "b", "c"]


def test_jobs_overlap_submitter_time():
    """An async flush runs while the submitter keeps computing."""
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            executor.submit(lambda: sim.sleep(5.0))  # a slow flush
            t_after_submit = sim.now()
            sim.sleep(2.0)                           # overlapped compute
            executor.drain()
            return (t_after_submit, sim.now())

        proc = engine.spawn(main)
        engine.run()
        submitted, drained = proc.result
        assert submitted == 0.0   # submit returns immediately
        assert drained == 5.0     # flush and compute overlapped


def test_single_worker_serializes_jobs():
    """Two 3-second jobs take 6 seconds: one flush thread (§3.1.2)."""
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            executor.submit(lambda: sim.sleep(3.0))
            executor.submit(lambda: sim.sleep(3.0))
            executor.drain()
            return sim.now()

        proc = engine.spawn(main)
        engine.run()
        assert proc.result == 6.0


def test_drain_idempotent_and_empty():
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            executor.drain()
            executor.submit(lambda: sim.sleep(1.0))
            executor.drain()
            executor.drain()
            executor.close()
            return sim.now()

        proc = engine.spawn(main)
        engine.run()
        assert proc.result == 1.0


def test_class_filtered_drain_skips_other_classes():
    """Draining FLUSH+FOREGROUND must not wait for a queued compaction."""
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            executor.submit(lambda: sim.sleep(1.0), priority=Priority.FLUSH)
            executor.submit(
                lambda: sim.sleep(10.0), priority=Priority.COMPACTION
            )
            executor.drain(priorities=(Priority.FOREGROUND, Priority.FLUSH))
            t_barrier = sim.now()
            executor.drain()
            return t_barrier, sim.now()

        proc = engine.spawn(main)
        engine.run()
        barrier, full = proc.result
        # The single worker serializes, so the barrier still waits for
        # compaction work *ahead of* the flush — but here flush was
        # submitted first, so the filtered drain returns at t=1.
        assert barrier == 1.0
        assert full == 11.0


def test_drain_raises_first_error_exactly_once():
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            boom = ValueError("flush blew up")

            def bad():
                raise boom

            executor.submit(bad)
            # chained behind the failure: still runs
            executor.submit(lambda: sim.sleep(1.0))
            try:
                executor.drain()
            except ValueError as exc:
                seen = exc
            else:
                seen = None
            executor.drain()  # consumed: second barrier is clean
            return seen is boom, sim.now()

        proc = engine.spawn(main)
        engine.run()
        raised_first, now = proc.result
        assert raised_first
        assert now == 1.0   # the queued sleep ran after the failure


def test_filtered_drain_raises_recorded_failure_of_another_class():
    """A barrier on FOREGROUND+FLUSH surfaces a failed compaction."""
    with sim.Engine() as engine:
        def main():
            executor = SimExecutor(engine)
            boom = RuntimeError("compaction failed")

            def bad():
                raise boom

            executor.submit(bad, priority=Priority.COMPACTION)
            sim.sleep(1.0)   # the compaction runs and fails meanwhile
            try:
                executor.drain(
                    priorities=(Priority.FOREGROUND, Priority.FLUSH)
                )
            except RuntimeError as exc:
                seen = exc
            else:
                seen = None
            executor.close()  # consumed: close does not raise it again
            return seen is boom

        proc = engine.spawn(main)
        engine.run()
        assert proc.result is True


def test_run_jobs_runs_every_job_and_raises_first_by_index():
    with sim.Engine() as engine:
        log = []

        def main():
            executor = SimExecutor(engine)
            first = OSError("partition 1")

            def fail(exc, delay):
                def job():
                    sim.sleep(delay)
                    raise exc
                return job

            def ok():
                sim.sleep(3.0)
                log.append("ok")

            try:
                executor.run_jobs(
                    [ok, fail(first, 2.0), fail(OSError("partition 2"), 1.0)]
                )
            except OSError as exc:
                seen = exc
            else:
                seen = None
            return seen is first, sim.now()

        proc = engine.spawn(main)
        engine.run()
        raised_first, now = proc.result
        assert raised_first
        assert now == 3.0    # the partitions overlapped; all finished
        assert log == ["ok"]


def test_jobs_submitted_after_reported_error_run_normally():
    """An already-reported error does not stop later submissions."""
    with sim.Engine() as engine:
        log = []

        def main():
            executor = SimExecutor(engine)
            executor.submit(lambda: (_ for _ in ()).throw(RuntimeError("x")))
            try:
                executor.drain()
            except RuntimeError:
                pass
            executor.submit(lambda: log.append("after"))
            executor.drain()
            executor.close()
            return list(log)

        proc = engine.spawn(main)
        engine.run()
        assert proc.result == ["after"]
