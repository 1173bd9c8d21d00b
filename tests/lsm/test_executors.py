"""Executor contract tests: error ordering, idempotent close, class drain.

Pins the error contract that :class:`repro.lsm.executors.Executor` holds
for both background executors: ``drain()`` re-raises the *first* failed
job's exception (submission order) exactly once, whatever classes it
waited on, jobs queued behind a failure still run, and ``close()`` is
idempotent even when the first call surfaced a recorded error.  Cases
that need no blocking run against :class:`ThreadExecutor` and
:class:`~repro.sim.executor.SimExecutor` alike.
"""

import threading

import pytest

from repro import sim
from repro.io import Priority, current_priority
from repro.lsm.executors import SyncExecutor, ThreadExecutor
from repro.sim.executor import SimExecutor


def _on_thread(body):
    return body(ThreadExecutor())


def _on_sim(body):
    """Run ``body`` inside a sim process (sim jobs need a running engine)."""
    with sim.Engine() as engine:
        proc = engine.spawn(lambda: body(SimExecutor(engine)))
        engine.run()
        return proc.result


background = pytest.mark.parametrize(
    "run", [_on_thread, _on_sim], ids=["thread", "sim"]
)


def _fail(exc):
    def job():
        raise exc
    return job


class TestSyncExecutor:
    def test_runs_inline_under_priority_context(self):
        executor = SyncExecutor()
        seen = []
        executor.submit(lambda: seen.append(current_priority()))
        executor.submit(
            lambda: seen.append(current_priority()),
            priority=Priority.COMPACTION,
        )
        assert seen == [Priority.FLUSH, Priority.COMPACTION]

    def test_close_idempotent(self):
        executor = SyncExecutor()
        executor.close()
        executor.close()


@background
def test_first_failure_wins_and_is_raised_once(run):
    first = ValueError("first failure")
    second = ValueError("second failure")

    def body(executor):
        ran = []
        executor.submit(_fail(first))
        executor.submit(_fail(second))
        executor.submit(lambda: ran.append(True))
        with pytest.raises(ValueError) as info:
            executor.drain()
        # jobs run in submission order: the first submitted failure wins,
        # the later one is dropped, and the job behind both still runs
        assert info.value is first
        assert ran == [True]
        executor.drain()  # the error was consumed: the barrier is clean
        executor.close()

    run(body)


@background
def test_close_idempotent_after_error(run):
    def body(executor):
        executor.submit(_fail(OSError("disk full")))
        with pytest.raises(OSError):
            executor.close()
        # The first close raised the recorded error but still shut the
        # executor down; further closes are no-ops.
        executor.close()
        executor.close()

    run(body)


@background
def test_submit_after_close_raises(run):
    def body(executor):
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit(lambda: None)

    run(body)


class TestThreadExecutor:
    def test_error_raised_exactly_once(self):
        """A failed job surfaces at the next barrier, then is consumed —
        later barriers and close() don't re-raise it."""
        executor = ThreadExecutor()
        boom = RuntimeError("compaction failed")
        executor.submit(_fail(boom), priority=Priority.COMPACTION)
        with pytest.raises(RuntimeError) as info:
            executor.drain(priorities=(Priority.COMPACTION,))
        assert info.value is boom
        executor.drain()
        executor.close()

    def test_filtered_drain_does_not_wait_for_other_classes(self):
        executor = ThreadExecutor()
        release = threading.Event()
        started = threading.Event()
        done = []

        executor.submit(lambda: done.append("flush"), priority=Priority.FLUSH)

        def compaction():
            started.set()
            release.wait(timeout=10)
            done.append("compaction")

        executor.submit(compaction, priority=Priority.COMPACTION)
        started.wait(timeout=10)
        # The compaction job is parked on `release`; a FLUSH-only drain
        # must return anyway.
        executor.drain(priorities=(Priority.FLUSH, Priority.FOREGROUND))
        assert done == ["flush"]
        release.set()
        executor.drain()
        assert done == ["flush", "compaction"]
        executor.close()


class TestThreadExecutorFilteredError:
    def test_filtered_drain_reraises_recorded_error(self):
        executor = ThreadExecutor()
        boom = RuntimeError("flush failed")
        executor.submit(_fail(boom), priority=Priority.FLUSH)
        with pytest.raises(RuntimeError) as info:
            # Filtering classes never filters errors: the barrier
            # surfaces whatever already failed.
            executor.drain(priorities=(Priority.FLUSH,))
        assert info.value is boom
        executor.close()
