"""Tests for generator-backed lightweight processes (sim.LightProcess).

The light backend must speak the same two-word protocol as the thread
backend (``yield seconds`` sleeps, ``yield event`` waits) and replay the
identical heap schedule — several tests here assert bit-equality of sim
time and heap pushes between the two backends running the same
generator.
"""

import pytest

from repro import sim, telemetry
from repro.errors import SimulationError
from repro.telemetry.profiler import EngineProfiler


def test_yield_delay_advances_clock():
    with sim.Engine() as engine:
        times = []

        def proc():
            yield 1.5
            times.append(sim.now())
            yield 2.5
            times.append(sim.now())

        engine.spawn_light(proc)
        engine.run()
        assert times == [1.5, 4.0]


def test_return_value_lands_on_result_and_done():
    with sim.Engine() as engine:
        def proc():
            yield 0.1
            return 42

        handle = engine.spawn_light(proc)
        engine.run()
        assert handle.result == 42
        assert handle.done.triggered
        assert handle.done.value == 42
        assert not handle.alive


def test_yield_event_delivers_value():
    with sim.Engine() as engine:
        event = sim.Event(engine, name="gate")

        def waiter():
            value = yield event
            return value, sim.now()

        def trigger():
            yield 2.0
            event.succeed("payload")

        handle = engine.spawn_light(waiter)
        engine.spawn_light(trigger)
        engine.run()
        assert handle.result == ("payload", 2.0)


def test_yield_triggered_event_resumes_inline():
    with sim.Engine() as engine:
        event = sim.Event(engine).succeed("ready")

        def proc():
            value = yield event
            return value, sim.now()

        handle = engine.spawn_light(proc)  # the spawn itself is one push
        pushes_before = engine._heap_pushes
        engine.run()
        assert handle.result == ("ready", 0.0)
        # waiting on a triggered event costs no further heap traffic
        assert engine._heap_pushes == pushes_before


def test_failed_event_raises_inside_generator():
    with sim.Engine() as engine:
        event = sim.Event(engine)

        def waiter():
            try:
                yield event
            except ValueError as exc:
                return ("caught", str(exc))

        def trigger():
            yield 0.5
            event.fail(ValueError("boom"))

        handle = engine.spawn_light(waiter)
        engine.spawn_light(trigger)
        engine.run()
        assert handle.result == ("caught", "boom")


def test_each_waiter_gets_its_own_exception_replica():
    """One failure fanned out to two waiters must not share the
    exception object: re-raising a shared instance appends every
    waiter's frames onto one traceback."""
    with sim.Engine() as engine:
        event = sim.Event(engine)
        original = ValueError("shared failure")
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as exc:
                caught.append(exc)

        def trigger():
            yield 0.1
            event.fail(original)

        engine.spawn_light(waiter, name="w1")
        engine.spawn_light(waiter, name="w2")
        engine.spawn_light(trigger)
        engine.run()
        assert len(caught) == 2
        first, second = caught
        assert first is not second
        assert first is not original and second is not original
        assert first.__cause__ is original
        assert second.__cause__ is original
        assert str(first) == str(second) == "shared failure"


def test_thread_waiters_also_get_replicas():
    with sim.Engine() as engine:
        event = sim.Event(engine)
        original = RuntimeError("shared")
        caught = []

        def waiter():
            try:
                sim.wait(event)
            except RuntimeError as exc:
                caught.append(exc)

        def trigger():
            sim.sleep(0.1)
            event.fail(original)

        engine.spawn(waiter)
        engine.spawn(waiter)
        engine.spawn(trigger)
        engine.run()
        assert len(caught) == 2
        assert caught[0] is not caught[1]
        assert all(exc.__cause__ is original for exc in caught)


def test_crash_in_light_process_propagates_to_run():
    with sim.Engine() as engine:
        def proc():
            yield 0.1
            raise RuntimeError("light crash")

        engine.spawn_light(proc)
        with pytest.raises(RuntimeError, match="light crash"):
            engine.run()


def test_daemon_light_crash_is_recorded_not_raised():
    with sim.Engine() as engine:
        def daemon():
            yield 0.1
            raise RuntimeError("background crash")

        def proc():
            yield 1.0
            return "done"

        crashed = engine.spawn_light(daemon, daemon=True)
        handle = engine.spawn_light(proc)
        engine.run()
        assert handle.result == "done"
        assert isinstance(crashed.error, RuntimeError)


def test_done_is_built_on_first_use_and_fires_if_asked_late():
    """Nobody waited on ``quick`` or ``failed`` while they ran, so neither
    built a done event; asked for afterwards, each has already fired and
    a waiter passes it inline, as it would pass an eager one."""
    with sim.Engine() as engine:
        def ok():
            yield 0.1
            return 7

        def bad():
            yield 0.1
            raise RuntimeError("late")

        quick = engine.spawn_light(ok)
        failed = engine.spawn_light(bad, daemon=True)
        built = []

        def late_waiter():
            yield 1.0
            built.append((quick._done, failed._done))  # noqa: SLF001
            pushes = engine._heap_pushes  # noqa: SLF001
            value = yield quick.done
            with pytest.raises(RuntimeError, match="late"):
                yield failed.done
            return value, engine._heap_pushes - pushes  # noqa: SLF001

        handle = engine.spawn_light(late_waiter)
        engine.run()
    assert built == [(None, None)]
    assert handle.result == (7, 0)
    assert quick.done.value == 7 and failed.done.exception is failed.error


def test_sleep_and_wait_are_rejected_inside_light_process():
    with sim.Engine() as engine:
        def sleeper():
            sim.sleep(1.0)
            yield 0.0

        engine.spawn_light(sleeper)
        with pytest.raises(SimulationError, match="yield the delay"):
            engine.run()

    with sim.Engine() as engine:
        event_holder = []

        def waiter():
            event_holder.append(sim.Event(sim.current_engine()))
            sim.wait(event_holder[0])
            yield 0.0

        engine.spawn_light(waiter)
        with pytest.raises(SimulationError, match="yield the event"):
            engine.run()


def test_negative_delay_rejected_inside_generator():
    with sim.Engine() as engine:
        def proc():
            try:
                yield -1.0
            except SimulationError:
                return "rejected"

        handle = engine.spawn_light(proc)
        engine.run()
        assert handle.result == "rejected"


def test_bogus_yield_rejected():
    with sim.Engine() as engine:
        def proc():
            yield "not a command"

        engine.spawn_light(proc)
        with pytest.raises(SimulationError, match="yield a delay"):
            engine.run()


def test_cross_engine_event_rejected():
    with sim.Engine() as other:
        foreign = sim.Event(other)
    with sim.Engine() as engine:
        def proc():
            yield foreign

        engine.spawn_light(proc)
        with pytest.raises(SimulationError, match="different engine"):
            engine.run()


def test_close_kills_parked_light_processes():
    cleanup = []
    with sim.Engine() as engine:
        event = sim.Event(engine)

        def parked():
            try:
                yield event
            finally:
                cleanup.append("closed")

        handle = engine.spawn_light(parked, daemon=True)
        engine.run()
    assert cleanup == ["closed"]
    assert not handle.alive
    assert not handle.done.triggered  # killed, not finished


def test_spawn_light_falls_back_to_threads_when_disabled():
    def proc():
        yield 1.0
        return sim.now()

    with sim.Engine(light_processes=False) as engine:
        handle = engine.spawn_light(proc)
        engine.run()
        assert isinstance(handle, sim.Process)
        assert handle.result == 1.0

    with sim.Engine() as engine:
        handle = engine.spawn_light(proc)
        engine.run()
        assert isinstance(handle, sim.LightProcess)
        assert handle.result == 1.0


def _pingpong_workload(engine):
    """A representative mix: delays, event handoffs, nested spawns."""
    results = []
    ready = sim.Event(engine, name="ready")

    def producer():
        yield 0.25
        ready.succeed("go")
        for _ in range(10):
            yield 0.1
        return "produced"

    def consumer(index):
        value = yield ready
        yield 0.05 * (index + 1)
        results.append((index, value, sim.now()))

    engine.spawn_light(producer)
    for i in range(5):
        engine.spawn_light(consumer, i, name=f"consumer{i}")
    final = engine.run()
    return final, engine._heap_pushes, results


def test_backends_replay_identical_schedules():
    with sim.Engine() as engine:
        light = _pingpong_workload(engine)
    with sim.Engine(light_processes=False) as engine:
        threads = _pingpong_workload(engine)
    assert light == threads


def test_run_blocking_drives_the_same_generator_protocol():
    def logic():
        yield 0.5
        return sim.now()

    with sim.Engine() as engine:
        handle = engine.spawn(sim.run_blocking, logic())
        engine.run()
        assert handle.result == 0.5


def test_run_blocking_forwards_failures_into_generator():
    with sim.Engine() as engine:
        event = sim.Event(engine)

        def logic():
            try:
                yield event
            except ValueError:
                return "handled"

        def trigger():
            sim.sleep(0.1)
            event.fail(ValueError("nope"))

        handle = engine.spawn(sim.run_blocking, logic())
        engine.spawn(trigger)
        engine.run()
        assert handle.result == "handled"


class TestRunUntilClamp:
    """`run(until=...)` earlier than the current clock pauses immediately
    and must never move simulated time backward — in the fast loop and
    in the profiled/sampled loop alike."""

    @staticmethod
    def _advance(engine):
        def proc():
            yield 5.0
            yield 5.0

        engine.spawn_light(proc)
        return engine.run(until=10.0)

    def test_fast_loop_never_rewinds(self):
        with sim.Engine() as engine:
            assert self._advance(engine) == 10.0
            # pending work remains; ask to pause in the past
            assert engine.run(until=3.0) == 10.0
            assert engine.now == 10.0

    def test_observed_loop_never_rewinds(self):
        telemetry.install(profiler=EngineProfiler())
        try:
            with sim.Engine() as engine:
                assert self._advance(engine) == 10.0
                assert engine.run(until=3.0) == 10.0
                assert engine.now == 10.0
        finally:
            telemetry.uninstall()

    def test_until_between_events_still_advances_to_until(self):
        for observed in (False, True):
            if observed:
                telemetry.install(profiler=EngineProfiler())
            try:
                with sim.Engine() as engine:
                    def proc():
                        yield 5.0

                    engine.spawn_light(proc)
                    assert engine.run(until=2.0) == 2.0
                    assert engine.now == 2.0
                    assert engine.run() == 5.0
            finally:
                if observed:
                    telemetry.uninstall()
