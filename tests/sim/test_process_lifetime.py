"""The engine keeps only live processes.

A finished process leaves the engine at once, so a fleet-size run holds
what is still blocked or runnable, not every process it ever spawned.
These tests run with the cyclic collector off: what they check must be
freed by reference counting alone.
"""

import gc
import weakref

import pytest

from repro import sim
from repro.errors import DeadlockError


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_finished_light_process_and_its_generator_are_freed(no_gc):
    gen_refs = []

    def body():
        yield 0.5
        return "done"

    def tracked_body():
        gen = body()
        gen_refs.append(weakref.ref(gen))
        return gen

    with sim.Engine() as engine:
        proc = engine.spawn_light(tracked_body, name="short")
        proc_ref = weakref.ref(proc)
        del proc
        assert engine.run() == 0.5
        # The engine itself is still open: nothing but its bookkeeping
        # could be keeping these alive.
        assert proc_ref() is None
        assert gen_refs[0]() is None


def test_a_held_handle_keeps_its_result_but_not_its_generator(no_gc):
    gen_refs = []

    def tracked_body():
        def body():
            yield 1.0
            return 42

        gen = body()
        gen_refs.append(weakref.ref(gen))
        return gen

    with sim.Engine() as engine:
        proc = engine.spawn_light(tracked_body)
        engine.run()
        assert not proc.alive
        assert proc.result == 42
        assert proc.done.value == 42
        assert gen_refs[0]() is None


def test_close_still_kills_blocked_thread_and_light_processes():
    unwound = []
    engine = sim.Engine()
    gate = sim.Event(engine)

    def thread_body():
        try:
            sim.wait(gate)
        finally:
            unwound.append("thread")

    def light_body():
        try:
            yield gate
        finally:
            unwound.append("light")

    thread_proc = engine.spawn(thread_body, name="stuck-thread", daemon=True)
    light_proc = engine.spawn_light(light_body, name="stuck-light", daemon=True)
    engine.spawn_light(lambda: (yield 1.0), name="finisher")
    assert engine.run() == 1.0
    assert thread_proc.alive and light_proc.alive
    engine.close()
    thread_proc._thread.join(timeout=5)  # noqa: SLF001
    assert not thread_proc._thread.is_alive()  # noqa: SLF001
    assert not light_proc.alive
    assert sorted(unwound) == ["light", "thread"]


def test_deadlock_lists_blocked_processes_in_spawn_order():
    with sim.Engine() as engine:
        gate = sim.Event(engine)

        def stuck_light():
            yield gate

        def brief_light():
            yield 0.1

        engine.spawn(lambda: sim.wait(gate), name="t-first")
        engine.spawn_light(brief_light, name="finishes-early")
        engine.spawn_light(stuck_light, name="l-second")
        engine.spawn(lambda: sim.sleep(0.2), name="finishes-late")
        engine.spawn(lambda: sim.wait(gate), name="daemon", daemon=True)
        engine.spawn_light(stuck_light, name="l-third")
        engine.spawn(lambda: sim.wait(gate), name="t-fourth")
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert str(excinfo.value) == (
            "no events pending but processes blocked: "
            "['t-first', 'l-second', 'l-third', 't-fourth']"
        )
