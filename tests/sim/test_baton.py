"""The thread backend's baton handoff: resume, block, finish and kill.

A thread-backed process and the engine pass one baton between two
locks.  These tests pin what the handoff must keep: shutdown unwinds
every thread (parked, never resumed, or blocking again while it
unwinds) without an escaped exception, a crash still surfaces from
``run()``, and a long ping-pong replays its light-process twin's
schedule exactly.
"""

import threading
import time

import pytest

from repro import sim


@pytest.fixture
def thread_errors(monkeypatch):
    """Exceptions that escape any thread during the test."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", seen.append)
    return seen


def _settle(baseline: int, deadline_s: float = 5.0) -> int:
    """``threading.active_count()`` once it is back at ``baseline``
    (or at the deadline): a finished thread exits just after it hands
    the baton back."""
    end = time.monotonic() + deadline_s
    while threading.active_count() > baseline and time.monotonic() < end:
        time.sleep(0.001)
    return threading.active_count()


class TestShutdown:
    def test_close_unwinds_parked_and_never_resumed_processes(
        self, thread_errors
    ):
        baseline = threading.active_count()
        engine = sim.Engine()
        unwound = []

        def parked():
            try:
                sim.wait(sim.Event(engine))
            finally:
                unwound.append("parked")

        waiting = engine.spawn(parked, daemon=True)
        engine.run()
        assert waiting.alive
        never = engine.spawn(lambda: unwound.append("never ran"))
        engine.close()

        assert unwound == ["parked"]
        assert not waiting.alive and not never.alive
        assert thread_errors == []
        assert _settle(baseline) == baseline

    def test_a_killed_process_that_blocks_again_still_unwinds(
        self, thread_errors
    ):
        """A ``finally`` that parks again (closing a file, say) gets
        another ProcessKilled instead of waiting for a baton that never
        comes."""
        baseline = threading.active_count()
        engine = sim.Engine()
        reached = []

        def stubborn():
            try:
                sim.wait(sim.Event(engine))
            finally:
                reached.append("finally")
                sim.sleep(1.0)
                reached.append("slept")  # never: the sleep unwinds

        engine.spawn(stubborn, daemon=True)
        engine.run()
        start = time.monotonic()
        engine.close()

        assert time.monotonic() - start < 2.0  # no join timeout
        assert reached == ["finally"]
        assert thread_errors == []
        assert _settle(baseline) == baseline

    def test_an_exception_in_a_thread_body_surfaces_from_run(
        self, thread_errors
    ):
        baseline = threading.active_count()
        with sim.Engine() as engine:
            def bystander():
                sim.wait(sim.Event(engine))

            def crash():
                sim.sleep(1.0)
                raise ValueError("disk on fire")

            engine.spawn(bystander)
            engine.spawn(crash)
            with pytest.raises(ValueError, match="disk on fire"):
                engine.run()
            assert engine.now == 1.0
        assert thread_errors == []
        assert _settle(baseline) == baseline


def _ping_pong(light: bool, rounds: int):
    """Two players bounce a counter through per-round events."""
    with sim.Engine(light_processes=light) as engine:
        boxes = {"ping": sim.Event(engine), "pong": sim.Event(engine)}

        def player(me, other, delay):
            for _ in range(rounds):
                value = yield boxes[me]
                boxes[me] = sim.Event(engine)
                yield delay
                boxes[other].succeed(value + 1)
            return value

        first = engine.spawn_light(player, "ping", "pong", 1e-3, name="a")
        second = engine.spawn_light(player, "pong", "ping", 2.5e-3, name="b")
        boxes["ping"].succeed(0)
        end = engine.run()
        return end, engine._heap_pushes, first.result, second.result


def test_thread_ping_pong_replays_its_light_twin():
    rounds = 2_500  # two parks per round per player: 10,000 switches
    threads = _ping_pong(light=False, rounds=rounds)
    light = _ping_pong(light=True, rounds=rounds)
    assert threads == light
    assert threads[1] >= 4 * rounds
    assert threads[2:] == (2 * rounds - 2, 2 * rounds - 1)
