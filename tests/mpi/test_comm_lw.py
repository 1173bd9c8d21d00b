"""Tests for the MPI communicator's generators on the light backend.

The ``*_lw`` generators are the only bodies (the blocking names are
their ``sim.blocking_form``); several tests run the identical program on
both backends and compare schedules.
"""

from collections import Counter

import pytest

from repro import sim, trace
from repro.mpi import Network, World


def _run_light(size, rankgen, network=None):
    """Spawn ``rankgen(comm)`` as a light process per rank; collect results."""
    with sim.Engine() as engine:
        world = World(engine, size, network=network)
        handles = [
            engine.spawn_light(rankgen, world.comm(r), name=f"rank{r}")
            for r in range(size)
        ]
        final = engine.run()
        return [h.result for h in handles], final, engine._heap_pushes


class TestPointToPointLw:
    def test_send_recv_round_trip(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send_lw({"a": 7}, dest=1, tag=11)
                return None
            return (yield from comm.recv_lw(source=0, tag=11))

        results, _, _ = _run_light(2, main)
        assert results[1] == {"a": 7}

    def test_send_lw_takes_wire_time(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.send_lw(b"x" * (1 << 20), dest=1)
                return sim.now()
            yield from comm.recv_lw(source=0)
            return sim.now()

        network = Network(latency=1e-3, bandwidth=1 << 20)  # 1 MiB/s
        results, _, _ = _run_light(2, main, network=network)
        assert results[0] == pytest.approx(1.001)
        assert results[1] >= results[0]

    def test_self_send_skips_the_wire(self):
        def main(comm):
            yield from comm.send_lw("loop", dest=comm.rank, tag=5)
            return (yield from comm.recv_lw(source=comm.rank, tag=5))

        results, final, _ = _run_light(1, main)
        assert results == ["loop"]
        assert final == 0.0

    def test_any_source_receives_from_either(self):
        def main(comm):
            if comm.rank == 0:
                got = []
                for _ in range(2):
                    got.append((yield from comm.recv_lw()))
                return sorted(got)
            yield from comm.send_lw(f"from{comm.rank}", dest=0)
            return None

        results, _, _ = _run_light(3, main)
        assert results[0] == ["from1", "from2"]


class TestChannelLw:
    def test_channel_round_trip(self):
        def main(comm):
            if comm.rank == 0:
                yield from comm.channel_send_lw("shuttle", "cargo", dest=1)
                return None
            return (yield from comm.channel_recv_lw("shuttle"))

        results, _, _ = _run_light(2, main)
        assert results[1] == "cargo"


class TestBarrierLw:
    def test_barrier_synchronizes_light_ranks(self):
        def main(comm):
            yield comm.rank * 0.5  # ranks arrive staggered
            yield from comm.barrier_lw()
            return sim.now()

        results, _, _ = _run_light(4, main)
        # everyone leaves together, after the slowest arrival + tree cost
        assert len(set(results)) == 1
        assert results[0] >= 1.5

    def test_mixed_thread_and_light_ranks_share_one_barrier(self):
        """The lw barrier shares generation state with the thread
        barrier, so a world may mix backends freely."""
        with sim.Engine() as engine:
            world = World(engine, 2)
            times = {}

            def light_rank(comm):
                yield 0.3
                yield from comm.barrier_lw()
                times["light"] = sim.now()

            def thread_rank(comm):
                sim.sleep(0.7)
                comm.barrier()
                times["thread"] = sim.now()

            engine.spawn_light(light_rank, world.comm(0))
            engine.spawn(thread_rank, world.comm(1))
            engine.run()
        assert times["light"] == times["thread"]
        assert times["light"] >= 0.7


class TestBackendEquivalence:
    def test_pingpong_schedule_is_identical_across_backends(self):
        def program(comm):
            if comm.rank == 0:
                for i in range(5):
                    yield from comm.send_lw(i, dest=1)
                    assert (yield from comm.recv_lw(source=1)) == i
                return sim.now()
            for _ in range(5):
                value = yield from comm.recv_lw(source=0)
                yield from comm.send_lw(value, dest=0)
            return sim.now()

        def run(light: bool):
            with sim.Engine(light_processes=light) as engine:
                world = World(engine, 2)
                handles = [
                    engine.spawn_light(program, world.comm(r))
                    for r in range(2)
                ]
                final = engine.run()
                return [h.result for h in handles], final, engine._heap_pushes

        assert run(True) == run(False)


class TestTracedLightRanks:
    """Light ranks record the same ``mpi`` spans thread ranks do."""

    @staticmethod
    def _program(comm):
        if comm.rank == 0:
            yield from comm.send_lw("m", dest=1, tag=3)
            yield from comm.channel_send_lw("chan", "c", dest=1)
        elif comm.rank == 1:
            yield from comm.recv_lw(source=0, tag=3)
            yield from comm.channel_recv_lw("chan")
        yield from comm.barrier_lw()
        return sim.now()

    def test_recv_channel_recv_and_barrier_open_spans(self):
        with trace.session() as tracer:
            _run_light(3, self._program)
        spans = Counter(
            span.name for span in tracer.spans if span.category == "mpi"
        )
        assert spans == {
            "send": 1, "recv": 1, "channel_send": 1, "channel_recv": 1,
            "barrier": 3,
        }
        waited = [s for s in tracer.spans if s.name == "barrier"]
        assert all(s.end == waited[0].end for s in waited)

    def test_tracing_leaves_the_schedule_untouched(self):
        untraced = _run_light(3, self._program)
        with trace.session():
            traced = _run_light(3, self._program)
        assert traced == untraced  # results, final time, engine._heap_pushes
