"""Tests for the performance counters."""

import pytest

from repro.core.counters import PerfCounters
from repro.trace.runtime import ambient_clock


class TestPerfCounters:
    def test_record_each_op(self):
        counters = PerfCounters()
        counters.record("put", 100, 0.5)
        counters.record("append", 50, 0.25)
        counters.record("get", 150, 0.5)
        counters.record("delete")
        counters.record("barrier", elapsed=0.25)
        assert counters.puts == 1
        assert counters.appends == 1
        assert counters.gets == 1
        assert counters.deletes == 1
        assert counters.barriers == 1
        assert counters.bytes_put == 150
        assert counters.bytes_got == 150
        assert counters.put_time == 0.75
        assert counters.barrier_time == 0.25

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            PerfCounters().record("mystery")

    def test_write_bandwidth(self):
        counters = PerfCounters()
        counters.record("put", 1000, 1.0)
        counters.record("barrier", elapsed=1.0)
        assert counters.write_bandwidth() == 500.0

    def test_read_bandwidth(self):
        counters = PerfCounters()
        counters.record("get", 800, 2.0)
        assert counters.read_bandwidth() == 400.0

    def test_bandwidth_zero_when_untimed(self):
        assert PerfCounters().write_bandwidth() == 0.0
        assert PerfCounters().read_bandwidth() == 0.0

    def test_reset(self):
        counters = PerfCounters()
        counters.record("put", 10, 1.0)
        counters.reset()
        assert counters.puts == 0
        assert counters.put_time == 0.0

    def test_snapshot_is_plain_dict(self):
        snap = PerfCounters().snapshot()
        assert snap["puts"] == 0
        assert isinstance(snap, dict)


class TestAmbientClock:
    def test_monotonic_outside_sim(self):
        a = ambient_clock()
        b = ambient_clock()
        assert b >= a

    def test_sim_time_inside_sim(self):
        from repro import sim

        with sim.Engine() as engine:
            def main():
                start = ambient_clock()
                sim.sleep(3.5)
                return ambient_clock() - start

            proc = engine.spawn(main)
            engine.run()
            assert proc.result == 3.5
