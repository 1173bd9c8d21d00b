"""Tests for the IOR clone: all APIs, protocol, reporting."""

import tracemalloc

import pytest

from repro.ior import IorConfig, run_ior
from repro.ior.runner import available_apis
from repro.lsm.batch import WriteBatch
from repro.pfs.configs import small_test_cluster


def small_config(api, **kwargs):
    defaults = dict(
        api=api,
        num_tasks=3,
        block_size="64K",
        transfer_size="64K",
        segment_count=4,
        stripe_count=2,
        stripe_size="64K",
    )
    defaults.update(kwargs)
    return IorConfig(**defaults)


class TestAllApis:
    @pytest.mark.parametrize("api", available_apis())
    def test_write_produces_bandwidth(self, api):
        result = run_ior(small_config(api), small_test_cluster())
        assert result.max_write_bw > 0

    @pytest.mark.parametrize("api", available_apis())
    def test_read_back(self, api):
        result = run_ior(
            small_config(api, read_back=True), small_test_cluster()
        )
        assert result.max_read_bw is not None
        assert result.max_read_bw > 0

    @pytest.mark.parametrize("api", ["posix", "hdf5"])
    def test_collective_modes(self, api):
        result = run_ior(
            small_config(api, collective=True, read_back=True),
            small_test_cluster(),
        )
        assert result.max_write_bw > 0
        assert result.max_read_bw > 0

    def test_file_per_process(self):
        result = run_ior(
            small_config("posix", file_per_process=True, read_back=True),
            small_test_cluster(),
        )
        assert result.max_write_bw > 0


class TestProtocol:
    def test_repetitions_counted(self):
        config = small_config("posix", repetitions=3)
        result = run_ior(config, small_test_cluster())
        assert len(result.write_bw) == 3

    def test_max_of_reps_is_reported(self):
        config = small_config("posix", repetitions=3)
        result = run_ior(config, small_test_cluster(client_jitter=1e-3))
        assert result.max_write_bw == max(result.write_bw.samples)

    def test_jittered_reps_vary(self):
        config = small_config("posix", num_tasks=3, repetitions=3)
        result = run_ior(config, small_test_cluster(client_jitter=2e-3))
        assert len(set(result.write_bw.samples)) > 1

    def test_zero_jitter_reps_identical(self):
        config = small_config("posix", repetitions=2)
        result = run_ior(config, small_test_cluster(client_jitter=0.0))
        a, b = result.write_bw.samples
        assert a == b

    def test_deterministic_across_calls(self):
        config = small_config("lsmio")
        r1 = run_ior(config, small_test_cluster())
        r2 = run_ior(config, small_test_cluster())
        assert r1.max_write_bw == r2.max_write_bw

    def test_no_read_without_read_back(self):
        result = run_ior(small_config("posix"), small_test_cluster())
        assert result.max_read_bw is None

    def test_bandwidth_accounting(self):
        # bandwidth * time == total bytes, by construction.
        config = small_config("posix")
        result = run_ior(config, small_test_cluster())
        assert config.total_bytes == 3 * 4 * 65536


class TestLsmioModes:
    def test_engine_params_forwarded(self):
        config = small_config(
            "lsmio", engine_params={"enable_wal": True}
        )
        result = run_ior(config, small_test_cluster())
        assert result.max_write_bw > 0

    def test_collective_group_mode(self):
        config = small_config(
            "lsmio",
            num_tasks=4,
            engine_params={"collective_group_size": 2},
            read_back=True,
        )
        result = run_ior(config, small_test_cluster())
        assert result.max_write_bw > 0
        assert result.max_read_bw > 0

    def test_wal_slows_lsmio(self):
        base = run_ior(small_config("lsmio"), small_test_cluster())
        waled = run_ior(
            small_config("lsmio", engine_params={"enable_wal": True}),
            small_test_cluster(),
        )
        assert waled.max_write_bw < base.max_write_bw


class TestShapeOnSmallCluster:
    """Coarse orderings should already hold on the tiny test cluster."""

    def test_lsmio_beats_shared_file_at_contention(self):
        # Enough volume that fixed open/metadata costs amortize.
        kwargs = dict(num_tasks=6, segment_count=32)
        posix = run_ior(small_config("posix", **kwargs), small_test_cluster())
        lsmio = run_ior(small_config("lsmio", **kwargs), small_test_cluster())
        assert lsmio.max_write_bw > posix.max_write_bw

    def test_hdf5_slowest_writer(self):
        kwargs = dict(num_tasks=4, segment_count=8)
        cluster = small_test_cluster()
        results = {
            api: run_ior(small_config(api, **kwargs), cluster).max_write_bw
            for api in ("posix", "hdf5", "lsmio")
        }
        assert results["hdf5"] < results["posix"]
        assert results["hdf5"] < results["lsmio"]


class TestSynthesizedPayloads:
    """Data-less benchmark payloads cost memory once, not once per rank."""

    @pytest.mark.parametrize("api", ["lsmio", "lsmio-plugin"])
    def test_ranks_hand_the_engine_one_zero_buffer(self, api, monkeypatch):
        values = []
        put = WriteBatch.put

        def recording_put(batch, key, value):
            values.append(value)
            put(batch, key, value)

        monkeypatch.setattr(WriteBatch, "put", recording_put)
        run_ior(small_config(api), small_test_cluster())
        payloads = [value for value in values if len(value) == 64 << 10]
        assert len(payloads) == 3 * 4
        assert all(value is payloads[0] for value in payloads)
        assert payloads[0] == bytes(64 << 10)

    @staticmethod
    def _traced_peak(num_tasks, batch_read):
        config = IorConfig(
            api="lsmio", num_tasks=num_tasks, block_size="8M",
            transfer_size="1M", segment_count=1, read_back=True,
            engine_params={"batch_read": True} if batch_read else {},
        )
        tracemalloc.start()
        try:
            run_ior(config, small_test_cluster())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("batch_read", [False, True])
    def test_peak_does_not_scale_with_ranks(self, batch_read):
        """From 4 to 16 ranks of 8 x 1 MiB, the traced peak grows by
        less than two transfers: no rank allocates its own payload,
        builds a readahead window or keeps the values it read back.  A
        streaming scan holds, per rank, the value it hands on and the
        next key's first entry (the read-through of ``_by_user_key``),
        so its bound adds those two transfers per added rank."""
        transfer = 1 << 20
        grown = self._traced_peak(16, batch_read) - self._traced_peak(
            4, batch_read
        )
        in_flight = (16 - 4) * 2 * transfer if batch_read else 0
        assert grown < in_flight + 2 * transfer
