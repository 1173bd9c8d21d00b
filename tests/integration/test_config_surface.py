"""Surface lock for the configuration objects and the I/O-admission API.

Each setting has one home (DESIGN.md, "Where each setting lives"), and a
setting with a single value in use is a module constant, not a field.
Adding a knob is an interface change: every field or parameter is one
more axis of the configuration lattice the tests must walk, so it must
show up as an edit to the tables below.
"""

import dataclasses
import inspect

import pytest

import repro.io
from repro.bb.device import BurstBufferConfig
from repro.core.options import LsmioOptions
from repro.io import IoRequest, IoScheduler, Priority, io_priority, make_policy
from repro.ior.config import IorConfig
from repro.lsm.options import Options
from repro.pfs.client import LustreClient
from repro.pfs.lustre import LustreConfig

FIELDS = {
    Options: (
        "create_if_missing", "error_if_exists",
        # the paper's §3.1.1 knob set
        "enable_wal", "compression", "enable_block_cache",
        "enable_compaction", "use_mmap_reads", "write_buffer_size",
        "block_size",
        "block_restart_interval", "checksum", "num_levels",
        "level0_file_num_compaction_trigger",
        "level0_slowdown_writes_trigger", "level0_stop_writes_trigger",
        "target_file_size_base", "max_subcompactions",
        "max_grandparent_overlap_bytes", "compaction_pacing",
        "slowdown_delay", "cpu_charge",
    ),
    LsmioOptions: (
        "backend",
        # the paper's §3.1.1 knob set
        "enable_wal", "enable_compression", "enable_caching",
        "enable_compaction", "sync_writes", "use_mmap", "write_buffer_size",
        "block_size",
        "checksum", "cpu_charge", "level0_slowdown_writes_trigger",
        "level0_stop_writes_trigger", "max_subcompactions",
        "compaction_pacing", "burst_buffer",
    ),
    LustreConfig: (
        "num_osts", "num_oss", "disk", "oss_bandwidth", "oss_rpc_overhead",
        "lock_switch_time", "mds_op_costs", "mds_shards", "mds_cost_scale",
        "md_cache", "md_cache_ttl", "default_stripe_size",
        "default_stripe_count", "rpc_size", "max_rpcs_in_flight",
        "client_bandwidth", "client_rpc_latency", "client_jitter",
        "jitter_seed", "store_data", "rpc_timeout", "rpc_max_retries",
        "rpc_backoff_base", "rpc_backoff_max", "rpc_backoff_jitter",
        "io_policy", "io_compaction_bandwidth",
    ),
    IorConfig: (
        "api", "num_tasks", "block_size", "transfer_size", "segment_count",
        "file_per_process", "collective", "read_back", "stripe_count",
        "stripe_size", "repetitions", "test_file", "cb_buffer_size",
        "engine_params",
    ),
    BurstBufferConfig: (
        "capacity", "write_bandwidth", "read_bandwidth", "drain_chunk",
        "drain_retries", "drain_backoff", "drain_bandwidth",
        "overflow_timeout", "persistent", "seed", "device",
    ),
}

PARAMETERS = {
    IoScheduler.__init__: ("self", "engine", "policy", "name"),
    IoScheduler.set_policy: ("self", "policy"),
    make_policy: ("name",),
    io_priority: ("priority",),
}

#: (callable, positional args, removed keyword) — each call must now
#: fail at argument binding
REMOVED_KEYWORDS = [
    (Options, (), "block_cache_capacity"),
    (Options, (), "max_open_files"),
    (Options, (), "bloom_bits_per_key"),
    (Options, (), "max_bytes_for_level_base"),
    (Options, (), "max_bytes_for_level_multiplier"),
    (Options, (), "compaction_pipeline_bytes"),
    (Options, (), "stall_poll_interval"),
    (LsmioOptions, (), "bloom_bits_per_key"),
    (LsmioOptions, (), "io_policy"),
    (LsmioOptions, (), "compaction_bandwidth"),
    (LustreConfig, (), "md_cache_capacity"),
    (LustreConfig, (), "io_drr_quantum"),
    (IorConfig, (), "fsync_on_close"),
    (IorConfig, (), "reorder_read"),
    (IorConfig, (), "io_policy"),
    (IorConfig, (), "compaction_bandwidth"),
    (BurstBufferConfig, (), "degrade_on_overflow"),
    (IoScheduler, (None,), "compaction_bandwidth"),
    (IoScheduler, (None,), "drr_quantum"),
    (IoScheduler.set_policy, (None, "fifo"), "compaction_bandwidth"),
    (IoScheduler.set_policy, (None, "fifo"), "drr_quantum"),
    (make_policy, ("drr",), "drr_quantum"),
    (io_priority, (Priority.FLUSH,), "deadline"),
    (IoRequest, ("write",), "deadline"),
    (IoRequest, ("write",), "owner"),
]

REMOVED_ATTRIBUTES = [
    (LustreClient, "set_io_policy"),
    (IoScheduler, "set_compaction_bandwidth"),
    (IoScheduler, "set_drain_bandwidth"),
    (repro.io, "current_deadline"),
]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_config_fields_are_pinned(cls):
    assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[cls]


@pytest.mark.parametrize(
    "fn", list(PARAMETERS), ids=lambda fn: fn.__qualname__
)
def test_admission_parameters_are_pinned(fn):
    assert tuple(inspect.signature(fn).parameters) == PARAMETERS[fn]


@pytest.mark.parametrize(
    "fn, args, keyword",
    REMOVED_KEYWORDS,
    ids=[f"{fn.__qualname__}-{kw}" for fn, _, kw in REMOVED_KEYWORDS],
)
def test_removed_keyword_raises_type_error(fn, args, keyword):
    with pytest.raises(TypeError, match=keyword):
        fn(*args, **{keyword: 1})


@pytest.mark.parametrize(
    "owner, name",
    REMOVED_ATTRIBUTES,
    ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED_ATTRIBUTES],
)
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in getattr(owner, "__all__", ())
