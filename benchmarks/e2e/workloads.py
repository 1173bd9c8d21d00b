"""The five closed-loop, single-client workloads.

Each workload is built from ``(seed, scale, workdir)``: the constructor is
the *set-up* (imports, payload generation, cluster config) and ``rep()``
is one measured region.  ``rep()`` returns a flat dict:

``wall_s``
    host seconds of the measured region;
``write_bytes`` / ``write_s`` / ``read_bytes`` / ``read_s``
    application bytes and host seconds of the write and restore sides;
``attempted`` / ``failed``
    verifiable operations and how many mis-verified;
``ledger`` / ``save_ms``
    workload-specific user-visible numbers under their ``metrics.LEDGER``
    names, and the per-save blocked times behind ``core.save_p50/p90_ms``;
``signature``
    (sim workloads) everything that must repeat exactly rep over rep.

``scale`` is 1.0 for the ledger and 1/8 for ``--smoke``; sizes are fixed
here and nowhere else.  Why each workload exists is in ``metrics.py``.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from dataclasses import replace

import numpy as np

_clock = time.perf_counter


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path) for name in names
    )


class _Local:
    """Shared plumbing of the two real-engine workloads."""

    pinned = False

    def __init__(self, seed: int, scale: float, workdir: str):
        from repro.core import Checkpointer, LsmioManager, LsmioOptions
        from repro.lsm.env import LocalFsEnv

        self._api = (Checkpointer, LsmioManager, LsmioOptions, LocalFsEnv)
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._rep = 0

    def _fresh_dir(self) -> str:
        self._rep += 1
        return os.path.join(self.workdir, f"{self.name}-{self._rep}")

    def cleanup(self) -> None:
        """Drop the reps' directories (outside every measured region)."""
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _open(self, path: str, wrap_env=None, env=None):
        _, LsmioManager, LsmioOptions, LocalFsEnv = self._api
        if env is None:
            env = LocalFsEnv()
        if wrap_env is not None:
            env = wrap_env(env)
        # LsmioOptions() *is* the paper config: WAL, compression, cache and
        # compaction off, 32 MiB write buffer, async flush.
        return LsmioManager(path, LsmioOptions(), env=env)


class LocalKvCkpt(_Local):
    name = "local_kv_ckpt"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        self.value_bytes = 64 << 10
        self.count = max(64, int(8192 * scale))
        self.pool = [self.rng.bytes(self.value_bytes) for _ in range(16)]
        self.keys = [f"ckpt/var{i:08d}".encode() for i in range(self.count)]
        self.user_bytes = sum(map(len, self.keys)) + self.count * self.value_bytes
        self.sizes = {
            "puts": self.count, "value_bytes": self.value_bytes,
            "value_pool": 16, "user_bytes": self.user_bytes,
            "write_buffer": "32M",
        }

    def rep(self, wrap_env=None, tamper=None) -> dict:
        path = self._fresh_dir()
        keys, pool = self.keys, self.pool
        start = _clock()
        manager = self._open(path, wrap_env)
        first_put = _clock()
        for i, key in enumerate(keys):
            manager.put(key, pool[i & 15])
        manager.write_barrier(sync=True)
        written = _clock()
        manager.close()
        closed = _clock()
        disk_bytes = _dir_bytes(path)

        reopen = _clock()
        manager = self._open(path, wrap_env)
        failed = 0
        for i, key in enumerate(keys):
            value = manager.get(key)
            if tamper is not None:
                value = tamper(i, value)
            if value != pool[i & 15]:
                failed += 1
        restored = _clock()
        manager.close()
        end = _clock()
        return {
            "wall_s": (end - start) - (reopen - closed),
            "write_bytes": self.user_bytes,
            "write_s": written - first_put,
            "read_bytes": self.user_bytes,
            "read_s": restored - reopen,
            "attempted": 2 * self.count,
            "failed": failed,
            "ledger": {"lsm.space_amp": disk_bytes / self.user_bytes},
        }


class LocalEpochCkpt(_Local):
    name = "local_epoch_ckpt"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        from repro.core.serialization import serialize_value

        self.epochs = max(2, int(16 * scale))
        self.states = [self._state(epoch) for epoch in range(self.epochs + 1)]
        self.state_bytes = sum(
            len(serialize_value(v)) for v in self.states[0].values()
        )
        self.sizes = {
            "epochs": self.epochs, "arrays": 6, "array_bytes": 64 << 10,
            "small_entries": 26, "state_bytes": self.state_bytes,
        }

    def _state(self, epoch: int) -> dict:
        """6 float64 arrays of 64 KiB + 26 scalar/str/JSON entries."""
        state = {
            f"field{i}": self.rng.standard_normal(8192) for i in range(6)
        }
        for i in range(26):
            state[f"meta{i:02d}"] = (
                epoch * 100 + i,
                float(self.rng.random()),
                f"step-{epoch}-{i}",
                {"epoch": epoch, "lr": [1e-3, i]},
            )[i % 4]
        return state

    @staticmethod
    def _mismatches(got: dict, want: dict) -> int:
        bad = abs(len(got) - len(want))
        for name, value in want.items():
            other = got.get(name)
            if isinstance(value, np.ndarray):
                same = (
                    isinstance(other, np.ndarray)
                    and other.dtype == value.dtype
                    and other.tobytes() == value.tobytes()
                )
            else:
                same = type(other) is type(value) and other == value
            bad += not same
        return bad

    def rep(self, wrap_env=None, tamper=None) -> dict:
        Checkpointer = self._api[0]
        path = self._fresh_dir()
        start = _clock()
        manager = self._open(path, wrap_env)
        ckpt = Checkpointer(manager)
        save_ms = []
        first_save = _clock()
        for epoch in range(self.epochs):
            t0 = _clock()
            ckpt.save(epoch, self.states[epoch])
            save_ms.append((_clock() - t0) * 1e3)
        written = _clock()
        manager.close()
        closed = _clock()
        disk_bytes = _dir_bytes(path)

        reopen = _clock()
        manager = self._open(path, wrap_env)
        epoch, state = Checkpointer(manager).load_latest()
        if tamper is not None:
            state = tamper(epoch, state)
        want = self.states[self.epochs - 1]
        failed = self._mismatches(state, want) + (epoch != self.epochs - 1)
        restored = _clock()
        manager.close()
        end = _clock()
        return {
            "wall_s": (end - start) - (reopen - closed),
            "write_bytes": self.epochs * self.state_bytes,
            "write_s": written - first_save,
            "read_bytes": self.state_bytes,
            "read_s": restored - reopen,
            "attempted": self.epochs + len(want) + 1,
            "failed": failed,
            "save_ms": save_ms,
            "ledger": {
                "lsm.space_amp":
                    disk_bytes / (self.epochs * self.state_bytes),
            },
        }

    def crash_rep(self) -> dict:
        """Durability: the last *acknowledged* epoch survives node death.

        Two epochs are saved (acknowledged), a third is put without any
        barrier, then ``FaultyEnv.crash()`` discards every un-synced tail
        and the manager is abandoned, never closed.  Removing the stale
        ``LOCK`` stands in for process death (our pid is still alive, so
        the env would not break the lock itself).
        """
        from repro.fault import FaultyEnv

        Checkpointer, _, _, LocalFsEnv = self._api
        path = self._fresh_dir()
        env = FaultyEnv(LocalFsEnv(), seed=self.seed)
        manager = self._open(path, env=env)
        ckpt = Checkpointer(manager)
        ckpt.save(0, self.states[0])
        ckpt.save(1, self.states[1])
        torn = self.states[self.epochs]
        for name, value in torn.items():
            # the documented key layout of an epoch's data blocks
            manager.put_typed(f"ckpt/{2:08d}/data/{name}", value)
        env.crash()
        os.remove(os.path.join(path, "LOCK"))
        survivor = self._open(path, env=env)
        epoch, state = Checkpointer(survivor).load_latest()
        failed = self._mismatches(state, self.states[1]) + (epoch != 1)
        survivor.close()
        return {"attempted": len(self.states[1]) + 1, "failed": failed}


class _Sim:
    """Shared plumbing of the three simulated workloads."""

    pinned = True

    def __init__(self, seed: int, scale: float, workdir: str):
        self.seed = seed
        self.smoke = scale < 1.0

    def cleanup(self) -> None:
        pass

    @staticmethod
    def _bad_values(values) -> int:
        """How many of ``values`` are not finite positive numbers."""
        return sum(
            not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0)
            for v in values
        )


class PaperFigsThreads(_Sim):
    name = "paper_figs_threads"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        from repro.bench import figures

        self.figures = figures
        self.cluster = figures.default_cluster(jitter_seed=seed)
        self.write_nodes = (4,) if self.smoke else (4, 16, 48)
        self.read_nodes = (4,) if self.smoke else (4, 16)
        self.bytes_per_task = (512 << 10) if self.smoke else (2 << 20)
        self.sizes = {
            "fig5_node_counts": list(self.write_nodes),
            "fig10_node_counts": list(self.read_nodes),
            "bytes_per_task": self.bytes_per_task,
            "backend": "threads",
        }

    def rep(self, wrap_env=None, tamper=None) -> dict:
        figures = self.figures
        start = _clock()
        fig5 = figures.fig5_ior_vs_lsmio(
            node_counts=self.write_nodes, cluster=self.cluster,
            bytes_per_task=self.bytes_per_task,
        )
        middle = _clock()
        fig10 = figures.fig10_read(
            node_counts=self.read_nodes, cluster=self.cluster,
            bytes_per_task=self.bytes_per_task,
        )
        end = _clock()
        ratios = {**fig5.ratios, **fig10.ratios}
        points = [v for fig in (fig5, fig10)
                  for series in fig.series.values() for v in series]
        per_task = max(self.bytes_per_task, 1 << 20)  # 1M transfers round up
        return {
            "wall_s": end - start,
            "write_bytes": sum(self.write_nodes) * 2 * (
                self.bytes_per_task + per_task),
            "write_s": middle - start,
            "read_bytes": len(fig10.series) * sum(self.read_nodes)
            * self.bytes_per_task,
            "read_s": end - middle,
            "attempted": len(points) + len(ratios),
            "failed": self._bad_values(points)
            + self._bad_values(m for m, _ in ratios.values()),
            "ledger": {
                "bench.sim_write_GiBps": fig5.series["lsmio/64K"][-1] / 2**30,
                "bench.sim_read_GiBps": fig10.series["lsmio"][-1] / 2**30,
                # every ratio the drivers return, no cherry-picking
                "bench.paper_err": sum(
                    abs(math.log2(measured / paper))
                    for measured, paper in ratios.values()
                ) / len(ratios),
            },
            "signature": {"fig5": fig5.series, "fig10": fig10.series,
                          "ratios": ratios},
        }


class LlmFleetLight(_Sim):
    """No seeded input: ``run_llm_scenario`` builds its own cluster with
    the default jitter seed, so every seed replays one schedule."""

    name = "llm_fleet_light"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        from repro.bench import llm

        self.llm = llm
        self.config = llm.LlmConfig(ranks=128 if self.smoke else 1024)
        self.sizes = {
            "ranks": self.config.ranks, "epochs": self.config.epochs,
            "bytes_per_rank_epoch": self.config.bytes_per_checkpoint,
            "keep_last": self.config.keep_last, "backend": "light",
        }

    def rep(self, wrap_env=None, tamper=None) -> dict:
        start = _clock()
        result = self.llm.run_llm_scenario(self.config)
        end = _clock()
        restore = result["restore"]
        checks = (result["write_gib_s"], restore["restore_gib_s"],
                  restore["rank_p99_s"], result["final_time_s"])
        return {
            "wall_s": end - start,
            "write_bytes": result["bytes_written"],
            "write_s": end - start,
            "read_bytes": restore["bytes_read"],
            "read_s": end - start,
            # the scenario's own byte-count assertions raise on failure
            "attempted": len(checks) + 2,
            "failed": self._bad_values(checks),
            "ledger": {
                "bench.sim_write_GiBps": result["write_gib_s"],
                "bench.sim_read_GiBps": restore["restore_gib_s"],
                "bench.sim_restore_p99_s": restore["rank_p99_s"],
            },
            "signature": result,
        }


class ServingFanoutLight(_Sim):
    name = "serving_fanout_light"

    #: the campaign's three points (run_serving_campaign takes no seed, so
    #: the sweep is restated here over the public scenario entry point)
    POINTS = {
        "readdir-1shard": dict(enumeration="readdir", mds_shards=1, md_cache=False),
        "manifest-1shard": dict(enumeration="manifest", mds_shards=1, md_cache=False),
        "manifest-4shard-cache": dict(enumeration="manifest", mds_shards=4, md_cache=True),
    }

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        from repro.bench import serving

        self.serving = serving
        base = serving.ServingConfig(seed=seed)
        if self.smoke:
            base = base.quick()
        self.configs = {
            name: replace(base, **point) for name, point in self.POINTS.items()
        }
        self.sizes = {
            "points": list(self.POINTS), "clients": base.clients,
            "model_bytes": base.total_files * base.file_bytes,
            "block_cache_bytes": base.block_cache_bytes,
            "requests_per_client": base.requests_per_client,
            "backend": "light",
        }

    def rep(self, wrap_env=None, tamper=None) -> dict:
        start = _clock()
        results = {
            name: self.serving.run_serving_scenario(cfg)
            for name, cfg in self.configs.items()
        }
        end = _clock()
        final = results["manifest-4shard-cache"]["serve"]
        checks = [
            value for point in results.values()
            for value in (point["serve"]["read_gib_s"],
                          point["serve"]["ttfb_p99_s"],
                          point["enumerate"]["entries_per_s"])
        ]
        return {
            "wall_s": end - start,
            "write_bytes": sum(
                cfg.total_files * cfg.file_bytes
                for cfg in self.configs.values()
            ),
            "write_s": end - start,
            "read_bytes": sum(
                point["serve"]["bytes_served"] for point in results.values()
            ),
            "read_s": end - start,
            "attempted": len(checks) + len(results),
            "failed": self._bad_values(checks),
            "ledger": {
                "bench.sim_read_GiBps": final["read_gib_s"],
                "bench.sim_ttfb_p99_s": final["ttfb_p99_s"],
            },
            "signature": results,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (LocalKvCkpt, LocalEpochCkpt, PaperFigsThreads,
                LlmFleetLight, ServingFanoutLight)
}
