"""Long-horizon stability benchmark: stall windows and p99.9 over time.

Luo & Carey's stability argument ("On Performance Stability in
LSM-based Storage Systems") is that *when* merge work runs matters more
than how fast it runs: a serialized compactor lets L0 pile up until the
slowdown/stop triggers cliff the foreground p99.9.  This harness drives
a sustained put workload against a DB on the simulated cluster with a
deliberately tight COMPACTION-class bandwidth cap — serial compaction
cannot keep up by design — then runs the same workload with partitioned
subcompactions and the stall-aware pacer enabled.  Every put's latency
is recorded in *simulated* time, bucketed over the run so the stalls
show up as where-they-happened, and the ``repro.trace`` stall spans
(write_slowdown / write_stop) are merged into distinct
stall windows via ``repro.trace.summary.stalls_report``.

The committed gate (``--check``) is the issue's acceptance bar: with
pacing + parallelism the run must show >= 2x fewer (or 2x shorter)
stall windows and an improved p99.9 versus the serial baseline.

Emits ``BENCH_stability.json`` so the repo carries the comparison from
PR to PR.

Usage::

    python benchmarks/micro/bench_stability.py                # run, print
    python benchmarks/micro/bench_stability.py --out BENCH_stability.json
    python benchmarks/micro/bench_stability.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro import sim, trace  # noqa: E402
from repro._version import __version__  # noqa: E402
from repro.io import Priority  # noqa: E402
from repro.lsm import DB, Options  # noqa: E402
from repro.pfs import LustreClient, LustreCluster, SimLustreEnv  # noqa: E402
from repro.pfs.configs import small_test_cluster  # noqa: E402
from repro.sim.executor import SimExecutor  # noqa: E402
from repro.trace.summary import stalls_report  # noqa: E402
from repro.util.stats import quantile  # noqa: E402

DEFAULT_JSON = os.path.join(
    os.path.dirname(__file__), "BENCH_stability.json"
)

#: COMPACTION-class bytes/s at the client: low enough that one serial
#: compactor falls behind the put rate (manufacturing the stall cliff),
#: high enough that the pacer's 4x boost + fan-out can catch up.
COMPACTION_BW = 4 << 20

KEYSPACE = 512
VALUE_SIZE = 512
THINK_TIME = 5e-3   # simulated compute between puts
BUCKETS = 8         # latency timeline resolution

MODES = {
    "serial": dict(max_subcompactions=1, compaction_pacing=False),
    "paced": dict(max_subcompactions=4, compaction_pacing=True),
}


def _pct(ordered: list[float], p: float) -> float:
    # one repo-wide quantile definition (repro.util.stats)
    return quantile(ordered, p)


def _latency_stats(samples_ms: list[float]) -> dict:
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(_pct(ordered, 0.50), 3),
        "p99_ms": round(_pct(ordered, 0.99), 3),
        "p999_ms": round(_pct(ordered, 0.999), 3),
        "max_ms": round(ordered[-1], 3),
        "mean_ms": round(sum(ordered) / len(ordered), 3),
    }


def _timeline(samples_ms: list[float], buckets: int) -> list[dict]:
    """p99/p99.9 per contiguous slice of the run (index-bucketed, so
    the timeline is deterministic and comparable across modes)."""
    out = []
    size = max(1, len(samples_ms) // buckets)
    for start in range(0, len(samples_ms), size):
        chunk = sorted(samples_ms[start:start + size])
        out.append({
            "p99_ms": round(_pct(chunk, 0.99), 3),
            "p999_ms": round(_pct(chunk, 0.999), 3),
            "max_ms": round(chunk[-1], 3),
        })
    return out[:buckets]


def run_mode(mode: str, samples: int) -> dict:
    """One sustained put campaign; returns latency + stall statistics."""
    config = MODES[mode]
    tracer = trace.install()
    try:
        with sim.Engine() as engine:
            cluster = LustreCluster(engine, small_test_cluster())
            client = LustreClient(cluster, 0)
            # The cap goes in before DB.open so the pacer adopts the
            # capped rate as its base.
            client.scheduler.set_class_bandwidth(
                Priority.COMPACTION, COMPACTION_BW
            )
            env = SimLustreEnv(client)

            latencies_ms: list[float] = []

            def main():
                options = Options(
                    write_buffer_size=16 << 10,
                    target_file_size_base=12 << 10,
                    level0_file_num_compaction_trigger=2,
                    level0_slowdown_writes_trigger=6,
                    level0_stop_writes_trigger=9,
                    # Shared by both modes: the band ramp's max delay
                    # (serial, reactive) and the pacer curve's scale
                    # (paced, preemptive) — same knob, fair comparison.
                    slowdown_delay=4e-3,
                    enable_compaction=True,
                    **config,
                )
                db = DB.open(
                    "db", options=options, env=env,
                    executor=SimExecutor(engine),
                )
                rng = random.Random(1234)
                value = b"v" * VALUE_SIZE
                for _ in range(samples):
                    sim.sleep(THINK_TIME)
                    key = f"k{rng.randrange(KEYSPACE):05d}".encode()
                    t0 = sim.now()
                    db.put(key, value)
                    latencies_ms.append((sim.now() - t0) * 1e3)
                db.flush()
                stats = db.compaction_stats.snapshot()
                dbstats = (db.stats.compactions, db.stats.memtable_flushes)
                db.close()
                return stats, dbstats

            proc = engine.spawn(main)
            engine.run()
            cstats, (compactions, flushes) = proc.result
            finished = engine.now

        payload = tracer.to_payload()
        stalls = stalls_report(payload)
        result = {
            "latency": _latency_stats(latencies_ms),
            "timeline": _timeline(latencies_ms, BUCKETS),
            "stalls": {
                "windows": stalls["windows"],
                "total_duration_s": round(stalls["total_duration"], 4),
                "longest_window_s": round(stalls["longest_window"], 4),
                "spans": {
                    name: entry["count"]
                    for name, entry in stalls["spans"].items()
                },
            },
            "compactions": compactions,
            "memtable_flushes": flushes,
            "subcompactions": cstats["subcompactions"],
            "parallel_compactions": cstats["parallel_compactions"],
            "pacer_adjustments": cstats["pacer_adjustments"],
            "stall_time_s": round(cstats["stall_time"], 4),
            "sim_makespan_s": round(finished, 4),
            "samples": len(latencies_ms),
        }
        return result
    finally:
        trace.uninstall()


def run_all(samples: int) -> dict:
    return {mode: run_mode(mode, samples) for mode in MODES}


def _ratio(a: float, b: float):
    return round(a / b, 2) if b > 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--samples", type=int, default=1200, help="puts per mode",
    )
    parser.add_argument("--out", default=None, help="write/refresh this JSON")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless pacing+parallelism gives >= 2x fewer or shorter "
             "stall windows AND a better p99.9 than the serial baseline",
    )
    args = parser.parse_args(argv)

    from check_baselines import build_doc, check

    results = run_all(args.samples)
    serial, paced = results["serial"], results["paced"]
    window_improvement = _ratio(
        serial["stalls"]["windows"], paced["stalls"]["windows"]
    )
    duration_improvement = _ratio(
        serial["stalls"]["total_duration_s"],
        paced["stalls"]["total_duration_s"],
    )
    p999_improvement = _ratio(
        serial["latency"]["p999_ms"], paced["latency"]["p999_ms"]
    )
    # the original gate is an OR (>= 2x fewer windows OR >= 2x less
    # stalled time); rules are per-metric, so gate their max
    stall_improvement_best = max(
        improvement
        for improvement in (window_improvement, duration_improvement, 0.0)
        if improvement is not None
    )
    doc = build_doc(
        name="stability",
        env={
            "samples": args.samples,
            "keyspace": KEYSPACE,
            "value_size": VALUE_SIZE,
            "think_time_s": THINK_TIME,
            "compaction_bandwidth": COMPACTION_BW,
            "cluster": "small_test_cluster",
            "version": __version__,
        },
        metrics={
            "stall_window_improvement": window_improvement,
            "stall_duration_improvement": duration_improvement,
            "stall_improvement_best": stall_improvement_best,
            "p999_improvement": p999_improvement,
            "serial_stall_windows": serial["stalls"]["windows"],
            "paced_parallel_compactions": paced["parallel_compactions"],
            "paced_p999_ms": paced["latency"]["p999_ms"],
            "serial_p999_ms": serial["latency"]["p999_ms"],
        },
        tolerances={
            "stall_improvement_best": {"rule": "min", "value": 2.0},
            "p999_improvement": {"rule": "gt", "value": 1.0},
            "serial_stall_windows": {"rule": "gt", "value": 0},
            "paced_parallel_compactions": {"rule": "gt", "value": 0},
        },
        detail={"modes": results},
    )

    print(f"Sustained put latency over {args.samples} samples "
          f"(ms, simulated), COMPACTION class capped at "
          f"{COMPACTION_BW >> 20} MiB/s")
    header = (f"{'mode':<8}  {'p50':>8}  {'p99':>8}  {'p99.9':>8}  "
              f"{'max':>8}  {'windows':>7}  {'stalled':>8}")
    print(header)
    for mode, stats in results.items():
        lat, st = stats["latency"], stats["stalls"]
        print(
            f"{mode:<8}  {lat['p50_ms']:>8.3f}  {lat['p99_ms']:>8.3f}"
            f"  {lat['p999_ms']:>8.3f}  {lat['max_ms']:>8.3f}"
            f"  {st['windows']:>7d}  {st['total_duration_s']:>7.3f}s"
        )
    print(
        f"paced vs serial: {window_improvement}x fewer "
        f"windows, {duration_improvement}x less stalled "
        f"time, {p999_improvement}x on p99.9"
    )

    json_path = args.out or DEFAULT_JSON
    if args.out:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(json_path)}")

    if args.check:
        return check(doc, label="stability")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
