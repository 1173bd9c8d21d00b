"""Microbenchmark: foreground write latency under concurrent compaction.

The figure benchmarks never stress the admission policies because LSMIO
disables compaction.  This harness manufactures the contention the
scheduler exists for: four background processes stream 4 MiB
COMPACTION-class writes at a shared client while one foreground process
issues small checkpoint appends and records each submit→complete latency
in *simulated* time.  Under FIFO the foreground RPCs queue at the NIC
behind every in-flight compaction RPC; under strict priority (and DRR's
4:1 weighting) a foreground arrival overtakes everything still queued
and waits out at most the one request actually on the wire — which is
exactly the p99 gap this benchmark measures.

Emits ``BENCH_sched.json`` so the repo carries the policy comparison
from PR to PR.

Usage::

    python benchmarks/micro/bench_sched.py                # run, print
    python benchmarks/micro/bench_sched.py --out BENCH_sched.json
    python benchmarks/micro/bench_sched.py --check        # strict < fifo?
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..", "src"))

from repro import sim  # noqa: E402
from repro._version import __version__  # noqa: E402
from repro.io import Priority, io_priority  # noqa: E402
from repro.pfs import LustreClient, LustreCluster  # noqa: E402
from repro.pfs.configs import small_test_cluster  # noqa: E402
from repro.util.stats import quantile  # noqa: E402

DEFAULT_JSON = os.path.join(
    os.path.dirname(__file__), "BENCH_sched.json"
)

POLICIES = ("fifo", "strict", "drr")
COMPACTORS = 4
COMPACTION_WRITE = 4 << 20
FOREGROUND_WRITE = 64 << 10
FOREGROUND_THINK = 0.01  # seconds of simulated compute between appends


def _percentiles(samples_ms: list[float]) -> dict:
    # one repo-wide quantile definition (repro.util.stats): linear
    # interpolation over the sorted samples, not nearest-rank
    ordered = sorted(samples_ms)
    pct = lambda p: quantile(ordered, p)  # noqa: E731

    return {
        "p50_ms": round(pct(0.50), 3),
        "p95_ms": round(pct(0.95), 3),
        "p99_ms": round(pct(0.99), 3),
        "max_ms": round(ordered[-1], 3),
        "mean_ms": round(sum(ordered) / len(ordered), 3),
    }


def run_policy(policy: str, samples: int) -> dict:
    """Foreground latency distribution under ``policy`` (sim time)."""
    with sim.Engine() as engine:
        cluster = LustreCluster(engine, small_test_cluster())
        client = LustreClient(cluster, 0)
        if policy != "fifo":
            client.scheduler.set_policy(policy)

        done = {"foreground": False}
        latencies_ms: list[float] = []

        def compactor(index: int) -> None:
            file = client.create(f"compaction.{index}")
            offset = 0
            with io_priority(Priority.COMPACTION):
                while not done["foreground"]:
                    client.write(file, offset, b"c" * COMPACTION_WRITE)
                    offset += COMPACTION_WRITE

        def foreground() -> None:
            file = client.create("checkpoint")
            offset = 0
            for _ in range(samples):
                sim.sleep(FOREGROUND_THINK)
                t0 = sim.now()
                client.write(file, offset, b"f" * FOREGROUND_WRITE)
                latencies_ms.append((sim.now() - t0) * 1e3)
                offset += FOREGROUND_WRITE
            done["foreground"] = True

        for index in range(COMPACTORS):
            engine.spawn(compactor, index)
        engine.spawn(foreground)
        engine.run()

        result = _percentiles(latencies_ms)
        result["samples"] = len(latencies_ms)
        snap = client.scheduler.stats.snapshot()
        result["queued_issues"] = snap["queued_issues"]
        result["stall_time_foreground_s"] = round(
            snap["stall_time_foreground"], 4
        )
        return result


def run_all(samples: int) -> dict:
    return {policy: run_policy(policy, samples) for policy in POLICIES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--samples", type=int, default=200,
        help="foreground writes per policy",
    )
    parser.add_argument("--out", default=None, help="write/refresh this JSON")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless strict priority beats FIFO on foreground p99",
    )
    args = parser.parse_args(argv)

    from check_baselines import build_doc, check

    results = run_all(args.samples)
    speedup = (
        round(results["fifo"]["p99_ms"] / results["strict"]["p99_ms"], 2)
        if results["strict"]["p99_ms"] > 0
        else None
    )
    doc = build_doc(
        name="sched",
        env={
            "samples": args.samples,
            "compactors": COMPACTORS,
            "compaction_write": COMPACTION_WRITE,
            "foreground_write": FOREGROUND_WRITE,
            "cluster": "small_test_cluster",
            "version": __version__,
        },
        metrics={
            "strict_vs_fifo_p99_speedup": speedup,
            **{
                f"{policy}_p99_ms": results[policy]["p99_ms"]
                for policy in POLICIES
            },
        },
        tolerances={
            "strict_vs_fifo_p99_speedup": {"rule": "gt", "value": 1.0},
        },
        detail={"policies": results},
    )

    header = f"{'policy':<8}  {'p50':>9}  {'p95':>9}  {'p99':>9}  {'max':>9}"
    print("Foreground write latency (ms, simulated) under "
          f"{COMPACTORS} concurrent compaction streams")
    print(header)
    for policy, stats in results.items():
        print(
            f"{policy:<8}  {stats['p50_ms']:>9.3f}  {stats['p95_ms']:>9.3f}"
            f"  {stats['p99_ms']:>9.3f}  {stats['max_ms']:>9.3f}"
        )
    print(f"strict vs fifo p99: {speedup}x")

    json_path = args.out or DEFAULT_JSON
    if args.out:
        with open(json_path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(json_path)}")

    if args.check:
        return check(doc, label="sched")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
