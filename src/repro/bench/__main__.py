"""CLI: regenerate the paper's figures on the simulated cluster.

Usage::

    python -m repro.bench fig5            # one figure, full sweep
    python -m repro.bench all             # every figure
    python -m repro.bench fig1            # the introduction's growth plot
    python -m repro.bench ablations       # §3.1.1 design-choice ablations
    python -m repro.bench fig6 --nodes 4 16 48 --quick --json out.json
    python -m repro.bench report  # self-contained HTML perf dashboard
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.ablations import (
    run_ablations,
    run_collective_group_sweep,
    run_media_comparison,
)
from repro.bench.fig1_history import fig1_history, format_fig1
from repro.bench.figures import (
    DEFAULT_NODE_COUNTS,
    FIGURES,
    default_cluster,
)


def _pin_to_one_cpu():
    """Pin this process to one CPU; return the previous CPU set.

    The simulator runs one thread at a time, so unpinned every handoff is
    a cross-core wake-up (the same figure run measured 5.9 s unpinned and
    2.3 s pinned on a 2-core host).  Returns None where the platform has
    no affinity call or refuses it; the run then goes unpinned.
    """
    try:
        everywhere = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(everywhere)})
    except (AttributeError, OSError):
        return None
    return everywhere


def main(argv=None) -> int:
    everywhere = _pin_to_one_cpu()
    try:
        return _main(argv)
    finally:
        if everywhere is not None:
            os.sched_setaffinity(0, everywhere)


def _main(argv) -> int:
    # `report` has its own flag set and is not a figure target — dispatch
    # before the parser so `--telemetry` keeps its recording meaning here.
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        from repro.bench.report import main as report_main

        return report_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables/figures (simulated Viking).",
    )
    parser.add_argument(
        "target",
        choices=sorted(FIGURES) + [
            "fig1", "ablations", "media", "groups", "tiering", "llm",
            "serving", "all",
        ],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--nodes", type=int, nargs="+", default=None,
        help=f"node counts to sweep (default {DEFAULT_NODE_COUNTS})",
    )
    parser.add_argument(
        "--bytes-per-task", default=None,
        help="per-rank checkpoint volume (default 8M)",
    )
    parser.add_argument(
        "--reps", type=int, default=1,
        help="repetitions per point; max reported (paper used 10)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sweep (nodes 4/16/48, 2M per task)",
    )
    parser.add_argument("--json", help="also dump results to this JSON file")
    parser.add_argument(
        "--io-policy", choices=("fifo", "strict", "drr"), default=None,
        help="client I/O admission policy (default: the cluster's fifo "
             "pass-through; figures are bit-stable only under fifo)",
    )
    parser.add_argument(
        "--compaction-bw", metavar="RATE", default=None,
        help="cap COMPACTION-class client bandwidth (e.g. 50M); "
             "0 disables throttling",
    )
    parser.add_argument(
        "--mds-shards", type=int, default=None, metavar="N",
        help="DNE metadata shards (default 1: single MDS, bit-identical "
             "to the unsharded path)",
    )
    parser.add_argument(
        "--mds-cost-scale", type=float, default=None, metavar="FACTOR",
        help="multiply every MDS op cost by FACTOR (what-if knob for "
             "faster/slower metadata targets)",
    )
    parser.add_argument(
        "--md-cache", action="store_true",
        help="enable the client-side metadata cache (TTL + negative "
             "entries; default off)",
    )
    parser.add_argument(
        "--burst-buffer", metavar="CAPACITY", default=None,
        help="node-local burst-buffer capacity for the tiering campaign "
             "(e.g. 16M); only meaningful with the `tiering` target",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record a checkpoint-timeline trace of the run to PATH "
             "(raw dump; export with `python -m repro.trace export`) and "
             "print the per-phase breakdown",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="record always-on histograms + sampled gauge time-series to "
             "PATH (render with `python -m repro.bench report`)",
    )
    parser.add_argument(
        "--sample-interval", type=float, default=0.01, metavar="SECONDS",
        help="sim-clock gauge sampling interval for --telemetry "
             "(default 0.01)",
    )
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from repro import trace

        tracer = trace.install()

    tele = None
    if args.telemetry:
        from repro import telemetry

        tele = telemetry.install(
            sampler=telemetry.GaugeSampler(interval=args.sample_interval)
        )

    node_counts = tuple(args.nodes) if args.nodes else DEFAULT_NODE_COUNTS
    bytes_per_task = args.bytes_per_task or "8M"
    if args.quick:
        node_counts = tuple(args.nodes) if args.nodes else (4, 16, 48)
        bytes_per_task = args.bytes_per_task or "2M"
    from repro.util.humanize import parse_size

    bytes_per_task = parse_size(bytes_per_task)

    cluster_overrides: dict = {}
    if args.io_policy:
        cluster_overrides["io_policy"] = args.io_policy
    if args.compaction_bw is not None:
        cluster_overrides["io_compaction_bandwidth"] = args.compaction_bw
    if args.mds_shards is not None:
        cluster_overrides["mds_shards"] = args.mds_shards
    if args.mds_cost_scale is not None:
        cluster_overrides["mds_cost_scale"] = args.mds_cost_scale
    if args.md_cache:
        cluster_overrides["md_cache"] = True

    payload: dict = {}
    if args.target == "fig1":
        result = fig1_history()
        print(format_fig1(result))
        payload["fig1"] = result
    elif args.target == "ablations":
        result = run_ablations(default_cluster(**cluster_overrides))
        print(result.table())
        payload["ablations"] = result.variants
    elif args.target == "groups":
        result = run_collective_group_sweep(default_cluster(**cluster_overrides))
        print("Collective-mode group-size sweep — LSMIO, 48 nodes, 64K")
        print("=" * 56)
        for group, bandwidth in result.items():
            label = "native (per-rank stores)" if group == 1 else f"group={group}"
            print(f"  {label:26s} {bandwidth / (1 << 20):8.1f} MB/s")
        print("Aggregation saves metadata but serializes at the "
              "aggregator's NIC past ~4 ranks/group.")
        payload["groups"] = result
    elif args.target == "tiering":
        from repro.bench.tiering import format_tiering, run_tiering_campaign

        result = run_tiering_campaign(
            capacity=args.burst_buffer or "16M"
        )
        print(format_tiering(result))
        payload["tiering"] = result
    elif args.target == "llm":
        from repro.bench.llm import (
            DEFAULT_RANK_COUNTS,
            format_llm,
            run_llm_campaign,
        )

        # --nodes doubles as the fleet-size axis here: LLM ranks, not
        # Viking nodes (the cluster scales with the fleet).
        result = run_llm_campaign(
            rank_counts=tuple(args.nodes) if args.nodes else DEFAULT_RANK_COUNTS,
            quick=args.quick,
        )
        print(format_llm(result))
        payload["llm"] = result
    elif args.target == "serving":
        from repro.bench.serving import format_serving, run_serving_campaign

        result = run_serving_campaign(quick=args.quick)
        print(format_serving(result))
        payload["serving"] = result
    elif args.target == "media":
        result = run_media_comparison()
        mib = 1 << 20
        print("Media ablation — LSMIO vs IOR baseline, 16 nodes, 64K")
        print("=" * 54)
        for media in ("hdd", "ssd"):
            print(f"  {media.upper()}: ior={result[f'posix/{media}'] / mib:8.1f} "
                  f"lsmio={result[f'lsmio/{media}'] / mib:8.1f} MB/s "
                  f"(LSMIO advantage {result[f'lsmio_advantage_{media}']:.1f}x)")
        print("LSMIO's edge is the seek arithmetic: flash erases most of it.")
        payload["media"] = result
    else:
        targets = sorted(FIGURES) if args.target == "all" else [args.target]
        for name in targets:
            figure = FIGURES[name](
                node_counts=node_counts,
                cluster=(
                    default_cluster(**cluster_overrides)
                    if cluster_overrides else None
                ),
                bytes_per_task=bytes_per_task,
                repetitions=args.reps,
            )
            print(figure.table())
            print()
            payload[name] = {
                "node_counts": figure.node_counts,
                "series": figure.series,
                "ratios": figure.ratios,
            }

    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"results written to {args.json}")

    if tracer is not None:
        from repro import trace

        dump = tracer.to_payload(
            metrics=trace.current_metrics().snapshot(),
            meta={"target": args.target, "nodes": list(node_counts)},
        )
        trace.uninstall()
        trace.write_payload(dump, args.trace)
        print(f"trace written to {args.trace} "
              f"({len(dump['spans'])} spans); inspect with "
              f"`python -m repro.trace summarize {args.trace}`")
        breakdown = trace.phase_breakdown(dump)
        if breakdown:
            print(breakdown)

    if tele is not None:
        from repro import telemetry

        tele_dump = tele.to_payload(
            meta={"target": args.target, "nodes": list(node_counts)}
        )
        telemetry.uninstall()
        with open(args.telemetry, "w") as fh:
            json.dump(tele_dump, fh, indent=2, sort_keys=True)
        print(f"telemetry written to {args.telemetry} "
              f"({len(tele_dump['histograms'])} histograms, "
              f"{len(tele_dump['series'])} gauge series); render with "
              f"`python -m repro.bench report --telemetry {args.telemetry}`")
    return 0


if __name__ == "__main__":
    sys.exit(main())
