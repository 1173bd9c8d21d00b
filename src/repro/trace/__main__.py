"""CLI: inspect and export checkpoint-timeline traces.

Usage::

    python -m repro.trace summarize  TRACE.json
    python -m repro.trace top-spans  TRACE.json [-n 15]
    python -m repro.trace stalls     TRACE.json [--json]
    python -m repro.trace export     TRACE.json -o OUT.chrome.json
    python -m repro.trace validate   OUT.chrome.json
    python -m repro.trace profile    [--check] [-n 15]

``TRACE.json`` is a raw dump written by a ``--trace`` benchmark run (or
an already-exported Chrome trace — both forms are accepted).  ``export``
writes the Chrome Trace Event form that chrome://tracing and Perfetto
open; it always schema-validates before writing.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace.export import (
    load_payload,
    to_chrome_trace,
    validate_chrome_trace,
)
from repro.trace.summary import (
    format_stalls,
    stalls_report,
    summarize,
    top_spans,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Inspect/export repro.trace checkpoint-timeline dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="per-layer/per-span rollup")
    p_sum.add_argument("trace", help="trace file (raw dump or Chrome form)")

    p_top = sub.add_parser("top-spans", help="longest spans")
    p_top.add_argument("trace")
    p_top.add_argument("-n", type=int, default=15, help="how many (15)")

    p_stall = sub.add_parser(
        "stalls",
        help="write-stall windows (write_slowdown/write_stop spans)",
    )
    p_stall.add_argument("trace")
    p_stall.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON",
    )

    p_exp = sub.add_parser(
        "export", help="convert a raw dump to Chrome trace JSON"
    )
    p_exp.add_argument("trace")
    p_exp.add_argument(
        "-o", "--out", required=True, help="output Chrome-trace path"
    )

    p_val = sub.add_parser(
        "validate", help="schema-check a Chrome trace file"
    )
    p_val.add_argument("trace")

    p_prof = sub.add_parser(
        "profile",
        help="wall-clock self-profile of the discrete-event engine "
             "(per-callback-site attribution on a seeded fig5 point)",
    )
    p_prof.add_argument(
        "-n", type=int, default=0, metavar="SITES",
        help="show only the top N sites by wall time (0 = all)",
    )
    p_prof.add_argument(
        "--check", action="store_true",
        help="exit non-zero unless sites were attributed and the "
             "disabled-mode overhead is within budget (for CI)",
    )
    p_prof.add_argument(
        "--overhead-budget", type=float, default=2.0, metavar="PCT",
        help="max tolerated disabled-mode wall-clock overhead in %% "
             "for --check (default 2.0)",
    )

    args = parser.parse_args(argv)

    if args.command == "profile":
        return _profile(args)

    if args.command == "validate":
        with open(args.trace) as fh:
            obj = json.load(fh)
        try:
            validate_chrome_trace(obj)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(
            f"{args.trace}: valid Chrome trace "
            f"({len(obj['traceEvents'])} events)"
        )
        return 0

    payload = load_payload(args.trace)
    if args.command == "summarize":
        print(summarize(payload))
    elif args.command == "top-spans":
        print(top_spans(payload, args.n))
    elif args.command == "stalls":
        if args.json:
            print(json.dumps(stalls_report(payload), sort_keys=True))
        else:
            print(format_stalls(payload))
    elif args.command == "export":
        obj = to_chrome_trace(payload)
        validate_chrome_trace(obj)
        with open(args.out, "w") as fh:
            json.dump(obj, fh)
        print(
            f"wrote {args.out} ({len(obj['traceEvents'])} events); open in "
            f"chrome://tracing or https://ui.perfetto.dev"
        )
    return 0


def _profile(args) -> int:
    """Run a seeded fig5 point under the engine self-profiler.

    Prints the per-callback-site table (events, heap pushes, wall time)
    and a measured overhead summary.  The disabled-mode figure is the
    cost of the only always-on hook the profiler adds to the engine —
    one integer increment per heap push — measured directly and scaled
    by the run's actual push count; everything else is behind a
    falls-through-when-None branch taken once per ``run()``.
    """
    from time import perf_counter_ns

    from repro import telemetry
    from repro.bench.figures import FIGURES

    def seeded_point():
        return FIGURES["fig5"](
            node_counts=(4,), bytes_per_task=2 << 20, repetitions=1
        )

    # Warm-up (imports, code objects), then time disabled runs.
    seeded_point()
    disabled_ns = []
    for _ in range(3):
        start = perf_counter_ns()
        seeded_point()
        disabled_ns.append(perf_counter_ns() - start)
    disabled = min(disabled_ns)

    # Profiled run: table + enabled-mode cost.
    profiler = telemetry.EngineProfiler()
    telemetry.install(profiler=profiler)
    try:
        start = perf_counter_ns()
        seeded_point()
        enabled = perf_counter_ns() - start
    finally:
        telemetry.uninstall()

    snap = profiler.snapshot()
    rows = snap["sites"]
    pushes = snap["heap_pushes"]
    # Cost of the always-on per-push increment, measured in place.
    loops = 1_000_000
    counter = 0
    start = perf_counter_ns()
    for _ in range(loops):
        counter += 1
    per_increment = (perf_counter_ns() - start) / loops
    disabled_overhead = 100.0 * pushes * per_increment / disabled
    enabled_overhead = 100.0 * (enabled - disabled) / disabled

    print(profiler.table(limit=args.n))
    print()
    print(
        f"baseline (telemetry disabled): {disabled / 1e6:9.1f} ms "
        f"(min of {len(disabled_ns)})"
    )
    print(f"profiled run:                  {enabled / 1e6:9.1f} ms "
          f"({enabled_overhead:+.1f}%)")
    print(
        f"disabled-mode overhead: {pushes:,} heap pushes × "
        f"{per_increment:.1f} ns/increment = "
        f"{disabled_overhead:.3f}% of baseline"
    )

    if args.check:
        problems = []
        if not rows:
            problems.append("no callback sites attributed")
        if disabled_overhead > args.overhead_budget:
            problems.append(
                f"disabled-mode overhead {disabled_overhead:.3f}% "
                f"exceeds budget {args.overhead_budget}%"
            )
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems:
            return 1
        print(
            f"CHECK OK: {len(rows)} sites, disabled overhead "
            f"{disabled_overhead:.3f}% <= {args.overhead_budget}%"
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `... | head`
        sys.exit(0)
