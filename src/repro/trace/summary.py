"""Text rollups over trace payloads (the CLI's summarize / top-spans)."""

from __future__ import annotations

from collections import defaultdict


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:9.3f}s "
    if value >= 1e-3:
        return f"{value * 1e3:9.3f}ms"
    return f"{value * 1e6:9.3f}us"


def summarize(payload: dict) -> str:
    """Per-layer and per-span rollup of one trace payload.

    Span times overlap (spans nest), so the Σdur column is inclusive
    time, not a partition of the run.
    """
    spans = payload.get("spans", [])
    lines: list[str] = []
    meta = payload.get("meta", {})
    if meta:
        described = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"trace: {described}")
    end = max((s["ts"] + s["dur"] for s in spans), default=0.0)
    lines.append(
        f"{len(spans)} spans, {len(payload.get('instants', []))} instants, "
        f"{len(payload.get('gauges', []))} gauge samples over "
        f"{end:.6f}s simulated"
    )
    dropped = payload.get("dropped", 0)
    if dropped:
        lines.append(f"WARNING: {dropped} events dropped at the cap")

    by_cat: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_cat[span["cat"]].append(span)
    lines.append("")
    lines.append("layers (spans by category):")
    for cat in sorted(by_cat):
        cat_spans = by_cat[cat]
        total = sum(s["dur"] for s in cat_spans)
        lines.append(
            f"  {cat:8s} {len(cat_spans):7d} spans  "
            f"Σdur {_fmt_seconds(total)}"
        )

    by_name: dict[tuple[str, str], list[float]] = defaultdict(list)
    for span in spans:
        by_name[(span["cat"], span["name"])].append(span["dur"])
    lines.append("")
    lines.append(
        f"  {'span':32s} {'count':>7s} {'Σdur':>11s} {'mean':>11s} "
        f"{'max':>11s}"
    )
    for (cat, name), durs in sorted(
        by_name.items(), key=lambda item: -sum(item[1])
    ):
        total = sum(durs)
        lines.append(
            f"  {cat + '/' + name:32s} {len(durs):7d} "
            f"{_fmt_seconds(total)} {_fmt_seconds(total / len(durs))} "
            f"{_fmt_seconds(max(durs))}"
        )

    phases = phase_breakdown(payload)
    if phases:
        lines.append("")
        lines.append(phases)

    metrics = payload.get("metrics", {})
    if metrics:
        lines.append("")
        lines.append(f"metrics: {len(metrics)} federated counters "
                     f"(see the dump's 'metrics' key)")
    return "\n".join(lines)


def phase_breakdown(payload: dict) -> str:
    """Per-phase wall-of-sim-time table from ``phase:*`` spans."""
    phases: dict[str, list[dict]] = defaultdict(list)
    for span in payload.get("spans", []):
        if span["name"].startswith("phase:"):
            phases[span["name"][len("phase:"):]].append(span)
    if not phases:
        return ""
    lines = ["phases (max over ranks):"]
    for phase in sorted(phases):
        spans = phases[phase]
        longest = max(s["dur"] for s in spans)
        lines.append(
            f"  {phase:12s} {len(spans):5d} ranks  "
            f"max {_fmt_seconds(longest)}"
        )
    return "\n".join(lines)


#: span names that count as a foreground write stall: pacer/slowdown
#: delays, and writes parked outright at the L0 stop trigger
STALL_SPAN_NAMES = frozenset({"write_slowdown", "write_stop"})


def stall_windows(
    payload: dict, names: frozenset[str] = STALL_SPAN_NAMES
) -> list[tuple[float, float]]:
    """Merged (start, end) intervals where any write was stalled.

    Overlapping/adjacent stall spans (concurrent parked writers) merge
    into one window, so the count reflects distinct stall *episodes* —
    the stability metric Luo & Carey argue for — rather than the number
    of affected writes.
    """
    intervals = sorted(
        (span["ts"], span["ts"] + span["dur"])
        for span in payload.get("spans", [])
        if span["cat"] == "lsm" and span["name"] in names and span["dur"] > 0
    )
    windows: list[tuple[float, float]] = []
    for start, end in intervals:
        if windows and start <= windows[-1][1]:
            windows[-1] = (windows[-1][0], max(windows[-1][1], end))
        else:
            windows.append((start, end))
    return windows


def stalls_report(payload: dict) -> dict:
    """Stall-window statistics as a JSON-ready dict."""
    windows = stall_windows(payload)
    durations = [end - start for start, end in windows]
    by_name: dict[str, dict] = {}
    for span in payload.get("spans", []):
        if span["cat"] == "lsm" and span["name"] in STALL_SPAN_NAMES:
            entry = by_name.setdefault(
                span["name"], {"count": 0, "total_duration": 0.0}
            )
            entry["count"] += 1
            entry["total_duration"] += span["dur"]
    return {
        "windows": len(windows),
        "total_duration": sum(durations),
        "longest_window": max(durations, default=0.0),
        "spans": {name: by_name[name] for name in sorted(by_name)},
    }


def format_stalls(payload: dict) -> str:
    """Human-readable rendering of :func:`stalls_report`."""
    report = stalls_report(payload)
    lines = [
        f"stall windows: {report['windows']}",
        f"total stalled: {_fmt_seconds(report['total_duration']).strip()}",
        f"longest window: {_fmt_seconds(report['longest_window']).strip()}",
    ]
    if report["spans"]:
        lines.append("by span:")
        for name, entry in report["spans"].items():
            lines.append(
                f"  {name:16s} {entry['count']:7d} spans  "
                f"Σdur {_fmt_seconds(entry['total_duration'])}"
            )
    else:
        lines.append("no stall spans recorded")
    return "\n".join(lines)


def top_spans(payload: dict, count: int = 15) -> str:
    """The ``count`` longest spans, one per line."""
    spans = sorted(
        payload.get("spans", []), key=lambda s: s["dur"], reverse=True
    )[:count]
    lines = [
        f"  {'dur':>11s} {'ts':>11s}  {'span':32s} track",
    ]
    for span in spans:
        label = f"{span['cat']}/{span['name']}"
        lines.append(
            f"  {_fmt_seconds(span['dur'])} {_fmt_seconds(span['ts'])}  "
            f"{label:32s} {span.get('track', '')}"
        )
    return "\n".join(lines)
