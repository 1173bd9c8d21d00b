"""``python -m repro.bench report``: the self-contained perf dashboard.

Renders one HTML file — inline CSS, inline SVG sparklines, zero
external fetches — from up to two inputs:

- a ``repro-telemetry`` dump (``--telemetry``): histogram quantile
  tables and sampled gauge time-series;
- a ``repro-trace`` dump (``--trace``): merged stall windows;
- with neither dump given, a seeded fig5 quick point is run in-process
  (tracer + telemetry installed) so the dashboard always renders from a
  live, reproducible workload.
"""

from __future__ import annotations

import argparse
import html
import json
from typing import Optional

#: series rendered as sparklines before the overflow note kicks in —
#: a 45-OST cluster exports ~100 gauge series and a dashboard with all
#: of them is unreadable; constant (flat) series are summarized instead.
MAX_SPARKLINES = 48

_CSS = """
body { font: 13px/1.45 -apple-system, "Segoe UI", Roboto, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a1a2e; }
h1 { font-size: 1.5em; border-bottom: 2px solid #16213e; }
h2 { font-size: 1.15em; margin-top: 2em; color: #16213e; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { padding: 0.25em 0.8em; text-align: right;
         border-bottom: 1px solid #ddd; }
th { background: #f0f2f8; }
td.name, th.name { text-align: left; font-family: ui-monospace, monospace; }
.spark { display: inline-block; margin: 0.3em 0.6em 0.3em 0; }
.spark svg { border: 1px solid #ccd; background: #fafbff; }
.spark .label { font-family: ui-monospace, monospace; font-size: 11px;
                display: block; }
.meta { color: #667; font-size: 0.9em; }
.note { color: #945; font-size: 0.9em; }
"""


def _fmt(value) -> str:
    """Compact numeric rendering for table cells."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 0.01:
            return f"{value:.4g}"
        return f"{value:.3e}"
    return html.escape(str(value))


def sparkline_svg(
    ts: list, values: list, width: int = 240, height: int = 40
) -> str:
    """One polyline SVG for a (ts, value) series (self-contained)."""
    if len(values) < 2:
        return ""
    t0, t1 = ts[0], ts[-1]
    vmin, vmax = min(values), max(values)
    tspan = (t1 - t0) or 1.0
    vspan = (vmax - vmin) or 1.0
    pad = 2
    points = " ".join(
        f"{pad + (t - t0) / tspan * (width - 2 * pad):.1f},"
        f"{height - pad - (v - vmin) / vspan * (height - 2 * pad):.1f}"
        for t, v in zip(ts, values)
    )
    return (
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f'<polyline fill="none" stroke="#3558a0" stroke-width="1.2" '
        f'points="{points}"/></svg>'
    )


def _histogram_section(histograms: dict) -> list[str]:
    out = ["<h2>Latency histograms (log-bucketed, always-on)</h2>"]
    if not histograms:
        out.append('<p class="note">no histograms recorded</p>')
        return out
    out.append(
        "<table><tr><th class=name>histogram</th><th>count</th>"
        "<th>mean</th><th>p50</th><th>p90</th><th>p99</th><th>p99.9</th>"
        "<th>max</th></tr>"
    )
    for name in sorted(histograms):
        hist = histograms[name]
        count = hist.get("count", 0)
        mean = hist.get("sum", 0.0) / count if count else 0.0
        out.append(
            f"<tr><td class=name>{html.escape(name)}</td>"
            f"<td>{_fmt(count)}</td><td>{_fmt(mean)}</td>"
            f"<td>{_fmt(hist.get('p50', 0.0))}</td>"
            f"<td>{_fmt(hist.get('p90', 0.0))}</td>"
            f"<td>{_fmt(hist.get('p99', 0.0))}</td>"
            f"<td>{_fmt(hist.get('p999', 0.0))}</td>"
            f"<td>{_fmt(hist.get('max', 0.0))}</td></tr>"
        )
    out.append("</table>")
    return out


def _series_section(series: dict) -> list[str]:
    out = ["<h2>Sampled gauges (sim-clock time series)</h2>"]
    if not series:
        out.append('<p class="note">no gauge series recorded</p>')
        return out
    # Moving series first (they carry the signal); flat series are
    # summarized in one line rather than silently dropped.
    moving, flat = [], []
    for name in sorted(series):
        values = series[name].get("value", [])
        (moving if len(set(values)) > 1 else flat).append(name)
    shown = moving[:MAX_SPARKLINES]
    for name in shown:
        col = series[name]
        values = col["value"]
        svg = sparkline_svg(col["ts"], values)
        out.append(
            f'<span class="spark">{svg}'
            f'<span class="label">{html.escape(name)} '
            f"[{_fmt(min(values))} … {_fmt(max(values))}]</span></span>"
        )
    dropped = len(moving) - len(shown)
    if dropped > 0:
        out.append(
            f'<p class="note">{dropped} more moving series omitted '
            f"(cap {MAX_SPARKLINES})</p>"
        )
    if flat:
        out.append(
            f'<p class="meta">{len(flat)} constant series not plotted: '
            f"{html.escape(', '.join(flat[:12]))}"
            f"{', …' if len(flat) > 12 else ''}</p>"
        )
    return out


def _stalls_section(trace_payload: Optional[dict]) -> list[str]:
    out = ["<h2>Write-stall windows</h2>"]
    if trace_payload is None:
        out.append('<p class="note">no trace dump given (--trace)</p>')
        return out
    from repro.trace.summary import stalls_report

    report = stalls_report(trace_payload)
    out.append(
        "<table><tr><th class=name>metric</th><th>value</th></tr>"
        f"<tr><td class=name>stall windows</td>"
        f"<td>{_fmt(report['windows'])}</td></tr>"
        f"<tr><td class=name>total stalled (s)</td>"
        f"<td>{_fmt(report['total_duration'])}</td></tr>"
        f"<tr><td class=name>longest window (s)</td>"
        f"<td>{_fmt(report['longest_window'])}</td></tr>"
    )
    for name, entry in sorted(report.get("spans", {}).items()):
        out.append(
            f"<tr><td class=name>{html.escape(name)}</td>"
            f"<td>{_fmt(entry['count'])} spans / "
            f"{_fmt(entry['total_duration'])} s</td></tr>"
        )
    out.append("</table>")
    return out


def render_report(
    telemetry_payload: Optional[dict],
    trace_payload: Optional[dict],
) -> str:
    """The full dashboard as one HTML string."""
    meta = (telemetry_payload or {}).get("meta", {})
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro perf dashboard</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro perf dashboard</h1>",
    ]
    if meta:
        parts.append(
            f'<p class="meta">{html.escape(json.dumps(meta, sort_keys=True))}</p>'
        )
    histograms = (telemetry_payload or {}).get("histograms", {})
    series = (telemetry_payload or {}).get("series", {})
    parts.extend(_histogram_section(histograms))
    parts.extend(_series_section(series))
    parts.extend(_stalls_section(trace_payload))
    parts.append("</body></html>")
    return "\n".join(parts)


def _run_seeded_point() -> tuple[dict, dict]:
    """One fig5 quick point with tracer + telemetry installed.

    Deterministic (simulated clock, seeded jitter), so two renders from
    this path produce identical telemetry payloads.
    """
    from repro import telemetry, trace
    from repro.bench.figures import FIGURES

    tracer = trace.install()
    tele = telemetry.install(sampler=telemetry.GaugeSampler(interval=0.01))
    try:
        FIGURES["fig5"](
            node_counts=(4,),
            bytes_per_task=2 << 20,
            repetitions=1,
        )
        trace_payload = tracer.to_payload(
            metrics=trace.current_metrics().snapshot(),
            meta={"target": "fig5", "nodes": [4], "seeded": True},
        )
        telemetry_payload = tele.to_payload(
            meta={"target": "fig5", "nodes": [4], "seeded": True}
        )
    finally:
        telemetry.uninstall()
        trace.uninstall()
    return telemetry_payload, trace_payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench report",
        description="Render the self-contained HTML perf dashboard.",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="repro-telemetry dump (from `python -m repro.bench ... "
             "--telemetry PATH`); omitted → run a seeded fig5 point",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="repro-trace dump for the stall-window section",
    )
    parser.add_argument(
        "-o", "--out", default="report.html", help="output HTML path"
    )
    args = parser.parse_args(argv)

    trace_payload = None
    if args.trace:
        with open(args.trace) as fh:
            trace_payload = json.load(fh)
    if args.telemetry:
        with open(args.telemetry) as fh:
            telemetry_payload = json.load(fh)
    else:
        print("no --telemetry dump: running a seeded fig5 quick point …")
        telemetry_payload, seeded_trace = _run_seeded_point()
        if trace_payload is None:
            trace_payload = seeded_trace

    document = render_report(telemetry_payload, trace_payload)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(document)
    print(
        f"dashboard written to {args.out} "
        f"({len(telemetry_payload.get('histograms', {}))} histograms, "
        f"{len(telemetry_payload.get('series', {}))} series, "
        f"{len(document)} bytes)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
