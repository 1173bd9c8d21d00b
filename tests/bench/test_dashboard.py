"""The HTML perf dashboard renders from a telemetry and a trace dump."""

from repro.bench.report import render_report

TELEMETRY = {
    "meta": {"target": "fig5", "nodes": [4]},
    "histograms": {
        "lsm.put_s": {
            "count": 4, "sum": 0.02, "min": 0.001, "max": 0.01,
            "p50": 0.004, "p90": 0.009, "p99": 0.01, "p999": 0.01,
        },
    },
    "series": {
        "pfs.ost0.queue_depth": {"ts": [0.0, 0.01, 0.02], "value": [0, 3, 1]},
        "pfs.ost1.queue_depth": {"ts": [0.0, 0.01], "value": [0, 0]},
    },
}

TRACE = {
    "spans": [
        # two overlapping stalls merge into one window; the third is apart
        {"cat": "lsm", "name": "write_slowdown", "ts": 1.0, "dur": 0.5},
        {"cat": "lsm", "name": "write_stop", "ts": 1.25, "dur": 0.5},
        {"cat": "lsm", "name": "write_slowdown", "ts": 3.0, "dur": 0.25},
        {"cat": "pfs", "name": "write_slowdown", "ts": 5.0, "dur": 1.0},
    ],
}


def test_dashboard_has_histograms_gauges_and_stalls():
    page = render_report(TELEMETRY, TRACE)
    assert page.startswith("<!DOCTYPE html>") and page.endswith("</html>")
    assert "<td class=name>lsm.put_s</td><td>4</td><td>5.000e-03</td>" in page
    assert page.count("<polyline") == 1  # the flat series is not plotted
    assert "1 constant series not plotted: pfs.ost1.queue_depth" in page
    assert "<td class=name>stall windows</td><td>2</td>" in page
    assert "<td class=name>longest window (s)</td><td>0.75</td>" in page
    assert "BENCH" not in page


def test_dashboard_without_a_trace_says_so():
    page = render_report({}, None)
    assert "no histograms recorded" in page
    assert "no trace dump given (--trace)" in page
