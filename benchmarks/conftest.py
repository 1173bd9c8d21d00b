"""Shared settings for the figure benchmarks.

Each ``bench_fig*.py`` regenerates one of the paper's figures at reduced
scale (node counts 4/16/48, 4 MiB per task by default) so the whole suite
stays tractable on one machine; ``python -m repro.bench <figN>`` runs the
full sweeps.  The ``benchmark`` fixture wraps one deterministic run; the
assertions check the figure's *shape* (who wins, where the crossovers
fall), which is the reproduction target per DESIGN.md.
"""

import os

import pytest

#: reduced sweep used by the pytest-benchmark wrappers
BENCH_NODE_COUNTS = (4, 16, 48)
BENCH_BYTES_PER_TASK = 4 << 20


def pytest_addoption(parser):
    parser.addoption(
        "--bench-trace", metavar="DIR", default=None,
        help="record a checkpoint-timeline trace per benchmark into DIR "
             "(<test name>.trace.json; inspect with python -m repro.trace)",
    )


@pytest.fixture(autouse=True)
def _bench_trace(request):
    """Per-test tracer when ``--bench-trace DIR`` is given; no-op otherwise."""
    trace_dir = request.config.getoption("--bench-trace")
    if not trace_dir:
        yield None
        return
    from repro import trace

    tracer = trace.install()
    try:
        yield tracer
    finally:
        payload = tracer.to_payload(
            metrics=trace.current_metrics().snapshot(),
            meta={"test": request.node.name},
        )
        trace.uninstall()
        os.makedirs(trace_dir, exist_ok=True)
        path = os.path.join(trace_dir, f"{request.node.name}.trace.json")
        trace.write_payload(payload, path)
        breakdown = trace.phase_breakdown(payload)
        lines = [f"trace written to {path} ({len(payload['spans'])} spans)"]
        if breakdown:
            lines.append(breakdown)
        print("\n".join(lines))


@pytest.fixture(scope="session")
def bench_nodes():
    return BENCH_NODE_COUNTS


def run_figure(benchmark, figure_fn, **kwargs):
    """Run a figure driver once under pytest-benchmark and return it."""
    kwargs.setdefault("node_counts", BENCH_NODE_COUNTS)
    kwargs.setdefault("bytes_per_task", BENCH_BYTES_PER_TASK)
    return benchmark.pedantic(
        lambda: figure_fn(**kwargs), rounds=1, iterations=1
    )
