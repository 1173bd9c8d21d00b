"""Tests for the Tracer: sim-clock spans, nesting, the disabled path,
and the ``probe`` recording entry point every instrumented site uses."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import sim, telemetry, trace
from repro.trace import runtime
from repro.trace.runtime import NULL_SPAN
from repro.trace.tracer import Span, Tracer


@pytest.fixture
def installed():
    tracer = trace.install()
    yield tracer
    trace.uninstall()


class TestSimClockSpans:
    def test_span_nesting_on_simulated_clock(self, installed):
        tracer = installed

        def work():
            with tracer.span("test", "outer"):
                sim.sleep(1.0)
                with tracer.span("test", "inner"):
                    sim.sleep(0.5)
                sim.sleep(0.25)

        with sim.Engine() as engine:
            engine.spawn(work, name="worker")
            engine.run()

        spans = {s.name: s for s in tracer.spans}
        outer, inner = spans["outer"], spans["inner"]
        assert outer.start == 0.0
        assert outer.duration == pytest.approx(1.75)
        assert inner.start == pytest.approx(1.0)
        assert inner.duration == pytest.approx(0.5)
        # Nesting depth is per track; the engine's own proc span wraps both.
        assert inner.depth == outer.depth + 1
        assert outer.track == "worker"
        # The engine's process span covers the whole body.
        proc = spans["proc:worker"]
        assert proc.category == "sim"
        assert proc.duration == pytest.approx(1.75)
        assert proc.depth == outer.depth - 1

    def test_engine_spawn_emits_instant(self, installed):
        with sim.Engine() as engine:
            engine.spawn(lambda: sim.sleep(0.1), name="p0")
            engine.run()
        instants = [i for i in installed.instants if i["name"] == "spawn"]
        assert instants and instants[0]["args"]["proc"] == "p0"
        assert instants[0]["ts"] == 0.0

    def test_tracing_never_advances_simulated_time(self, installed):
        def work():
            for _ in range(10):
                with installed.span("test", "tick"):
                    pass
            sim.sleep(2.0)

        with sim.Engine() as engine:
            engine.spawn(work, name="w")
            final = engine.run()
        assert final == pytest.approx(2.0)
        ticks = [s for s in installed.spans if s.name == "tick"]
        assert len(ticks) == 10
        assert all(s.duration == 0.0 for s in ticks)

    def test_wall_clock_falls_back_outside_sim(self):
        tracer = Tracer()
        with tracer.span("test", "outside"):
            pass
        (span,) = tracer.spans
        assert span.duration >= 0.0  # monotonic clock, not sim time


class TestDisabledPath:
    def test_disabled_tracer_returns_shared_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("x", "a")
        assert span is NULL_SPAN
        assert tracer.span("x", "b") is span  # one shared singleton
        span.set(k=1)
        span.finish()
        with span:
            pass
        tracer.instant("x", "i")
        tracer.gauge("x", "g", 1)
        assert tracer.spans == []
        assert tracer.instants == []
        assert tracer.gauges == []

    def test_uninstalled_global_is_none(self):
        assert runtime.TRACER is None
        assert runtime.TELEMETRY is None
        assert runtime.probe("x", "y", "x.y", k=1) is NULL_SPAN
        assert runtime.timer("x.y") is NULL_SPAN
        runtime.observe("x.y", 1.0)  # no-op, no error

    def test_install_uninstall_roundtrip(self):
        tracer = trace.install()
        assert runtime.TRACER is tracer
        assert trace.current_tracer() is tracer
        assert trace.current_metrics() is not None
        trace.uninstall()
        assert runtime.TRACER is None
        assert runtime.METRICS is None

    def test_session_context_manager(self):
        with trace.session() as tracer:
            assert runtime.TRACER is tracer
        assert runtime.TRACER is None


class TestRecording:
    def test_event_cap_counts_drops(self):
        tracer = Tracer(max_events=2)
        tracer.gauge("x", "g", 1)
        tracer.gauge("x", "g", 2)
        tracer.gauge("x", "g", 3)  # over the cap
        assert len(tracer.gauges) == 2
        assert tracer.dropped == 1

    def test_span_set_attaches_args(self):
        tracer = Tracer()
        span = tracer.span("lsm", "commit", group=2)
        span.set(nbytes=128, wal=False)
        span.finish()
        payload = tracer.to_payload()
        assert payload["spans"][0]["args"] == {
            "group": 2, "nbytes": 128, "wal": False,
        }

    def test_categories_and_clear(self):
        tracer = Tracer()
        tracer.span("pfs", "a").finish()
        tracer.span("lsm", "b").finish()
        assert tracer.categories() == ["lsm", "pfs"]
        tracer.clear()
        assert tracer.spans == [] and tracer.categories() == []

    def test_unfinished_spans_excluded_from_payload(self):
        tracer = Tracer()
        tracer.span("x", "open")  # never finished
        tracer.span("x", "done").finish()
        names = [s["name"] for s in tracer.to_payload()["spans"]]
        assert names == ["done"]

    def test_payload_carries_meta_and_metrics(self):
        tracer = Tracer()
        payload = tracer.to_payload(
            metrics={"a.b": 1}, meta={"fig": "fig5"}
        )
        assert payload["format"] == "repro-trace"
        assert payload["meta"] == {"fig": "fig5"}
        assert payload["metrics"] == {"a.b": 1}


@pytest.fixture
def tele_installed():
    tele = telemetry.install()
    yield tele
    telemetry.uninstall()


def _in_sim(body):
    with sim.Engine() as engine:
        engine.spawn(body, name="worker")
        engine.run()


class TestProbe:
    @pytest.mark.parametrize("with_tracer", [False, True])
    @pytest.mark.parametrize("with_tele", [False, True])
    def test_records_what_is_installed(self, with_tracer, with_tele):
        tracer = trace.install() if with_tracer else None
        tele = telemetry.install() if with_tele else None
        try:
            def body():
                sim.sleep(1.0)
                with runtime.probe("t", "work", "t.work", k=1):
                    sim.sleep(0.5)

            _in_sim(body)
        finally:
            trace.uninstall()
            telemetry.uninstall()
        if tracer is not None:
            (span,) = [s for s in tracer.spans if s.name == "work"]
            assert (span.category, span.start, span.duration) == ("t", 1.0, 0.5)
            assert span.args == {"k": 1} and span.track == "worker"
        if tele is not None:
            hist = tele.histograms["t.work"]
            assert (hist.count, hist.sum) == (1, 0.5)

    def test_nothing_installed_is_the_shared_null_span(self):
        assert runtime.probe("t", "a") is NULL_SPAN
        assert runtime.probe("t", "a", "t.a", k=1) is NULL_SPAN

    def test_histogram_only_without_a_key_is_the_null_span(self, tele_installed):
        assert runtime.probe("t", "a", k=1) is NULL_SPAN
        assert tele_installed.histograms == {}

    def test_tracer_only_hands_out_the_tracers_own_span(self, installed):
        span = runtime.probe("t", "a", "t.a", k=1)
        assert isinstance(span, Span) and span.tracer is installed
        span.finish()
        assert installed.spans == [span] and span.args == {"k": 1}

    def test_span_duration_equals_the_sample_on_the_wall_clock(
        self, installed, tele_installed
    ):
        with runtime.probe("t", "wall", "t.wall"):
            sum(range(1000))
        (span,) = installed.spans
        hist = tele_installed.histograms["t.wall"]
        assert hist.count == 1 and hist.sum == span.duration > 0.0

    def test_span_duration_equals_the_sample_on_the_sim_clock(
        self, installed, tele_installed
    ):
        def body():
            sim.sleep(0.3)
            with runtime.probe("t", "sim", "t.sim"):
                sim.sleep(0.7)

        _in_sim(body)
        (span,) = [s for s in installed.spans if s.name == "sim"]
        assert tele_installed.histograms["t.sim"].sum == span.duration

    def test_an_exception_still_records_both(self, installed, tele_installed):
        def body():
            with runtime.probe("t", "boom", "t.boom"):
                sim.sleep(0.25)
                raise ValueError("boom")

        def guarded():
            with pytest.raises(ValueError):
                body()
            probe = runtime.probe("t", "manual", "t.manual")
            try:
                sim.sleep(0.5)
                raise KeyError("manual")
            except KeyError:
                pass
            finally:
                probe.finish()

        _in_sim(guarded)
        spans = {s.name: s for s in installed.spans}
        assert spans["boom"].duration == 0.25
        assert spans["manual"].duration == 0.5
        assert tele_installed.histograms["t.boom"].sum == 0.25
        assert tele_installed.histograms["t.manual"].sum == 0.5

    @pytest.mark.parametrize("with_tracer", [False, True])
    def test_set_after_open(self, with_tracer, tele_installed):
        tracer = trace.install() if with_tracer else None
        try:
            with runtime.probe("t", "late", "t.late", a=1) as probe:
                assert probe.set(b=2) is probe
        finally:
            trace.uninstall()
        if tracer is not None:
            assert tracer.spans[0].args == {"a": 1, "b": 2}
        assert tele_installed.histograms["t.late"].count == 1

    def test_timer_and_observe_feed_histograms_only(
        self, installed, tele_installed
    ):
        def body():
            with runtime.timer("t.timer"):
                sim.sleep(2.0)
            runtime.observe("t.point", 0.125)

        _in_sim(body)
        assert [s.name for s in installed.spans] == ["proc:worker"]
        assert tele_installed.histograms["t.timer"].sum == 2.0
        assert tele_installed.histograms["t.point"].sum == 0.125


# -- structural guard: recording goes through the probe -------------------

#: packages that implement recording and may touch the recorders directly
_RECORDERS = ("repro.trace", "repro.telemetry")


def _offences(tree: ast.AST) -> list[str]:
    """Direct span opens, TELEMETRY reads and ``tele.observe`` calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "span":
                found.append(f"line {node.lineno}: .span(")
            if (
                func.attr == "observe"
                and isinstance(func.value, ast.Name)
                and func.value.id == "tele"
            ):
                found.append(f"line {node.lineno}: tele.observe(")
        if isinstance(node, ast.Attribute) and node.attr == "TELEMETRY":
            found.append(f"line {node.lineno}: .TELEMETRY")
        if isinstance(node, ast.ImportFrom) and any(
            alias.name == "TELEMETRY" for alias in node.names
        ):
            found.append(f"line {node.lineno}: import TELEMETRY")
    return found


def test_guard_recognises_each_offence():
    snippet = (
        "tracer.span('a', 'b')\n"
        "tele = _trace.TELEMETRY\n"
        "tele.observe('k', 1.0)\n"
        "from repro.trace.runtime import TELEMETRY\n"
        "pacer.observe(version)\n"
        "_trace.probe('a', 'b', 'a.b')\n"
    )
    assert len(_offences(ast.parse(snippet))) == 4


def test_instrumented_code_records_only_through_the_probe():
    scanned, offenders = 0, {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.startswith(_RECORDERS):
            continue
        module = importlib.import_module(info.name)
        tree = ast.parse(inspect.getsource(module))
        scanned += 1
        found = _offences(tree)
        if found:
            offenders[info.name] = found
    assert not offenders, (
        "open intervals with repro.trace.runtime.probe/timer and record "
        f"point values with observe: {offenders}"
    )
    assert scanned >= 80  # the walk really saw the stack

