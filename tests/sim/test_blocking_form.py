"""The one-body rule: ``X = sim.blocking_form(X_lw)``.

Part (a) pins what a derived blocking entry point does; part (b) walks
the package and fails if a generator ``X_lw`` ever grows a hand-written
blocking sibling ``X`` again.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import sim
from repro.errors import SimulationError


def _run_thread(fn, *args):
    with sim.Engine() as engine:
        handle = engine.spawn(fn, *args)
        final = engine.run()
        return handle.result, final, engine._heap_pushes


# -- (a) the contract ---------------------------------------------------------


def test_returns_the_generators_return_value():
    def double_lw(x):
        yield 1.5
        return 2 * x

    double = sim.blocking_form(double_lw)
    assert _run_thread(double, 21)[:2] == (42, 1.5)


def test_a_body_that_never_parks_needs_no_engine_round_trip():
    def peek_lw(box):
        return box[0]
        yield  # pragma: no cover — makes this a generator

    result, final, pushes = _run_thread(sim.blocking_form(peek_lw), ["v"])
    assert (result, final) == ("v", 0.0)
    assert pushes == 1  # the spawn itself


def test_propagates_an_exception_raised_in_the_body():
    def boom_lw():
        yield 0.25
        raise KeyError("from the body")

    with pytest.raises(KeyError, match="from the body"):
        _run_thread(sim.blocking_form(boom_lw))


def test_failed_event_is_thrown_into_the_body_as_a_replica():
    original = ValueError("disk on fire")
    with sim.Engine() as engine:
        event = sim.Event(engine, name="doomed")

        def guarded_lw():
            try:
                yield event
            except ValueError as exc:
                return exc

        def failer():
            sim.sleep(1.0)
            event.fail(original)

        handle = engine.spawn(sim.blocking_form(guarded_lw))
        engine.spawn(failer)
        engine.run()
    caught = handle.result
    assert type(caught) is ValueError and caught.args == original.args
    assert caught is not original and caught.__cause__ is original


def test_rejects_a_negative_delay_inside_the_body():
    def backwards_lw():
        try:
            yield -1.0
        except SimulationError as exc:
            return str(exc)

    result, final, _ = _run_thread(sim.blocking_form(backwards_lw))
    assert "negative sleep" in result and final == 0.0


def test_same_result_time_and_heap_pushes_as_spawn_light():
    def traffic_lw(engine, n):
        gate = sim.Event(engine, name="gate")

        def opener():
            yield 0.75
            gate.succeed("open")

        engine.spawn_light(opener)
        total = 0.0
        for i in range(n):
            yield 0.125 * i
            total += sim.now()
        return (yield gate), total

    with sim.Engine() as engine:
        handle = engine.spawn_light(traffic_lw, engine, 4)
        final = engine.run()
        light = handle.result, final, engine._heap_pushes
    with sim.Engine() as engine:
        handle = engine.spawn(sim.blocking_form(traffic_lw), engine, 4)
        final = engine.run()
        thread = handle.result, final, engine._heap_pushes
    assert thread == light


def test_binds_as_a_method_and_holds_the_function_not_the_attribute():
    class Box:
        def __init__(self, value):
            self.value = value

        def take_lw(self, extra=0):
            """Take the value."""
            yield 0.5
            return self.value + extra

        take = sim.blocking_form(take_lw)

    original = Box.__dict__["take_lw"]
    assert Box.take.__name__ == "take"
    assert Box.take.__qualname__.endswith("Box.take")
    assert Box.take.__module__ == __name__
    assert Box.take.__wrapped__ is original
    assert not inspect.isgeneratorfunction(Box.take)
    assert str(inspect.signature(Box.take)) == "(self, extra=0)"

    def hijacked_lw(self, extra=0):
        raise AssertionError("the blocking form must not look take_lw up")
        yield

    Box.take_lw = hijacked_lw
    assert _run_thread(Box(40).take, 2)[:2] == (42, 0.5)


# -- (b) the structural guard -------------------------------------------------

_BLOCKING_CODE = sim.blocking_form(lambda: (yield)).__code__

#: the one blocking sibling that is not ``blocking_form(X_lw)``: its ``run``
#: argument is a blocking callable where ``submit_lw`` takes a generator
#: factory, so it adapts the argument and then drives ``submit_lw`` itself.
_ADAPTERS = {"repro.io.scheduler.IoScheduler.submit"}


def _namespaces():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        yield info.name, vars(module)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == info.name:
                yield f"{info.name}.{name}", vars(value)


def _raw(value):
    return getattr(value, "__func__", value)  # static/classmethod -> function


def _all_names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _all_names(const)
    return names


def test_every_lw_generator_has_at_most_a_derived_blocking_sibling():
    derived, offenders = [], []
    for owner, namespace in _namespaces():
        for name, value in namespace.items():
            genfn = _raw(value)
            if not (
                name.endswith("_lw") and inspect.isgeneratorfunction(genfn)
            ):
                continue
            sibling = namespace.get(name[: -len("_lw")])
            if sibling is None:
                continue
            sibling = _raw(sibling)
            where = f"{owner}.{name[:-3]}"
            if (
                getattr(sibling, "__code__", None) is _BLOCKING_CODE
                and sibling.__wrapped__ is genfn
            ):
                derived.append(where)
            elif where in _ADAPTERS:
                names = _all_names(sibling.__code__)
                assert {"run_blocking", name} <= names, where
                assert not {"sleep", "wait"} & names, where
            else:
                offenders.append(where)
    assert not offenders, (
        "hand-written blocking twins (use X = sim.blocking_form(X_lw)): "
        f"{offenders}"
    )
    # the walk really saw the stack: sim, io, mpi, pfs, core.enumeration
    assert len(derived) >= 28
    for expected in (
        "repro.sim.resources.Store.get",
        "repro.io.scheduler.RateLimiter.throttle",
        "repro.mpi.comm.Communicator.barrier",
        "repro.pfs.client.LustreClient.writev",
        "repro.pfs.ost.Ost.serve",
        "repro.core.enumeration.readdir_storm",
    ):
        assert expected in derived
