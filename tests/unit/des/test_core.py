"""Unit tests for the DES kernel core: Environment, Event, Process."""

import pytest

from repro.des import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
)


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(42.5)
    assert env.now == 42.5


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.0)
        assert env.now == 3.0
        yield env.timeout(1.5)
        assert env.now == 4.5

    env.process(proc())
    env.run()
    assert env.now == 4.5


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1, value="payload")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_process_return_value_becomes_event_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return 99

    p = env.process(proc())
    result = env.run(until=p)
    assert result == 99


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_raises():
    env = Environment(5)
    with pytest.raises(ValueError):
        env.run(until=3)

def test_step_on_empty_schedule_raises():
    """An empty schedule ends run() at once; awaiting an event there raises."""
    env = Environment(3.0)
    assert env.run() is None
    assert env.now == 3.0 and env.events_processed == 0
    with pytest.raises(SimulationError):
        env.run(until=env.event())


def test_run_returns_none_when_events_exhausted():
    env = Environment()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    assert env.run() is None


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(3, "c"))
    env.process(waiter(1, "a"))
    env.process(waiter(2, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def waiter(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(tag))
    env.run()
    assert order == list("abcd")


def test_event_succeed_delivers_value():
    env = Environment()
    event = env.event()
    got = []

    def waiter():
        got.append((yield event))

    def trigger():
        yield env.timeout(2)
        event.succeed("done")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert got == ["done"]


def test_event_fail_raises_in_waiter():
    env = Environment()
    event = env.event()
    caught = []

    def waiter():
        try:
            yield event
        except RuntimeError as exc:
            caught.append(str(exc))

    def trigger():
        yield env.timeout(1)
        event.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert caught == ["boom"]


def test_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_trigger_on_already_triggered_event_rejected():
    # Regression: trigger() used as a chaining callback must refuse a
    # second firing just like succeed()/fail() do, instead of silently
    # rescheduling the event and overwriting its value.
    env = Environment()
    source = env.event()
    source.succeed("first")
    chained = env.event()
    chained.trigger(source)
    with pytest.raises(RuntimeError, match="already been triggered"):
        chained.trigger(source)
    assert chained.value == "first"


@pytest.mark.parametrize("delay", [float("nan"), float("inf")])
def test_non_finite_timeout_rejected(delay):
    # Regression: a NaN/inf delay would poison the heap ordering of
    # every event scheduled after it.
    env = Environment()
    with pytest.raises(ValueError, match="non-finite"):
        env.timeout(delay)


def test_unhandled_process_exception_propagates_to_run():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("kaput")

    env.process(proc())
    with pytest.raises(ValueError, match="kaput"):
        env.run()


def test_waiting_on_failed_process_rethrows():
    env = Environment()

    def inner():
        yield env.timeout(1)
        raise ValueError("inner error")

    caught = []

    def outer():
        try:
            yield env.process(inner())
        except ValueError as exc:
            caught.append(str(exc))

    env.process(outer())
    env.run()
    assert caught == ["inner error"]


def test_yielding_non_event_fails_the_process():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_yield_already_processed_event_continues_immediately():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()  # processes the event
    got = []

    def proc():
        got.append((yield event))
        yield env.timeout(1)
        got.append(env.now)

    env.process(proc())
    env.run()
    assert got == ["early", 1]


def test_interrupt_delivers_cause():
    env = Environment()
    causes = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt as exc:
            causes.append(exc.cause)
            assert env.now == 5

    def attacker(v):
        yield env.timeout(5)
        v.interrupt("wake up")

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert causes == ["wake up"]


def test_interrupted_process_can_continue():
    env = Environment()
    trace = []

    def victim():
        try:
            yield env.timeout(100)
        except Interrupt:
            trace.append(("interrupted", env.now))
        yield env.timeout(10)
        trace.append(("done", env.now))

    def attacker(v):
        yield env.timeout(5)
        v.interrupt()

    v = env.process(victim())
    env.process(attacker(v))
    env.run()
    assert trace == [("interrupted", 5), ("done", 15)]


def test_interrupt_dead_process_raises():
    env = Environment()

    def victim():
        yield env.timeout(1)

    v = env.process(victim())
    env.run()
    with pytest.raises(RuntimeError):
        v.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()

    def proc():
        with pytest.raises(RuntimeError):
            env.active_process.interrupt()
        yield env.timeout(0)

    env.process(proc())
    env.run()


def test_is_alive_lifecycle():
    env = Environment()

    def proc():
        yield env.timeout(5)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_active_process_is_none_between_events():
    env = Environment()
    assert env.active_process is None

    def proc():
        assert env.active_process is not None
        yield env.timeout(1)

    env.process(proc())
    env.run()
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.timeout(3)
    assert env.peek() == 3


def test_peek_empty_is_inf():
    env = Environment()
    assert env.peek() == float("inf")


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    event = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=event)


def test_nested_process_chain():
    env = Environment()

    def leaf():
        yield env.timeout(2)
        return "leaf-result"

    def mid():
        value = yield env.process(leaf())
        return f"mid({value})"

    def top():
        value = yield env.process(mid())
        return f"top({value})"

    p = env.process(top())
    assert env.run(until=p) == "top(mid(leaf-result))"
    assert env.now == 2
